//! End-to-end tests of the `sgtool` command-line front end.

use std::path::PathBuf;
use std::process::{Command, Output};

fn sgtool(args: &[&str]) -> Output {
    sgtool_env(args, &[])
}

fn sgtool_env(args: &[&str], envs: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sgtool"))
        .args(args)
        .envs(envs.iter().copied())
        .output()
        .expect("failed to run sgtool")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sgtool-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn compress_info_eval_roundtrip() {
    let file = temp_path("roundtrip.sgc");
    let f = file.to_str().unwrap();

    let o = sgtool(&[
        "compress",
        "--dims",
        "3",
        "--level",
        "5",
        "--function",
        "parabola",
        "--out",
        f,
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("351 points"), "{}", stdout(&o));

    let o = sgtool(&["info", f]);
    assert!(o.status.success());
    let s = stdout(&o);
    assert!(s.contains("dimensionality : 3"));
    assert!(s.contains("points         : 351"));
    assert!(s.contains("integral"));

    // The parabola peaks at 1 in the centre, exactly interpolated.
    let o = sgtool(&["eval", f, "0.5,0.5,0.5"]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("= 1.0000000000"), "{}", stdout(&o));

    let o = sgtool(&["integrate", f]);
    assert!(o.status.success());
    let integral: f64 = stdout(&o).trim().parse().unwrap();
    // ∫ (4x(1−x))³ ≈ (2/3)³ at this resolution.
    assert!(
        (integral - (2.0f64 / 3.0).powi(3)).abs() < 0.01,
        "{integral}"
    );

    let o = sgtool(&[
        "slice",
        f,
        "--axes",
        "0,1",
        "--at",
        "0.5,0.5,0.5",
        "--width",
        "20",
    ]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("axes x=0 y=1"));

    std::fs::remove_file(&file).ok();
}

#[test]
fn rejects_bad_inputs() {
    let o = sgtool(&["eval", "/nonexistent/grid.sgc", "0.5"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("cannot read"));

    let o = sgtool(&[
        "compress",
        "--dims",
        "2",
        "--level",
        "4",
        "--function",
        "nope",
        "--out",
        "/tmp/x.sgc",
    ]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("unknown function"));

    // Invalid grid shapes exit cleanly rather than panicking.
    let o = sgtool(&[
        "compress",
        "--dims",
        "0",
        "--level",
        "3",
        "--function",
        "parabola",
        "--out",
        "/tmp/x.sgc",
    ]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("dimension must be at least 1"));
    let o = sgtool(&[
        "compress",
        "--dims",
        "2",
        "--level",
        "40",
        "--function",
        "parabola",
        "--out",
        "/tmp/x.sgc",
    ]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("level above 31"));

    let o = sgtool(&["frobnicate"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("unknown command"));

    let o = sgtool(&[]);
    assert!(!o.status.success());
}

#[test]
fn eval_validates_points() {
    let file = temp_path("validate.sgc");
    let f = file.to_str().unwrap();
    let o = sgtool(&[
        "compress",
        "--dims",
        "2",
        "--level",
        "3",
        "--function",
        "parabola",
        "--out",
        f,
    ]);
    assert!(o.status.success());

    // Wrong arity.
    let o = sgtool(&["eval", f, "0.5,0.5,0.5"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("coordinates"));

    // Out of domain.
    let o = sgtool(&["eval", f, "0.5,1.5"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("unit domain"));

    std::fs::remove_file(&file).ok();
}

#[test]
fn detects_corrupt_files() {
    let file = temp_path("corrupt.sgc");
    let f = file.to_str().unwrap();
    let o = sgtool(&[
        "compress",
        "--dims",
        "2",
        "--level",
        "3",
        "--function",
        "gaussian",
        "--out",
        f,
    ]);
    assert!(o.status.success());

    let mut blob = std::fs::read(&file).unwrap();
    let mid = blob.len() / 2;
    blob[mid] ^= 0xFF;
    std::fs::write(&file, &blob).unwrap();

    let o = sgtool(&["info", f]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("checksum"), "{}", stderr(&o));

    std::fs::remove_file(&file).ok();
}

#[test]
fn flags_before_the_file_and_one_dimensional_eval() {
    let file = temp_path("flags.sgc");
    let f = file.to_str().unwrap();
    let o = sgtool(&[
        "compress",
        "--dims",
        "1",
        "--level",
        "4",
        "--function",
        "parabola",
        "--out",
        f,
    ]);
    assert!(o.status.success(), "{}", stderr(&o));

    // Flag value before the positional file must not be mistaken for it.
    let o = sgtool(&["eval", "--unused-flag", "value", f, "0.5"]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("= 1.0000000000"), "{}", stdout(&o));

    // 1-d grids take bare-number points (no comma).
    let o = sgtool(&["eval", f, "0.25"]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("u(0.25)"));

    std::fs::remove_file(&file).ok();
}

#[test]
fn render_writes_a_valid_ppm() {
    let file = temp_path("render.sgc");
    let img = temp_path("render.ppm");
    let f = file.to_str().unwrap();
    let o = sgtool(&[
        "compress",
        "--dims",
        "3",
        "--level",
        "4",
        "--function",
        "gaussian",
        "--out",
        f,
    ]);
    assert!(o.status.success());

    let o = sgtool(&[
        "render",
        f,
        "--out",
        img.to_str().unwrap(),
        "--axes",
        "0,2",
        "--width",
        "32",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let bytes = std::fs::read(&img).unwrap();
    assert!(bytes.starts_with(b"P6\n32 32\n255\n"));
    assert_eq!(bytes.len(), b"P6\n32 32\n255\n".len() + 32 * 32 * 3);
    // The Gaussian peaks in the centre: the centre pixel must be brighter
    // (more yellow/red channel) than the corner.
    let pix = |row: usize, col: usize| {
        let off = b"P6\n32 32\n255\n".len() + (row * 32 + col) * 3;
        bytes[off] as u32 + bytes[off + 1] as u32 + bytes[off + 2] as u32
    };
    assert!(pix(16, 16) > pix(0, 0), "centre must out-shine the corner");

    std::fs::remove_file(&file).ok();
    std::fs::remove_file(&img).ok();
}

#[test]
fn metrics_json_flag_writes_a_telemetry_report() {
    let file = temp_path("metrics.sgc");
    let metrics = temp_path("metrics.json");
    let f = file.to_str().unwrap();
    let m = metrics.to_str().unwrap();

    // The flag is global: it may appear before the subcommand arguments.
    let o = sgtool(&[
        "compress",
        "--metrics-json",
        m,
        "--dims",
        "3",
        "--level",
        "5",
        "--function",
        "parabola",
        "--out",
        f,
    ]);
    assert!(o.status.success(), "{}", stderr(&o));

    let text = std::fs::read_to_string(&metrics).unwrap();
    let report = sg_json::parse(&text).expect("metrics file must be valid JSON");
    let counters = report
        .get("counters")
        .expect("report has a counters section");
    let idx2gp = counters
        .get("core.bijection.idx2gp_calls")
        .and_then(|v| v.as_f64())
        .expect("idx2gp call counter present");
    assert!(
        idx2gp > 0.0,
        "compressing a grid must exercise the bijection"
    );
    assert!(report.get("spans").is_some(), "report has a spans section");
    assert!(
        report.get("histograms").is_some(),
        "report has a histograms section"
    );
    let prov = report.get("provenance").expect("report carries provenance");
    assert!(prov.get("timestamp_utc").and_then(|v| v.as_str()).is_some());
    assert!(prov.get("threads").and_then(|v| v.as_f64()).is_some());
    assert!(
        report.get("regions").is_some(),
        "report has a regions section"
    );

    // Commands that fail must not write a metrics file.
    let bogus = temp_path("metrics-bogus.json");
    let o = sgtool(&[
        "info",
        "/nonexistent/grid.sgc",
        "--metrics-json",
        bogus.to_str().unwrap(),
    ]);
    assert!(!o.status.success());
    assert!(!bogus.exists(), "no metrics on failure");

    std::fs::remove_file(&file).ok();
    std::fs::remove_file(&metrics).ok();
}

#[test]
fn unknown_sg_kernel_is_a_usage_error_not_a_panic() {
    let o = sgtool_env(&["help"], &[("SG_KERNEL", "bogus")]);
    assert_eq!(o.status.code(), Some(2), "{}", stderr(&o));
    let e = stderr(&o);
    assert!(
        e.contains("SG_KERNEL") && e.contains("bogus"),
        "error must name the variable and the bad value: {e}"
    );
    // A structurally valid but unavailable ISA is also a clean exit 2.
    let absent = if cfg!(target_arch = "x86_64") {
        "neon"
    } else {
        "avx2"
    };
    let o = sgtool_env(&["help"], &[("SG_KERNEL", absent)]);
    assert_eq!(o.status.code(), Some(2), "{}", stderr(&o));
    assert!(stderr(&o).contains("not available"), "{}", stderr(&o));
}

#[test]
fn sg_kernel_selection_is_honored_and_stamped_into_provenance() {
    let file = temp_path("kernel-prov.sgc");
    let f = file.to_str().unwrap();
    let base = [
        "compress",
        "--dims",
        "3",
        "--level",
        "5",
        "--function",
        "parabola",
        "--out",
        f,
    ];

    // Forced scalar: accepted everywhere, stamped verbatim.
    let metrics = temp_path("kernel-prov-scalar.json");
    let m = metrics.to_str().unwrap();
    let mut args = base.to_vec();
    args.extend_from_slice(&["--metrics-json", m]);
    let o = sgtool_env(&args, &[("SG_KERNEL", "scalar")]);
    assert!(o.status.success(), "{}", stderr(&o));
    let report = sg_json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert_eq!(
        report["provenance"]["kernel"].as_str(),
        Some("scalar"),
        "provenance must record the forced kernel"
    );
    std::fs::remove_file(&metrics).ok();

    // Auto (default): the stamp is whatever the host dispatched — one of
    // the known kernel names, and on x86-64 with AVX2 specifically avx2.
    let metrics = temp_path("kernel-prov-auto.json");
    let m = metrics.to_str().unwrap();
    let mut args = base.to_vec();
    args.extend_from_slice(&["--metrics-json", m]);
    let o = sgtool_env(&args, &[("SG_KERNEL", "auto")]);
    assert!(o.status.success(), "{}", stderr(&o));
    let report = sg_json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let kernel = report["provenance"]["kernel"].as_str().unwrap().to_string();
    assert!(
        ["scalar", "avx2", "neon"].contains(&kernel.as_str()),
        "unexpected kernel stamp {kernel:?}"
    );
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        assert_eq!(kernel, "avx2", "AVX2 host must auto-dispatch avx2");
    }
    std::fs::remove_file(&metrics).ok();
    std::fs::remove_file(&file).ok();
}

#[test]
fn profile_emits_valid_trace_and_summary() {
    let trace = temp_path("profile-trace.json");
    let t = trace.to_str().unwrap();
    let workers = 2u64;

    let o = Command::new(env!("CARGO_BIN_EXE_sgtool"))
        .args([
            "profile", "--dims", "3", "--level", "4", "--points", "256", "--out", t,
        ])
        .env("SG_PAR_THREADS", workers.to_string())
        .output()
        .expect("failed to run sgtool");
    assert!(o.status.success(), "{}", stderr(&o));

    // Summary must expose the load-imbalance diagnosis.
    let s = stdout(&o);
    assert!(s.contains("imbalance"), "{s}");
    assert!(s.contains("latency histograms"), "{s}");

    // The trace file is valid Trace Event Format: complete events with
    // ph/ts/dur/tid, at least one per worker thread and the coordinator.
    let text = std::fs::read_to_string(&trace).unwrap();
    let doc = sg_json::parse(&text).expect("trace file must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("trace has a traceEvents array");
    assert!(!events.is_empty());
    let mut tids_seen = std::collections::BTreeSet::new();
    for ev in events {
        assert_eq!(ev.get("ph").and_then(|v| v.as_str()), Some("X"), "{ev:?}");
        let ts = ev.get("ts").and_then(|v| v.as_f64()).expect("ts present");
        let dur = ev.get("dur").and_then(|v| v.as_f64()).expect("dur present");
        assert!(ts >= 0.0 && dur >= 0.0);
        let tid = ev.get("tid").and_then(|v| v.as_f64()).expect("tid present") as u64;
        assert!(tid <= workers, "tid {tid} out of range");
        tids_seen.insert(tid);
        assert!(ev.get("name").and_then(|v| v.as_str()).is_some());
    }
    for tid in 0..=workers {
        assert!(tids_seen.contains(&tid), "no events for thread {tid}");
    }

    // The sg metadata key carries regions and provenance.
    let sg = doc.get("sg").expect("sg metadata present");
    assert!(sg.get("provenance").is_some());
    let regions = sg.get("regions").and_then(|r| r.as_object()).unwrap();
    assert!(!regions.is_empty(), "regions report must not be empty");
    for (key, stat) in regions {
        assert!(
            stat.get("imbalance").and_then(|v| v.as_f64()).is_some(),
            "region {key} lacks an imbalance ratio"
        );
    }

    std::fs::remove_file(&trace).ok();
}

#[test]
fn profile_failure_writes_no_trace() {
    let trace = temp_path("profile-bad.json");
    let o = sgtool(&[
        "profile",
        "--dims",
        "3",
        "--level",
        "4",
        "--function",
        "nope",
        "--out",
        trace.to_str().unwrap(),
    ]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("unknown function"));
    assert!(!trace.exists(), "no trace on failure");
}

#[test]
fn help_prints_usage() {
    let o = sgtool(&["--help"]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("usage:"));
}

fn exit_code(o: &Output) -> i32 {
    o.status.code().expect("sgtool terminated by signal")
}

#[test]
fn exit_codes_are_pinned() {
    // 2 — usage errors: bad invocation, not bad data.
    assert_eq!(exit_code(&sgtool(&[])), 2);
    assert_eq!(exit_code(&sgtool(&["frobnicate"])), 2);
    assert_eq!(exit_code(&sgtool(&["checkpoint"])), 2, "missing --out");
    assert_eq!(exit_code(&sgtool(&["restore"])), 2, "missing snapshot");
    assert_eq!(exit_code(&sgtool(&["verify"])), 2, "missing snapshot");
    assert_eq!(exit_code(&sgtool(&["eval"])), 2, "missing grid file");

    // A shape whose point count overflows u64 is a diagnostic, not a
    // panic (regression for the old `expect("grid point count overflows
    // u64")` path).
    let o = sgtool(&[
        "compress",
        "--dims",
        "60",
        "--level",
        "31",
        "--out",
        "/tmp/never.sgc",
    ]);
    assert_eq!(exit_code(&o), 2, "{}", stderr(&o));
    assert!(stderr(&o).contains("grid too large"), "{}", stderr(&o));

    // 4 — the operating system failed us.
    assert_eq!(exit_code(&sgtool(&["info", "/nonexistent/grid.sgc"])), 4);
    assert_eq!(exit_code(&sgtool(&["verify", "/nonexistent/snap"])), 4);
    assert_eq!(
        exit_code(&sgtool(&[
            "restore",
            "/nonexistent/snap",
            "--out",
            "/tmp/x"
        ])),
        4
    );

    // 3 — corrupt data, with a one-line stderr diagnostic.
    let file = temp_path("pinned-corrupt.sgc");
    std::fs::write(&file, b"this is not a grid file").unwrap();
    let o = sgtool(&["info", file.to_str().unwrap()]);
    assert_eq!(exit_code(&o), 3);
    let err = stderr(&o);
    assert_eq!(err.lines().count(), 1, "one-line diagnostic, got: {err}");
    assert!(err.starts_with("sgtool: "), "{err}");
    std::fs::remove_file(&file).ok();
}

/// `profile`, `flight` and `divergence` parse shape, function and
/// numeric flags through the same checked path as `compress`: every bad
/// input is a usage error (exit 2) with a one-line diagnostic, never a
/// panic or a generic failure.
#[test]
fn workload_commands_map_bad_input_to_usage_errors() {
    let out = temp_path("bad-workload.json");
    let out = out.to_str().unwrap();
    let rows: &[(&str, &[&str], &str)] = &[
        ("profile", &["--dims", "abc"], "bad --dims"),
        ("flight", &["--dims", "abc"], "bad --dims"),
        ("divergence", &["--dims", "abc"], "bad --dims"),
        ("profile", &["--function", "nope"], "unknown function"),
        ("flight", &["--function", "nope"], "unknown function"),
        ("divergence", &["--function", "nope"], "unknown function"),
        (
            "profile",
            &["--dims", "60", "--level", "31"],
            "grid too large",
        ),
        (
            "flight",
            &["--dims", "60", "--level", "31"],
            "grid too large",
        ),
        (
            "divergence",
            &["--dims", "60", "--level", "31"],
            "grid too large",
        ),
        ("flight", &["--dims", "33", "--level", "1"], "Halton"),
        ("divergence", &["--dims", "33", "--level", "1"], "Halton"),
        ("profile", &["--points", "-1"], "bad --points"),
        ("flight", &["--interval-ms", "soon"], "bad --interval-ms"),
        ("divergence", &["--top", "1.5"], "bad --top"),
    ];
    for (cmd, flags, expect) in rows {
        let mut args = vec![*cmd, "--out", out];
        args.extend_from_slice(flags);
        let o = sgtool(&args);
        let err = stderr(&o);
        assert_eq!(exit_code(&o), 2, "{args:?}: {err}");
        assert_eq!(
            err.lines().count(),
            1,
            "{args:?}: one-line diagnostic, got: {err}"
        );
        assert!(
            err.starts_with("sgtool: ") && err.contains(expect),
            "{args:?}: {err}"
        );
    }
    assert!(!std::path::Path::new(out).exists(), "no output on failure");
}

#[test]
fn checkpoint_restore_verify_flow() {
    let snap = temp_path("flow.sgcs");
    let plain = temp_path("flow.sgc");
    let restored = temp_path("flow-restored.sgc");
    let s = snap.to_str().unwrap();
    let p = plain.to_str().unwrap();
    let r = restored.to_str().unwrap();

    // Checkpoint straight from a function.
    let o = sgtool(&[
        "checkpoint",
        "--dims",
        "3",
        "--level",
        "4",
        "--function",
        "gaussian",
        "--out",
        s,
        "--provenance",
        "cli-test",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));

    // Pristine snapshot: verify exits 0 and reports every section intact.
    let o = sgtool(&["verify", s]);
    assert_eq!(exit_code(&o), 0, "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("all 4 sections intact"), "{out}");
    assert!(out.contains("cli-test"), "provenance surfaced: {out}");

    // Snapshots are first-class grid files: info/eval sniff the format.
    let o = sgtool(&["info", s]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("points         : 111"));

    // Restore the intact snapshot to SGC1 and cross-check against a
    // direct compress of the same function: bitwise identical.
    let o = sgtool(&["restore", s, "--out", r]);
    assert_eq!(exit_code(&o), 0, "{}", stderr(&o));
    let o = sgtool(&[
        "compress",
        "--dims",
        "3",
        "--level",
        "4",
        "--function",
        "gaussian",
        "--out",
        p,
    ]);
    assert!(o.status.success());
    assert_eq!(
        std::fs::read(&restored).unwrap(),
        std::fs::read(&plain).unwrap(),
        "restore must reproduce the directly-compressed grid bitwise"
    );

    // Damage one section: verify and bare restore exit 3 naming the lost
    // group; restore --function rebuilds it exactly.
    let mut bytes = std::fs::read(&snap).unwrap();
    let n = bytes.len();
    bytes[n / 2] ^= 0x20; // lands in a section payload
    std::fs::write(&snap, &bytes).unwrap();

    let o = sgtool(&["verify", s]);
    assert_eq!(exit_code(&o), 3, "{}", stderr(&o));
    assert!(stderr(&o).contains("level groups"), "{}", stderr(&o));

    let o = sgtool(&["restore", s, "--out", r]);
    assert_eq!(exit_code(&o), 3, "{}", stderr(&o));
    assert!(stderr(&o).contains("lost"), "{}", stderr(&o));

    let o = sgtool(&["restore", s, "--out", r, "--function", "gaussian"]);
    assert_eq!(exit_code(&o), 0, "{}", stderr(&o));
    assert!(stdout(&o).contains("rebuilding lost level groups"));
    assert_eq!(
        std::fs::read(&restored).unwrap(),
        std::fs::read(&plain).unwrap(),
        "repair must be bitwise exact"
    );

    // Checkpointing an existing SGC1 file round-trips too.
    let o = sgtool(&["checkpoint", p, "--out", s]);
    assert!(o.status.success(), "{}", stderr(&o));
    let o = sgtool(&["verify", s]);
    assert_eq!(exit_code(&o), 0);

    std::fs::remove_file(&snap).ok();
    std::fs::remove_file(&plain).ok();
    std::fs::remove_file(&restored).ok();
}

/// Run `sgtool fuzz --faults SPEC` (no differential or schedule pass)
/// and return its stdout and the campaign's `faults` report section.
fn fault_campaign(spec: &str, seed_base: &str) -> (String, sg_json::Value) {
    let json = temp_path(&format!(
        "faults-{}.json",
        spec.replace([':', '=', ','], "-")
    ));
    let j = json.to_str().unwrap();
    let args = [
        "fuzz",
        "--budget-cases",
        "0",
        "--sched-interleavings",
        "0",
        "--faults",
        spec,
        "--seed-base",
        seed_base,
        "--json",
        j,
    ];
    let o = sgtool(&args);
    assert!(o.status.success(), "{spec}: {}", stderr(&o));
    let doc = sg_json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
    std::fs::remove_file(&json).ok();
    let campaign = spec.split([':', '=']).next().unwrap();
    let section = doc
        .get("faults")
        .and_then(|f| f.get(campaign))
        .unwrap_or_else(|| panic!("faults.{campaign} section"))
        .clone();
    (stdout(&o), section)
}

/// The shared per-campaign report schema: every fault accounted for, no
/// violations, the seed base stamped, the campaign's classes all listed.
fn assert_campaign_schema(r: &sg_json::Value, cases: f64, classes: usize, seed_base: &str) {
    let num = |k: &str| {
        r.get(k)
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("{k}"))
    };
    assert_eq!(num("cases"), cases);
    assert_eq!(
        num("full_recoveries") + num("partial_recoveries") + num("clean_errors"),
        cases,
        "every fault accounted for"
    );
    assert_eq!(r.get("seed_base").and_then(|v| v.as_str()), Some(seed_base));
    let violations = r.get("violations").and_then(|v| v.as_array()).unwrap();
    assert!(violations.is_empty(), "{violations:?}");
    let per_class = r.get("per_class").and_then(|v| v.as_object()).unwrap();
    assert_eq!(per_class.len(), classes, "every class listed");
    assert!(r.get("counts").and_then(|v| v.as_object()).is_some());
}

#[test]
fn fuzz_snapshot_faults_writes_schema_complete_report() {
    let (out, sf) = fault_campaign("snapshot=21", "0x5eed");
    assert!(out.contains("snapshot faults: 21 injected"), "{out}");
    assert_campaign_schema(&sf, 21.0, 8, "0x5eed");
}

#[test]
fn fuzz_combination_faults_writes_schema_complete_report() {
    let (out, cf) = fault_campaign("combination=30", "0xc0ffee");
    assert!(out.contains("combination faults: 30 injected"), "{out}");
    // 8 storage classes + task-panic + dropped-pre-commit.
    assert_campaign_schema(&cf, 30.0, 10, "0xc0ffee");
    let counts = cf.get("counts").unwrap();
    let recompute = counts.get("recompute").and_then(|v| v.as_f64()).unwrap();
    let reweight = counts.get("reweight").and_then(|v| v.as_f64()).unwrap();
    assert_eq!(recompute + reweight, 30.0, "every case has a policy");
    assert!(recompute > 0.0 && reweight > 0.0, "both policies exercised");

    // Malformed or retired fault flags are usage errors.
    for bad in [
        &["fuzz", "--faults", "combination:nope=1"][..],
        &["fuzz", "--faults", "disk=1"],
        &["fuzz", "--combination-faults", "1"],
        &[
            "combine", "run", "--dims", "2", "--level", "3", "--faults", "20",
        ],
    ] {
        assert_eq!(exit_code(&sgtool(bad)), 2, "{bad:?}");
    }
}

#[test]
fn fault_reproducers_replay_exactly_the_failing_class_and_seed() {
    // For each campaign, a class other than the first: the printed
    // replay command must run exactly that class, once, at that seed.
    for (campaign, class) in [
        ("snapshot", "truncate"),
        ("combination", "task-panic"),
        ("serve", "stall"),
    ] {
        let seed = 0x1234_5678_9abc_u64;
        let line = sg_fuzz::campaign::reproducer(campaign, class, seed);
        let words: Vec<&str> = line.split_whitespace().collect();
        let (env_seed, argv) = match words.as_slice() {
            ["replay:", env, "sgtool", rest @ ..] => {
                (env.strip_prefix("SG_PROP_SEED=").unwrap(), rest)
            }
            _ => panic!("unexpected reproducer {line:?}"),
        };
        let spec = argv[argv.iter().position(|a| *a == "--faults").unwrap() + 1];
        assert_eq!(spec, format!("{campaign}:{class}=1"));
        let json = temp_path(&format!("replay-{campaign}.json"));
        let mut args = argv.to_vec();
        args.extend(["--json", json.to_str().unwrap()]);
        let o = sgtool_env(&args, &[("SG_PROP_SEED", env_seed)]);
        assert!(o.status.success(), "{line}: {}", stderr(&o));
        let doc = sg_json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
        std::fs::remove_file(&json).ok();
        let r = doc.get("faults").and_then(|f| f.get(campaign)).unwrap();
        assert_eq!(r.get("cases").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(
            r.get("seed_base").and_then(|v| v.as_str()),
            Some(format!("{seed:#x}").as_str()),
            "case 0 runs the printed seed verbatim"
        );
        let per_class = r.get("per_class").and_then(|v| v.as_object()).unwrap();
        for (name, count) in per_class {
            let want = if name == class { 1.0 } else { 0.0 };
            assert_eq!(count.as_f64(), Some(want), "{campaign}: class {name}");
        }
    }
}

#[test]
fn combine_run_cross_validates_and_verify_reads_the_manifest() {
    let manifest = temp_path("combine.sgcm");
    let json = temp_path("combine.json");
    let m = manifest.to_str().unwrap();
    let j = json.to_str().unwrap();

    // Clean run under each policy: cross-validation passes, the JSON
    // report is schema-complete, and the published manifest verifies.
    for policy in ["recompute", "reweight"] {
        let o = sgtool(&[
            "combine",
            "run",
            "--dims",
            "3",
            "--level",
            "4",
            "--function",
            "sine-product",
            "--policy",
            policy,
            "--queries",
            "64",
            "--out",
            m,
            "--json",
            j,
        ]);
        assert_eq!(exit_code(&o), 0, "policy={policy}: {}", stderr(&o));
        let out = stdout(&o);
        assert!(out.contains("outcome Clean"), "{out}");
        assert!(out.contains("cross-validation"), "{out}");
        assert!(out.contains("— ok"), "{out}");

        let doc = sg_json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
        assert_eq!(
            doc.get("cross_validated").and_then(|v| v.as_bool()),
            Some(true)
        );
        assert_eq!(
            doc.get("policy").and_then(|v| v.as_str()),
            Some(policy),
            "policy stamped into the report"
        );
        assert_eq!(doc.get("outcome").and_then(|v| v.as_str()), Some("clean"));
        let diff = doc.get("max_abs_diff").and_then(|v| v.as_f64()).unwrap();
        let tol = doc.get("tolerance").and_then(|v| v.as_f64()).unwrap();
        assert!(diff <= tol, "{diff} > {tol}");
        assert!(doc.get("provenance").is_some(), "report carries provenance");

        let o = sgtool(&["combine", "verify", m]);
        assert_eq!(exit_code(&o), 0, "{}", stderr(&o));
        assert!(stdout(&o).contains("components intact"), "{}", stdout(&o));
    }

    // A damaged manifest is corrupt data (3) with the lost components
    // named; a missing one is an I/O failure (4); bad flags are usage
    // errors (2).
    let mut bytes = std::fs::read(&manifest).unwrap();
    let n = bytes.len();
    bytes[n / 2] ^= 0x10;
    std::fs::write(&manifest, &bytes).unwrap();
    let o = sgtool(&["combine", "verify", m]);
    assert_eq!(exit_code(&o), 3, "{}", stderr(&o));
    assert!(stderr(&o).contains("damaged"), "{}", stderr(&o));

    assert_eq!(
        exit_code(&sgtool(&["combine", "verify", "/nonexistent"])),
        4
    );
    assert_eq!(exit_code(&sgtool(&["combine"])), 2);
    assert_eq!(exit_code(&sgtool(&["combine", "frobnicate"])), 2);
    assert_eq!(exit_code(&sgtool(&["combine", "run", "--level", "3"])), 2);
    assert_eq!(
        exit_code(&sgtool(&[
            "combine", "run", "--dims", "2", "--level", "3", "--policy", "hope"
        ])),
        2
    );

    std::fs::remove_file(&manifest).ok();
    std::fs::remove_file(&json).ok();
}

/// The two lines perfbench prints for one compress run, as the gate
/// reads them.
fn perfbench_run(setup_s: f64, pts_per_s: f64, unit: &str, correct: bool) -> String {
    let key = r#"{"d":10,"level":7,"grid_points":397825,"points_per_op":397825,"workload":"compress","kernel":"avx2","threads":2,"telemetry":true}"#;
    let metric = |name: &str, value: f64, unit: &str, better: &str| {
        format!(
            r#"{{"name":"{name}","value":{value},"unit":"{unit}","better":"{better}","samples":3,"key":{key}}}"#
        )
    };
    let metrics = [
        metric("setup_s", setup_s, unit, "lower"),
        metric("peak_rss_mb", 24.0, "MiB", "lower"),
        metric("pts_per_s", pts_per_s, "points/s", "higher"),
    ]
    .join(",");
    format!(
        "{{\"report\":{{\"seed\":1,\"seconds\":1,\"trace\":false,\"key\":{key},\"metrics\":[{metrics}]}}}}\n\
         {{\"correct\":{correct},\"attempted\":12,\"failed\":{}}}\n",
        u8::from(!correct)
    )
}

/// A fixture repository root for `sgtool gate`: a copy of
/// `BENCHMARK.json` and a five-run baseline for this machine class.
fn gate_fixture(name: &str) -> PathBuf {
    let dir = temp_path(name);
    let _ = std::fs::remove_dir_all(&dir);
    let baseline_dir = dir.join("crates/bench/baseline");
    std::fs::create_dir_all(&baseline_dir).unwrap();
    std::fs::copy(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"),
        dir.join("BENCHMARK.json"),
    )
    .unwrap();
    let baseline: String = [
        (0.30, 10.9e6),
        (0.32, 10.6e6),
        (0.29, 11.0e6),
        (0.31, 10.8e6),
        (0.30, 11.2e6),
    ]
    .iter()
    .map(|&(s, p)| perfbench_run(s, p, "s", true))
    .collect();
    let class = sg_bench::gate::machine_class();
    std::fs::write(baseline_dir.join(format!("{class}.jsonl")), baseline).unwrap();
    dir
}

fn sgtool_in(dir: &std::path::Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sgtool"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("failed to run sgtool")
}

#[test]
fn gate_passes_clean_catches_regression_and_honors_baseline_override() {
    let dir = gate_fixture("gate-verdicts");
    let run = |name: &str, text: String| {
        std::fs::write(dir.join(name), text).unwrap();
        name.to_string()
    };

    // A clean run against the default class baseline: exit 0.
    let clean = run("clean.out", perfbench_run(0.31, 10.7e6, "s", true));
    let o = sgtool_in(&dir, &["gate", &clean]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(
        stdout(&o).contains("ok         compress/pts_per_s"),
        "{}",
        stdout(&o)
    );
    assert!(
        stdout(&o).contains("perf gate passed: 3 metric(s)"),
        "{}",
        stdout(&o)
    );

    // pts_per_s / 10: exit 1 with a one-line REGRESSION diagnosis naming
    // the metric, one stderr line, and the factor in the JSON report.
    let slow = run("slow.out", perfbench_run(0.30, 1.09e6, "s", true));
    let o = sgtool_in(&dir, &["gate", &slow, "--json", "gate.json"]);
    assert_eq!(exit_code(&o), 1, "{}", stderr(&o));
    assert!(
        stdout(&o).contains("REGRESSION compress/pts_per_s"),
        "{}",
        stdout(&o)
    );
    assert_eq!(stderr(&o).lines().count(), 1, "{}", stderr(&o));
    assert!(stderr(&o).contains("perf gate failed"), "{}", stderr(&o));
    let doc = sg_json::parse(&std::fs::read_to_string(dir.join("gate.json")).unwrap()).unwrap();
    assert_eq!(doc["passed"], false);
    let metrics = doc["metrics"].as_array().unwrap();
    let verdicts: Vec<&str> = metrics
        .iter()
        .map(|m| m["verdict"].as_str().unwrap())
        .collect();
    assert_eq!(verdicts, ["ok", "ok", "regressed"]);
    assert!(metrics[2]["factor"].as_f64().unwrap() > 9.0);

    // pts_per_s x 10 is better, not worse: exit 0.
    let fast = run("fast.out", perfbench_run(0.30, 109.0e6, "s", true));
    assert_eq!(exit_code(&sgtool_in(&dir, &["gate", &fast])), 0);

    // A run that failed its own checks: exit 1, every metric incorrect_run.
    let wrong = run("wrong.out", perfbench_run(0.30, 10.9e6, "s", false));
    let o = sgtool_in(&dir, &["gate", &wrong]);
    assert_eq!(exit_code(&o), 1);
    assert_eq!(
        stdout(&o).matches("INCORRECT_RUN compress/").count(),
        3,
        "{}",
        stdout(&o)
    );

    // --baseline overrides the class default: against a ten-times-faster
    // baseline the clean run regresses; against an empty one it has no
    // baseline and passes.
    let faster: String = (0..3)
        .map(|_| perfbench_run(0.03, 109.0e6, "s", true))
        .collect();
    let faster = run("faster.jsonl", faster);
    let o = sgtool_in(&dir, &["gate", "--baseline", &faster, &clean]);
    assert_eq!(exit_code(&o), 1, "{}", stdout(&o));
    assert!(
        stdout(&o).contains("REGRESSION compress/setup_s"),
        "{}",
        stdout(&o)
    );
    let empty = run("empty.jsonl", String::new());
    let o = sgtool_in(&dir, &["gate", "--baseline", &empty, &clean]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert_eq!(
        stdout(&o).matches("no_baseline compress/").count(),
        3,
        "{}",
        stdout(&o)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gate_short_history_passes_and_bad_inputs_use_pinned_exit_codes() {
    let dir = gate_fixture("gate-codes");
    std::fs::write(
        dir.join("clean.out"),
        perfbench_run(0.31, 10.7e6, "s", true),
    )
    .unwrap();

    // No baseline file for this machine class: every metric reads
    // no_baseline and the gate passes (0).
    let class = sg_bench::gate::machine_class();
    let class_file = dir.join(format!("crates/bench/baseline/{class}.jsonl"));
    let saved = std::fs::read_to_string(&class_file).unwrap();
    std::fs::remove_file(&class_file).unwrap();
    let o = sgtool_in(&dir, &["gate", "clean.out"]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert_eq!(
        stdout(&o).matches("no_baseline compress/").count(),
        3,
        "{}",
        stdout(&o)
    );
    // A short history, one recorded run: the BENCHMARK.json bounds set
    // the band, and a clean run within them passes (0).
    std::fs::write(&class_file, perfbench_run(0.30, 10.9e6, "s", true)).unwrap();
    let o = sgtool_in(&dir, &["gate", "clean.out"]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(
        stdout(&o).contains("perf gate passed: 3 metric(s)"),
        "{}",
        stdout(&o)
    );
    std::fs::write(&class_file, saved).unwrap();

    let bad = |name: &str, text: &str| {
        std::fs::write(dir.join(name), text).unwrap();
        name.to_string()
    };
    let swapped = bad("unit.out", &perfbench_run(0.31, 10.7e6, "ms", true));
    let garbled = bad(
        "garbled.out",
        &perfbench_run(0.31, 10.7e6, "s", true)[..200],
    );
    let orphan = bad(
        "orphan.out",
        "{\"correct\":true,\"attempted\":1,\"failed\":0}\n",
    );
    let nothing = bad("nothing.out", "   Compiling perfbench\n");
    let cases: [(&[&str], i32, &str); 9] = [
        // Usage (2): no files; a removed knob.
        (&["gate"], 2, "missing perfbench output"),
        (
            &["gate", "clean.out", "--window", "5"],
            2,
            "bad gate flag --window",
        ),
        // Malformed input or a mismatch (3).
        (&["gate", &swapped], 3, "unit or direction"),
        (&["gate", &garbled], 3, "bad report garbled.out"),
        (&["gate", &orphan], 3, "result line without a report line"),
        (&["gate", &nothing], 3, "no perfbench report"),
        (
            &["gate", "--baseline", &garbled, "clean.out"],
            3,
            "bad baseline garbled.out",
        ),
        // I/O (4): a missing report, a missing explicit baseline.
        (&["gate", "absent.out"], 4, "cannot read absent.out"),
        (
            &["gate", "--baseline", "absent.jsonl", "clean.out"],
            4,
            "cannot read absent.jsonl",
        ),
    ];
    for (args, code, diagnosis) in cases {
        let o = sgtool_in(&dir, args);
        assert_eq!(exit_code(&o), code, "{args:?}: {}", stderr(&o));
        assert_eq!(stderr(&o).lines().count(), 1, "{args:?}: {}", stderr(&o));
        assert!(stderr(&o).contains(diagnosis), "{args:?}: {}", stderr(&o));
    }
    // The swapped unit is named on stdout and never compared.
    let o = sgtool_in(&dir, &["gate", &swapped]);
    assert!(
        stdout(&o).contains("UNIT_MISMATCH compress/setup_s"),
        "{}",
        stdout(&o)
    );

    // Without BENCHMARK.json in the current directory there is nothing
    // to gate against (4).
    std::fs::remove_file(dir.join("BENCHMARK.json")).unwrap();
    let o = sgtool_in(&dir, &["gate", "clean.out"]);
    assert_eq!(exit_code(&o), 4);
    assert!(
        stderr(&o).contains("cannot read BENCHMARK.json"),
        "{}",
        stderr(&o)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_from_summarizes_a_trace_and_rejects_malformed_ones() {
    let trace = temp_path("from-trace.json");
    let t = trace.to_str().unwrap();
    let o = sgtool(&[
        "profile", "--dims", "4", "--level", "4", "--points", "64", "--out", t,
    ]);
    assert!(o.status.success(), "{}", stderr(&o));

    // Summarizing the file we just wrote works offline.
    let o = sgtool(&["profile", "--from", t]);
    assert!(o.status.success(), "{}", stderr(&o));
    let s = stdout(&o);
    assert!(s.contains("events"), "{s}");
    assert!(s.contains("workload: d=4 level=4"), "{s}");

    // A truncated trace is a *usage* error — pinned exit 2 — with a
    // single-line diagnostic.
    let text = std::fs::read_to_string(&trace).unwrap();
    std::fs::write(&trace, &text[..text.len() / 2]).unwrap();
    let o = sgtool(&["profile", "--from", t]);
    assert_eq!(exit_code(&o), 2);
    let err = stderr(&o);
    assert_eq!(err.lines().count(), 1, "one-line diagnostic, got: {err}");
    assert!(err.starts_with("sgtool: malformed trace"), "{err}");

    // Valid JSON of the wrong shape is equally malformed.
    std::fs::write(&trace, "{\"not\": \"a trace\"}\n").unwrap();
    let o = sgtool(&["profile", "--from", t]);
    assert_eq!(exit_code(&o), 2);
    assert!(stderr(&o).contains("no traceEvents"), "{}", stderr(&o));

    // And a missing file stays an I/O error, not usage.
    assert_eq!(
        exit_code(&sgtool(&["profile", "--from", "/nonexistent/trace.json"])),
        4
    );
    std::fs::remove_file(&trace).ok();
}

#[test]
fn flight_records_a_self_describing_timeseries() {
    let out = temp_path("flight.json");
    let f = out.to_str().unwrap();
    let o = sgtool(&[
        "flight",
        "--dims",
        "5",
        "--level",
        "5",
        "--reps",
        "2",
        "--points",
        "512",
        "--interval-ms",
        "1",
        "--out",
        f,
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("frames"), "{}", stdout(&o));

    let doc = sg_json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    let schema = doc["schema"].as_array().expect("schema array");
    assert!(!schema.is_empty());
    for col in schema {
        assert!(col["name"].as_str().is_some(), "column without name");
        let kind = col["kind"].as_str().unwrap();
        assert!(
            ["counter", "span", "histogram"].contains(&kind),
            "unknown kind {kind}"
        );
        let unit = col["unit"].as_str().unwrap();
        assert!(
            ["count", "ns", "bytes"].contains(&unit),
            "unknown unit {unit}"
        );
    }
    // The workload's own instruments made it into the schema.
    assert!(
        schema
            .iter()
            .any(|c| c["name"].as_str() == Some("core.hierarchize.bytes_moved")),
        "hierarchize counter missing from schema"
    );
    let frames = doc["frames"].as_array().expect("frames array");
    assert!(!frames.is_empty(), "no frames recorded");
    for fr in frames {
        assert!(fr["t_ns"].as_f64().is_some());
        assert_eq!(fr["values"].as_array().unwrap().len(), schema.len());
    }
    assert!(doc["workload"]["interval_ms"].as_f64().is_some());
    assert!(!doc["provenance"].is_null());
    std::fs::remove_file(&out).ok();
}

#[test]
fn divergence_reports_per_group_data_with_correlation() {
    let out = temp_path("divergence.json");
    let f = out.to_str().unwrap();
    let o = sgtool(&[
        "divergence",
        "--dims",
        "4",
        "--level",
        "5",
        "--points",
        "256",
        "--machine",
        "tiny",
        "--top",
        "2",
        "--out",
        f,
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let s = stdout(&o);
    assert!(s.contains("correlation r="), "{s}");
    assert!(s.contains("top 2 divergent groups"), "{s}");

    let doc = sg_json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    for phase in ["hierarchize", "evaluate"] {
        let p = &doc[phase];
        let r = p["correlation"].as_f64().expect("correlation number");
        assert!((-1.0..=1.0).contains(&r), "{phase} r={r}");
        let groups = p["groups"].as_array().unwrap();
        assert_eq!(groups.len(), 5, "{phase}: one entry per level group");
        for g in groups {
            assert!(g["predicted_dram_lines"].as_f64().is_some());
            assert!(g["measured_ns"].as_f64().is_some());
            assert!(g["residual_ns"].as_f64().is_some());
        }
        // The measured half is real: the biggest group took nonzero time.
        assert!(
            groups[4]["measured_ns"].as_f64().unwrap() > 0.0,
            "{phase}: top group unmeasured"
        );
    }
    assert!(!doc["top_divergent"].as_array().unwrap().is_empty());
    // Unknown machines are usage errors.
    assert_eq!(
        exit_code(&sgtool(&["divergence", "--machine", "cray-1"])),
        2
    );
    std::fs::remove_file(&out).ok();
}
