//! The perf gate against the recorded history it reads in practice: the
//! committed baseline (concatenated perfbench output, as recorded by
//! `perfbench/run.py … | tail -n 2 >> FILE`) and the gated metrics of
//! the repository's own `BENCHMARK.json`.

use sg_bench::gate::{gate, parse_runs, MetricGate, Policy, Verdict};
use sg_json::Value;

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

fn policy() -> Policy {
    let text = std::fs::read_to_string(format!("{ROOT}/BENCHMARK.json")).unwrap();
    Policy::parse(&text).unwrap()
}

/// The committed baseline, whichever machine class it was recorded on.
fn recorded() -> String {
    let dir = format!("{ROOT}/crates/bench/baseline");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    files.sort();
    std::fs::read_to_string(files.first().expect("a committed baseline")).unwrap()
}

/// The newest recorded `compress` run: its report line and result line,
/// as `tail -n 2` appends them.
fn newest_compress(history: &str) -> (Value, String) {
    let lines: Vec<&str> = history.lines().collect();
    let at = lines
        .iter()
        .rposition(|l| {
            let doc = sg_json::parse(l).unwrap();
            doc.get("report")
                .and_then(|r| r.get("key"))
                .and_then(|k| k.get("workload"))
                .and_then(Value::as_str)
                == Some("compress")
        })
        .expect("a recorded compress run");
    (
        sg_json::parse(lines[at]).unwrap(),
        lines[at + 1].to_string(),
    )
}

/// The run `(report, result)` with `metric` scaled by `by`.
fn scaled(report: &Value, result: &str, metric: &str, by: f64) -> String {
    let mut inner = report.get("report").unwrap().clone();
    let metrics: Vec<Value> = inner
        .get("metrics")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            let mut m = m.clone();
            if m.get("name").and_then(Value::as_str) == Some(metric) {
                let v = m.get("value").and_then(Value::as_f64).unwrap();
                m.set("value", Value::from(v * by));
            }
            m
        })
        .collect();
    inner.set("metrics", Value::Array(metrics));
    let mut doc = report.clone();
    doc.set("report", inner);
    format!("{doc}\n{result}\n")
}

fn find<'a>(gates: &'a [MetricGate], metric: &str) -> &'a MetricGate {
    gates
        .iter()
        .find(|g| g.to_json()["metric"] == metric)
        .unwrap()
}

#[test]
fn gate_catches_regression_in_recorded_trajectory() {
    let history = recorded();
    let baseline = parse_runs(&history).unwrap();
    let (report, result) = newest_compress(&history);

    // The recorded run itself sits inside its own history's band.
    let same = parse_runs(&scaled(&report, &result, "pts_per_s", 1.0)).unwrap();
    for g in gate(&policy(), &baseline, &same) {
        assert!(
            !g.verdict.fails() && !g.verdict.is_mismatch(),
            "{}",
            g.diagnosis()
        );
    }

    // A tenfold throughput drop is caught, with its factor.
    let slow = parse_runs(&scaled(&report, &result, "pts_per_s", 0.1)).unwrap();
    let gates = gate(&policy(), &baseline, &slow);
    let g = find(&gates, "pts_per_s");
    match g.verdict {
        Verdict::Regressed { factor } => assert!(factor > 9.0, "factor {factor}"),
        ref other => panic!("expected a regression, got {other:?}"),
    }
    assert!(
        g.diagnosis().starts_with("REGRESSION compress/pts_per_s:"),
        "{}",
        g.diagnosis()
    );
    assert!(g.to_json()["n"].as_u64().unwrap() >= 5);
}

#[test]
fn gate_passes_on_short_histories_written_by_record_run() {
    let (report, result) = newest_compress(&recorded());
    let run = scaled(&report, &result, "pts_per_s", 1.0);
    let current = parse_runs(&run).unwrap();

    // An empty history: every metric is no_baseline, and nothing fails.
    let gates = gate(&policy(), &[], &current);
    assert!(!gates.is_empty());
    for g in &gates {
        assert_eq!(g.verdict, Verdict::NoBaseline, "{}", g.diagnosis());
    }

    // A history of one recorded run (one `tail -n 2 >>` append): MAD is
    // zero, the BENCHMARK.json bound sets the band, and the same run
    // passes rather than reading as a regression.
    let one = parse_runs(&run).unwrap();
    let gates = gate(&policy(), &one, &current);
    for g in &gates {
        assert!(
            !g.verdict.fails() && !g.verdict.is_mismatch(),
            "{}",
            g.diagnosis()
        );
        assert_eq!(g.to_json()["n"], 1u64, "{}", g.diagnosis());
    }
    assert_eq!(find(&gates, "pts_per_s").verdict, Verdict::Ok);
    // Within the bound (0.25 for pts_per_s) a noisy second run passes too.
    let noisy = parse_runs(&scaled(&report, &result, "pts_per_s", 0.8)).unwrap();
    assert_eq!(
        find(&gate(&policy(), &one, &noisy), "pts_per_s").verdict,
        Verdict::Ok
    );
}
