//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload compress|evaluate|serve|serve_bulk --seed N
//!           --seconds S --trace 0|1 --sgd PATH --out DIR
//! ```
//!
//! Each run sets its workload up [`SETUP_REPS`] times from the seed
//! (inputs and expected answers included, so the generator does no
//! evaluation while timing), warms up, then measures for `--seconds`.
//! Every output is checked bitwise; a mismatch is a failed operation.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` measures half
//! the time untraced and half with spans recorded around every call into
//! a layer, prints the difference between the halves (the tracing
//! overhead), runs the layer probes and reports the per-layer metrics;
//! the spans are written to `DIR/trace-<workload>-seed<N>.json`.
//!
//! The last stdout line is `{"correct", "attempted", "failed",
//! "metrics"}`; the line before it is a full report carrying each
//! metric's unit, direction and sample count, the workload key (shape,
//! rate, kernel, threads, telemetry) and the host-noise diagnostics.

mod core_wl;
mod probes;
mod serve_wl;
mod util;

use sg_serve::RetryStats;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use util::{median, quantile, supported_tail, Better, Metric, StealMeter, Tracer};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Length of the no-op calibration loop run after the measurement.
const IDLE_LOOP: Duration = Duration::from_secs(1);

/// Why each workload is in the benchmark (the same text as in
/// `BENCHMARK.json`, which lists every workload but the diagnostic `serve`).
const WORKLOADS: [(&str, &str); 4] = [
    (
        "compress",
        "d=10 level 7 (397,825 points, above L2): sampling, hierarchization, gp2idx and \
         snapshot encoding do all the work; evaluation and serving do none",
    ),
    (
        "evaluate",
        "d=6 level 9, 8192-point batches on the parallel batch evaluator: kernel, plan \
         walk and pool do all the work; long subspaces, the opposite shape from compress",
    ),
    (
        "serve",
        "4 Zipf models, 4-point requests open loop at 4000 rps, model0 hot-swapped every \
         250 ms: the per-request path (protocol, queue, wake-up, socket) and swaps \
         dominate; not gated",
    ),
    (
        "serve_bulk",
        "shipped sgd, 4 Zipf models, 4096-point requests closed loop on 2 connections: \
         protocol, engine pool-parallel batches, fleet and client; large frames, \
         evaluation dominates",
    ),
];

/// A workload after set-up.
pub trait Workload {
    /// One untimed pass; returns whether its output was correct.
    fn warm_up(&mut self) -> bool;
    fn measure(&mut self, tracer: &mut Tracer, length: Duration) -> Window;
    /// Peak resident set of the process that does the work, MiB.
    fn peak_rss_mib(&self) -> f64;
    /// Shape and load parameters (the workload key's own part).
    fn key(&self) -> sg_json::Value;
}

/// What one measurement window saw.
#[derive(Default)]
pub struct Window {
    pub attempted: u64,
    pub failed: u64,
    /// Points answered correctly.
    pub points: f64,
    /// Seconds the points took: summed op times for the in-process
    /// workloads, wall time for the daemon ones.
    pub busy_s: f64,
    /// Closed loops: points per op and ops in flight at once (0 marks an
    /// open loop).
    pub points_per_op: f64,
    pub in_flight: f64,
    /// Latency of each op (ms); from the due time in open loop.
    pub lat_ms: Vec<f64>,
    /// How late the generator sent each op after its due time (ms).
    pub late_ms: Vec<f64>,
    /// Daemon-side counts, for the workloads that drive `sgd`.
    pub traffic: Option<Traffic>,
}

impl Window {
    /// Points per second. Closed loops: ops in flight × points per op ÷
    /// the median op time, so a steal burst that slows a few ops does not
    /// move it. Open loop: answered points ÷ wall time.
    fn pts_per_s(&self) -> f64 {
        if self.in_flight > 0.0 {
            self.in_flight * self.points_per_op * 1e3 / median(&self.lat_ms)
        } else {
            self.points / self.busy_s
        }
    }
}

/// Control loads and daemon/client counters over a window.
#[derive(Default)]
pub struct Traffic {
    pub swaps_ms: Vec<f64>,
    pub requests: u64,
    pub batches: u64,
    pub overloads: u64,
    pub retry: RetryStats,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    sgd: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut sgd, mut out) =
        (None, None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed wants an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| "--seconds wants a number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                })
            }
            "--sgd" => sgd = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        sgd: sgd.ok_or("--sgd is required")?,
        out: out.ok_or("--out is required")?,
    })
}

fn setup(a: &Args, dir: &std::path::Path, threads: usize) -> Box<dyn Workload> {
    match a.workload.as_str() {
        "compress" => Box::new(core_wl::Compress::setup(a.seed)),
        "evaluate" => Box::new(core_wl::Evaluate::setup(a.seed)),
        "serve" => Box::new(serve_wl::Serve::setup(a.seed, false, &a.sgd, dir, threads)),
        "serve_bulk" => Box::new(serve_wl::Serve::setup(a.seed, true, &a.sgd, dir, threads)),
        _ => unreachable!("workload names are checked by parse_args"),
    }
}

/// Largest share of a traced op's time not covered by its child spans,
/// in percent: the layer self times must sum to the op time.
fn op_residual_pct(tracer: &Tracer) -> f64 {
    tracer
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name.ends_with(".op"))
        .map(|(i, s)| 100.0 * tracer.self_ns(i) as f64 / (s.end_ns - s.start_ns).max(1) as f64)
        .fold(0.0, f64::max)
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = sg_par::num_threads();
    let kernel = sg_core::kernel::active().name();
    let telemetry = util::telemetry_compiled_in();
    let dir = a.out.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: creating {}: {e}", dir.display());
        return ExitCode::from(1);
    }

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut wl = None;
    for _ in 0..SETUP_REPS {
        drop(wl.take());
        let t0 = Instant::now();
        wl = Some(setup(&a, &dir, threads));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut wl = wl.expect("SETUP_REPS > 0");
    let warm_ok = wl.warm_up();

    let steal = StealMeter::start();
    let mut traced = Tracer::new(true);
    let (main_w, traced_w) = if a.trace {
        let half = Duration::from_secs_f64(a.seconds / 2.0);
        let untraced = wl.measure(&mut Tracer::new(false), half);
        let traced_w = wl.measure(&mut traced, half);
        (untraced, Some(traced_w))
    } else {
        (
            wl.measure(&mut Tracer::new(false), Duration::from_secs_f64(a.seconds)),
            None,
        )
    };
    let steal_pct = steal.pct();
    let rss = wl.peak_rss_mib();
    let mut key = wl.key();
    drop(wl);
    let idle_late = util::idle_loop_late_p99_ms(serve_wl::SERVE_RATE, IDLE_LOOP);

    let mut attempted = 1 + main_w.attempted;
    let mut failed = u64::from(!warm_ok) + main_w.failed;
    let mut spans_consistent = true;
    key.set("workload", sg_json::json!(a.workload.as_str()));
    key.set("kernel", sg_json::json!(kernel));
    key.set("threads", sg_json::json!(threads as u64));
    key.set("telemetry", sg_json::json!(telemetry));
    let mut report = sg_json::json!({
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "why": WORKLOADS.iter().find(|(w, _)| *w == a.workload).map_or("", |(_, y)| *y),
    });
    report.set("key", key.clone());

    let mut diag = sg_json::json!({
        "p50_ms": median(&main_w.lat_ms),
        "wall_pts_per_s": main_w.points / main_w.busy_s,
        "host.steal_pct": steal_pct,
        "host.idle_late_p99_ms": idle_late,
        "gen.late_p99_ms": quantile(&main_w.late_ms, 0.99),
        "gen.late_samples": main_w.late_ms.len() as u64,
    });
    if let Some((label, v)) = supported_tail(&main_w.lat_ms) {
        diag.set(
            "tail",
            sg_json::json!({"quantile": label, "ms": v, "samples": main_w.lat_ms.len() as u64}),
        );
    }
    if let Some(t) = &main_w.traffic {
        if !t.swaps_ms.is_empty() {
            diag.set("swap_p50_ms", sg_json::json!(median(&t.swaps_ms)));
            diag.set("swap_samples", sg_json::json!(t.swaps_ms.len() as u64));
        }
    }

    let metrics = if let Some(tw) = traced_w {
        attempted += tw.attempted;
        failed += tw.failed;
        // Overhead: how much worse the traced half read than the untraced
        // one, in percent of the untraced half.
        let worse = |u: f64, t: f64| 100.0 * (t - u) / u;
        let overhead_pct = -worse(main_w.pts_per_s(), tw.pts_per_s());
        let overhead = sg_json::json!({
            "pts_per_s": overhead_pct,
            "p50_ms": worse(median(&main_w.lat_ms), median(&tw.lat_ms)),
        });
        report.set("tracing_overhead_pct", overhead);
        // The layer self times of each op must sum to the op's time: no
        // more than 1% of an op may fall outside its layer spans.
        let residual = op_residual_pct(&traced);
        report.set("op_self_residual_max_pct", sg_json::json!(residual));
        spans_consistent = residual <= 1.0;

        let probes = probes::run(a.seed, threads, &mut traced, &a.sgd, &dir);
        attempted += 1;
        failed += u64::from(!probes.ok);
        let traffic = tw.traffic.as_ref().unwrap_or(&probes.traffic);
        let mut m = probes.metrics;
        m.extend([
            Metric::new(
                "serve.reqs_per_batch",
                traffic.requests as f64 / traffic.batches.max(1) as f64,
                "ratio",
                Better::Higher,
                traffic.batches as usize,
            ),
            Metric::new(
                "serve.overloads",
                traffic.overloads as f64,
                "count",
                Better::Lower,
                1,
            ),
            Metric::new(
                "client.retries",
                traffic.retry.retries as f64,
                "count",
                Better::Lower,
                1,
            ),
            Metric::new(
                "client.timeouts",
                traffic.retry.timeouts as f64,
                "count",
                Better::Lower,
                1,
            ),
            Metric::new(
                "client.reconnects",
                traffic.retry.reconnects as f64,
                "count",
                Better::Lower,
                1,
            ),
            Metric::new(
                "gen.late_p99_ms",
                quantile(&tw.late_ms, 0.99),
                "ms",
                Better::Lower,
                tw.late_ms.len(),
            ),
            Metric::new("host.steal_pct", steal_pct, "%", Better::Lower, 1),
            Metric::new("host.idle_late_p99_ms", idle_late, "ms", Better::Lower, 1),
            Metric::new("trace.overhead_pct", overhead_pct, "%", Better::Lower, 2),
        ]);
        let trace_path = a
            .out
            .join(format!("trace-{}-seed{}.json", a.workload, a.seed));
        let mut doc = sg_json::json!({"workload": a.workload.as_str(), "seed": a.seed});
        doc.set("spans", traced.to_json());
        if let Err(e) = std::fs::write(&trace_path, doc.to_string()) {
            eprintln!("perfbench: writing {}: {e}", trace_path.display());
        }
        report.set(
            "trace_file",
            sg_json::json!(trace_path.display().to_string()),
        );
        m
    } else {
        vec![
            Metric::new(
                "setup_s",
                median(&setup_s),
                "s",
                Better::Lower,
                setup_s.len(),
            ),
            Metric::new("peak_rss_mb", rss, "MiB", Better::Lower, 1),
            Metric::new(
                "pts_per_s",
                main_w.pts_per_s(),
                "points/s",
                Better::Higher,
                main_w.lat_ms.len(),
            ),
        ]
    };
    let _ = std::fs::remove_dir_all(&dir);

    report.set("diagnostics", diag);
    report.set(
        "metrics",
        sg_json::Value::Array(
            metrics
                .iter()
                .map(|m| {
                    let mut v = m.to_json();
                    v.set("key", key.clone());
                    v
                })
                .collect(),
        ),
    );
    let mut values = sg_json::json!({});
    for m in &metrics {
        values.set(m.name, sg_json::json!({"value": m.value, "unit": m.unit}));
    }
    let mut last = sg_json::json!({
        "correct": failed == 0 && spans_consistent,
        "attempted": attempted,
        "failed": failed,
    });
    last.set("metrics", values);
    println!("{}", sg_json::json!({"report": report}));
    println!("{last}");
    ExitCode::SUCCESS
}
