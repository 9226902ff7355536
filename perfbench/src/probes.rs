//! The traced run's layer probes: each times one public call into a
//! layer, at a fixed shape, from outside the program. Every probe repeats
//! its call after a warm-up and reports the median; every probe's output
//! is cross-checked bitwise.

use crate::core_wl::{separable, smooth, BLOCK, COMPRESS_SPEC, EVALUATE_SPEC, EVAL_BATCH};
use crate::serve_wl::{add_retry, daemon_counters, Daemon, Models, MODEL_SPEC, SERVE_POINTS};
use crate::util::{median, same_bits, Better, Metric, Rng, Tracer};
use crate::Traffic;
use sg_core::evaluate::{
    evaluate_batch, evaluate_batch_blocked_with_plan, evaluate_batch_parallel,
};
use sg_core::grid::CompactGrid;
use sg_core::hierarchize::{hierarchize, hierarchize_parallel};
use sg_core::kernel::{with_kernel, KernelKind, KernelSelect};
use sg_core::level::GridSpec;
use sg_core::plan::EvalPlan;
use std::path::Path;
use std::time::Instant;

/// Query points per evaluation probe call (a quarter of an `evaluate` op,
/// so the forced-scalar repetitions stay short).
const EVAL_PROBE_POINTS: usize = 2048;
/// Sequential requests per serve-layer latency probe.
const SERVE_PROBE_REQUESTS: usize = 2000;
const LOAD_PROBES: usize = 11;

/// Time `f` on a fresh `input()` `reps` times after one warm-up call; each
/// timed call is a span. Returns the median seconds and the last output.
fn bench<S, R>(
    tracer: &mut Tracer,
    name: &'static str,
    reps: usize,
    mut input: impl FnMut() -> S,
    mut f: impl FnMut(S) -> R,
) -> (f64, R) {
    let mut last = f(input());
    let mut secs = Vec::with_capacity(reps);
    for rep in 0..reps {
        let x = input();
        let t0 = Instant::now();
        last = f(x);
        let t1 = Instant::now();
        tracer.record(name, t0, t1, None, rep as u64);
        secs.push(t1.duration_since(t0).as_secs_f64());
    }
    (median(&secs), last)
}

fn scalar<R>(f: impl FnOnce() -> R) -> R {
    with_kernel(KernelSelect::Force(KernelKind::Scalar), f)
}

pub struct Probes {
    pub metrics: Vec<Metric>,
    /// Control loads and request counters of the probe daemon.
    pub traffic: Traffic,
    /// Every probe output matched its cross-check.
    pub ok: bool,
}

pub fn run(seed: u64, threads: usize, tracer: &mut Tracer, sgd: &Path, dir: &Path) -> Probes {
    let mut m = Vec::new();
    let mut ok = true;
    let p = threads as f64;

    // sg-core bijection, grid sampling, hierarchization; sg-io codec.
    let spec = GridSpec::new(COMPRESS_SPEC.0, COMPRESS_SPEC.1);
    let (d, n) = (spec.dim(), spec.num_points() as usize);
    let f = separable(seed, d);
    let (t, nodal) = bench(
        tracer,
        "probe.core.grid.sample",
        5,
        || (),
        |_| CompactGrid::from_fn_parallel(spec, f),
    );
    m.push(Metric::new(
        "core.sample_ns_per_pt",
        t * 1e9 / n as f64,
        "ns",
        Better::Lower,
        5,
    ));

    let indexer = nodal.indexer().clone();
    let mut ls = vec![0u8; n * d];
    let mut is = vec![0u32; n * d];
    for k in 0..n {
        indexer.idx2gp(
            k as u64,
            &mut ls[k * d..(k + 1) * d],
            &mut is[k * d..(k + 1) * d],
        );
    }
    let (t, hits) = bench(
        tracer,
        "probe.core.gp2idx",
        5,
        || (),
        |_| {
            (0..n)
                .filter(|&k| {
                    indexer.gp2idx(&ls[k * d..(k + 1) * d], &is[k * d..(k + 1) * d]) == k as u64
                })
                .count()
        },
    );
    ok &= hits == n;
    m.push(Metric::new(
        "core.gp2idx_ns",
        t * 1e9 / n as f64,
        "ns",
        Better::Lower,
        5,
    ));
    drop((ls, is));

    // Point-updates: every point, in every dimension where its level is
    // above 0; points at level 0 in dimension t are those of the
    // (d−1)-dimensional grid.
    let updates =
        (d as u64) * (spec.num_points() - GridSpec::new(d - 1, spec.levels()).num_points());
    let (t_seq, h_seq) = bench(
        tracer,
        "probe.core.hierarchize",
        5,
        || nodal.clone(),
        |mut g| {
            hierarchize(&mut g);
            g
        },
    );
    let (t_scalar, h_scalar) = bench(
        tracer,
        "probe.core.hierarchize.scalar",
        5,
        || nodal.clone(),
        |mut g| {
            scalar(|| hierarchize(&mut g));
            g
        },
    );
    let (t_par, h_par) = bench(
        tracer,
        "probe.core.hierarchize_parallel",
        5,
        || nodal.clone(),
        |mut g| {
            hierarchize_parallel(&mut g);
            g
        },
    );
    ok &= same_bits(h_seq.values(), h_scalar.values()) && same_bits(h_seq.values(), h_par.values());
    m.push(Metric::new(
        "core.hier_ns_per_update",
        t_seq * 1e9 / updates as f64,
        "ns",
        Better::Lower,
        5,
    ));
    m.push(Metric::new(
        "core.hier_simd_x",
        t_scalar / t_seq,
        "x",
        Better::Higher,
        5,
    ));
    m.push(Metric::new(
        "par.hier_eff",
        t_seq / (p * t_par),
        "ratio",
        Better::Higher,
        5,
    ));
    m.push(Metric::new(
        "core.hier_point_updates",
        updates as f64,
        "count",
        Better::Lower,
        1,
    ));
    // Computed, not measured: each update reads the point and its two
    // parents and writes the point back.
    m.push(Metric::new(
        "core.hier_bytes_computed",
        (updates * 4 * 8) as f64,
        "bytes",
        Better::Lower,
        1,
    ));

    let (t, bytes) = bench(
        tracer,
        "probe.io.snapshot.encode",
        5,
        || (),
        |_| sg_io::encode_snapshot(&h_seq, crate::core_wl::PROVENANCE),
    );
    m.push(Metric::new(
        "io.encode_mb_s",
        bytes.len() as f64 / t / 1e6,
        "MB/s",
        Better::Higher,
        5,
    ));
    let (t, back) = bench(
        tracer,
        "probe.io.snapshot.read",
        5,
        || (),
        |_| sg_io::read_snapshot::<f64>(&bytes),
    );
    ok &= back.is_ok_and(|g| same_bits(g.values(), h_seq.values()));
    m.push(Metric::new(
        "io.read_mb_s",
        bytes.len() as f64 / t / 1e6,
        "MB/s",
        Better::Higher,
        5,
    ));
    drop((nodal, h_seq, h_scalar, h_par, bytes));

    // sg-core evaluation (plan + kernel) and sg-par, at the `evaluate`
    // shape.
    let spec = GridSpec::new(EVALUATE_SPEC.0, EVALUATE_SPEC.1);
    let mut grid = CompactGrid::from_fn_parallel(spec, smooth(seed, 2, spec.dim(), 1.0));
    hierarchize_parallel(&mut grid);
    let xs = Rng::new(seed, 6).points(EVAL_PROBE_POINTS * spec.dim());
    let plan = EvalPlan::new(&spec);
    let subspaces = plan.num_subspaces() as f64;
    let (t1, y1) = bench(
        tracer,
        "probe.core.evaluate.blocked",
        3,
        || (),
        |_| evaluate_batch_blocked_with_plan(&grid, &xs, BLOCK, &plan),
    );
    let (t_scalar, y_scalar) = bench(
        tracer,
        "probe.core.evaluate.blocked.scalar",
        3,
        || (),
        |_| scalar(|| evaluate_batch_blocked_with_plan(&grid, &xs, BLOCK, &plan)),
    );
    let (t_par, y_par) = bench(
        tracer,
        "probe.core.evaluate.parallel",
        3,
        || (),
        |_| evaluate_batch_parallel(&grid, &xs, BLOCK),
    );
    ok &= same_bits(&y1, &y_scalar) && same_bits(&y1, &y_par);
    let pt_ss = EVAL_PROBE_POINTS as f64 * subspaces;
    m.push(Metric::new(
        "core.eval_ns_per_pt_ss",
        t1 * 1e9 / pt_ss,
        "ns",
        Better::Lower,
        3,
    ));
    m.push(Metric::new(
        "core.eval_simd_x",
        t_scalar / t1,
        "x",
        Better::Higher,
        3,
    ));
    m.push(Metric::new(
        "par.eval_eff",
        t1 / (p * t_par),
        "ratio",
        Better::Higher,
        3,
    ));
    // Computed per `evaluate` op: one coefficient (8 bytes) read per
    // point·subspace.
    let op_pt_ss = EVAL_BATCH as f64 * subspaces;
    m.push(Metric::new(
        "core.eval_pt_subspaces",
        op_pt_ss,
        "count",
        Better::Lower,
        1,
    ));
    m.push(Metric::new(
        "core.eval_bytes_computed",
        op_pt_ss * 8.0,
        "bytes",
        Better::Lower,
        1,
    ));
    drop((grid, xs, plan));

    let serve_spec = GridSpec::new(MODEL_SPEC.0, MODEL_SPEC.1);
    let (t, _) = bench(
        tracer,
        "probe.core.plan.build",
        51,
        || (),
        |_| EvalPlan::new(&serve_spec),
    );
    m.push(Metric::new(
        "core.plan_build_us",
        t * 1e6,
        "us",
        Better::Lower,
        51,
    ));

    // sg-serve: the engine in process, then the shipped daemon over TCP.
    let models = Models::build(seed, dir);
    let mut rng = Rng::new(seed, 7);
    let reqs: Vec<Vec<f64>> = (0..64)
        .map(|_| rng.points(SERVE_POINTS * MODEL_SPEC.0))
        .collect();
    let want: Vec<Vec<f64>> = reqs
        .iter()
        .map(|xs| evaluate_batch(&models.grids[0], xs))
        .collect();

    let fleet = sg_serve::Fleet::new(8);
    fleet
        .load("model0", &models.paths[0])
        .expect("in-process load");
    let engine = sg_serve::Engine::new(fleet, sg_serve::ServeConfig::from_env());
    let job = engine.make_job();
    let mut engine_us = Vec::with_capacity(SERVE_PROBE_REQUESTS);
    for i in 0..SERVE_PROBE_REQUESTS {
        let t0 = Instant::now();
        let out = engine.eval(&job, "model0", MODEL_SPEC.0, &reqs[i % reqs.len()]);
        let t1 = Instant::now();
        tracer.record("probe.serve.engine.eval", t0, t1, None, i as u64);
        ok &= out.is_ok_and(|y| same_bits(&y, &want[i % reqs.len()]));
        engine_us.push(t1.duration_since(t0).as_secs_f64() * 1e6);
    }
    engine.shutdown();
    let engine_p50 = median(&engine_us);
    m.push(Metric::new(
        "serve.engine_us",
        engine_p50,
        "us",
        Better::Lower,
        engine_us.len(),
    ));

    let daemon = Daemon::spawn(sgd).expect("starting sgd for the probes");
    let mut ctrl = daemon.connect();
    for (k, path) in models.paths.iter().enumerate() {
        ctrl.load(&format!("model{k}"), path)
            .expect("loading model");
    }
    let before = daemon_counters(&mut ctrl);
    let mut client = daemon.connect();
    let mut out = Vec::new();
    let mut wire_us = Vec::with_capacity(SERVE_PROBE_REQUESTS);
    for i in 0..SERVE_PROBE_REQUESTS {
        let t0 = Instant::now();
        let r = client.eval_into("model0", MODEL_SPEC.0, &reqs[i % reqs.len()], &mut out);
        let t1 = Instant::now();
        tracer.record("probe.client.eval", t0, t1, None, i as u64);
        ok &= r.is_ok() && same_bits(&out, &want[i % reqs.len()]);
        wire_us.push(t1.duration_since(t0).as_secs_f64() * 1e6);
    }
    let mut traffic = Traffic::default();
    add_retry(&mut traffic.retry, client.retry_stats());
    drop(client);
    m.push(Metric::new(
        "serve.wire_us",
        median(&wire_us) - engine_p50,
        "us",
        Better::Lower,
        wire_us.len(),
    ));

    for k in 0..LOAD_PROBES {
        let path = if k % 2 == 0 {
            &models.path0_b
        } else {
            &models.paths[0]
        };
        let t0 = Instant::now();
        ok &= ctrl.load("model0", path).is_ok();
        let t1 = Instant::now();
        tracer.record("probe.client.load", t0, t1, None, k as u64);
        traffic
            .swaps_ms
            .push(t1.duration_since(t0).as_secs_f64() * 1e3);
    }
    m.push(Metric::new(
        "serve.fleet_load_ms",
        median(&traffic.swaps_ms),
        "ms",
        Better::Lower,
        LOAD_PROBES,
    ));
    let after = daemon_counters(&mut ctrl);
    add_retry(&mut traffic.retry, ctrl.retry_stats());
    traffic.requests = after[0] - before[0];
    traffic.batches = after[1] - before[1];
    traffic.overloads = after[2] - before[2];
    drop(ctrl);
    daemon.stop();

    Probes {
        metrics: m,
        traffic,
        ok,
    }
}
