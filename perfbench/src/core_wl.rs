//! In-process workloads: `compress` (sample → hierarchize → encode) and
//! `evaluate` (parallel batch evaluation of a prebuilt grid).

use crate::util::{same_bits, Rng, Tracer};
use crate::{Window, Workload};
use sg_core::grid::CompactGrid;
use sg_core::hierarchize::{hierarchize_alg6_literal, hierarchize_parallel};
use sg_core::kernel::{with_kernel, KernelKind, KernelSelect};
use sg_core::level::GridSpec;
use std::time::{Duration, Instant};

pub const COMPRESS_SPEC: (usize, usize) = (10, 7);
pub const EVALUATE_SPEC: (usize, usize) = (6, 9);
/// Query points per `evaluate` operation.
pub const EVAL_BATCH: usize = 8192;
/// Distinct seeded batches the `evaluate` loop cycles through.
const EVAL_BATCHES: usize = 2;
/// Cache block of the blocked evaluator (the `sgd` default).
pub const BLOCK: usize = 64;
pub const PROVENANCE: &str = "perfbench";

/// The cheap separable function `compress` samples:
/// `f(x) = Π_t (1 + c_t · x_t (1 − x_t))` with seeded `c_t ∈ [0.5, 2)`.
pub fn separable(seed: u64, dim: usize) -> impl Fn(&[f64]) -> f64 + Sync + Copy {
    let mut rng = Rng::new(seed, 1);
    let mut c = [0.0f64; 16];
    for v in c.iter_mut().take(dim) {
        *v = rng.range(0.5, 2.0);
    }
    move |x: &[f64]| {
        x.iter()
            .zip(&c)
            .map(|(&xt, &ct)| 1.0 + ct * xt * (1.0 - xt))
            .product()
    }
}

/// A smooth non-separable function for `evaluate` and the served models:
/// `scale · sin(Σ_t w_t x_t) + x_0²` with seeded weights.
pub fn smooth(seed: u64, stream: u64, dim: usize, scale: f64) -> impl Fn(&[f64]) -> f64 + Sync {
    let mut rng = Rng::new(seed, stream);
    let w: Vec<f64> = (0..dim).map(|_| rng.range(0.5, 3.0)).collect();
    move |x: &[f64]| scale * x.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>().sin() + x[0] * x[0]
}

type Sampled = Box<dyn Fn(&[f64]) -> f64 + Sync>;

pub struct Compress {
    spec: GridSpec,
    f: Sampled,
    /// Alg. 6 transcribed literally, over sequentially drawn samples.
    reference: CompactGrid<f64>,
}

impl Compress {
    pub fn setup(seed: u64) -> Compress {
        let spec = GridSpec::new(COMPRESS_SPEC.0, COMPRESS_SPEC.1);
        let f = separable(seed, spec.dim());
        let mut reference = CompactGrid::from_fn(spec, f);
        hierarchize_alg6_literal(&mut reference);
        Compress {
            spec,
            f: Box::new(f),
            reference,
        }
    }

    /// One operation: sample → hierarchize → encode, each call in its own
    /// span under the op span.
    fn op(&self, tracer: &mut Tracer, id: u64) -> (CompactGrid<f64>, Vec<u8>) {
        let root = tracer.open("compress.op", None, id);
        let mut g = tracer.span("core.grid.sample", root, id, || {
            CompactGrid::from_fn_parallel(self.spec, &self.f)
        });
        tracer.span("core.hierarchize", root, id, || {
            hierarchize_parallel(&mut g)
        });
        let bytes = tracer.span("io.snapshot.encode", root, id, || {
            sg_io::encode_snapshot(&g, PROVENANCE)
        });
        tracer.close(root);
        (g, bytes)
    }

    fn check(&self, g: &CompactGrid<f64>, bytes: &[u8]) -> bool {
        same_bits(g.values(), self.reference.values())
            && sg_io::read_snapshot::<f64>(bytes).is_ok_and(|back| {
                *back.spec() == self.spec && same_bits(back.values(), self.reference.values())
            })
    }
}

impl Workload for Compress {
    fn warm_up(&mut self) -> bool {
        let (g, bytes) = self.op(&mut Tracer::new(false), 0);
        self.check(&g, &bytes)
    }

    fn measure(&mut self, tracer: &mut Tracer, length: Duration) -> Window {
        closed_loop(length, self.spec.num_points() as f64, |id| {
            let t0 = Instant::now();
            let (g, bytes) = self.op(tracer, id);
            let dt = t0.elapsed();
            (dt, self.check(&g, &bytes))
        })
    }

    fn peak_rss_mib(&self) -> f64 {
        crate::util::peak_rss_mib("self").unwrap_or(f64::NAN)
    }

    fn key(&self) -> sg_json::Value {
        sg_json::json!({
            "d": self.spec.dim() as u64,
            "level": self.spec.levels() as u64,
            "grid_points": self.spec.num_points(),
            "points_per_op": self.spec.num_points(),
        })
    }
}

pub struct Evaluate {
    grid: CompactGrid<f64>,
    batches: Vec<Vec<f64>>,
    /// Forced-scalar-kernel answers, one vector per batch.
    expected: Vec<Vec<f64>>,
    /// The forced-scalar answers agree with per-point `evaluate` (Alg. 7,
    /// no blocking) on every 32nd point: the reference shares the blocked
    /// path with the code it checks, so it is checked itself.
    reference_ok: bool,
}

impl Evaluate {
    pub fn setup(seed: u64) -> Evaluate {
        let spec = GridSpec::new(EVALUATE_SPEC.0, EVALUATE_SPEC.1);
        let mut grid = CompactGrid::from_fn_parallel(spec, smooth(seed, 2, spec.dim(), 1.0));
        hierarchize_parallel(&mut grid);
        let mut rng = Rng::new(seed, 3);
        let batches: Vec<Vec<f64>> = (0..EVAL_BATCHES)
            .map(|_| rng.points(EVAL_BATCH * spec.dim()))
            .collect();
        let expected: Vec<Vec<f64>> = with_kernel(KernelSelect::Force(KernelKind::Scalar), || {
            batches
                .iter()
                .map(|xs| sg_core::evaluate::evaluate_batch_parallel(&grid, xs, BLOCK))
                .collect()
        });
        let d = spec.dim();
        let reference_ok = batches.iter().zip(&expected).all(|(xs, ys)| {
            (0..EVAL_BATCH).step_by(32).all(|k| {
                let y = sg_core::evaluate::evaluate(&grid, &xs[k * d..(k + 1) * d]);
                y.to_bits() == ys[k].to_bits()
            })
        });
        Evaluate {
            grid,
            batches,
            expected,
            reference_ok,
        }
    }
}

impl Workload for Evaluate {
    fn warm_up(&mut self) -> bool {
        let out = sg_core::evaluate::evaluate_batch_parallel(&self.grid, &self.batches[0], BLOCK);
        self.reference_ok && same_bits(&out, &self.expected[0])
    }

    fn measure(&mut self, tracer: &mut Tracer, length: Duration) -> Window {
        closed_loop(length, EVAL_BATCH as f64, |id| {
            let b = id as usize % self.batches.len();
            let t0 = Instant::now();
            let root = tracer.open("evaluate.op", None, id);
            let out = tracer.span("core.evaluate.batch_parallel", root, id, || {
                sg_core::evaluate::evaluate_batch_parallel(&self.grid, &self.batches[b], BLOCK)
            });
            tracer.close(root);
            let dt = t0.elapsed();
            (dt, same_bits(&out, &self.expected[b]))
        })
    }

    fn peak_rss_mib(&self) -> f64 {
        crate::util::peak_rss_mib("self").unwrap_or(f64::NAN)
    }

    fn key(&self) -> sg_json::Value {
        let spec = self.grid.spec();
        sg_json::json!({
            "d": spec.dim() as u64,
            "level": spec.levels() as u64,
            "grid_points": spec.num_points(),
            "points_per_op": EVAL_BATCH as u64,
            "block": BLOCK as u64,
        })
    }
}

/// Run `op` back to back for `length`. `op` returns its own time and
/// whether its output checked out. Each op is due when the previous one
/// ended (closed loop), so generator lateness is the benchmark's own gap
/// between ops, the output check included.
fn closed_loop(
    length: Duration,
    points_per_op: f64,
    mut op: impl FnMut(u64) -> (Duration, bool),
) -> Window {
    let mut w = Window {
        points_per_op,
        in_flight: 1.0,
        ..Window::default()
    };
    let start = Instant::now();
    let mut due = start;
    while start.elapsed() < length {
        let sent = Instant::now();
        w.late_ms.push(sent.duration_since(due).as_secs_f64() * 1e3);
        let (dt, ok) = op(w.attempted);
        due = sent + dt;
        w.attempted += 1;
        w.busy_s += dt.as_secs_f64();
        w.lat_ms.push(dt.as_secs_f64() * 1e3);
        if ok {
            w.points += points_per_op;
        } else {
            w.failed += 1;
        }
    }
    w
}
