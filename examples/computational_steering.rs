//! Computational steering end-to-end — the complete Fig. 1 pipeline with
//! a real simulation substrate.
//!
//! A 2-d diffusion simulation is swept over its diffusivity; the
//! resulting 4-dimensional dataset (x, y, time, diffusivity) is
//! compressed into a sparse grid with boundary support (§4.4 — the time
//! and parameter axes do not vanish at their ends). The "steering" part:
//! the compressed surrogate answers what-if queries at parameter values
//! that were never simulated, instantly.
//!
//! Run with: `cargo run --release -p sg-apps --example computational_steering`

use sg_apps::sim::{HeatSolver, SweepDataset};
use sg_core::boundary::BoundaryGrid;
use std::f64::consts::PI;
use std::time::Instant;

fn main() {
    // --- Simulation sweep (the expensive offline part).
    let ic = |x: &[f64]| {
        (PI * x[0]).sin() * (PI * x[1]).sin()
            + 0.5 * (2.0 * PI * x[0]).sin().abs() * x[1] * (1.0 - x[1])
    };
    let times: Vec<f64> = (0..9).map(|k| k as f64 * 0.005).collect();
    let nus: Vec<f64> = vec![0.1, 0.2, 0.4, 0.8, 1.6];
    let t0 = Instant::now();
    let dataset = SweepDataset::generate(2, 5, ic, &times, &nus);
    println!(
        "simulated {} runs × {} snapshots ({} samples) in {:.2?}",
        nus.len(),
        times.len(),
        dataset.total_samples(),
        t0.elapsed()
    );

    // --- Compression into a 4-d sparse grid with boundary support.
    let t0 = Instant::now();
    let mut surrogate: BoundaryGrid<f64> = BoundaryGrid::from_fn(4, 5, |x| dataset.eval(x));
    surrogate.hierarchize();
    println!(
        "compressed into {} sparse grid coefficients ({} bytes) in {:.2?}",
        surrogate.len(),
        surrogate.memory_bytes(),
        t0.elapsed()
    );

    // --- Steering: query a diffusivity that was never simulated.
    // nu01 = 0.55 lies between the ν = 0.4 and ν = 0.8 runs.
    let (t01, nu01) = (0.62, 0.55);
    let t0 = Instant::now();
    let mut probes = 0u32;
    let mut surrogate_center = 0.0;
    for _ in 0..1000 {
        surrogate_center = surrogate.evaluate(&[0.5, 0.5, t01, nu01]);
        probes += 1;
    }
    let per_query = t0.elapsed() / probes;
    println!("\nsurrogate query at untried (t, ν): {surrogate_center:.5} ({per_query:.2?}/query)");

    // Ground truth: actually run that simulation. The dataset's
    // normalized axes address the run lattice in index space, so map the
    // same way.
    let lattice = |axis: &[f64], u: f64| {
        let pos = u * (axis.len() - 1) as f64;
        let k = (pos as usize).min(axis.len() - 2);
        axis[k] + (pos - k as f64) * (axis[k + 1] - axis[k])
    };
    let nu_real = lattice(&nus, nu01);
    let t_real = lattice(&times, t01);
    let t0 = Instant::now();
    let mut solver = HeatSolver::new(2, 5, nu_real, ic);
    solver.advance_to(t_real);
    let truth = solver.snapshot().interpolate(&[0.5, 0.5]);
    println!(
        "fresh simulation at ν={nu_real:.3}, t={t_real:.4}: {truth:.5} ({:.2?})",
        t0.elapsed()
    );
    let err = (surrogate_center - truth).abs();
    println!("steering error: {err:.2e} — at ~10^4-10^6x lower latency than re-simulating");
    // The surrogate interpolates the *run lattice*, so some model error
    // vs a fresh simulation is expected; it must stay small.
    assert!(err < 0.05, "steering error too large: {err}");

    // --- Interactive slice at the untried parameters.
    const W: usize = 56;
    const H: usize = 24;
    let mut values = vec![0.0; W * H];
    for row in 0..H {
        for col in 0..W {
            values[row * W + col] = surrogate.evaluate(&[
                col as f64 / (W - 1) as f64,
                1.0 - row as f64 / (H - 1) as f64,
                t01,
                nu01,
            ]);
        }
    }
    let max = values.iter().copied().fold(1e-12f64, f64::max);
    const SHADES: &[u8] = b" .:-=+*#%@";
    println!("\ntemperature field at the steered (t, ν):");
    for row in 0..H {
        let line: String = (0..W)
            .map(|col| {
                let v = (values[row * W + col] / max).clamp(0.0, 1.0);
                SHADES[(v * (SHADES.len() - 1) as f64).round() as usize] as char
            })
            .collect();
        println!("  {line}");
    }
}
