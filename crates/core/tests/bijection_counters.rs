//! Exact bijection-call budget of hierarchization and parallel sampling.
//!
//! Every `gp2idx`/`idx2gp` call bumps process-global atomics, so a
//! per-point or per-run call inside a pool worker serializes the workers
//! on those cache lines. This test pins the budget: `gp2idx` once per
//! (subspace, sweep dimension, parent level), `idx2gp` once per
//! 1024-point sampling chunk. The counters are process-global, so any
//! other test running concurrently would bump them inside the measured
//! window; this file holds exactly one test for that reason.

#![cfg(feature = "telemetry")]

use sg_core::combinatorics::subspace_count;
use sg_core::grid::CompactGrid;
use sg_core::hierarchize::{
    dehierarchize, dehierarchize_parallel, hierarchize, hierarchize_parallel,
};
use sg_core::level::GridSpec;

fn counter(name: &str) -> u64 {
    sg_telemetry::snapshot().counter(name).unwrap_or(0)
}

/// `(gp2idx, idx2gp)` calls made by `f`.
fn bijection_calls(f: impl FnOnce()) -> (u64, u64) {
    let gp0 = counter("core.bijection.gp2idx_calls");
    let idx0 = counter("core.bijection.idx2gp_calls");
    f();
    (
        counter("core.bijection.gp2idx_calls") - gp0,
        counter("core.bijection.idx2gp_calls") - idx0,
    )
}

#[test]
fn hierarchization_and_sampling_stay_within_the_bijection_budget() {
    let (d, levels) = (10, 5);
    let spec = GridSpec::new(d, levels);
    let f = |x: &[f64]| x.iter().map(|&v| 1.0 + v * (1.0 - v)).product::<f64>();

    // A subspace with level sum n has n parent levels summed over its
    // sweep dimensions: Σ_t l_t = n.
    let per_sweep: u64 = (0..levels).map(|n| n as u64 * subspace_count(d, n)).sum();
    assert_eq!(per_sweep, 3640);
    let mut grid = CompactGrid::from_fn(spec, f);
    for (name, run) in [
        ("hierarchize", hierarchize as fn(&mut CompactGrid<f64>)),
        ("hierarchize_parallel", hierarchize_parallel),
        ("dehierarchize", dehierarchize),
        ("dehierarchize_parallel", dehierarchize_parallel),
    ] {
        let calls = bijection_calls(|| run(&mut grid));
        assert_eq!(calls, (per_sweep, 0), "{name}");
    }

    let chunks = spec.num_points().div_ceil(1024);
    assert_eq!(chunks, 14);
    let calls = bijection_calls(|| {
        CompactGrid::from_fn_parallel(spec, f);
    });
    assert_eq!(calls, (0, chunks), "from_fn_parallel");
}
