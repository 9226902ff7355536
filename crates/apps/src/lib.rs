#![warn(missing_docs)]

//! # sg-apps — examples and integration tests
//!
//! This crate hosts the repository-level `examples/` binaries and the
//! cross-crate `tests/` integration suite (wired in via explicit target
//! paths in `Cargo.toml`). The library re-exports the workspace crates so
//! examples can use one import root, and holds [`sim`], the diffusion
//! simulator that feeds the computational-steering example.

pub use sg_baselines as baselines;
pub use sg_core as core;
pub use sg_gpu as gpu;
pub use sg_machine as machine;

pub mod sim;

#[cfg(test)]
mod tests {
    //! Tests of the [`sim`](super::sim) diffusion simulator.
    use super::sim::*;
    use sg_core::full_grid::FullGrid;
    use std::f64::consts::PI;

    #[test]
    fn single_mode_decays_at_the_analytic_rate_1d() {
        // u(x,0) = sin(πx) ⇒ u(x,t) = e^{−νπ²t} sin(πx).
        let nu = 0.5;
        let mut s = HeatSolver::new(1, 7, nu, |x| (PI * x[0]).sin());
        let t_end = 0.05;
        s.advance_to(t_end);
        let decay = (-nu * PI * PI * s.time()).exp();
        let g = s.snapshot();
        for k in [10usize, 40, 63, 100] {
            let x = (k + 1) as f64 / 128.0;
            let expect = decay * (PI * x).sin();
            let got = g.get(&[k]);
            assert!(
                (got - expect).abs() < 2e-3,
                "x={x}: {got} vs analytic {expect}"
            );
        }
    }

    #[test]
    fn product_mode_decays_at_double_rate_2d() {
        let nu = 0.25;
        let mut s = HeatSolver::new(2, 6, nu, |x| (PI * x[0]).sin() * (PI * x[1]).sin());
        s.advance_to(0.04);
        let decay = (-2.0 * nu * PI * PI * s.time()).exp();
        let g = s.snapshot();
        let got = g.interpolate(&[0.5, 0.5]);
        assert!(
            (got - decay).abs() < 5e-3,
            "centre {got} vs analytic {decay}"
        );
    }

    #[test]
    fn maximum_principle_holds() {
        let mut s = HeatSolver::new(2, 5, 1.0, |x| {
            (16.0 * x[0] * (1.0 - x[0]) * x[1] * (1.0 - x[1])).powi(2)
        });
        let initial_max = s.max_abs();
        for _ in 0..200 {
            s.step();
            assert!(s.max_abs() <= initial_max + 1e-12, "max principle violated");
        }
        // And diffusion actually decays the peak.
        assert!(s.max_abs() < initial_max * 0.9);
    }

    #[test]
    fn zero_field_stays_zero() {
        let mut s = HeatSolver::new(1, 5, 1.0, |_| 0.0);
        for _ in 0..50 {
            s.step();
        }
        assert_eq!(s.max_abs(), 0.0);
    }

    #[test]
    fn dt_respects_the_cfl_limit() {
        for d in 1..=3 {
            let s = HeatSolver::new(d, 6, 2.0, |_| 0.0);
            let h = 1.0 / 64.0;
            assert!(s.dt() <= h * h / (2.0 * d as f64 * 2.0));
        }
    }

    #[test]
    fn sweep_lattice_is_interpolated_exactly_at_nodes() {
        let ds =
            SweepDataset::generate(1, 5, |x| (PI * x[0]).sin(), &[0.0, 0.01, 0.02], &[0.2, 0.6]);
        assert_eq!(ds.dim(), 3);
        // At (t01, nu01) lattice corners, eval must reproduce the
        // snapshot interpolants.
        for (kt, t01) in [(0usize, 0.0f64), (1, 0.5), (2, 1.0)] {
            for (kn, nu01) in [(0usize, 0.0f64), (1, 1.0)] {
                let x = [0.375, t01, nu01];
                let direct = ds.snapshots[kn][kt].interpolate(&[0.375]);
                assert!((ds.eval(&x) - direct).abs() < 1e-14, "kt={kt} kn={kn}");
            }
        }
    }

    #[test]
    fn sweep_decays_in_time_and_faster_for_higher_nu() {
        let ds =
            SweepDataset::generate(1, 6, |x| (PI * x[0]).sin(), &[0.0, 0.02, 0.04], &[0.1, 1.0]);
        let centre_at = |t01: f64, nu01: f64| ds.eval(&[0.5, t01, nu01]);
        assert!(centre_at(1.0, 0.0) < centre_at(0.0, 0.0));
        assert!(centre_at(1.0, 1.0) < centre_at(1.0, 0.0));
    }

    #[test]
    fn sweep_feeds_the_compression_pipeline() {
        // The dataset vanishes on the *spatial* boundary but not on the
        // time/diffusivity axis boundaries — exactly the situation the
        // paper's §4.4 boundary extension exists for.
        use sg_core::boundary::BoundaryGrid;
        use sg_core::functions::halton_points;
        let ds = SweepDataset::generate(
            1,
            6,
            |x| (PI * x[0]).sin(),
            &[0.0, 0.01, 0.02, 0.03],
            &[0.2, 0.5, 1.0],
        );
        let mut grid: BoundaryGrid<f64> = BoundaryGrid::from_fn(3, 6, |x| ds.eval(x));
        grid.hierarchize();
        // The compressed representation reproduces the dataset closely.
        let mut worst = 0.0f64;
        for x in halton_points(3, 200).chunks_exact(3) {
            worst = worst.max((grid.evaluate(x) - ds.eval(x)).abs());
        }
        assert!(worst < 0.05, "compression error {worst}");
        // With far fewer coefficients than the full level-6 lattice over
        // all three axes that the sparse grid stands in for.
        let full = FullGrid::<f64>::total_points(3, 6).unwrap();
        assert!((grid.len() as u64) * 10 < full, "{} vs {full}", grid.len());
    }
}
