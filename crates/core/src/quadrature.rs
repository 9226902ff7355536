//! Quadrature on the compact representation.
//!
//! The integral falls out of the hierarchical basis for free: the
//! integral of the d-dimensional hat `φ_{l,i}` over `[0,1]^d` is
//! `∏_t 2^{−(l_t+1)}` = `2^{−(|l|₁+d)}` — constant per subspace, so
//! integration is one weighted pass over the coefficient array.

use crate::grid::CompactGrid;
use crate::real::Real;

/// Integral of the sparse grid interpolant over the whole domain
/// `[0,1]^d`: `Σ_{l,i} α_{l,i} · 2^{−(|l|₁+d)}`.
///
/// ```
/// use sg_core::prelude::*;
/// use sg_core::quadrature::integrate;
/// // f(x) = 4x(1−x) integrates to 2/3 per dimension.
/// let mut g = CompactGrid::from_fn(GridSpec::new(2, 9), |x| {
///     x.iter().map(|&v| 4.0 * v * (1.0 - v)).product::<f64>()
/// });
/// hierarchize(&mut g);
/// let exact = (2.0f64 / 3.0).powi(2);
/// assert!((integrate(&g) - exact).abs() < 1e-4);
/// ```
pub fn integrate<T: Real>(grid: &CompactGrid<T>) -> f64 {
    let spec = grid.spec();
    let d = spec.dim();
    let values = grid.values();
    let mut acc = 0.0f64;
    let mut offset = 0usize;
    for n in 0..spec.levels() {
        let sub_len = 1usize << n;
        let weight = 0.5f64.powi((n + d) as i32);
        let group_points = sub_len * crate::combinatorics::subspace_count(d, n) as usize;
        let group_sum: f64 = values[offset..offset + group_points]
            .iter()
            .map(|v| v.to_f64())
            .sum();
        acc += weight * group_sum;
        offset += group_points;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::TestFunction;
    use crate::hierarchize::hierarchize;
    use crate::level::GridSpec;

    fn surplus_grid(d: usize, levels: usize, f: impl FnMut(&[f64]) -> f64) -> CompactGrid<f64> {
        let mut g = CompactGrid::from_fn(GridSpec::new(d, levels), f);
        hierarchize(&mut g);
        g
    }

    #[test]
    fn integral_of_single_hat() {
        // A grid with exactly one unit surplus at the root integrates to
        // 2^{−d} (each 1-d hat has area 1/2).
        for d in 1..=4 {
            let mut g: CompactGrid<f64> = CompactGrid::new(GridSpec::new(d, 3));
            g.set(&vec![0; d], &vec![1; d], 1.0);
            assert!((integrate(&g) - 0.5f64.powi(d as i32)).abs() < 1e-15);
        }
    }

    #[test]
    fn integral_converges_to_exact_value() {
        // ∫ ∏ 4x(1−x) = (2/3)^d.
        for d in 1..=3 {
            let exact = (2.0f64 / 3.0).powi(d as i32);
            let coarse = integrate(&surplus_grid(d, 3, |x| TestFunction::Parabola.eval(x)));
            let fine = integrate(&surplus_grid(d, 8, |x| TestFunction::Parabola.eval(x)));
            assert!(
                (fine - exact).abs() < (coarse - exact).abs(),
                "d={d}: refinement must reduce quadrature error"
            );
            assert!((fine - exact).abs() < 1e-3, "d={d}: {fine} vs {exact}");
        }
    }

    #[test]
    fn integral_is_linear() {
        let g = surplus_grid(2, 5, |x| TestFunction::SineProduct.eval(x));
        let doubled =
            CompactGrid::from_parts(*g.spec(), g.values().iter().map(|&v| 2.0 * v).collect());
        assert!((integrate(&doubled) - 2.0 * integrate(&g)).abs() < 1e-14);
    }
}
