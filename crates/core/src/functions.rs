//! Test-function corpus for experiments, examples, and accuracy studies.
//!
//! All functions map `[0,1]^d → ℝ`. The first group vanishes on the
//! domain boundary (the paper's default setting); [`TestFunction::is_zero_boundary`]
//! reports which, so experiments with the boundary extension (paper §4.4)
//! can pick the others.

/// A named d-dimensional test function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestFunction {
    /// `∏_t 4 x_t (1 − x_t)` — smooth, separable, zero boundary; the
    /// classic sparse grid benchmark function.
    Parabola,
    /// `∏_t sin(π x_t)` — smooth, zero boundary.
    SineProduct,
    /// `exp(−c ‖x − ½‖²) − exp(−c ‖corner distance‖)`-style bump,
    /// approximately zero at the boundary (exactly zero only in the
    /// limit); treated as zero-boundary for interpolation studies.
    Gaussian,
    /// `1 / (1 + ‖x‖₁)` — smooth but with non-zero boundary values.
    Reciprocal,
    /// `Σ_t x_t` — d-linear with non-zero boundary; exactly representable
    /// by a level-1 grid *with* boundary, badly by zero-boundary grids.
    Linear,
    /// Oscillatory `cos(2π w·x)`-style function with unit weights;
    /// non-zero boundary.
    Oscillatory,
}

impl TestFunction {
    /// All defined functions.
    pub const ALL: [TestFunction; 6] = [
        TestFunction::Parabola,
        TestFunction::SineProduct,
        TestFunction::Gaussian,
        TestFunction::Reciprocal,
        TestFunction::Linear,
        TestFunction::Oscillatory,
    ];

    /// Evaluate at `x`.
    pub fn eval(&self, x: &[f64]) -> f64 {
        match self {
            TestFunction::Parabola => x.iter().map(|&v| 4.0 * v * (1.0 - v)).product(),
            TestFunction::SineProduct => x
                .iter()
                .map(|&v| (std::f64::consts::PI * v).sin())
                .product(),
            TestFunction::Gaussian => {
                let r2: f64 = x.iter().map(|&v| (v - 0.5) * (v - 0.5)).sum();
                (-10.0 * r2).exp()
            }
            TestFunction::Reciprocal => 1.0 / (1.0 + x.iter().sum::<f64>()),
            TestFunction::Linear => x.iter().sum(),
            TestFunction::Oscillatory => {
                (2.0 * std::f64::consts::PI * x.iter().sum::<f64>() / x.len() as f64).cos()
            }
        }
    }

    /// Closure form, convenient for `CompactGrid::from_fn`.
    pub fn as_fn(&self) -> impl Fn(&[f64]) -> f64 + Copy + Send + Sync + '_ {
        move |x| self.eval(x)
    }

    /// Whether the function is (exactly) zero on the boundary of
    /// `[0,1]^d`.
    pub fn is_zero_boundary(&self) -> bool {
        matches!(self, TestFunction::Parabola | TestFunction::SineProduct)
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            TestFunction::Parabola => "parabola",
            TestFunction::SineProduct => "sine-product",
            TestFunction::Gaussian => "gaussian",
            TestFunction::Reciprocal => "reciprocal",
            TestFunction::Linear => "linear",
            TestFunction::Oscillatory => "oscillatory",
        }
    }
}

/// Most dimensions [`halton_points`] covers (one prime base each).
pub const HALTON_MAX_DIMS: usize = 32;

/// Deterministic quasi-random points in `[0,1]^d` (Halton-style radical
/// inverse), flat row-major — the evaluation workload of the paper
/// (§5.3: "the number of interpolation points is typically around 10⁵").
pub fn halton_points(d: usize, count: usize) -> Vec<f64> {
    const PRIMES: [u64; HALTON_MAX_DIMS] = [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89,
        97, 101, 103, 107, 109, 113, 127, 131,
    ];
    assert!(
        d <= PRIMES.len(),
        "halton_points supports up to 32 dimensions"
    );
    let mut out = Vec::with_capacity(d * count);
    for k in 1..=count as u64 {
        for &p in &PRIMES[..d] {
            out.push(radical_inverse(k, p));
        }
    }
    out
}

fn radical_inverse(mut k: u64, base: u64) -> f64 {
    let mut inv = 0.0f64;
    let mut f = 1.0 / base as f64;
    while k > 0 {
        inv += (k % base) as f64 * f;
        k /= base;
        f /= base as f64;
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_boundary_functions_vanish_on_faces() {
        for f in TestFunction::ALL {
            if !f.is_zero_boundary() {
                continue;
            }
            for d in 1..=3 {
                let mut x = vec![0.3; d];
                x[0] = 0.0;
                assert_eq!(f.eval(&x), 0.0, "{} at {:?}", f.name(), x);
                x[0] = 1.0;
                assert!(f.eval(&x).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn parabola_peaks_at_center() {
        for d in 1..=4 {
            let x = vec![0.5; d];
            assert_eq!(TestFunction::Parabola.eval(&x), 1.0);
        }
    }

    #[test]
    fn linear_is_the_coordinate_sum() {
        assert_eq!(TestFunction::Linear.eval(&[0.25, 0.5]), 0.75);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = TestFunction::ALL.iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TestFunction::ALL.len());
    }

    #[test]
    fn halton_points_in_unit_cube_and_low_discrepancy_ish() {
        let pts = halton_points(3, 1000);
        assert_eq!(pts.len(), 3000);
        assert!(pts.iter().all(|&v| (0.0..1.0).contains(&v)));
        // Mean should be close to 0.5 in every dimension.
        for t in 0..3 {
            let mean: f64 = pts.iter().skip(t).step_by(3).sum::<f64>() / 1000.0;
            assert!((mean - 0.5).abs() < 0.02, "dim {t} mean {mean}");
        }
    }

    #[test]
    fn radical_inverse_base2() {
        assert_eq!(radical_inverse(1, 2), 0.5);
        assert_eq!(radical_inverse(2, 2), 0.25);
        assert_eq!(radical_inverse(3, 2), 0.75);
        assert_eq!(radical_inverse(4, 2), 0.125);
    }
}
