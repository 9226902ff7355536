//! The simulation substrate of the Fig. 1 pipeline.
//!
//! The paper's application is "the visual and interactive exploration of
//! multi-dimensional data" produced by "the multi-dimensional and
//! multi-physics simulation under investigation" (§1). This module is that
//! first box of Fig. 1: a d-dimensional diffusion (heat-equation) solver,
//! swept over physical parameters, whose output forms the
//! higher-dimensional dataset (space × time × parameter) that the sparse
//! grid pipeline compresses.
//!
//! The solver is a standard explicit FTCS scheme on the same uniform
//! interior lattice as [`sg_core::full_grid::FullGrid`] with homogeneous
//! Dirichlet boundaries, CFL-guarded, and validated against the analytic
//! decay of Fourier modes.

#![allow(clippy::needless_range_loop)] // lockstep indexing over parallel arrays reads clearer in numeric kernels

use sg_core::full_grid::FullGrid;

/// Explicit finite-difference solver for `∂u/∂t = ν Δu` on `[0,1]^d`
/// with zero Dirichlet boundary values.
#[derive(Debug, Clone)]
pub struct HeatSolver {
    space_dims: usize,
    level: usize,
    nu: f64,
    dt: f64,
    time: f64,
    per_dim: usize,
    strides: Vec<usize>,
    field: Vec<f64>,
    scratch: Vec<f64>,
}

impl HeatSolver {
    /// New solver on the interior lattice of refinement level `level`
    /// (`2^level − 1` points per dimension) with diffusivity `nu`,
    /// initialized by sampling `ic`.
    ///
    /// The time step is fixed at 90% of the FTCS stability limit
    /// `h²/(2·d·ν)`.
    pub fn new(space_dims: usize, level: usize, nu: f64, ic: impl FnMut(&[f64]) -> f64) -> Self {
        assert!((1..=3).contains(&space_dims), "1 to 3 spatial dimensions");
        assert!(nu > 0.0, "diffusivity must be positive");
        let initial = FullGrid::<f64>::from_fn(space_dims, level, ic);
        let per_dim = FullGrid::<f64>::points_per_dim(level);
        let mut strides = vec![0usize; space_dims];
        let mut s = 1usize;
        for t in (0..space_dims).rev() {
            strides[t] = s;
            s *= per_dim;
        }
        let h = 1.0 / (1u64 << level) as f64;
        let dt = 0.9 * h * h / (2.0 * space_dims as f64 * nu);
        let field = initial.values().to_vec();
        Self {
            space_dims,
            level,
            nu,
            dt,
            time: 0.0,
            per_dim,
            strides,
            scratch: vec![0.0; field.len()],
            field,
        }
    }

    /// Spatial dimensionality.
    pub fn space_dims(&self) -> usize {
        self.space_dims
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The (stability-limited) time step.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Advance one FTCS step.
    pub fn step(&mut self) {
        let h = 1.0 / (1u64 << self.level) as f64;
        let r = self.nu * self.dt / (h * h);
        let per_dim = self.per_dim;
        let strides = &self.strides;
        let d = self.space_dims;
        let field = &self.field;
        const CHUNK: usize = 4096;
        sg_par::par_chunks_mut(&mut self.scratch, CHUNK, |ci, chunk| {
            let base = ci * CHUNK;
            for (off, out) in chunk.iter_mut().enumerate() {
                let flat = base + off;
                let u = field[flat];
                let mut lap = 0.0;
                for t in 0..d {
                    let k = flat / strides[t] % per_dim;
                    let left = if k > 0 { field[flat - strides[t]] } else { 0.0 };
                    let right = if k + 1 < per_dim {
                        field[flat + strides[t]]
                    } else {
                        0.0
                    };
                    lap += left - 2.0 * u + right;
                }
                *out = u + r * lap;
            }
        });
        std::mem::swap(&mut self.field, &mut self.scratch);
        self.time += self.dt;
    }

    /// Advance until `time ≥ t`.
    pub fn advance_to(&mut self, t: f64) {
        while self.time < t {
            self.step();
        }
    }

    /// Snapshot the current field as a [`FullGrid`] (zero-boundary
    /// interior lattice, directly consumable by the compression
    /// pipeline's `restrict_to_sparse`).
    pub fn snapshot(&self) -> FullGrid<f64> {
        let mut g = FullGrid::<f64>::new(self.space_dims, self.level);
        let mut multi = vec![0usize; self.space_dims];
        for flat in 0..self.field.len() {
            let mut rem = flat;
            for t in (0..self.space_dims).rev() {
                multi[t] = rem % self.per_dim;
                rem /= self.per_dim;
            }
            g.set(&multi, self.field[flat]);
        }
        g
    }

    /// Maximum absolute field value (for max-principle checks).
    pub fn max_abs(&self) -> f64 {
        self.field.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }
}

/// A parameter sweep of heat simulations: snapshots over a lattice of
/// save times × diffusivities, exposed as one `(space + 2)`-dimensional
/// function on the unit cube — the dataset the steering application
/// compresses (space…, normalized time, normalized diffusivity).
#[derive(Debug, Clone)]
pub struct SweepDataset {
    space_dims: usize,
    times: Vec<f64>,
    nus: Vec<f64>,
    /// `snapshots[nu_index][time_index]`.
    pub(crate) snapshots: Vec<Vec<FullGrid<f64>>>,
}

impl SweepDataset {
    /// Run one simulation per diffusivity in `nus` (in parallel), saving
    /// a snapshot at every time in `times` (ascending, starting at 0.0).
    pub fn generate(
        space_dims: usize,
        level: usize,
        ic: impl Fn(&[f64]) -> f64 + Sync,
        times: &[f64],
        nus: &[f64],
    ) -> Self {
        assert!(
            times.len() >= 2 && nus.len() >= 2,
            "need a 2+ point lattice"
        );
        assert!(
            times.windows(2).all(|w| w[1] > w[0]) && times[0] == 0.0,
            "times must be ascending from 0"
        );
        assert!(nus.windows(2).all(|w| w[1] > w[0]), "nus must be ascending");
        let snapshots: Vec<Vec<FullGrid<f64>>> = sg_par::par_map(nus, |&nu| {
            let mut solver = HeatSolver::new(space_dims, level, nu, &ic);
            times
                .iter()
                .map(|&t| {
                    solver.advance_to(t);
                    solver.snapshot()
                })
                .collect()
        });
        Self {
            space_dims,
            times: times.to_vec(),
            nus: nus.to_vec(),
            snapshots,
        }
    }

    /// Dimensionality of the dataset: space + time + diffusivity.
    pub fn dim(&self) -> usize {
        self.space_dims + 2
    }

    /// Total stored samples across the sweep.
    pub fn total_samples(&self) -> usize {
        self.snapshots
            .iter()
            .flat_map(|row| row.iter().map(|g| g.len()))
            .sum()
    }

    /// Map a normalized axis coordinate in `[0,1]` onto a lattice
    /// `(lower index, weight)` pair.
    fn locate(axis: &[f64], u: f64) -> (usize, f64) {
        // The lattice is uniform in its *index*, not in value: normalized
        // coordinates address the run lattice directly.
        let pos = u.clamp(0.0, 1.0) * (axis.len() - 1) as f64;
        let k = (pos as usize).min(axis.len() - 2);
        (k, pos - k as f64)
    }

    /// Evaluate the dataset at `x = (space…, t01, nu01)` with all
    /// components in `[0,1]`: multilinear across the (time, diffusivity)
    /// run lattice, piecewise multilinear in space within each snapshot.
    pub fn eval(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim(), "dataset dimension mismatch");
        let space = &x[..self.space_dims];
        let (kt, wt) = Self::locate(&self.times, x[self.space_dims]);
        let (kn, wn) = Self::locate(&self.nus, x[self.space_dims + 1]);
        let mut acc = 0.0;
        for (dt, wt) in [(0usize, 1.0 - wt), (1, wt)] {
            for (dn, wn) in [(0usize, 1.0 - wn), (1, wn)] {
                let w = wt * wn;
                if w != 0.0 {
                    acc += w * self.snapshots[kn + dn][kt + dt].interpolate(space);
                }
            }
        }
        acc
    }

    /// Closure form for `CompactGrid::from_fn`.
    pub fn as_fn(&self) -> impl Fn(&[f64]) -> f64 + Sync + '_ {
        move |x| self.eval(x)
    }
}
