//! Non-zero-boundary sparse grids (paper §4.4).
//!
//! The boundary of a d-dimensional sparse grid decomposes into
//! lower-dimensional zero-boundary sparse grids: for each subset of `j`
//! dimensions fixed to a domain face (`x_t = 0` or `x_t = 1`) there is one
//! `(d−j)`-dimensional sparse grid over the free dimensions — `2^j ·
//! C(d, j)` such grids per dimensionality class, `3^d` *faces* in total
//! (including the interior, `j = 0`, and the corners, `j = d`).
//!
//! Grouping faces by `j`, ordering the fixed-dimension sets by their
//! bitmask, and ordering the `2^j` side assignments numerically yields the
//! paper's "ordering function"; within a face, `gp2idx` applies unchanged.
//! The result is again one contiguous value array for the whole grid.
//!
//! Each face grid carries the same refinement level `L` as the interior
//! (the paper leaves this choice open; equal level is the natural one and
//! makes the 1-d case the textbook `2^L + 1`-point boundary grid).

use crate::bijection::GridIndexer;
use crate::combinatorics::{binomial, sparse_grid_points};
use crate::iter::{decode_subspace_rank, first_level, next_level};
use crate::level::{coordinate, hierarchical_parent, GridSpec, Index, Level, Side};
use crate::real::Real;

/// Position of one dimension of a boundary-grid point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DimCoord {
    /// Interior hierarchical coordinate `(level, odd index)`.
    Interior(Level, Index),
    /// Fixed to the face `x_t = 0`.
    Lo,
    /// Fixed to the face `x_t = 1`.
    Hi,
}

impl DimCoord {
    /// Spatial coordinate of this component.
    pub fn coordinate(&self) -> f64 {
        match *self {
            DimCoord::Interior(l, i) => coordinate(l, i),
            DimCoord::Lo => 0.0,
            DimCoord::Hi => 1.0,
        }
    }

    /// True when the component lies on the domain boundary.
    pub fn is_fixed(&self) -> bool {
        !matches!(self, DimCoord::Interior(..))
    }
}

/// Metadata of one face: which dimensions are fixed, to which side, and
/// where its values start in the linear ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaceInfo {
    /// Bit `t` set ⇔ dimension `t` is fixed.
    pub fixed_mask: u32,
    /// Bit `t` set ⇔ dimension `t` is fixed to `x_t = 1` (only meaningful
    /// where `fixed_mask` has the bit set).
    pub sides_mask: u32,
    /// First linear index of this face's values.
    pub offset: u64,
}

impl FaceInfo {
    /// Number of fixed dimensions `j`.
    pub fn num_fixed(&self) -> u32 {
        self.fixed_mask.count_ones()
    }
}

/// Index machinery for a non-zero-boundary sparse grid.
#[derive(Debug, Clone)]
pub struct BoundaryIndexer {
    dim: usize,
    levels: usize,
    /// Faces ordered by (j, fixed_mask, sides_mask); length `3^d`.
    faces: Vec<FaceInfo>,
    /// `rank_offsets[j]` = global face rank of the first face with `j`
    /// fixed dimensions.
    rank_offsets: Vec<u64>,
    /// Interior indexer per free-dimension count `k ∈ 1..=d`
    /// (`interior[k-1]`).
    interior: Vec<GridIndexer>,
    total: u64,
}

impl BoundaryIndexer {
    /// Build the indexer for a `dim`-dimensional boundary grid of
    /// refinement level `levels`.
    pub fn new(dim: usize, levels: usize) -> Self {
        // The face table has 3^d entries; 12 dims ≈ 531k faces is a sane cap.
        assert!(
            (1..=12).contains(&dim),
            "boundary grids support 1..=12 dims"
        );
        assert!(levels >= 1);
        let interior: Vec<GridIndexer> = (1..=dim)
            .map(|k| GridIndexer::new(GridSpec::new(k, levels)))
            .collect();

        // Face rank offsets per dimensionality class.
        let mut rank_offsets = Vec::with_capacity(dim + 2);
        let mut acc = 0u64;
        for j in 0..=dim {
            rank_offsets.push(acc);
            acc += binomial(dim as u64, j as u64) << j;
        }
        rank_offsets.push(acc);

        // Enumerate faces in canonical order and accumulate offsets.
        let mut faces = Vec::with_capacity(acc as usize);
        let mut offset = 0u64;
        for j in 0..=dim {
            for fixed_mask in masks_with_popcount(dim, j) {
                for side_bits in 0..(1u32 << j) {
                    let sides_mask = scatter_bits(side_bits, fixed_mask);
                    faces.push(FaceInfo {
                        fixed_mask,
                        sides_mask,
                        offset,
                    });
                    let k = dim - j;
                    offset += if k == 0 {
                        1
                    } else {
                        sparse_grid_points(k, levels)
                    };
                }
            }
        }

        Self {
            dim,
            levels,
            faces,
            rank_offsets,
            interior,
            total: offset,
        }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Refinement level.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Total number of grid points (interior + all boundary faces).
    pub fn num_points(&self) -> u64 {
        self.total
    }

    /// Number of faces (`3^d`, counting the interior and the corners).
    pub fn num_faces(&self) -> usize {
        self.faces.len()
    }

    /// Face metadata by global face rank.
    pub fn faces(&self) -> &[FaceInfo] {
        &self.faces
    }

    /// Interior indexer for `k`-dimensional face grids.
    pub fn interior_indexer(&self, k: usize) -> &GridIndexer {
        &self.interior[k - 1]
    }

    /// Global rank of the face `(fixed_mask, sides_mask)`.
    pub fn face_rank(&self, fixed_mask: u32, sides_mask: u32) -> usize {
        let j = fixed_mask.count_ones() as usize;
        let within = combination_rank(fixed_mask);
        let side_bits = gather_bits(sides_mask, fixed_mask) as u64;
        (self.rank_offsets[j] + (within << j) + side_bits) as usize
    }

    /// Face metadata for `(fixed_mask, sides_mask)`.
    pub fn face(&self, fixed_mask: u32, sides_mask: u32) -> &FaceInfo {
        &self.faces[self.face_rank(fixed_mask, sides_mask)]
    }

    /// Linear index of a boundary-grid point.
    pub fn gp2idx(&self, point: &[DimCoord]) -> u64 {
        assert_eq!(point.len(), self.dim);
        let mut fixed_mask = 0u32;
        let mut sides_mask = 0u32;
        let mut l = Vec::with_capacity(self.dim);
        let mut i = Vec::with_capacity(self.dim);
        for (t, c) in point.iter().enumerate() {
            match *c {
                DimCoord::Interior(lt, it) => {
                    l.push(lt);
                    i.push(it);
                }
                DimCoord::Lo => fixed_mask |= 1 << t,
                DimCoord::Hi => {
                    fixed_mask |= 1 << t;
                    sides_mask |= 1 << t;
                }
            }
        }
        let face = self.face(fixed_mask, sides_mask);
        if l.is_empty() {
            face.offset
        } else {
            face.offset + self.interior_indexer(l.len()).gp2idx(&l, &i)
        }
    }

    /// Decode a linear index back into a boundary-grid point.
    pub fn idx2gp(&self, idx: u64) -> Vec<DimCoord> {
        assert!(idx < self.total, "index out of range");
        // Binary search the face by offset.
        let rank = match self.faces.binary_search_by(|f| f.offset.cmp(&idx)) {
            Ok(r) => r,
            Err(p) => p - 1,
        };
        let face = &self.faces[rank];
        let k = self.dim - face.num_fixed() as usize;
        let mut out = Vec::with_capacity(self.dim);
        let (mut l, mut i) = (vec![0 as Level; k.max(1)], vec![0 as Index; k.max(1)]);
        if k > 0 {
            self.interior_indexer(k)
                .idx2gp(idx - face.offset, &mut l[..k], &mut i[..k]);
        }
        let mut free_pos = 0usize;
        for t in 0..self.dim {
            if face.fixed_mask & (1 << t) != 0 {
                out.push(if face.sides_mask & (1 << t) != 0 {
                    DimCoord::Hi
                } else {
                    DimCoord::Lo
                });
            } else {
                out.push(DimCoord::Interior(l[free_pos], i[free_pos]));
                free_pos += 1;
            }
        }
        out
    }

    /// Bytes consumed by the index tables.
    pub fn memory_bytes(&self) -> usize {
        self.faces.capacity() * std::mem::size_of::<FaceInfo>()
            + self
                .interior
                .iter()
                .map(|ix| ix.memory_bytes())
                .sum::<usize>()
            + self.rank_offsets.capacity() * 8
            + std::mem::size_of::<Self>()
    }
}

/// All `d`-bit masks with exactly `j` bits set, in ascending numeric
/// order.
fn masks_with_popcount(d: usize, j: usize) -> Vec<u32> {
    let mut out = Vec::new();
    for m in 0u32..(1 << d) {
        if m.count_ones() as usize == j {
            out.push(m);
        }
    }
    out
}

/// Rank of `mask` among all masks with the same popcount in ascending
/// numeric (colexicographic) order: `Σ_m C(b_m, m+1)` over set bits
/// `b_0 < b_1 < …`.
fn combination_rank(mask: u32) -> u64 {
    let mut rank = 0u64;
    let mut m = 0u64;
    let mut bits = mask;
    while bits != 0 {
        let b = bits.trailing_zeros() as u64;
        bits &= bits - 1;
        m += 1;
        rank += binomial(b, m);
    }
    rank
}

/// Spread the low `popcount(mask)` bits of `compact` onto the set bit
/// positions of `mask` (lowest mask bit first).
fn scatter_bits(compact: u32, mask: u32) -> u32 {
    let mut out = 0u32;
    let mut bits = mask;
    let mut src = compact;
    while bits != 0 {
        let b = bits.trailing_zeros();
        bits &= bits - 1;
        if src & 1 != 0 {
            out |= 1 << b;
        }
        src >>= 1;
    }
    out
}

/// Inverse of [`scatter_bits`]: collect the bits of `scattered` at the set
/// positions of `mask` into the low bits.
fn gather_bits(scattered: u32, mask: u32) -> u32 {
    let mut out = 0u32;
    let mut bits = mask;
    let mut dst = 0u32;
    while bits != 0 {
        let b = bits.trailing_zeros();
        bits &= bits - 1;
        if scattered & (1 << b) != 0 {
            out |= 1 << dst;
        }
        dst += 1;
    }
    out
}

/// A sparse grid with non-zero boundary: one contiguous value array
/// spanning the interior and every boundary face.
#[derive(Debug, Clone)]
pub struct BoundaryGrid<T> {
    indexer: BoundaryIndexer,
    values: Vec<T>,
}

impl<T: Real> BoundaryGrid<T> {
    /// Zero-initialized boundary grid.
    pub fn new(dim: usize, levels: usize) -> Self {
        let indexer = BoundaryIndexer::new(dim, levels);
        let n = indexer.num_points() as usize;
        Self {
            values: vec![T::ZERO; n],
            indexer,
        }
    }

    /// Sample `f` at every grid point (nodal values), boundary included.
    pub fn from_fn(dim: usize, levels: usize, mut f: impl FnMut(&[f64]) -> T) -> Self {
        let mut g = Self::new(dim, levels);
        for idx in 0..g.values.len() {
            let point = g.indexer.idx2gp(idx as u64);
            let x: Vec<f64> = point.iter().map(|c| c.coordinate()).collect();
            g.values[idx] = f(&x);
        }
        g
    }

    /// The index machinery.
    pub fn indexer(&self) -> &BoundaryIndexer {
        &self.indexer
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if empty (impossible for valid parameters).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Flat value array.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Flat mutable value array.
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// Value at a boundary-grid point.
    pub fn get(&self, point: &[DimCoord]) -> T {
        self.values[self.indexer.gp2idx(point) as usize]
    }

    /// Set the value at a boundary-grid point.
    pub fn set(&mut self, point: &[DimCoord], v: T) {
        let idx = self.indexer.gp2idx(point) as usize;
        self.values[idx] = v;
    }

    /// Total bytes held.
    pub fn memory_bytes(&self) -> usize {
        self.values.capacity() * T::size_bytes() + self.indexer.memory_bytes()
    }

    /// Maximum absolute difference against another grid of the same shape.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.len(), other.len());
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }

    /// In-place hierarchization. Dimension-wise sweep: in the pass for
    /// dimension `t`, every face where `t` is free updates its points in
    /// descending level-sum order; chain-end ancestors that cross the
    /// domain boundary read from the `t`-fixed neighbour faces, which the
    /// pass leaves untouched.
    pub fn hierarchize(&mut self) {
        self.sweep(false);
    }

    /// In-place dehierarchization (exact inverse of [`Self::hierarchize`]).
    pub fn dehierarchize(&mut self) {
        self.sweep(true);
    }

    fn sweep(&mut self, inverse: bool) {
        let d = self.indexer.dim;
        let levels = self.indexer.levels;
        let face_count = self.indexer.num_faces();
        // Clone each free-dimension indexer once (the borrow checker
        // cannot see that sweep_face_group only touches `values`).
        let interior: Vec<GridIndexer> = (1..=d)
            .map(|k| self.indexer.interior_indexer(k).clone())
            .collect();
        for t in 0..d {
            for face_rank in 0..face_count {
                let face = self.indexer.faces[face_rank];
                if face.fixed_mask & (1 << t) != 0 {
                    continue; // dimension t has no extent on this face
                }
                let k = d - face.num_fixed() as usize;
                // Position of dimension t among the face's free dims.
                let pos_t = (0..t).filter(|&u| face.fixed_mask & (1 << u) == 0).count();
                let ix = &interior[k - 1];
                let group_order: Box<dyn Iterator<Item = usize>> = if inverse {
                    Box::new(0..levels)
                } else {
                    Box::new((0..levels).rev())
                };
                for n in group_order {
                    self.sweep_face_group(ix, t, &face, k, pos_t, n, inverse);
                }
            }
        }
    }

    /// Apply the dimension-`t` stencil to one level group of one face.
    #[allow(clippy::too_many_arguments)]
    fn sweep_face_group(
        &mut self,
        ix: &crate::bijection::GridIndexer,
        t: usize,
        face: &FaceInfo,
        k: usize,
        pos_t: usize,
        n: usize,
        inverse: bool,
    ) {
        let mut l = vec![0 as Level; k];
        let mut i = vec![0 as Index; k];
        first_level(n, &mut l);
        let mut sub_start = face.offset + ix.group_offset(n);
        loop {
            for rank in 0..(1u64 << n) {
                decode_subspace_rank(&l, rank, &mut i);
                let (lt, it) = (l[pos_t], i[pos_t]);
                let mut half = 0.0f64;
                for side in [Side::Left, Side::Right] {
                    let v = match hierarchical_parent(lt, it, side) {
                        Some((pl, pi)) => {
                            l[pos_t] = pl;
                            i[pos_t] = pi;
                            let pidx = face.offset + ix.gp2idx(&l, &i);
                            l[pos_t] = lt;
                            i[pos_t] = it;
                            self.values[pidx as usize]
                        }
                        None => self.boundary_neighbour(t, face, k, pos_t, &l, &i, side),
                    };
                    half += v.to_f64();
                }
                let target = (sub_start + rank) as usize;
                let delta = T::from_f64(half * 0.5);
                if inverse {
                    self.values[target] += delta;
                } else {
                    self.values[target] -= delta;
                }
            }
            sub_start += 1u64 << n;
            if !next_level(&mut l) {
                break;
            }
        }
    }

    /// Value of the point obtained by moving dimension `t` onto the
    #[allow(clippy::too_many_arguments)]
    /// domain face on the given side, keeping the other free coordinates.
    fn boundary_neighbour(
        &self,
        t: usize,
        face: &FaceInfo,
        k: usize,
        pos_t: usize,
        l: &[Level],
        i: &[Index],
        side: Side,
    ) -> T {
        let fixed_mask = face.fixed_mask | (1 << t);
        let sides_mask = match side {
            Side::Left => face.sides_mask,
            Side::Right => face.sides_mask | (1 << t),
        };
        let nb = self.indexer.face(fixed_mask, sides_mask);
        if k == 1 {
            return self.values[nb.offset as usize];
        }
        let mut nl = Vec::with_capacity(k - 1);
        let mut ni = Vec::with_capacity(k - 1);
        for u in 0..k {
            if u != pos_t {
                nl.push(l[u]);
                ni.push(i[u]);
            }
        }
        let idx = nb.offset + self.indexer.interior_indexer(k - 1).gp2idx(&nl, &ni);
        self.values[idx as usize]
    }

    /// Evaluate the boundary-grid function at `x ∈ [0,1]^d`: sum over all
    /// faces of (boundary basis product over fixed dims) × (zero-boundary
    /// sparse grid interpolant over free dims).
    pub fn evaluate(&self, x: &[f64]) -> T {
        let d = self.indexer.dim;
        assert_eq!(x.len(), d, "query point dimension mismatch");
        assert!(
            x.iter().all(|&v| (0.0..=1.0).contains(&v)),
            "query point outside the unit domain"
        );
        let mut acc = 0.0f64;
        let mut xfree = Vec::with_capacity(d);
        for face in &self.indexer.faces {
            // Boundary basis over fixed dims: φ_Lo = 1 − x, φ_Hi = x.
            let mut w = 1.0f64;
            for t in 0..d {
                if face.fixed_mask & (1 << t) != 0 {
                    w *= if face.sides_mask & (1 << t) != 0 {
                        x[t]
                    } else {
                        1.0 - x[t]
                    };
                }
            }
            if w == 0.0 {
                continue;
            }
            let k = d - face.num_fixed() as usize;
            if k == 0 {
                acc += w * self.values[face.offset as usize].to_f64();
                continue;
            }
            xfree.clear();
            for t in 0..d {
                if face.fixed_mask & (1 << t) == 0 {
                    xfree.push(x[t]);
                }
            }
            // Zero-boundary sparse grid evaluation over the face's value
            // slice (paper Alg. 7, applied to the face's sub-array).
            let values = &self.values[face.offset as usize..];
            acc += w * crate::evaluate::interpolate_point(values, self.indexer.levels, &xfree).0;
        }
        T::from_f64(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::TestFunction;

    #[test]
    fn face_counts_match_paper_formula() {
        // Paper §4.4: the number of (d−j)-dimensional sparse grids in the
        // boundary is 2^j · C(d, d−j); totalling 3^d faces with interior.
        for d in 1..=5 {
            let ix = BoundaryIndexer::new(d, 2);
            assert_eq!(ix.num_faces(), 3usize.pow(d as u32));
            for j in 0..=d {
                let count = ix
                    .faces()
                    .iter()
                    .filter(|f| f.num_fixed() as usize == j)
                    .count() as u64;
                assert_eq!(count, binomial(d as u64, j as u64) << j, "d={d} j={j}");
            }
        }
    }

    #[test]
    fn one_dimensional_point_count() {
        // 1-d boundary grid of level L: 2^L − 1 interior + 2 boundary.
        for levels in 1..=6 {
            let ix = BoundaryIndexer::new(1, levels);
            assert_eq!(ix.num_points(), (1u64 << levels) + 1);
        }
    }

    #[test]
    fn gp2idx_is_bijective() {
        for (d, levels) in [(1, 4), (2, 3), (3, 3)] {
            let ix = BoundaryIndexer::new(d, levels);
            let mut seen = vec![false; ix.num_points() as usize];
            for idx in 0..ix.num_points() {
                let p = ix.idx2gp(idx);
                assert_eq!(p.len(), d);
                let back = ix.gp2idx(&p);
                assert_eq!(back, idx);
                assert!(!seen[idx as usize]);
                seen[idx as usize] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn combination_rank_orders_masks() {
        for d in 1..=6 {
            for j in 0..=d {
                for (expected, mask) in masks_with_popcount(d, j).into_iter().enumerate() {
                    assert_eq!(combination_rank(mask), expected as u64);
                }
            }
        }
    }

    #[test]
    fn scatter_gather_roundtrip() {
        let mask = 0b101101u32;
        for compact in 0..(1u32 << mask.count_ones()) {
            let s = scatter_bits(compact, mask);
            assert_eq!(s & !mask, 0);
            assert_eq!(gather_bits(s, mask), compact);
        }
    }

    #[test]
    fn affine_function_is_reproduced_exactly_everywhere() {
        // f(x) = 2 + Σ a_t x_t is multilinear: with boundary basis, the
        // interpolant is exact throughout the whole domain.
        let f = |x: &[f64]| {
            2.0 + x
                .iter()
                .enumerate()
                .map(|(t, &v)| (t + 1) as f64 * v)
                .sum::<f64>()
        };
        for d in 1..=3usize {
            let mut g: BoundaryGrid<f64> = BoundaryGrid::from_fn(d, 3, f);
            g.hierarchize();
            let probes = crate::functions::halton_points(d, 25);
            for x in probes.chunks_exact(d) {
                let got = g.evaluate(x);
                assert!(
                    (got - f(x)).abs() < 1e-12,
                    "d={d}, x={x:?}: {got} vs {}",
                    f(x)
                );
            }
            // Also exact at the corners themselves.
            let corner = vec![1.0; d];
            assert!((g.evaluate(&corner) - f(&corner)).abs() < 1e-12);
        }
    }

    #[test]
    fn interpolates_exactly_at_all_grid_points() {
        let f = TestFunction::Reciprocal;
        let (d, levels) = (2usize, 4usize);
        let mut g: BoundaryGrid<f64> = BoundaryGrid::from_fn(d, levels, |x| f.eval(x));
        g.hierarchize();
        let ix = g.indexer().clone();
        for idx in 0..ix.num_points() {
            let p = ix.idx2gp(idx);
            let x: Vec<f64> = p.iter().map(|c| c.coordinate()).collect();
            let got = g.evaluate(&x);
            assert!(
                (got - f.eval(&x)).abs() < 1e-12,
                "at {x:?}: {got} vs {}",
                f.eval(&x)
            );
        }
    }

    #[test]
    fn dehierarchize_inverts_hierarchize() {
        let f = TestFunction::Oscillatory;
        for (d, levels) in [(1, 5), (2, 4), (3, 3)] {
            let original: BoundaryGrid<f64> = BoundaryGrid::from_fn(d, levels, |x| f.eval(x));
            let mut g = original.clone();
            g.hierarchize();
            g.dehierarchize();
            assert!(g.max_abs_diff(&original) < 1e-12, "d={d}");
        }
    }

    #[test]
    fn matches_zero_boundary_grid_for_zero_boundary_functions() {
        use crate::evaluate::evaluate as eval0;
        use crate::grid::CompactGrid;
        use crate::hierarchize::hierarchize as hier0;
        let f = TestFunction::Parabola;
        let (d, levels) = (2usize, 4usize);
        let mut with_b: BoundaryGrid<f64> = BoundaryGrid::from_fn(d, levels, |x| f.eval(x));
        with_b.hierarchize();
        let mut without = CompactGrid::from_fn(GridSpec::new(d, levels), |x| f.eval(x));
        hier0(&mut without);
        for x in crate::functions::halton_points(d, 40).chunks_exact(d) {
            let a = with_b.evaluate(x);
            let b = eval0(&without, x);
            assert!((a - b).abs() < 1e-12, "x={x:?}: {a} vs {b}");
        }
    }

    #[test]
    fn boundary_surpluses_equal_nodal_values_at_corners() {
        let f = |x: &[f64]| 1.0 + x[0] * x[0] + 3.0 * x[1];
        let mut g: BoundaryGrid<f64> = BoundaryGrid::from_fn(2, 3, f);
        g.hierarchize();
        // Corner basis functions are the multilinear corner interpolants;
        // corner surpluses stay the nodal values.
        for (cx, cy) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
            let p = [
                if cx == 0.0 {
                    DimCoord::Lo
                } else {
                    DimCoord::Hi
                },
                if cy == 0.0 {
                    DimCoord::Lo
                } else {
                    DimCoord::Hi
                },
            ];
            assert_eq!(g.get(&p), f(&[cx, cy]));
        }
    }

    #[test]
    fn memory_grows_with_boundary_but_stays_contiguous() {
        let g: BoundaryGrid<f32> = BoundaryGrid::new(3, 4);
        let values_bytes = g.len() * 4;
        assert!(g.memory_bytes() >= values_bytes);
        // Structural overhead is bounded by the face table, not by N.
        assert!(g.memory_bytes() - values_bytes < 16384);
    }
}
