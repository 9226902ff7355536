//! The `gp2idx` bijection (paper Alg. 5) and its inverse.
//!
//! `gp2idx` maps each grid point `(l, i)` of a regular sparse grid to a
//! unique integer in `0 .. N`, composed of three parts (paper Fig. 6):
//!
//! * `index3` — points in all level groups before `n = |l|₁`,
//! * `index2` — points in the subspaces preceding `l` inside its group,
//!   i.e. `subspaceidx(l) · 2^n` (paper Eq. 4),
//! * `index1` — rank of `i` inside the regular grid of subspace `l`.
//!
//! The paper proves `subspaceidx` maps the enumeration order of
//! [`crate::iter::next_level`] to consecutive integers. The inverse map
//! `idx2gp` is not spelled out in the paper (its algorithms only need
//! sequential traversal); we derive it by combinatorial unranking of
//! compositions, giving `O(d·n)` time with only `binmat` lookups.

use crate::combinatorics::BinomialTable;
use crate::iter::{decode_subspace_rank, encode_subspace_rank, walk_points};
use crate::level::{GridSpec, Index, Level};
#[allow(unused_imports)] // the import is "unused" when `telemetry` is off
use crate::tel;

tel! {
    static GP2IDX_CALLS: sg_telemetry::Counter =
        sg_telemetry::Counter::new("core.bijection.gp2idx_calls");
    static IDX2GP_CALLS: sg_telemetry::Counter =
        sg_telemetry::Counter::new("core.bijection.idx2gp_calls");
    /// Sampled `gp2idx` latency: one call in [`GP2IDX_SAMPLE`] is timed,
    /// so the distribution (Table 1's per-access cost) is visible without
    /// putting two clock reads on every O(d) lookup.
    static GP2IDX_NS: sg_telemetry::Histogram =
        sg_telemetry::Histogram::new("core.bijection.gp2idx_ns");
    /// Sampling period for [`GP2IDX_NS`].
    const GP2IDX_SAMPLE: u64 = 1024;
}

/// Precomputed tables realizing `gp2idx` / `idx2gp` for one [`GridSpec`].
///
/// Construction is `O(d · L)`; all queries afterwards are `O(d)`
/// (`gp2idx`) or `O(d · L)` (`idx2gp`), touching only this structure —
/// which is a few kilobytes and stays cache-resident, the property the
/// paper relies on for its cache-miss argument (§4.3).
#[derive(Debug, Clone)]
pub struct GridIndexer {
    spec: GridSpec,
    binmat: BinomialTable,
    /// `group_offsets[n]` = `index3` for level sum `n`; one extra entry
    /// holds the total point count.
    group_offsets: Vec<u64>,
}

impl GridIndexer {
    /// Build the indexer for a grid specification.
    ///
    /// # Panics
    /// If the grid's point count overflows `u64` (reachable only through
    /// [`GridSpec::try_new`] shapes that skipped the count preflight);
    /// use [`Self::try_new`] for untrusted shapes.
    pub fn new(spec: GridSpec) -> Self {
        Self::try_new(spec).expect("grid point count overflows u64")
    }

    /// Fallible construction: `Err(SgError::CountOverflow)` instead of a
    /// panic when the point count does not fit in a `u64`. This is the
    /// checked-arithmetic replacement for the former overflow `expect()`.
    pub fn try_new(spec: GridSpec) -> Result<Self, crate::error::SgError> {
        // The binomial table itself can overflow for extreme d × level
        // combinations; verify the total count first with fully checked
        // arithmetic, which covers every partial sum and per-group product
        // below (each is bounded by the total).
        spec.try_num_points()?;
        let binmat = BinomialTable::new(spec.dim(), spec.max_sum());
        let mut group_offsets = Vec::with_capacity(spec.levels() + 1);
        let mut acc = 0u64;
        for n in 0..spec.levels() {
            group_offsets.push(acc);
            acc = binmat
                .subspaces_on_level(n)
                .checked_mul(1u64 << n)
                .and_then(|g| acc.checked_add(g))
                .ok_or(crate::error::SgError::CountOverflow {
                    dim: spec.dim(),
                    levels: spec.levels(),
                })?;
        }
        group_offsets.push(acc);
        Ok(Self {
            spec,
            binmat,
            group_offsets,
        })
    }

    /// The grid specification this indexer serves.
    #[inline(always)]
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// The binomial lookup matrix (the paper's `binmat`).
    #[inline(always)]
    pub fn binmat(&self) -> &BinomialTable {
        &self.binmat
    }

    /// Total number of grid points.
    #[inline(always)]
    pub fn num_points(&self) -> u64 {
        *self.group_offsets.last().unwrap()
    }

    /// Offset of level group `n` in the linear ordering (`index3`).
    #[inline(always)]
    pub fn group_offset(&self, n: usize) -> u64 {
        self.group_offsets[n]
    }

    /// Half-open range of linear indices covered by level group `n`.
    pub fn group_range(&self, n: usize) -> std::ops::Range<u64> {
        self.group_offsets[n]..self.group_offsets[n + 1]
    }

    /// Number of subspaces in level group `n`.
    #[inline(always)]
    pub fn subspaces_on_level(&self, n: usize) -> u64 {
        self.binmat.subspaces_on_level(n)
    }

    /// Rank of subspace `l` within its level group under the enumeration
    /// order — the paper's `subspaceidx` (Eq. 4):
    ///
    /// `Σ_{t=1}^{d−1} [ C(t + Σ_{j≤t} l_j, t) − C(t + Σ_{j<t} l_j, t) ]`.
    #[inline]
    pub fn subspace_rank(&self, l: &[Level]) -> u64 {
        let mut sum = l[0] as usize;
        let mut rank = 0u64;
        for t in 1..l.len() {
            let prev = self.binmat.choose(t, sum);
            sum += l[t] as usize;
            rank += self.binmat.choose(t, sum) - prev;
        }
        rank
    }

    /// Inverse of [`Self::subspace_rank`]: write the level vector with the
    /// given rank in the enumeration of `L_n^d` into `l`.
    ///
    /// Unranking follows the recursive enumeration (paper Alg. 3): the
    /// vectors with last component `l_{d−1} = k` form a contiguous block of
    /// `S_{n−k}^{d−1}` entries, in ascending `k`; peel components from the
    /// last dimension inward.
    pub fn subspace_unrank(&self, n: usize, mut rank: u64, l: &mut [Level]) {
        let d = l.len();
        debug_assert_eq!(d, self.spec.dim());
        let mut m = n; // remaining level sum
        for t in (1..d).rev() {
            // Choose l_t = k such that rank falls into block k.
            let mut k = 0usize;
            loop {
                // Block size: #compositions of m−k into t parts = C(t−1 + m−k, t−1).
                let block = self.binmat.choose(t - 1, m - k);
                if rank < block {
                    break;
                }
                rank -= block;
                k += 1;
                debug_assert!(k <= m, "rank out of range for group");
            }
            l[t] = k as Level;
            m -= k;
        }
        l[0] = m as Level;
        debug_assert_eq!(rank, 0);
    }

    /// The bijection `gp2idx` (paper Alg. 5): map `(l, i)` to its linear
    /// index. `O(d)` time, all lookups in `binmat`.
    #[inline]
    pub fn gp2idx(&self, l: &[Level], i: &[Index]) -> u64 {
        debug_assert!(self.spec.contains(l, i), "point not in grid");
        tel! {
            GP2IDX_CALLS.add(1);
            let sample_t0 = {
                static TICK: std::sync::atomic::AtomicU64 =
                    std::sync::atomic::AtomicU64::new(0);
                let t = TICK.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                (t % GP2IDX_SAMPLE == 0).then(std::time::Instant::now)
            };
        }
        let index1 = encode_subspace_rank(l, i);
        let n: usize = l.iter().map(|&v| v as usize).sum();
        let index2 = self.subspace_rank(l) << n;
        let index3 = self.group_offsets[n];
        let idx = index1 + index2 + index3;
        tel! {
            if let Some(t0) = sample_t0 {
                GP2IDX_NS.record(t0.elapsed().as_nanos() as u64);
            }
        }
        idx
    }

    /// The inverse bijection `idx2gp`: decode a linear index into `(l, i)`.
    #[inline]
    pub fn idx2gp(&self, idx: u64, l: &mut [Level], i: &mut [Index]) {
        debug_assert!(idx < self.num_points(), "index out of range");
        tel! { IDX2GP_CALLS.add(1); }
        // Level group: last n with group_offsets[n] <= idx.
        let n = match self.group_offsets.binary_search(&idx) {
            Ok(n) if n < self.spec.levels() => n,
            Ok(n) => n - 1, // idx == total is rejected above in debug
            Err(p) => p - 1,
        };
        let within = idx - self.group_offsets[n];
        let rank = within >> n;
        let index1 = within & ((1u64 << n) - 1);
        self.subspace_unrank(n, rank, l);
        decode_subspace_rank(l, index1, i);
    }

    /// Visit the grid points with linear indices in `range`, in order,
    /// as `f(l, i)`. One [`Self::idx2gp`] locates `range.start`; the
    /// walk of [`crate::iter::for_each_point`] steps through the rest.
    pub(crate) fn for_each_point_in(
        &self,
        range: std::ops::Range<u64>,
        f: impl FnMut(&[Level], &[Index]),
    ) {
        if range.is_empty() {
            return;
        }
        let d = self.spec.dim();
        let mut l = vec![0 as Level; d];
        let mut i = vec![0 as Index; d];
        self.idx2gp(range.start, &mut l, &mut i);
        let rank = encode_subspace_rank(&l, &i);
        walk_points(l, rank, range.end - range.start, f);
    }

    /// Convenience allocating variant of [`Self::idx2gp`].
    pub fn idx2gp_vec(&self, idx: u64) -> (Vec<Level>, Vec<Index>) {
        let d = self.spec.dim();
        let mut l = vec![0; d];
        let mut i = vec![0; d];
        self.idx2gp(idx, &mut l, &mut i);
        (l, i)
    }

    /// Bytes consumed by the indexer's tables (excluded from grid-value
    /// storage; a few KiB, independent of the number of grid points).
    pub fn memory_bytes(&self) -> usize {
        self.binmat.memory_bytes()
            + self.group_offsets.capacity() * std::mem::size_of::<u64>()
            + std::mem::size_of::<Self>()
    }
}

/// Reference implementation of `gp2idx` transcribed literally from paper
/// Alg. 5, including the `O(|l|₁)` loop for `index3` and on-the-fly
/// binomials. Used by tests and by the `ablation_binmat` benchmark (the
/// paper reports the on-the-fly variant is ≈4× slower).
pub fn gp2idx_literal(spec: &GridSpec, l: &[Level], i: &[Index]) -> u64 {
    use crate::combinatorics::binomial;
    let d = spec.dim();
    // Lines 1–4: index1.
    let mut index1 = 0u64;
    for t in 0..d {
        index1 = (index1 << l[t] as u32) + ((i[t] as u64 - 1) / 2);
    }
    // Lines 5–12: index2. Alg. 5 subtracts before it adds, so the
    // intermediate is signed.
    let mut sum = l[0] as u64;
    let mut index2 = 0i64;
    for t in 1..d {
        let t64 = t as u64;
        index2 -= binomial(t64 + sum, t64) as i64;
        sum += l[t] as u64;
        index2 += binomial(t64 + sum, t64) as i64;
    }
    let index2 = (index2 as u64) << sum as u32;
    // Lines 13–16: index3.
    let mut index3 = 0u64;
    for s in 0..sum {
        index3 += binomial(d as u64 - 1 + s, d as u64 - 1) << s as u32;
    }
    index1 + index2 + index3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iter::{for_each_point, LevelIter};

    #[test]
    fn subspace_rank_is_enumeration_order() {
        let spec = GridSpec::new(4, 7);
        let ix = GridIndexer::new(spec);
        for n in 0..spec.levels() {
            for (expected, l) in LevelIter::new(4, n).enumerate() {
                assert_eq!(ix.subspace_rank(&l), expected as u64, "l={l:?}");
            }
        }
    }

    #[test]
    fn subspace_unrank_inverts_rank() {
        let spec = GridSpec::new(5, 6);
        let ix = GridIndexer::new(spec);
        let mut l = vec![0; 5];
        for n in 0..spec.levels() {
            for rank in 0..ix.subspaces_on_level(n) {
                ix.subspace_unrank(n, rank, &mut l);
                let sum: usize = l.iter().map(|&v| v as usize).sum();
                assert_eq!(sum, n);
                assert_eq!(ix.subspace_rank(&l), rank);
            }
        }
    }

    #[test]
    fn gp2idx_is_a_bijection_onto_consecutive_integers() {
        for (d, levels) in [(1, 6), (2, 5), (3, 4), (4, 3), (5, 3)] {
            let spec = GridSpec::new(d, levels);
            let ix = GridIndexer::new(spec);
            let mut seen = vec![false; ix.num_points() as usize];
            for_each_point(&spec, |_, l, i| {
                let idx = ix.gp2idx(l, i) as usize;
                assert!(!seen[idx], "duplicate index {idx}");
                seen[idx] = true;
            });
            assert!(seen.iter().all(|&s| s), "gap in index range");
        }
    }

    #[test]
    fn gp2idx_matches_traversal_order() {
        // `for_each_point` walks in exactly gp2idx order.
        let spec = GridSpec::new(3, 5);
        let ix = GridIndexer::new(spec);
        for_each_point(&spec, |idx, l, i| {
            assert_eq!(ix.gp2idx(l, i), idx);
        });
    }

    #[test]
    fn idx2gp_inverts_gp2idx() {
        let spec = GridSpec::new(4, 5);
        let ix = GridIndexer::new(spec);
        let mut l = vec![0; 4];
        let mut i = vec![0; 4];
        for idx in 0..ix.num_points() {
            ix.idx2gp(idx, &mut l, &mut i);
            assert!(spec.contains(&l, &i), "idx={idx} gave invalid point");
            assert_eq!(ix.gp2idx(&l, &i), idx);
        }
    }

    #[test]
    fn point_walk_from_any_start_matches_idx2gp() {
        // Starts inside a subspace, on subspace and group boundaries,
        // and runs to the end of the grid.
        let spec = GridSpec::new(3, 5);
        let ix = GridIndexer::new(spec);
        let total = ix.num_points();
        let mut l = vec![0; 3];
        let mut i = vec![0; 3];
        for start in 0..total {
            for end in [start, (start + 37).min(total), total] {
                let mut idx = start;
                ix.for_each_point_in(start..end, |wl, wi| {
                    ix.idx2gp(idx, &mut l, &mut i);
                    assert_eq!((wl, wi), (&l[..], &i[..]), "start={start} idx={idx}");
                    idx += 1;
                });
                assert_eq!(idx, end);
            }
        }
    }

    #[test]
    fn literal_alg5_matches_optimized() {
        let spec = GridSpec::new(4, 5);
        let ix = GridIndexer::new(spec);
        for_each_point(&spec, |idx, l, i| {
            assert_eq!(gp2idx_literal(&spec, l, i), idx);
        });
        let _ = ix;
    }

    #[test]
    fn paper_figure_6_example() {
        // Fig. 6: 2-d level-4 grid; the point l=(1,2), i=(3,1) at
        // coordinates (0.75, 0.125). The figure states position 34; Alg. 5
        // as printed packs index1 with the *first* dimension most
        // significant, which yields 37 for the same point (index3 = 17,
        // index2 = 2·2³ = 16, index1 = 1·2² + 0 = 4). The figure evidently
        // packed index1 in the opposite dimension order (index1 = 1, total
        // 34) — both are valid bijections; we follow Alg. 5 verbatim.
        let spec = GridSpec::new(2, 4);
        let ix = GridIndexer::new(spec);
        let l = [1u8, 2u8];
        let i = [3u32, 1u32];
        assert_eq!(ix.group_offset(3), 17);
        assert_eq!(ix.subspace_rank(&l), 2);
        assert_eq!(ix.gp2idx(&l, &i), 17 + 16 + 4);
    }

    #[test]
    fn group_ranges_partition_the_grid() {
        let spec = GridSpec::new(3, 6);
        let ix = GridIndexer::new(spec);
        let mut expected_start = 0u64;
        for n in 0..spec.levels() {
            let r = ix.group_range(n);
            assert_eq!(r.start, expected_start);
            assert_eq!(r.end - r.start, ix.subspaces_on_level(n) << n);
            expected_start = r.end;
        }
        assert_eq!(expected_start, spec.num_points());
    }

    #[test]
    fn indexer_is_small() {
        // The compact structure's auxiliary tables must stay cache-sized
        // even for the paper's largest grid (d=10, level 11).
        let ix = GridIndexer::new(GridSpec::new(10, 11));
        assert!(
            ix.memory_bytes() < 4096,
            "indexer too large: {}",
            ix.memory_bytes()
        );
    }

    #[test]
    fn try_new_rejects_overflowing_point_count() {
        // Regression: this (d, n) used to hit
        // `expect("grid point count overflows u64")` inside the offset
        // accumulation; the fallible path must return a typed error and
        // the panicking wrapper must keep its message.
        let spec = GridSpec::try_new(60, 31).expect("shape itself is valid");
        assert_eq!(
            GridIndexer::try_new(spec).err(),
            Some(crate::error::SgError::CountOverflow {
                dim: 60,
                levels: 31
            })
        );
        assert!(spec.try_num_points().is_err());
        let caught = std::panic::catch_unwind(|| GridIndexer::new(spec));
        assert!(caught.is_err(), "infallible constructor must still panic");
    }

    #[test]
    fn one_dimensional_grid_is_breadth_first() {
        // d=1: index order is level-major: (0,1), (1,1), (1,3), (2,1), ...
        let spec = GridSpec::new(1, 4);
        let ix = GridIndexer::new(spec);
        assert_eq!(ix.gp2idx(&[0], &[1]), 0);
        assert_eq!(ix.gp2idx(&[1], &[1]), 1);
        assert_eq!(ix.gp2idx(&[1], &[3]), 2);
        assert_eq!(ix.gp2idx(&[2], &[1]), 3);
        // Level-3 group starts at 1+2+4 = 7; i = 7 has rank (7−1)/2 = 3.
        assert_eq!(ix.gp2idx(&[3], &[7]), 10);
        assert_eq!(ix.gp2idx(&[3], &[15]), 14);
    }
}
