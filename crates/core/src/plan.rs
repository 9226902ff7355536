//! Precomputed traversal plans for the batched kernels.
//!
//! Two traversals dominate the hot paths and are both derivable from
//! the `GridSpec` alone:
//!
//! * the `first_level`/`next_level` subspace walk of Alg. 7 — the
//!   blocked evaluator used to replay it once per *block*; an
//!   [`EvalPlan`] materializes it **once per batch** (level vectors and
//!   storage offsets, flat) so every block and every pool worker reuses
//!   the same walk;
//! * the *pole runs* of a hierarchization sweep — within subspace `l`,
//!   for dimension `t`, the `2^{Σ_{u>t} l_u}` consecutive ranks that
//!   share their leading bits have the same `i_t`, hence the same
//!   parent levels and the same boundary cases, and their parents
//!   occupy **consecutive** storage slots (the trailing bits of the
//!   child rank carry over unchanged to the parent rank). Each run is
//!   therefore one vertical stencil over contiguous slices. The parent
//!   subspaces' storage offsets are located once per (subspace, `t`) by
//!   [`ParentOffsets`] — one `gp2idx` per parent level — and every run's
//!   parent slots follow from them by shifts and ors, so the runs
//!   themselves make no bijection call.

use crate::bijection::GridIndexer;
use crate::iter::{first_level, next_level};
use crate::level::{hierarchical_parent, GridSpec, Index, Level, Side};
#[allow(unused_imports)] // the import is "unused" when `telemetry` is off
use crate::tel;

tel! {
    static PLAN_BUILDS: sg_telemetry::Counter =
        sg_telemetry::Counter::new("core.evaluate.plan_builds");
}

/// The flattened subspace walk of one grid: every subspace's level
/// vector plus its storage offset, in bijection order.
#[derive(Debug, Clone)]
pub struct EvalPlan {
    d: usize,
    /// Entry `e` is `levels[e*d .. (e+1)*d]`.
    levels: Vec<Level>,
    /// Storage offset (index3 + index2·2^n) of entry `e`'s subspace.
    offsets: Vec<usize>,
    /// Entry-index boundary of each level group: group `n` (all
    /// subspaces with `|l|₁ = n`) occupies entries
    /// `group_starts[n]..group_starts[n+1]`. The walk visits groups in
    /// ascending order, so entries within a group are contiguous.
    group_starts: Vec<usize>,
}

impl EvalPlan {
    /// Walk all subspaces of `spec` once and record them.
    pub fn new(spec: &GridSpec) -> Self {
        let d = spec.dim();
        let mut levels = Vec::new();
        let mut offsets = Vec::new();
        let mut group_starts = Vec::with_capacity(spec.levels() + 1);
        let mut l = vec![0 as Level; d];
        let mut off = 0usize;
        for n in 0..spec.levels() {
            let sub_len = 1usize << n;
            group_starts.push(offsets.len());
            first_level(n, &mut l);
            loop {
                levels.extend_from_slice(&l);
                offsets.push(off);
                off += sub_len;
                if !next_level(&mut l) {
                    break;
                }
            }
        }
        group_starts.push(offsets.len());
        tel! { PLAN_BUILDS.add(1); }
        EvalPlan {
            d,
            levels,
            offsets,
            group_starts,
        }
    }

    /// Dimensionality the plan was built for.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Number of subspaces recorded.
    pub fn num_subspaces(&self) -> usize {
        self.offsets.len()
    }

    /// Entry `e`: its level vector and storage offset.
    #[inline(always)]
    pub fn entry(&self, e: usize) -> (&[Level], usize) {
        (&self.levels[e * self.d..(e + 1) * self.d], self.offsets[e])
    }

    /// Number of level groups (`spec.levels()` at build time).
    pub fn num_groups(&self) -> usize {
        self.group_starts.len() - 1
    }

    /// Entry-index range of level group `n` (subspaces with `|l|₁ = n`),
    /// for per-group attribution in the evaluator and the divergence
    /// report.
    #[inline]
    pub fn group_entries(&self, n: usize) -> std::ops::Range<usize> {
        self.group_starts[n]..self.group_starts[n + 1]
    }
}

/// One vectorizable pole run inside a subspace, for a fixed sweep
/// dimension: `len` consecutive ranks starting at `rank0` whose left
/// (resp. right) hierarchical parents occupy the `len` consecutive
/// absolute storage slots starting at `left` (resp. `right`); `None`
/// when that parent chain ends on the domain boundary.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PoleRun {
    pub rank0: usize,
    pub len: usize,
    pub left: Option<usize>,
    pub right: Option<usize>,
}

/// Storage offsets of the dimension-`t` parent subspaces of every
/// subspace in one level group: for subspace `k` with level vector `l`,
/// [`Self::get`]`(k)[pl]` is the offset of `l` with `l_t ← pl`, for
/// each `pl < l_t`. A sweep allocates one (its scratch sized by `d`)
/// and rebuilds it for each (dimension, group) pair before the group's
/// subspaces are handed out, so pool workers read it and never call the
/// bijection.
#[derive(Debug)]
pub(crate) struct ParentOffsets {
    /// Level-vector scratch: `l` with `l_t` replaced.
    l: Vec<Level>,
    /// The all-ones index vector, whose in-subspace rank is 0.
    ones: Vec<Index>,
    /// Subspace `k`'s offsets are `offsets[starts[k]..starts[k + 1]]`.
    starts: Vec<usize>,
    offsets: Vec<usize>,
}

impl ParentOffsets {
    pub(crate) fn new(d: usize) -> Self {
        ParentOffsets {
            l: vec![0; d],
            ones: vec![1; d],
            starts: Vec::new(),
            offsets: Vec::new(),
        }
    }

    /// Locate the dimension-`t` parent subspaces of each of `levels`
    /// (one level group, in enumeration order): one `gp2idx` of the
    /// all-ones index per (subspace, parent level).
    pub(crate) fn build(&mut self, indexer: &GridIndexer, levels: &[Vec<Level>], t: usize) {
        self.starts.clear();
        self.offsets.clear();
        for l in levels {
            self.starts.push(self.offsets.len());
            self.l.copy_from_slice(l);
            for pl in 0..l[t] {
                self.l[t] = pl;
                self.offsets
                    .push(indexer.gp2idx(&self.l, &self.ones) as usize);
            }
        }
        self.starts.push(self.offsets.len());
    }

    /// Parent-subspace offsets of subspace `k`, indexed by parent level.
    #[inline(always)]
    pub(crate) fn get(&self, k: usize) -> &[usize] {
        &self.offsets[self.starts[k]..self.starts[k + 1]]
    }
}

/// Decompose subspace `l` into its dimension-`t` pole runs, in rank
/// order, given its parent-subspace offsets `parents` (from
/// [`ParentOffsets::get`]).
///
/// A rank splits as `hi | k | lo` with `l_{<t}`, `l_t` and `l_{>t}`
/// bits. The run `(hi, k)` starts at `((hi << l_t) | k) << trail` and
/// holds `i_t = 2k+1`; its parent `(pl, pi)` keeps `hi` and `lo`, so
/// the parent run starts at `parents[pl] + (((hi << pl) | (pi−1)/2) <<
/// trail)`.
///
/// Requires `l[t] != 0` (subspaces with `l[t] = 0` have both ancestors
/// on the boundary and are skipped by the sweeps).
#[inline(always)]
pub(crate) fn for_each_pole_run(
    l: &[Level],
    t: usize,
    parents: &[usize],
    mut f: impl FnMut(PoleRun),
) {
    let lt = l[t];
    debug_assert!(lt != 0);
    debug_assert_eq!(parents.len(), lt as usize);
    let head: u32 = l[..t].iter().map(|&v| v as u32).sum();
    let trail: u32 = l[t + 1..].iter().map(|&v| v as u32).sum();
    let len = 1usize << trail;
    for hi in 0..1usize << head {
        for k in 0..1usize << lt {
            let it = (2 * k + 1) as Index;
            let parent = |side| {
                hierarchical_parent(lt, it, side).map(|(pl, pi)| {
                    let pk = (pi as usize - 1) >> 1;
                    parents[pl as usize] + (((hi << pl) | pk) << trail)
                })
            };
            f(PoleRun {
                rank0: ((hi << lt) | k) << trail,
                len,
                left: parent(Side::Left),
                right: parent(Side::Right),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iter::{decode_subspace_rank, encode_subspace_rank, for_each_level};

    #[test]
    fn plan_matches_the_live_walk() {
        let spec = GridSpec::new(3, 4);
        let plan = EvalPlan::new(&spec);
        let mut e = 0usize;
        let mut off = 0usize;
        for n in 0..spec.levels() {
            for_each_level(spec.dim(), n, |l| {
                let (pl, poff) = plan.entry(e);
                assert_eq!(pl, l);
                assert_eq!(poff, off);
                off += 1usize << n;
                e += 1;
            });
        }
        assert_eq!(e, plan.num_subspaces());
        assert_eq!(off as u64, spec.num_points());
    }

    #[test]
    fn group_entries_partition_the_plan_by_level_sum() {
        let spec = GridSpec::new(4, 5);
        let plan = EvalPlan::new(&spec);
        assert_eq!(plan.num_groups(), spec.levels());
        let mut covered = 0usize;
        for n in 0..plan.num_groups() {
            let range = plan.group_entries(n);
            assert_eq!(range.start, covered);
            for e in range.clone() {
                let (l, _) = plan.entry(e);
                let sum: u32 = l.iter().map(|&v| v as u32).sum();
                assert_eq!(sum as usize, n, "entry {e} in group {n}");
            }
            covered = range.end;
        }
        assert_eq!(covered, plan.num_subspaces());
    }

    #[test]
    fn pole_runs_cover_each_subspace_and_parents_are_contiguous() {
        // Levels 7–8 give parent levels up to 6 under non-zero leading
        // bits; d = 40 would overrun any fixed-size per-dimension scratch.
        let shapes = [(1, 8), (2, 8), (3, 7), (5, 5), (10, 5), (40, 2)];
        for (d, levels) in shapes {
            let spec = GridSpec::new(d, levels);
            let indexer = GridIndexer::new(spec);
            let mut parents = ParentOffsets::new(d);
            let mut i = vec![0 as Index; d];
            for n in 0..spec.levels() {
                let group: Vec<Vec<Level>> = crate::iter::LevelIter::new(d, n).collect();
                for t in 0..d {
                    parents.build(&indexer, &group, t);
                    for (k, l) in group.iter().enumerate() {
                        if l[t] == 0 {
                            assert!(parents.get(k).is_empty());
                            continue;
                        }
                        // Runs come in rank order and tile the subspace.
                        let mut next = 0usize;
                        for_each_pole_run(l, t, parents.get(k), |run| {
                            assert_eq!(run.rank0, next, "d={d} l={l:?} t={t}");
                            next += run.len;
                            for o in 0..run.len {
                                let rank = (run.rank0 + o) as u64;
                                // Cross-check each run slot against the
                                // per-point parent located from scratch.
                                decode_subspace_rank(l, rank, &mut i);
                                assert_eq!(encode_subspace_rank(l, &i), rank);
                                let mut l2 = l.clone();
                                let mut i2 = i.clone();
                                for (side, base) in
                                    [(Side::Left, run.left), (Side::Right, run.right)]
                                {
                                    match hierarchical_parent(l[t], i[t], side) {
                                        None => assert!(base.is_none()),
                                        Some((pl, pi)) => {
                                            l2[t] = pl;
                                            i2[t] = pi;
                                            let want = indexer.gp2idx(&l2, &i2) as usize;
                                            assert_eq!(
                                                base.unwrap() + o,
                                                want,
                                                "d={d} l={l:?} t={t} rank={rank} {side:?}"
                                            );
                                        }
                                    }
                                }
                            }
                        });
                        assert_eq!(next, 1usize << n, "d={d} l={l:?} t={t}");
                    }
                }
            }
        }
    }
}
