//! Uniform dispatch over the five storage structures for the experiment
//! binaries: fill, sequential hierarchization, and sequential evaluation,
//! using for each structure the algorithm the paper pairs it with — the
//! iterative algorithms for the compact structure, the classic recursive
//! ones for the conventional structures.

use sg_baselines::{
    evaluate_recursive, hierarchize_recursive, EnhancedHashGrid, EnhancedMapGrid, PrefixTreeGrid,
    SparseGridStore, StdMapGrid, StoreKind,
};
use sg_core::evaluate::evaluate;
use sg_core::grid::CompactGrid;
use sg_core::hierarchize::hierarchize;
use sg_core::level::GridSpec;

/// One of the five storage structures, uniformly driveable.
pub enum AnyStore {
    /// The compact structure (iterative algorithms).
    Compact(CompactGrid<f64>),
    /// Coordinate-keyed ordered map (recursive algorithms).
    StdMap(StdMapGrid<f64>),
    /// `gp2idx`-keyed ordered map (recursive algorithms).
    EnhMap(EnhancedMapGrid<f64>),
    /// `gp2idx`-keyed hash table (recursive algorithms).
    EnhHash(EnhancedHashGrid<f64>),
    /// Prefix tree (recursive algorithms).
    PrefixTree(PrefixTreeGrid<f64>),
}

impl AnyStore {
    /// Construct an empty store of the given kind.
    pub fn new(kind: StoreKind, spec: GridSpec) -> Self {
        match kind {
            StoreKind::Compact => AnyStore::Compact(CompactGrid::new(spec)),
            StoreKind::StdMap => AnyStore::StdMap(StdMapGrid::new(spec)),
            StoreKind::EnhancedMap => AnyStore::EnhMap(EnhancedMapGrid::new(spec)),
            StoreKind::EnhancedHash => AnyStore::EnhHash(EnhancedHashGrid::new(spec)),
            StoreKind::PrefixTree => AnyStore::PrefixTree(PrefixTreeGrid::new(spec)),
        }
    }

    /// Populate with nodal values of `f`.
    pub fn fill(&mut self, f: impl FnMut(&[f64]) -> f64) {
        match self {
            AnyStore::Compact(s) => s.fill_from(f),
            AnyStore::StdMap(s) => s.fill_from(f),
            AnyStore::EnhMap(s) => s.fill_from(f),
            AnyStore::EnhHash(s) => s.fill_from(f),
            AnyStore::PrefixTree(s) => s.fill_from(f),
        }
    }

    /// Sequential hierarchization with the paper's pairing: iterative
    /// Alg. 6 for the compact structure, recursive Alg. 1 for the rest.
    pub fn hierarchize_seq(&mut self) {
        match self {
            AnyStore::Compact(s) => hierarchize(s),
            AnyStore::StdMap(s) => hierarchize_recursive(s),
            AnyStore::EnhMap(s) => hierarchize_recursive(s),
            AnyStore::EnhHash(s) => hierarchize_recursive(s),
            AnyStore::PrefixTree(s) => hierarchize_recursive(s),
        }
    }

    /// Sequential evaluation at one point: iterative Alg. 7 for the
    /// compact structure, recursive Alg. 2 for the rest.
    pub fn evaluate_seq(&self, x: &[f64]) -> f64 {
        match self {
            AnyStore::Compact(s) => evaluate(s, x),
            AnyStore::StdMap(s) => evaluate_recursive(s, x),
            AnyStore::EnhMap(s) => evaluate_recursive(s, x),
            AnyStore::EnhHash(s) => evaluate_recursive(s, x),
            AnyStore::PrefixTree(s) => evaluate_recursive(s, x),
        }
    }

    /// Value at grid point `(l, i)`.
    pub fn get(&self, l: &[sg_core::level::Level], i: &[sg_core::level::Index]) -> f64 {
        match self {
            AnyStore::Compact(s) => s.get(l, i),
            AnyStore::StdMap(s) => SparseGridStore::get(s, l, i),
            AnyStore::EnhMap(s) => SparseGridStore::get(s, l, i),
            AnyStore::EnhHash(s) => SparseGridStore::get(s, l, i),
            AnyStore::PrefixTree(s) => SparseGridStore::get(s, l, i),
        }
    }

    /// Modelled/actual memory footprint.
    pub fn memory_bytes(&self) -> usize {
        match self {
            AnyStore::Compact(s) => SparseGridStore::memory_bytes(s),
            AnyStore::StdMap(s) => s.memory_bytes(),
            AnyStore::EnhMap(s) => s.memory_bytes(),
            AnyStore::EnhHash(s) => s.memory_bytes(),
            AnyStore::PrefixTree(s) => s.memory_bytes(),
        }
    }

    /// Snapshot the values into a compact grid (for cross-validation).
    pub fn to_compact(&self) -> CompactGrid<f64> {
        match self {
            AnyStore::Compact(s) => s.clone(),
            AnyStore::StdMap(s) => s.to_compact(),
            AnyStore::EnhMap(s) => s.to_compact(),
            AnyStore::EnhHash(s) => s.to_compact(),
            AnyStore::PrefixTree(s) => s.to_compact(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_core::functions::{halton_points, TestFunction};

    #[test]
    fn all_stores_agree_end_to_end() {
        let spec = GridSpec::new(3, 4);
        let f = TestFunction::Parabola;
        let mut reference: Option<CompactGrid<f64>> = None;
        for kind in StoreKind::ALL {
            let mut s = AnyStore::new(kind, spec);
            s.fill(|x| f.eval(x));
            s.hierarchize_seq();
            let snap = s.to_compact();
            if let Some(r) = &reference {
                assert!(
                    snap.max_abs_diff(r) < 1e-12,
                    "{:?} disagrees with compact",
                    kind
                );
            } else {
                reference = Some(snap);
            }
            // Evaluation agrees too.
            for x in halton_points(3, 5).chunks_exact(3) {
                let a = s.evaluate_seq(x);
                let b = evaluate(reference.as_ref().unwrap(), x);
                assert!((a - b).abs() < 1e-12, "{kind:?} at {x:?}");
            }
        }
    }

    #[test]
    fn memory_ordering_holds_on_real_instances() {
        let spec = GridSpec::new(4, 5);
        let sizes: Vec<(StoreKind, usize)> = StoreKind::ALL
            .iter()
            .map(|&k| {
                let mut s = AnyStore::new(k, spec);
                s.fill(|x| x[0]);
                (k, s.memory_bytes())
            })
            .collect();
        let get = |k: StoreKind| sizes.iter().find(|(a, _)| *a == k).unwrap().1;
        assert!(get(StoreKind::Compact) < get(StoreKind::PrefixTree));
        assert!(get(StoreKind::PrefixTree) < get(StoreKind::StdMap));
        assert!(get(StoreKind::EnhancedHash) < get(StoreKind::StdMap));
    }
}
