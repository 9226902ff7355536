//! Fault campaign against the `SGC2` sectioned snapshot format.
//!
//! Each case builds a small grid from a seeded function, snapshots it,
//! and injects one of the eight [`StorageFault`] classes (at the sink
//! for write-path faults, on the published bytes for storage faults).
//! Full recovery means the decoded grid is bitwise identical to the
//! original; partial recovery means the lost level groups are
//! enumerated, every section reported intact is bitwise identical to
//! the original, and [`sg_io::DegradedGrid::repair_with`] reconstructs
//! the lost groups exactly; a fault that destroys the snapshot's
//! identity must end in a typed [`sg_core::error::SgError`]. See
//! [`crate::campaign`] for the contract and the driver.

use crate::campaign::{inject_storage, seeded_function, Arm, FaultCampaign, Outcome, StorageFault};
use sg_core::grid::CompactGrid;
use sg_core::level::GridSpec;
use sg_io::{recover_snapshot, section_boundaries, write_snapshot, MemorySink};
use sg_prop::Rng;

/// The snapshot campaign: the eight storage classes against `SGC2`.
pub struct Snapshot;

impl FaultCampaign for Snapshot {
    type Class = StorageFault;
    const NAME: &'static str = "snapshot";
    const CLASSES: &'static [StorageFault] = &StorageFault::ALL;

    fn class_name(class: StorageFault) -> &'static str {
        class.name()
    }

    fn start() -> Result<Snapshot, String> {
        Ok(Snapshot)
    }

    fn run_case(&self, class: StorageFault, seed: u64) -> Result<Outcome, String> {
        let mut rng = Rng::new(seed);
        let (grid, f) = seeded_grid(&mut rng);
        let write =
            |sink: &mut dyn sg_io::SnapshotSink| write_snapshot(&grid, sink, "snapfault-gold");
        let mut sink = MemorySink::new();
        write(&mut sink).map_err(|e| e.to_string())?;
        let gold = sink.into_published().expect("memory sink commits");
        let bounds =
            section_boundaries(&gold).map_err(|e| format!("gold bytes unreadable: {e}"))?;
        let arm = match inject_storage(class, &gold, &bounds, &mut rng, write)? {
            None => Arm::CleanError("write failed cleanly".into()),
            Some(bytes) => check_recovery(&grid, &f, &bytes)?,
        };
        Ok(Outcome {
            arm,
            counts: Vec::new(),
        })
    }
}

/// Seeded grid for case `seed`: a random small shape and a smooth
/// seeded function. Returns the hierarchized grid and a closure that
/// re-creates the function (for repair).
fn seeded_grid(rng: &mut Rng) -> (CompactGrid<f64>, impl Fn(&[f64]) -> f64 + Clone) {
    let d = rng.usize_in(1..=4);
    let levels = rng.usize_in(2..=6);
    let f = seeded_function(rng, d);
    let spec = GridSpec::new(d, levels);
    let mut grid = CompactGrid::from_fn(spec, |x| f(x));
    sg_core::hierarchize::hierarchize(&mut grid);
    (grid, f)
}

/// Recover `bytes` and check the detect-or-recover contract against the
/// original grid. Returns the arm or a violation description.
fn check_recovery(
    grid: &CompactGrid<f64>,
    f: &(impl Fn(&[f64]) -> f64 + Clone),
    bytes: &[u8],
) -> Result<Arm, String> {
    let recovery = match recover_snapshot::<f64>(bytes) {
        Ok(r) => r,
        Err(e) => return Ok(Arm::CleanError(e.to_string())),
    };
    // Silent-corruption check: every section claimed intact must be
    // bitwise identical to the original coefficients.
    for report in &recovery.sections {
        if report.status != sg_io::SectionStatus::Intact {
            continue;
        }
        let r = grid.indexer().group_range(report.group);
        let (s, e) = (r.start as usize, r.end as usize);
        if recovery.grid.grid().values()[s..e] != grid.values()[s..e] {
            return Err(format!(
                "section {} verified intact but its coefficients differ (silent corruption)",
                report.group
            ));
        }
    }
    let lost = recovery.grid.lost_groups().to_vec();
    if lost.is_empty() {
        if recovery.grid.grid().values() != grid.values() {
            return Err("full recovery claimed but coefficients differ".into());
        }
        return Ok(Arm::FullRecovery);
    }
    // Partial recovery must be repairable bitwise from the original
    // function (hierarchization is deterministic).
    let repaired = recovery.grid.clone().repair_with(f.clone());
    if repaired.values() != grid.values() {
        return Err(format!(
            "repair of lost groups {lost:?} did not reconstruct the original coefficients"
        ));
    }
    Ok(Arm::PartialRecovery { lost })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;

    #[test]
    fn every_class_resolves_inside_the_contract() {
        let report = run_campaign::<Snapshot>(0x5EED_0001, 80, None);
        assert!(report.clean(), "{:#?}", report.violations);
        assert_eq!(report.cases, 80);
        assert_eq!(
            report.full_recoveries + report.partial_recoveries + report.clean_errors,
            80
        );
        for (name, count) in &report.per_class {
            assert_eq!(*count, 10, "class {name} ran {count} times");
        }
        // The mix must actually exercise all three contract arms.
        assert!(report.full_recoveries > 0, "no full recoveries seen");
        assert!(report.partial_recoveries > 0, "no partial recoveries seen");
        assert!(report.clean_errors > 0, "no clean errors seen");
    }

    #[test]
    fn cases_are_deterministic_in_the_seed() {
        let a = Snapshot
            .run_case(StorageFault::BitFlip, 0x1234_5678)
            .unwrap();
        let b = Snapshot
            .run_case(StorageFault::BitFlip, 0x1234_5678)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn enospc_never_publishes() {
        for k in 0..20 {
            let outcome = Snapshot
                .run_case(StorageFault::Enospc, crate::case_seed(7, k))
                .unwrap();
            assert!(matches!(outcome.arm, Arm::CleanError(_)));
        }
    }
}
