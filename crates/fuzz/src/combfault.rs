//! Fault campaign against the fault-tolerant combination executor.
//!
//! Each case builds a seeded combination run, checkpoints its component
//! set through the `SGCM` manifest path, and injects one fault: the
//! eight [`StorageFault`] classes against the manifest, or one of two
//! executor-level losses (component task panic, component dropped
//! pre-commit). Full recovery means the recovered combination grid is
//! bitwise identical to the fault-free run; partial recovery means the
//! lost components are enumerated and the configured policy holds
//! (`Recompute` restores bitwise identity, `Reweight` stays within its
//! self-reported error bound at every probe point); a fault that
//! destroys the manifest's identity or strands the re-weighting solver
//! must end in a typed [`sg_core::error::SgError`]. A silently corrupted
//! payload claimed intact is a violation. Each case reports the policy
//! it drew as the campaign counts `recompute` / `reweight`. See
//! [`crate::campaign`] for the contract and the driver.

use crate::campaign::{inject_storage, seeded_function, Arm, FaultCampaign, Outcome, StorageFault};
use sg_combination::{
    CombinationExecutor, CombinationGrid, ExecutorConfig, InjectedFaults, RecoveryPolicy,
    RunOutcome,
};
use sg_core::level::GridSpec;
use sg_io::{component_boundaries, recover_component_set, MemorySink};
use sg_prop::Rng;

/// The injected fault classes: the eight storage classes against the
/// component-set manifest, plus the two executor-level losses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombFaultClass {
    /// A storage fault against the manifest.
    Storage(StorageFault),
    /// A component task panics mid-sampling (transient or persistent).
    TaskPanic,
    /// A computed component's values are dropped after compute, before
    /// the manifest commit (metadata survives, payload tombstoned).
    DroppedPreCommit,
}

/// The combination campaign.
pub struct Combination;

impl FaultCampaign for Combination {
    type Class = CombFaultClass;
    const NAME: &'static str = "combination";
    const CLASSES: &'static [CombFaultClass] = &[
        CombFaultClass::Storage(StorageFault::TornSectionBoundary),
        CombFaultClass::Storage(StorageFault::TornMidSection),
        CombFaultClass::Storage(StorageFault::BitFlip),
        CombFaultClass::Storage(StorageFault::Truncate),
        CombFaultClass::Storage(StorageFault::Enospc),
        CombFaultClass::Storage(StorageFault::HeaderCorrupt),
        CombFaultClass::Storage(StorageFault::FooterCorrupt),
        CombFaultClass::Storage(StorageFault::LostDirent),
        CombFaultClass::TaskPanic,
        CombFaultClass::DroppedPreCommit,
    ];
    const COUNTS: &'static [&'static str] = &["recompute", "reweight"];

    fn class_name(class: CombFaultClass) -> &'static str {
        match class {
            CombFaultClass::Storage(fault) => fault.name(),
            CombFaultClass::TaskPanic => "task-panic",
            CombFaultClass::DroppedPreCommit => "dropped-pre-commit",
        }
    }

    fn start() -> Result<Combination, String> {
        Ok(Combination)
    }

    /// Injected task panics unwind on `sg-par` pool workers, so the case
    /// runs with expected panics silenced process-wide.
    fn run_case(&self, class: CombFaultClass, seed: u64) -> Result<Outcome, String> {
        crate::with_quiet_panics_global(|| run_case(class, seed))
    }
}

/// Seeded executor + function for one case: a small random shape, a
/// smooth seeded function, and a policy drawn from the seed.
fn seeded_case(rng: &mut Rng) -> (CombinationExecutor, impl Fn(&[f64]) -> f64 + Clone + Sync) {
    let d = rng.usize_in(1..=4);
    let levels = rng.usize_in(2..=5);
    let policy = if rng.bool() {
        RecoveryPolicy::Reweight
    } else {
        RecoveryPolicy::Recompute
    };
    let f = seeded_function(rng, d);
    let exec = CombinationExecutor::with_config(
        GridSpec::new(d, levels),
        ExecutorConfig {
            policy,
            spare_diagonals: 1,
            provenance: "combfault-gold".into(),
        },
    );
    (exec, f)
}

fn grids_bitwise_equal(a: &CombinationGrid<f64>, b: &CombinationGrid<f64>) -> bool {
    a.components().len() == b.components().len()
        && a.components().iter().zip(b.components()).all(|(x, y)| {
            x.coefficient == y.coefficient
                && x.grid.levels() == y.grid.levels()
                && x.grid.values() == y.grid.values()
        })
}

/// Recover `bytes` under the executor's policy and check the contract
/// against the fault-free reference grid.
fn check_recovery(
    exec: &CombinationExecutor,
    f: &(impl Fn(&[f64]) -> f64 + Clone + Sync),
    components: &[sg_combination::AnisoFullGrid<f64>],
    reference: &CombinationGrid<f64>,
    bytes: &[u8],
) -> Result<Arm, String> {
    // Silent-corruption check: every payload claimed intact must be
    // bitwise identical to the computed component values.
    match recover_component_set::<f64>(bytes) {
        Ok(recovery) => {
            for (k, payload) in recovery.payloads.iter().enumerate() {
                if let Some(values) = payload {
                    if k >= components.len() || values != components[k].values() {
                        return Err(format!(
                            "component {k} verified intact but its values differ \
                             (silent corruption)"
                        ));
                    }
                }
            }
        }
        Err(_) => {
            // Identity destroyed: the executor must fail typed too.
            return match exec.recover_run::<f64>(bytes, f) {
                Err(e) => Ok(Arm::CleanError(e.to_string())),
                Ok(_) => Err("manifest identity unreadable but recover_run succeeded".into()),
            };
        }
    }
    let run = match exec.recover_run::<f64>(bytes, f) {
        Ok(run) => run,
        Err(e) => return Ok(Arm::CleanError(e.to_string())),
    };
    match run.outcome {
        RunOutcome::Clean => {
            if !grids_bitwise_equal(&run.grid, reference) {
                return Err("clean recovery differs bitwise from the fault-free run".into());
            }
            Ok(Arm::FullRecovery)
        }
        RunOutcome::Recomputed { components: lost } => {
            if !grids_bitwise_equal(&run.grid, reference) {
                return Err(format!(
                    "recompute of lost components {lost:?} is not bitwise identical"
                ));
            }
            Ok(Arm::PartialRecovery { lost })
        }
        RunOutcome::Reweighted {
            dropped,
            error_bound,
        } => {
            if !error_bound.is_finite() || error_bound < 0.0 {
                return Err(format!("reweight reported a bogus bound {error_bound}"));
            }
            let d = exec.spec().dim();
            let mut scale = 1.0f64;
            let xs = sg_core::functions::halton_points(d, 24);
            for x in xs.chunks_exact(d) {
                scale = scale.max(reference.evaluate(x).abs());
            }
            for x in xs.chunks_exact(d) {
                let a = run.grid.evaluate(x);
                let b = reference.evaluate(x);
                if (a - b).abs() > error_bound + 1e-9 * scale {
                    return Err(format!(
                        "reweight around {dropped:?} leaves its own bound at {x:?}: \
                         |{a} − {b}| > {error_bound}"
                    ));
                }
            }
            Ok(Arm::PartialRecovery { lost: dropped })
        }
    }
}

/// One seeded case; the outcome's counts carry the policy it drew.
fn run_case(class: CombFaultClass, seed: u64) -> Result<Outcome, String> {
    let mut rng = Rng::new(seed);
    let (exec, f) = seeded_case(&mut rng);
    let components = exec
        .compute_components(&f)
        .map_err(|e| format!("fault-free compute failed: {e}"))?;
    let write = |sink: &mut dyn sg_io::SnapshotSink| exec.checkpoint(&components, sink, None);
    let mut sink = MemorySink::new();
    write(&mut sink).map_err(|e| format!("fault-free checkpoint failed: {e}"))?;
    let gold = sink.into_published().expect("memory sink commits");
    let reference = exec
        .recover_run::<f64>(&gold, &f)
        .map_err(|e| format!("fault-free recovery failed: {e}"))?;
    if reference.outcome != RunOutcome::Clean {
        return Err(format!(
            "fault-free run did not recover clean: {:?}",
            reference.outcome
        ));
    }
    let bounds =
        component_boundaries(&gold).map_err(|e| format!("gold manifest unreadable: {e}"))?;
    let check = |bytes: &[u8]| check_recovery(&exec, &f, &components, &reference.grid, bytes);
    let arm = match class {
        CombFaultClass::Storage(fault) => {
            match inject_storage(fault, &gold, &bounds, &mut rng, write)? {
                None => Arm::CleanError("write failed cleanly".into()),
                Some(bytes) => check(&bytes)?,
            }
        }
        CombFaultClass::TaskPanic => {
            let k = rng.usize_in(0..=exec.tasks().len() - 1);
            let persistent = rng.bool();
            let faults = InjectedFaults {
                task_panic: Some((k, persistent)),
                drop_pre_commit: None,
            };
            match exec.compute_components_faulty(&f, faults, None) {
                Err(e) if persistent => Arm::CleanError(e.to_string()),
                Err(e) => return Err(format!("transient panic of task {k} was not retried: {e}")),
                Ok(_) if persistent => {
                    return Err(format!("persistent panic of task {k} reported success"))
                }
                Ok(retried) => {
                    for (i, (a, b)) in retried.iter().zip(&components).enumerate() {
                        if a.values() != b.values() {
                            return Err(format!(
                                "retry of panicked task {k} changed component {i} bitwise"
                            ));
                        }
                    }
                    let mut sink = MemorySink::new();
                    exec.checkpoint(&retried, &mut sink, None)
                        .map_err(|e| e.to_string())?;
                    check(&sink.into_published().expect("memory sink commits"))?
                }
            }
        }
        CombFaultClass::DroppedPreCommit => {
            let k = rng.usize_in(0..=exec.tasks().len() - 1);
            let mut sink = MemorySink::new();
            exec.checkpoint(&components, &mut sink, Some(k))
                .map_err(|e| e.to_string())?;
            check(&sink.into_published().expect("memory sink commits"))?
        }
    };
    let reweight = u64::from(exec.config().policy == RecoveryPolicy::Reweight);
    Ok(Outcome {
        arm,
        counts: vec![1 - reweight, reweight],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;

    #[test]
    fn every_class_resolves_inside_the_contract() {
        let report = run_campaign::<Combination>(0x5EED_0002, 100, None);
        assert!(report.clean(), "{:#?}", report.violations);
        assert_eq!(report.cases, 100);
        assert_eq!(
            report.full_recoveries + report.partial_recoveries + report.clean_errors,
            100
        );
        for (name, count) in &report.per_class {
            assert_eq!(*count, 10, "class {name} ran {count} times");
        }
        // The mix must exercise all three contract arms and both
        // policies.
        assert!(report.full_recoveries > 0, "no full recoveries seen");
        assert!(report.partial_recoveries > 0, "no partial recoveries seen");
        assert!(report.clean_errors > 0, "no clean errors seen");
        assert!(
            report.count("recompute") > 0,
            "recompute policy never drawn"
        );
        assert!(report.count("reweight") > 0, "reweight policy never drawn");
    }

    #[test]
    fn cases_are_deterministic_in_the_seed() {
        let class = CombFaultClass::Storage(StorageFault::BitFlip);
        let a = Combination.run_case(class, 0x0C0F_FEE0).unwrap();
        let b = Combination.run_case(class, 0x0C0F_FEE0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn enospc_never_publishes() {
        for k in 0..10 {
            let outcome = Combination
                .run_case(
                    CombFaultClass::Storage(StorageFault::Enospc),
                    crate::case_seed(11, k),
                )
                .unwrap();
            assert!(matches!(outcome.arm, Arm::CleanError(_)));
        }
    }

    #[test]
    fn dropped_pre_commit_exercises_both_policies() {
        let mut partial = 0;
        for k in 0..20 {
            let outcome = Combination
                .run_case(CombFaultClass::DroppedPreCommit, crate::case_seed(13, k))
                .unwrap();
            if matches!(outcome.arm, Arm::PartialRecovery { .. }) {
                partial += 1;
            }
        }
        assert!(partial > 0, "dropped-pre-commit never engaged a policy");
    }
}
