//! One framework for every detect-or-recover fault campaign.
//!
//! A campaign ([`FaultCampaign`]) names its fault classes and runs one
//! seeded case of a class; the driver ([`run_campaign`]) owns everything
//! else: the class rotation, per-case seeds ([`crate::case_seed`]), panic
//! capture, the stop after five violations, and the
//! [`CampaignReport`]. Every case must resolve in one arm of the
//! **detect-or-recover contract** ([`Arm`]):
//!
//! 1. *full recovery* — the recovered state is bitwise identical to the
//!    fault-free one,
//! 2. *partial recovery* — the lost parts are enumerated and repaired
//!    (or re-weighted within a self-reported bound), or
//! 3. *clean error* — a typed error.
//!
//! Anything else (a panic, silent corruption, a hang) is a
//! **violation**, reported with a one-line reproducer ([`reproducer`])
//! that replays exactly that class and seed.
//!
//! The eight storage-fault classes ([`StorageFault`]) are shared by
//! every checkpointed format: [`inject_storage`] applies one to a
//! writer closure and the format's section boundaries.

use crate::combfault::Combination;
use crate::servechaos::Serve;
use crate::snapfault::Snapshot;
use sg_core::error::SgError;
use sg_io::{FaultSink, SnapshotSink, WriteFault};
use sg_prop::Rng;
use std::panic;
use std::time::Instant;

/// A campaign stops after this many violations.
const MAX_VIOLATIONS: usize = 5;

/// The contract arm one injected fault resolved in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Arm {
    /// Bitwise-identical state recovered.
    FullRecovery,
    /// These parts (level groups, components) were lost, enumerated and
    /// repaired.
    PartialRecovery {
        /// The parts the recovery reported as lost.
        lost: Vec<usize>,
    },
    /// The fault surfaced as this typed error.
    CleanError(String),
}

/// One case's verdict: its contract arm plus its share of the campaign's
/// own counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// How the fault resolved.
    pub arm: Arm,
    /// This case's contribution to each of [`FaultCampaign::COUNTS`], in
    /// that order (empty when the campaign has none).
    pub counts: Vec<u64>,
}

/// A fault domain: its classes and one seeded case. Adding a domain is
/// one impl of this trait plus one line in [`campaigns`].
pub trait FaultCampaign: Sized {
    /// The injected fault classes.
    type Class: Copy + Eq + std::fmt::Debug + 'static;
    /// Campaign name: `--faults` key, report section, corpus column.
    const NAME: &'static str;
    /// Every class, in rotation order.
    const CLASSES: &'static [Self::Class];
    /// Names of the campaign's own counts (see [`Outcome::counts`]).
    const COUNTS: &'static [&'static str] = &[];
    /// Stable class name (report keys, CLI, corpus).
    fn class_name(class: Self::Class) -> &'static str;
    /// Set up whatever every case shares (e.g. a live daemon). It takes
    /// no seed: a one-class replay of case k (seed base = case k's seed)
    /// must run against the same shared state as the full run did.
    fn start() -> Result<Self, String>;
    /// Tear the shared state down; an error is a violation.
    fn finish(self) -> Result<(), String> {
        Ok(())
    }
    /// Run one seeded case: `Ok` inside the contract, `Err` with the
    /// violation otherwise.
    fn run_case(&self, class: Self::Class, seed: u64) -> Result<Outcome, String>;
}

/// Aggregate result of one campaign run; the same shape for every
/// campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Campaign name.
    pub campaign: &'static str,
    /// Seed base used (provenance / replay).
    pub seed_base: u64,
    /// Faults injected.
    pub cases: u64,
    /// Per-class injection counts, in rotation order.
    pub per_class: Vec<(&'static str, u64)>,
    /// Cases that ended in full recovery.
    pub full_recoveries: u64,
    /// Cases that ended in enumerated-and-repaired partial recovery.
    pub partial_recoveries: u64,
    /// Cases that ended in a typed error.
    pub clean_errors: u64,
    /// The campaign's own counts, summed over cases.
    pub counts: Vec<(&'static str, u64)>,
    /// Contract violations, each with a reproducer line. Empty on a
    /// clean run.
    pub violations: Vec<String>,
    /// Wall-clock seconds.
    pub elapsed_secs: f64,
}

impl CampaignReport {
    /// True when every fault resolved inside the contract.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The summed campaign count `name` (0 when the campaign has none).
    pub fn count(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }
}

/// The command that replays one case: case 0 of a one-class run uses
/// the seed verbatim.
pub fn reproducer(campaign: &str, class: &str, seed: u64) -> String {
    format!(
        "replay: SG_PROP_SEED={seed:#x} sgtool fuzz --budget-cases 0 --sched-interleavings 0 \
         --faults {campaign}:{class}=1"
    )
}

/// Run `cases` faults of campaign `C`, rotating through every class (or
/// only `CLASSES[only]`), and check the contract on each. Panics count as
/// violations, not crashes.
pub fn run_campaign<C: FaultCampaign>(
    seed_base: u64,
    cases: u64,
    only: Option<usize>,
) -> CampaignReport {
    let started = Instant::now();
    let mut report = CampaignReport {
        campaign: C::NAME,
        seed_base,
        cases: 0,
        per_class: C::CLASSES.iter().map(|&c| (C::class_name(c), 0)).collect(),
        full_recoveries: 0,
        partial_recoveries: 0,
        clean_errors: 0,
        counts: C::COUNTS.iter().map(|&n| (n, 0)).collect(),
        violations: Vec::new(),
        elapsed_secs: 0.0,
    };
    let rotation: Vec<usize> = match only {
        Some(i) => vec![i],
        None => (0..C::CLASSES.len()).collect(),
    };
    let campaign = match C::start() {
        Ok(c) => c,
        Err(why) => {
            report.violations.push(format!("start failed: {why}"));
            report.elapsed_secs = started.elapsed().as_secs_f64();
            return report;
        }
    };
    for k in 0..cases {
        let ci = rotation[(k % rotation.len() as u64) as usize];
        let class = C::CLASSES[ci];
        let seed = crate::case_seed(seed_base, k);
        let outcome =
            panic::catch_unwind(panic::AssertUnwindSafe(|| campaign.run_case(class, seed)))
                .unwrap_or_else(|payload| {
                    Err(format!("panicked: {}", crate::panic_message(&*payload)))
                });
        report.cases += 1;
        report.per_class[ci].1 += 1;
        match outcome {
            Ok(outcome) => {
                match outcome.arm {
                    Arm::FullRecovery => report.full_recoveries += 1,
                    Arm::PartialRecovery { .. } => report.partial_recoveries += 1,
                    Arm::CleanError(_) => report.clean_errors += 1,
                }
                for (total, n) in report.counts.iter_mut().zip(outcome.counts) {
                    total.1 += n;
                }
            }
            Err(why) => {
                let name = C::class_name(class);
                report.violations.push(format!(
                    "fault={name} seed={seed:#x}: {why}\n{}",
                    reproducer(C::NAME, name, seed)
                ));
                if report.violations.len() >= MAX_VIOLATIONS {
                    break;
                }
            }
        }
    }
    if let Err(why) = campaign.finish() {
        report.violations.push(format!("finish: {why}"));
    }
    report.elapsed_secs = started.elapsed().as_secs_f64();
    report
}

/// A campaign as the CLI sees it: its name and classes, plus one
/// `--faults` entry's class filter and case count.
#[derive(Debug, Clone)]
pub struct FaultRun {
    /// Campaign name.
    pub campaign: &'static str,
    /// Every class name, in rotation order.
    pub classes: Vec<&'static str>,
    /// Class filter (index into `classes`).
    pub class: Option<usize>,
    /// Faults to inject.
    pub cases: u64,
    run: fn(u64, u64, Option<usize>) -> CampaignReport,
}

impl FaultRun {
    fn of<C: FaultCampaign>() -> FaultRun {
        FaultRun {
            campaign: C::NAME,
            classes: C::CLASSES.iter().map(|&c| C::class_name(c)).collect(),
            class: None,
            cases: 0,
            run: run_campaign::<C>,
        }
    }

    /// Run the entry under `seed_base`.
    pub fn run(&self, seed_base: u64) -> CampaignReport {
        (self.run)(seed_base, self.cases, self.class)
    }
}

/// Every registered campaign, with no cases.
pub fn campaigns() -> Vec<FaultRun> {
    vec![
        FaultRun::of::<Snapshot>(),
        FaultRun::of::<Combination>(),
        FaultRun::of::<Serve>(),
    ]
}

/// Parse `CAMPAIGN[:CLASS]=N[,…]` (e.g. `snapshot=600,serve:stall=3`).
/// Each campaign may appear once.
pub fn parse_faults(spec: &str) -> Result<Vec<FaultRun>, String> {
    let registry = campaigns();
    let mut runs: Vec<FaultRun> = Vec::new();
    for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let (target, n) = item
            .split_once('=')
            .ok_or_else(|| format!("bad fault entry {item:?}: expected CAMPAIGN[:CLASS]=N"))?;
        let (name, class) = match target.split_once(':') {
            Some((name, class)) => (name, Some(class)),
            None => (target, None),
        };
        let mut run = registry
            .iter()
            .find(|r| r.campaign == name)
            .ok_or_else(|| {
                let names: Vec<&str> = registry.iter().map(|r| r.campaign).collect();
                format!(
                    "unknown fault campaign {name:?} (expected one of {})",
                    names.join(", ")
                )
            })?
            .clone();
        if let Some(class) = class {
            let i = run
                .classes
                .iter()
                .position(|c| *c == class)
                .ok_or_else(|| {
                    format!(
                        "unknown {name} class {class:?} (expected one of {})",
                        run.classes.join(", ")
                    )
                })?;
            run.class = Some(i);
        }
        run.cases = n
            .parse()
            .map_err(|e| format!("bad case count in {item:?}: {e}"))?;
        if runs.iter().any(|r| r.campaign == run.campaign) {
            return Err(format!("fault campaign {name:?} given twice"));
        }
        runs.push(run);
    }
    if runs.is_empty() {
        return Err(format!("empty fault list {spec:?}"));
    }
    Ok(runs)
}

/// The eight storage-fault classes, shared by every checkpointed format:
/// write-path faults at the sink and corruption of the published bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// The sink tears the stream exactly at a section boundary but the
    /// checkpoint still publishes (rename acked before data pages).
    TornSectionBoundary,
    /// The sink tears the stream mid-section.
    TornMidSection,
    /// One flipped bit anywhere in the published bytes.
    BitFlip,
    /// The published file is truncated at an arbitrary byte.
    Truncate,
    /// The device fills up mid-write: the write must fail with a typed
    /// I/O error and nothing may be published.
    Enospc,
    /// A corrupted byte inside the leading header.
    HeaderCorrupt,
    /// A corrupted byte inside the footer / trailer region.
    FooterCorrupt,
    /// The checkpoint commits — the writer sees success — but the
    /// directory entry is lost in a crash (parent dir never fsynced):
    /// the reader finds only the *previous* checkpoint, which must still
    /// recover fully.
    LostDirent,
}

impl StorageFault {
    /// Every class, in injection-rotation order.
    pub const ALL: [StorageFault; 8] = [
        StorageFault::TornSectionBoundary,
        StorageFault::TornMidSection,
        StorageFault::BitFlip,
        StorageFault::Truncate,
        StorageFault::Enospc,
        StorageFault::HeaderCorrupt,
        StorageFault::FooterCorrupt,
        StorageFault::LostDirent,
    ];

    /// Stable name (report keys, CLI, corpus).
    pub fn name(self) -> &'static str {
        match self {
            StorageFault::TornSectionBoundary => "torn-section-boundary",
            StorageFault::TornMidSection => "torn-mid-section",
            StorageFault::BitFlip => "bit-flip",
            StorageFault::Truncate => "truncate",
            StorageFault::Enospc => "enospc",
            StorageFault::HeaderCorrupt => "header-corrupt",
            StorageFault::FooterCorrupt => "footer-corrupt",
            StorageFault::LostDirent => "lost-dirent",
        }
    }
}

/// A smooth seeded test function over `[0,1]^d` (draws `d` coefficients,
/// then a frequency), shared by the checkpointed-format campaigns.
pub(crate) fn seeded_function(rng: &mut Rng, d: usize) -> impl Fn(&[f64]) -> f64 + Clone + Sync {
    let coeffs: Vec<f64> = (0..d).map(|_| rng.f64_in(-2.0, 2.0)).collect();
    let freq = rng.f64_in(1.0, 6.0);
    move |x: &[f64]| -> f64 {
        let mut s = 0.0;
        let mut p = 1.0;
        for (t, &c) in coeffs.iter().enumerate() {
            s += c * (freq * x[t]).sin();
            p *= 4.0 * x[t] * (1.0 - x[t]);
        }
        s + p
    }
}

/// Inject `fault` into a checkpoint whose fault-free bytes are `gold`,
/// with section boundaries `bounds` (header end, each section end, then
/// trailer offsets as `section_boundaries`/`component_boundaries` return
/// them). `write` re-writes the checkpoint into a faulty sink. Returns
/// the bytes a reader would observe, or `None` when the fault correctly
/// prevented publication.
pub fn inject_storage(
    fault: StorageFault,
    gold: &[u8],
    bounds: &[usize],
    rng: &mut Rng,
    write: impl Fn(&mut dyn SnapshotSink) -> Result<(), SgError>,
) -> Result<Option<Vec<u8>>, String> {
    let torn = |cut: usize| {
        let mut sink = FaultSink::new(WriteFault::Torn { after_bytes: cut });
        write(&mut sink).map_err(|e| e.to_string())?;
        Ok(sink.into_published())
    };
    match fault {
        StorageFault::TornSectionBoundary => torn(bounds[rng.usize_in(0..=bounds.len() - 3)]),
        StorageFault::TornMidSection => {
            let s = rng.usize_in(0..=bounds.len() - 3);
            torn(rng.usize_in(bounds[s] + 1..=bounds[s + 1] - 1))
        }
        StorageFault::BitFlip | StorageFault::HeaderCorrupt | StorageFault::FooterCorrupt => {
            let region = match fault {
                StorageFault::BitFlip => 0..=gold.len() - 1,
                StorageFault::HeaderCorrupt => 0..=bounds[0] - 1,
                _ => bounds[bounds.len() - 2]..=gold.len() - 1,
            };
            // Position first, then bit (`a[i] ^= b` would draw `b` first).
            let pos = rng.usize_in(region);
            let mut bytes = gold.to_vec();
            bytes[pos] ^= 1 << rng.u8_in(0..=7);
            Ok(Some(bytes))
        }
        StorageFault::Truncate => Ok(Some(gold[..rng.usize_in(0..=gold.len() - 1)].to_vec())),
        StorageFault::Enospc => {
            let after = rng.usize_in(0..=gold.len() - 1);
            let mut sink = FaultSink::new(WriteFault::Enospc { after_bytes: after });
            match write(&mut sink) {
                Err(SgError::Io(_)) => {}
                other => {
                    return Err(format!(
                        "ENOSPC at byte {after} must fail with SgError::Io, got {other:?}"
                    ))
                }
            }
            if sink.committed() {
                return Err(format!(
                    "ENOSPC at byte {after} still published a checkpoint"
                ));
            }
            Ok(None)
        }
        StorageFault::LostDirent => {
            // A fresh checkpoint commits, but its dirent is lost: the
            // write must report success yet publish nothing, and the
            // reader falls back to the previous checkpoint (`gold`).
            let mut sink = FaultSink::new(WriteFault::LostDirent);
            write(&mut sink).map_err(|e| e.to_string())?;
            if !sink.committed() {
                return Err("lost-dirent commit must report success to the writer".into());
            }
            if sink.into_published().is_some() {
                return Err("lost-dirent fault must publish nothing".into());
            }
            Ok(Some(gold.to_vec()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_verdicts_are_pinned() {
        // Each case's RNG draw order decides its verdict; these counts
        // pin it for the storage campaigns (contract arms, then counts).
        let arms = |r: &CampaignReport| {
            let counts: Vec<u64> = r.counts.iter().map(|c| c.1).collect();
            (
                r.full_recoveries,
                r.partial_recoveries,
                r.clean_errors,
                counts,
            )
        };
        let snap = run_campaign::<Snapshot>(0x5EED_5EED_5EED_5EED, 600, None);
        assert_eq!(arms(&snap), (247, 270, 83, vec![]));
        let comb = run_campaign::<Combination>(0x5EED_C04B, 400, None);
        assert_eq!(arms(&comb), (170, 107, 123, vec![201, 199]));
    }

    #[test]
    fn fault_specs_parse_and_reject() {
        let runs = parse_faults("snapshot=6, serve:stall=2").unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(
            (runs[0].campaign, runs[0].class, runs[0].cases),
            ("snapshot", None, 6)
        );
        assert_eq!(
            (runs[1].campaign, runs[1].class, runs[1].cases),
            ("serve", Some(2), 2)
        );
        for bad in [
            "",
            "snapshot",
            "snapshot=x",
            "disk=1",
            "snapshot:nope=1",
            "serve=1,serve=2",
        ] {
            assert!(parse_faults(bad).is_err(), "{bad:?} accepted");
        }
    }
}
