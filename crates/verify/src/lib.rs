//! Static happens-before verification of access plans, fault schedules,
//! and the crash-commit protocol — proving (or refuting) *before any
//! simulation runs* every property class the runtime checker
//! (`amrio-check`) enforces during one.
//!
//! The analysis is built on the observation that every ordering edge in
//! this stack is symbolic: collectives and barrier-delimited sync epochs
//! are the only happens-before edges, and an [`AccessPlan`] already
//! records each rank's collective schedule and byte footprint exactly.
//! So the verifier:
//!
//! 1. constructs per-rank **vector clocks** from the collective schedule
//!    and proves collective lockstep — or reports static deadlock /
//!    rank divergence ([`clock`]);
//! 2. classifies every pair of byte-range footprints as
//!    ordered-by-happens-before, disjoint, or a write-write /
//!    unsynced-read / sieving-RMW race ([`races`]);
//! 3. verifies the crash-commit protocol: every generation's data
//!    writes must happen-before its manifest publish, and an armed
//!    `Crash(at)` must not be able to expose an uncommitted generation
//!    within the plan's virtual-time bounds ([`commit`]);
//! 4. folds the fault plan in: a permanent server failure without
//!    failover, or a transient budget exceeding the retry policy,
//!    downgrades "proved safe" to *unprovable* with a typed reason
//!    ([`faults`]).
//!
//! Every finding is an `amrio_plan` [`Diagnostic`]: a refutation with a
//! concrete witness is `Error`, an honest "can't prove it" with a typed
//! [`Kind`] is `Warning` — the only form a false positive is allowed to
//! take. The verdict is the report's worst severity on the three-point
//! lattice `Safe < Unknown < Violation`.
//!
//! The oracle for all of this is **differential**: [`replay`] drives
//! the *real* strict runtime checker from the same plan (collective
//! deposits, barrier sync points, synthesized I/O events through a
//! watched trace), and [`mutate`] builds a seeded corpus of broken
//! plans. `bin/verify` requires zero false negatives — every violation
//! the runtime checker reports must be statically flagged.

#![forbid(unsafe_code)]

pub mod accesses;
pub mod clock;
pub mod commit;
pub mod faults;
pub mod mutate;
pub mod races;
pub mod replay;
pub mod statics;

use amrio_check::Violation;
use amrio_disk::FsConfig;
use amrio_fault::{FaultPlan, RetryPolicy};
use amrio_mpiio::Hints;
use amrio_plan::{AccessPlan, Diagnostic, Kind, Severity};
use std::collections::BTreeSet;
use std::fmt;

pub use commit::CommitSpec;
pub use replay::replay;
pub use statics::VerifyStatic;

/// The three-point verdict lattice: `Safe < Unknown < Violation`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Every property class is proved.
    Safe,
    /// Nothing is refuted, but at least one property is unprovable.
    Unknown,
    /// At least one property is refuted with a concrete witness.
    Violation,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Safe => "Safe",
            Verdict::Unknown => "Unknown",
            Verdict::Violation => "Violation",
        })
    }
}

/// How many footprint pairs fell into each happens-before class.
#[derive(Clone, Copy, Debug, Default)]
pub struct PairStats {
    /// Overlapping pairs proved ordered by a barrier-joined clock edge.
    pub ordered: u64,
    /// Same-epoch pairs with disjoint byte ranges.
    pub disjoint: u64,
    /// Pairs refuted as races.
    pub racing: u64,
}

/// The full result of one static verification.
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Refutations (`Error`) and typed unknowns (`Warning`).
    pub diagnostics: Vec<Diagnostic>,
    pub pairs: PairStats,
    /// Collective steps walked per phase (write, read).
    pub steps: (usize, usize),
    /// Barrier sync edges found per phase (write, read).
    pub barriers: (usize, usize),
}

impl VerifyReport {
    /// The worst severity decides: `Error` refutes, `Warning` is
    /// unprovable.
    pub fn verdict(&self) -> Verdict {
        match self.diagnostics.iter().map(|d| d.severity).max() {
            Some(Severity::Error) => Verdict::Violation,
            Some(Severity::Warning) => Verdict::Unknown,
            _ => Verdict::Safe,
        }
    }

    /// Distinct finding kinds, for differential comparison.
    pub fn kinds(&self) -> BTreeSet<Kind> {
        self.diagnostics.iter().map(|d| d.kind).collect()
    }

    fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "verdict: {} ({} violations, {} unknowns; pairs: {} ordered, {} disjoint, {} racing)",
            self.verdict(),
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.pairs.ordered,
            self.pairs.disjoint,
            self.pairs.racing
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// Everything one verification looks at. The plan carries the symbolic
/// schedule and footprints; hints determine the effective access shape
/// (collective buffering, data sieving); the rest is the runtime
/// configuration the verdict must hold under.
pub struct VerifyInput<'a> {
    pub plan: &'a AccessPlan,
    pub hints: &'a Hints,
    pub fs: &'a FsConfig,
    pub faults: Option<&'a FaultPlan>,
    pub retry: RetryPolicy,
    pub commit: CommitSpec,
}

impl<'a> VerifyInput<'a> {
    /// The common case: no faults armed, default retry policy, the
    /// driver's real commit protocol.
    pub fn plain(plan: &'a AccessPlan, hints: &'a Hints, fs: &'a FsConfig) -> VerifyInput<'a> {
        VerifyInput {
            plan,
            hints,
            fs,
            faults: None,
            retry: RetryPolicy::default(),
            commit: CommitSpec::default(),
        }
    }
}

/// Run the full static analysis: schedule lockstep via vector clocks,
/// footprint-pair classification, commit-protocol verification, and
/// fault-plan folding.
pub fn verify(input: &VerifyInput<'_>) -> VerifyReport {
    let sched = clock::analyze(input.plan);
    let races = races::classify(input.plan, input.hints, &sched);
    let commit = commit::check(input.plan, input.fs, &input.commit, input.faults, &sched);
    let mut diagnostics = sched.diagnostics;
    diagnostics.extend(races.diagnostics);
    diagnostics.extend(commit);
    if let Some(faults) = input.faults {
        diagnostics.extend(faults::fold(input.plan.backend, faults, &input.retry));
    }

    VerifyReport {
        diagnostics,
        pairs: races.pairs,
        steps: sched.steps,
        barriers: sched.barriers,
    }
}

/// Map a runtime checker violation onto the static property class that
/// must have flagged it. `None` for classes the symbolic plan cannot
/// produce (point-to-point sends, view registrations) — if the replay
/// oracle ever reports one of those for a plan-driven run, that is a
/// hole in the model and the differential gate fails loudly.
pub fn runtime_kind(v: &Violation) -> Option<Kind> {
    match v {
        Violation::CollectiveKindMismatch { .. }
        | Violation::CollectiveRootMismatch { .. }
        | Violation::CollectiveOpMismatch { .. }
        | Violation::CollectiveLengthMismatch { .. } => Some(Kind::RankDivergence),
        Violation::CollectiveIncomplete { .. } => Some(Kind::ScheduleDeadlock),
        Violation::WriteWriteConflict { .. } => Some(Kind::WriteWriteRace),
        Violation::ReadWriteConflict { .. } => Some(Kind::UnsyncedRead),
        Violation::SieveRmwConflict { .. } => Some(Kind::SievingRmw),
        Violation::UnmatchedSend { .. } | Violation::ViewOverlap { .. } => None,
    }
}
