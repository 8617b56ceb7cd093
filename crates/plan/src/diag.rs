//! The one finding type of every static analysis: plan's exact-once
//! proof and plan↔trace conformance, `amrio-verify`'s refutations and
//! typed unknowns, and `amrio-tune`'s lints all report [`Diagnostic`]s.

use amrio_mpiio::Region;
use std::fmt;

/// How bad a finding is. Ordered: `Info < Warning < Error`. For
/// `amrio-verify`, `Error` is a refutation (verdict `Violation`) and
/// `Warning` an honest "can't prove it" (verdict `Unknown`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Info,
    Warning,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// What a finding is about. `Display` is the stable machine-readable
/// code; each kind has one fixed [`Severity`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    // Exact-once coverage (`verify_exact_once`).
    /// A writer region extends past its dataset's extent.
    RegionEscapesExtent,
    /// Some dataset bytes have no writer.
    CoverageGap,
    /// Some dataset bytes have more than one writer region.
    OverlappingWriters,
    /// Two dataset extents of one file overlap.
    DatasetOverlap,
    /// A metadata write lands on a dataset payload.
    MetaOnPayload,

    // Plan↔trace conformance (`check_conformance`).
    /// Planned and observed collective counts differ for a phase.
    CollectiveCount,
    /// A collective step differs from the plan.
    CollectiveStep,
    /// Bytes the plan proves written that the run never wrote.
    WriteGap,
    /// Bytes the run wrote that the plan does not account for.
    WriteExtra,
    /// Bytes the plan requires read that the run never read.
    ReadMissing,
    /// The run touched a file the plan knows nothing about.
    UnplannedFile,

    // Refutations (`amrio-verify`); each maps onto runtime checker
    // classes through `amrio_verify::runtime_kind`.
    /// Ranks disagree on the kind, root, op or uniform payload of a matched
    /// collective step (runtime: `Collective{Kind,Root,Op,Length}Mismatch`).
    RankDivergence,
    /// Some ranks block forever in a collective other ranks never enter
    /// (runtime: `CollectiveIncomplete`).
    ScheduleDeadlock,
    /// Two ranks write overlapping bytes within one sync epoch
    /// (runtime: `WriteWriteConflict`).
    WriteWriteRace,
    /// A read overlaps another rank's write with no barrier between
    /// them (runtime: `ReadWriteConflict`).
    UnsyncedRead,
    /// A data-sieving read-modify-write window covers another rank's
    /// bytes (runtime: `SieveRmwConflict`).
    SievingRmw,
    /// A generation's manifest publish is not ordered after its data
    /// writes.
    CommitNotOrdered,
    /// An armed crash can expose an uncommitted generation as committed.
    UncommittedExposure,

    // Typed unknowns (`amrio-verify`): the run may succeed, but the
    // static model cannot prove it.
    /// A permanent server failure is armed and failover is disabled.
    FailoverStripped,
    /// A server's transient-error budget exceeds the per-op retries.
    RetryBudgetExceeded,
    /// The armed crash precedes the earliest possible commit.
    CrashBeforeFirstCommit,
    /// The strategy has no symbolic plan backend to analyze.
    UnmodeledBackend,

    // Performance and configuration lints (`amrio-tune`).
    /// Most payload writes are under 4 KiB.
    SmallWrites,
    /// Many writes straddle a lock-block boundary.
    StripeStraddle,
    /// The busiest two-phase aggregator carries far over its share.
    AggImbalance,
    /// A fault targets a server the platform does not have.
    FaultBadServer,
    /// A fault targets a server the plan never touches.
    FaultUntouchedServer,
    /// A straggler injection names a rank outside the run.
    FaultBadRank,
}

impl Kind {
    pub fn severity(self) -> Severity {
        match self {
            Kind::FailoverStripped
            | Kind::RetryBudgetExceeded
            | Kind::CrashBeforeFirstCommit
            | Kind::UnmodeledBackend
            | Kind::SmallWrites
            | Kind::StripeStraddle
            | Kind::AggImbalance => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Kind::RegionEscapesExtent => "region-escapes-extent",
            Kind::CoverageGap => "coverage-gap",
            Kind::OverlappingWriters => "overlapping-writers",
            Kind::DatasetOverlap => "dataset-overlap",
            Kind::MetaOnPayload => "meta-on-payload",
            Kind::CollectiveCount => "collective-count",
            Kind::CollectiveStep => "collective-step",
            Kind::WriteGap => "write-gap",
            Kind::WriteExtra => "write-extra",
            Kind::ReadMissing => "read-missing",
            Kind::UnplannedFile => "unplanned-file",
            Kind::RankDivergence => "rank-divergence",
            Kind::ScheduleDeadlock => "schedule-deadlock",
            Kind::WriteWriteRace => "write-write-race",
            Kind::UnsyncedRead => "unsynced-read",
            Kind::SievingRmw => "sieving-rmw",
            Kind::CommitNotOrdered => "commit-not-ordered",
            Kind::UncommittedExposure => "uncommitted-exposure",
            Kind::FailoverStripped => "fault-no-failover",
            Kind::RetryBudgetExceeded => "fault-retry-budget",
            Kind::CrashBeforeFirstCommit => "crash-before-commit",
            Kind::UnmodeledBackend => "unmodeled-backend",
            Kind::SmallWrites => "small-writes",
            Kind::StripeStraddle => "stripe-straddle",
            Kind::AggImbalance => "agg-imbalance",
            Kind::FaultBadServer => "fault-bad-server",
            Kind::FaultUntouchedServer => "fault-untouched-server",
            Kind::FaultBadRank => "fault-bad-rank",
        })
    }
}

/// Where a finding points: backend always, the rest as precise as the
/// trigger allows.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Span {
    /// Strategy name of the plan (`AccessPlan::backend`).
    pub backend: String,
    /// Checkpoint file path, when the finding is file-scoped.
    pub file: Option<String>,
    /// Dataset name, when dataset-scoped.
    pub dataset: Option<String>,
    /// Inclusive rank range involved.
    pub ranks: Option<(usize, usize)>,
    /// `(offset, len)` byte range in the file.
    pub bytes: Option<Region>,
}

impl Span {
    pub fn new(backend: &str) -> Span {
        Span {
            backend: backend.to_string(),
            ..Span::default()
        }
    }

    pub fn file(mut self, path: &str) -> Span {
        self.file = Some(path.to_string());
        self
    }

    pub fn dataset(mut self, name: &str) -> Span {
        self.dataset = Some(name.to_string());
        self
    }

    /// The ranks `a` and `b` and everything between, in either order.
    pub fn ranks(mut self, a: usize, b: usize) -> Span {
        self.ranks = Some((a.min(b), a.max(b)));
        self
    }

    pub fn bytes(mut self, region: Region) -> Span {
        self.bytes = Some(region);
        self
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.backend)?;
        if let Some(p) = &self.file {
            write!(f, ":{p}")?;
        }
        if let Some(d) = &self.dataset {
            write!(f, ":{d}")?;
        }
        if let Some((a, b)) = self.ranks {
            write!(f, ":ranks[{a}..={b}]")?;
        }
        if let Some((o, l)) = self.bytes {
            write!(f, ":bytes[{o}+{l}]")?;
        }
        Ok(())
    }
}

/// One finding: kind, severity, human message, suggested fix (may be
/// empty), and the span it anchors to.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    pub kind: Kind,
    pub severity: Severity,
    pub message: String,
    /// What to change to make the finding go away.
    pub suggestion: String,
    pub span: Span,
}

impl Diagnostic {
    /// A finding at its kind's severity, with no suggested fix yet.
    pub fn new(kind: Kind, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            kind,
            severity: kind.severity(),
            message: message.into(),
            suggestion: String::new(),
            span,
        }
    }

    pub fn suggest(mut self, fix: impl Into<String>) -> Diagnostic {
        self.suggestion = fix.into();
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {} ({})",
            self.severity, self.kind, self.message, self.span
        )?;
        if !self.suggestion.is_empty() {
            write!(f, " — fix: {}", self.suggestion)?;
        }
        Ok(())
    }
}

/// Sort by severity (worst first), then by kind and span for a stable
/// report order.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.kind.cmp(&b.kind))
            .then_with(|| a.span.to_string().cmp(&b.span.to_string()))
    });
}
