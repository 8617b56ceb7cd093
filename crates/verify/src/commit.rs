//! Static verification of the crash-commit protocol.
//!
//! The driver's generational protocol (see `amrio-enzo::driver` and
//! DESIGN §5i) is: all ranks write generation `g`'s data, a timed
//! barrier closes the write, *then* rank 0 captures and publishes the
//! self-checksummed manifest in a single request, then a final barrier.
//! Two structural facts make it crash-consistent, and both are checked
//! here against a [`CommitSpec`] describing the protocol actually in
//! force (mutations flip the fields):
//!
//! 1. **Ordering** — every data write happens-before the manifest
//!    publish. Statically this is the same clock-domination proof as
//!    the write→read ordering: the write phase must end in a barrier
//!    all ranks reach, and the manifest must be published after it.
//!    If not, a crash can land a *visible* manifest over incomplete
//!    data: [`Kind::CommitNotOrdered`].
//! 2. **Atomic visibility** — the manifest is self-checksummed, so a
//!    torn manifest write is indistinguishable from no manifest. If
//!    the checksum is stripped while a crash is armed, a cut mid-write
//!    can decode as a committed generation:
//!    [`Kind::UncommittedExposure`].
//!
//! With an intact protocol, an armed `Crash(at)` can *never* expose an
//! uncommitted generation — but it may still fire before any
//! generation can possibly commit. The plan's virtual-time lower bound
//! for one dump is `payload bytes / aggregate disk bandwidth`; a crash
//! armed earlier than that means no durable progress is provable, which
//! downgrades the verdict to [`Kind::CrashBeforeFirstCommit`] (the run
//! is safe — recovery restarts from scratch — just not provably
//! productive). `amrio-tune`'s `lint_faults` reports the same finding
//! through [`crash_floor`].

use crate::accesses;
use crate::clock::ScheduleAnalysis;
use amrio_disk::FsConfig;
use amrio_fault::FaultPlan;
use amrio_plan::{AccessPlan, Diagnostic, Kind, Span};

/// The commit protocol under verification. The default is the
/// protocol the driver actually implements; mutations flip fields.
#[derive(Clone, Copy, Debug)]
pub struct CommitSpec {
    /// The manifest is published after the barrier that closes the
    /// generation's data writes.
    pub manifest_after_data_barrier: bool,
    /// The manifest carries a self-checksum (torn writes are invisible).
    pub manifest_checksummed: bool,
}

impl Default for CommitSpec {
    fn default() -> CommitSpec {
        CommitSpec {
            manifest_after_data_barrier: true,
            manifest_checksummed: true,
        }
    }
}

/// A crash armed provably earlier than any possible commit: recovery
/// is guaranteed to restart from scratch. Safe, but the run's
/// durability cannot be proven — a typed unknown. The floor is the
/// aggregate-bandwidth transfer time of every effective write byte.
pub fn crash_floor(plan: &AccessPlan, fs: &FsConfig, faults: &FaultPlan) -> Option<Diagnostic> {
    let crash_s = faults.crash_at()?.0 as f64 / 1.0e9;
    let (writes, _) = accesses::effective(plan, &amrio_mpiio::Hints::default());
    let bytes: u64 = writes.iter().map(|w| w.len).sum();
    let floor_s = bytes as f64 / (fs.disk.bandwidth * fs.nservers as f64);
    (crash_s < floor_s).then(|| {
        Diagnostic::new(
            Kind::CrashBeforeFirstCommit,
            Span::new(plan.backend),
            format!(
                "unprovable: crash armed at {crash_s:.6}s but the earliest possible commit \
                 is at {floor_s:.6}s — no generation can be proven durable"
            ),
        )
        .suggest("arm the crash after the first dump window, or dump more often")
    })
}

/// Verify the commit protocol of `plan` under `spec`, with `faults`
/// supplying the armed crash (if any).
pub fn check(
    plan: &AccessPlan,
    fs: &FsConfig,
    spec: &CommitSpec,
    faults: Option<&FaultPlan>,
    sched: &ScheduleAnalysis,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let span = Span::new(plan.backend);
    let flag =
        |kind, why: &str| Diagnostic::new(kind, span.clone(), format!("generation 0: {why}"));

    // (1) data writes happen-before manifest publish. The write phase's
    // trailing barrier is the ordering edge; the spec says whether the
    // publish is sequenced after it.
    let ordered = spec.manifest_after_data_barrier && sched.write_read_ordered;
    if !ordered {
        out.push(flag(
            Kind::CommitNotOrdered,
            if !spec.manifest_after_data_barrier {
                "manifest publish is not sequenced after the data-write barrier"
            } else {
                "the write phase does not end in a barrier every rank reaches, so no data \
                 write provably happens-before the manifest publish"
            },
        ));
    }

    let Some((armed, at)) = faults.and_then(|f| Some((f, f.crash_at()?))) else {
        return out;
    };
    // (2) atomic visibility under a crash.
    let crash_s = at.0 as f64 / 1.0e9;
    let exposed = |why: &str| {
        flag(
            Kind::UncommittedExposure,
            &format!("crash at {crash_s:.6}s: {why}"),
        )
    };
    if !spec.manifest_checksummed {
        out.push(exposed(
            "the manifest has no self-checksum: a crash cutting the manifest write can decode \
             as a committed generation",
        ));
    }
    if !ordered {
        out.push(exposed(
            "the manifest can become visible before the generation's data is complete, so a \
             crash in between exposes an uncommitted generation",
        ));
    }
    // (3) progress bound.
    if ordered && spec.manifest_checksummed {
        out.extend(crash_floor(plan, fs, armed));
    }
    out
}
