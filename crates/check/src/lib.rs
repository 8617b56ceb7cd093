//! `amrio-check` — MUST-style runtime correctness checking for the
//! simulated MPI / MPI-IO / PFS stack.
//!
//! Three detector families, mirroring what tools like MUST and MPI-Checker
//! verify on real MPI programs:
//!
//! 1. **Collective matching** — every rank deposits a [`CollDesc`] (op
//!    kind, root, reduce op, byte count) at each collective epoch; when the
//!    last rank arrives the descriptors are cross-checked for mismatched
//!    sequences, root disagreements, reduce-op disagreements and length
//!    mismatches. Point-to-point sends are balanced against receives, and
//!    an all-ranks-blocked deadlock is reported with a per-rank backtrace
//!    of the last [`LEDGER_DEPTH`] calls.
//! 2. **File-access conflicts** — the `amrio-disk` [`IoTrace`] is sliced
//!    into *sync epochs* at every barrier, and within each epoch the
//!    checker flags overlapping write-write and read-vs-unsynced-write
//!    byte ranges between different clients (MPI-IO consistency
//!    semantics), with data-sieving read-modify-write windows that touch
//!    another rank's bytes called out specifically.
//! 3. **View tiling** — collective `set_view` regions from all ranks of a
//!    `write_all` must tile the file without overlap; overlapping regions
//!    are undefined behaviour in MPI-IO and are reported per rank pair.
//!
//! The checker is opt-in at runtime: [`CheckMode::Off`] costs a branch per
//! call, [`CheckMode::Log`] accumulates violations into a [`CheckReport`],
//! and [`CheckMode::Strict`] panics at the first violation with a
//! structured report.
//!
//! Injected I/O faults (`amrio-fault`) never register as violations:
//! a failed request attempt produces no trace events, so the conflict
//! detectors only ever see the retry or failover that succeeded. A run
//! that recovers from faults is expected to stay checker-clean.
//!
//! [`IoTrace`]: amrio_disk::IoTrace

#![forbid(unsafe_code)]

use amrio_disk::{IoEvent, Pfs};
use amrio_simt::sync::Mutex;
use amrio_simt::SimTime;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// How violations are handled at runtime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CheckMode {
    /// Checker calls are no-ops.
    #[default]
    Off,
    /// Violations accumulate into the [`CheckReport`].
    Log,
    /// The first violation panics with a structured report.
    Strict,
}

impl CheckMode {
    pub fn enabled(self) -> bool {
        !matches!(self, CheckMode::Off)
    }
}

/// Collective operation kinds the simulated MPI offers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollKind {
    Barrier,
    Bcast,
    Gatherv,
    Scatterv,
    Allreduce,
    Allgatherv,
    Alltoallv,
}

impl fmt::Display for CollKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CollKind::Barrier => "barrier",
            CollKind::Bcast => "bcast",
            CollKind::Gatherv => "gatherv",
            CollKind::Scatterv => "scatterv",
            CollKind::Allreduce => "allreduce",
            CollKind::Allgatherv => "allgatherv",
            CollKind::Alltoallv => "alltoallv",
        };
        f.write_str(s)
    }
}

/// One rank's description of the collective it believes it is executing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CollDesc {
    pub kind: CollKind,
    /// Root rank for rooted collectives.
    pub root: Option<usize>,
    /// Reduce operator name for reductions.
    pub op: Option<&'static str>,
    /// Payload bytes this rank contributes.
    pub bytes: u64,
    /// Whether `bytes` must agree across ranks (true for reductions,
    /// false for the v-collectives, whose counts legitimately differ).
    pub uniform_bytes: bool,
}

/// A byte range accessed by one client, for conflict reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessRange {
    pub client: usize,
    pub offset: u64,
    pub len: u64,
}

impl fmt::Display for AccessRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "client {} [{}, {})",
            self.client,
            self.offset,
            self.offset + self.len
        )
    }
}

/// A single detected violation.
#[derive(Clone, Debug)]
pub enum Violation {
    /// Ranks executed different collective kinds at the same epoch.
    CollectiveKindMismatch {
        epoch: u64,
        kinds: Vec<(usize, CollKind)>,
    },
    /// Ranks disagree about the root of a rooted collective.
    CollectiveRootMismatch {
        epoch: u64,
        kind: CollKind,
        roots: Vec<(usize, Option<usize>)>,
    },
    /// Ranks disagree about the reduce operator.
    CollectiveOpMismatch {
        epoch: u64,
        kind: CollKind,
        ops: Vec<(usize, &'static str)>,
    },
    /// Ranks contributed different lengths to a length-uniform collective.
    CollectiveLengthMismatch {
        epoch: u64,
        kind: CollKind,
        bytes: Vec<(usize, u64)>,
    },
    /// A collective epoch some ranks never reached (found at finalize).
    CollectiveIncomplete { epoch: u64, missing: Vec<usize> },
    /// A send with no matching receive by finalize.
    UnmatchedSend {
        src: usize,
        dst: usize,
        tag: u32,
        bytes: u64,
    },
    /// Two clients wrote overlapping bytes within one sync epoch.
    WriteWriteConflict {
        file: usize,
        epoch: usize,
        a: AccessRange,
        b: AccessRange,
    },
    /// One client read bytes another client wrote in the same sync epoch.
    ReadWriteConflict {
        file: usize,
        epoch: usize,
        read: AccessRange,
        write: AccessRange,
    },
    /// A data-sieving read-modify-write window covered another client's
    /// bytes within one sync epoch (the Thakur/Gropp/Lusk atomicity trap).
    SieveRmwConflict {
        file: usize,
        epoch: usize,
        window: AccessRange,
        other: AccessRange,
    },
    /// Two ranks' collective file views overlap.
    ViewOverlap {
        file: usize,
        call: u64,
        a: AccessRange,
        b: AccessRange,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::CollectiveKindMismatch { epoch, kinds } => {
                write!(f, "collective kind mismatch at epoch {epoch}:")?;
                for (r, k) in kinds {
                    write!(f, " rank {r}={k}")?;
                }
                Ok(())
            }
            Violation::CollectiveRootMismatch { epoch, kind, roots } => {
                write!(f, "{kind} root mismatch at epoch {epoch}:")?;
                for (r, root) in roots {
                    match root {
                        Some(root) => write!(f, " rank {r}=root({root})")?,
                        None => write!(f, " rank {r}=root(?)")?,
                    }
                }
                Ok(())
            }
            Violation::CollectiveOpMismatch { epoch, kind, ops } => {
                write!(f, "{kind} reduce-op mismatch at epoch {epoch}:")?;
                for (r, op) in ops {
                    write!(f, " rank {r}={op}")?;
                }
                Ok(())
            }
            Violation::CollectiveLengthMismatch { epoch, kind, bytes } => {
                write!(f, "{kind} length mismatch at epoch {epoch}:")?;
                for (r, b) in bytes {
                    write!(f, " rank {r}={b}B")?;
                }
                Ok(())
            }
            Violation::CollectiveIncomplete { epoch, missing } => write!(
                f,
                "collective at epoch {epoch} never completed; missing ranks {missing:?}"
            ),
            Violation::UnmatchedSend {
                src,
                dst,
                tag,
                bytes,
            } => write!(
                f,
                "unmatched send: rank {src} -> rank {dst}, tag {tag}, {bytes}B never received"
            ),
            Violation::WriteWriteConflict { file, epoch, a, b } => write!(
                f,
                "write-write conflict on file {file} in sync epoch {epoch}: {a} overlaps {b}"
            ),
            Violation::ReadWriteConflict {
                file,
                epoch,
                read,
                write,
            } => write!(
                f,
                "read of unsynced write on file {file} in sync epoch {epoch}: \
                 read {read} overlaps write {write}"
            ),
            Violation::SieveRmwConflict {
                file,
                epoch,
                window,
                other,
            } => write!(
                f,
                "data-sieving RMW window on file {file} in sync epoch {epoch}: \
                 window {window} touches bytes written by {other}"
            ),
            Violation::ViewOverlap { file, call, a, b } => write!(
                f,
                "collective views overlap on file {file} (collective write #{call}): {a} vs {b}"
            ),
        }
    }
}

/// Accumulated violations, alongside whatever stats the caller keeps.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    pub violations: Vec<Violation>,
    /// Violations discarded once the recording cap was hit.
    pub dropped: usize,
}

impl CheckReport {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.dropped == 0
    }

    pub fn len(&self) -> usize {
        self.violations.len() + self.dropped
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Count violations for which `pred` holds.
    pub fn count(&self, pred: impl Fn(&Violation) -> bool) -> usize {
        self.violations.iter().filter(|v| pred(v)).count()
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return writeln!(f, "amrio-check: no violations");
        }
        writeln!(f, "amrio-check: {} violation(s)", self.len())?;
        for (i, v) in self.violations.iter().enumerate() {
            writeln!(f, "  {:>3}. {v}", i + 1)?;
        }
        if self.dropped > 0 {
            writeln!(f, "  ... and {} more (cap reached)", self.dropped)?;
        }
        Ok(())
    }
}

/// Per-rank call backtraces keep the last this-many entries.
pub const LEDGER_DEPTH: usize = 16;

/// Stop recording individual violations past this count (Log mode).
const MAX_RECORDED: usize = 512;

struct CollSlot {
    descs: Vec<Option<CollDesc>>,
    narrived: usize,
}

struct ViewSlot {
    regions: Vec<Option<Vec<(u64, u64)>>>,
    narrived: usize,
    expect: usize,
}

struct TracedFs {
    fs: Arc<Mutex<Pfs>>,
    cursor: usize,
}

#[derive(Default)]
struct Inner {
    violations: Vec<Violation>,
    dropped: usize,
    /// Per-rank ring buffers of recent MPI/MPI-IO calls.
    ledgers: Vec<VecDeque<String>>,
    /// Collective epochs awaiting descriptors from some ranks. Ordered
    /// maps keep every drain/report deterministic across runs.
    colls: BTreeMap<u64, CollSlot>,
    /// Outstanding sends: (src, dst, tag) -> byte counts, FIFO.
    pending_sends: BTreeMap<(usize, usize, u32), VecDeque<u64>>,
    /// Sync-epoch boundaries (barrier release times), ascending.
    boundaries: Vec<SimTime>,
    /// File systems whose traces we analyze incrementally.
    traced: Vec<TracedFs>,
    /// Collective-view collection points: (file, call#) -> per-rank regions.
    views: BTreeMap<(usize, u64), ViewSlot>,
    /// Next collective-write call number per (file, rank).
    view_next: BTreeMap<(usize, usize), u64>,
    /// Opt-in log of cross-checked collectives (rank 0's descriptor per
    /// epoch), for plan↔trace conformance.
    coll_log: Option<Vec<(u64, CollDesc)>>,
}

/// The shared checker handle. Attach one to an `amrio-mpi` world and an
/// `amrio-mpiio` instance; every detector feeds the same report.
pub struct Checker {
    mode: CheckMode,
    nranks: usize,
    inner: Mutex<Inner>,
}

impl Checker {
    pub fn new(mode: CheckMode, nranks: usize) -> Checker {
        Checker {
            mode,
            nranks,
            inner: Mutex::new(Inner {
                ledgers: (0..nranks).map(|_| VecDeque::new()).collect(),
                ..Inner::default()
            }),
        }
    }

    pub fn mode(&self) -> CheckMode {
        self.mode
    }

    pub fn nranks(&self) -> usize {
        self.nranks
    }

    fn emit(&self, inner: &mut Inner, v: Violation) {
        if self.mode == CheckMode::Strict {
            let ledger = render_ledgers(&inner.ledgers);
            panic!("amrio-check violation: {v}\n\nper-rank recent calls:\n{ledger}");
        }
        if inner.violations.len() >= MAX_RECORDED {
            inner.dropped += 1;
        } else {
            inner.violations.push(v);
        }
    }

    /// Append `text` to `rank`'s call backtrace.
    pub fn note(&self, rank: usize, text: impl Into<String>) {
        if !self.mode.enabled() {
            return;
        }
        let mut inner = self.inner.lock();
        let ledger = &mut inner.ledgers[rank];
        if ledger.len() == LEDGER_DEPTH {
            ledger.pop_front();
        }
        ledger.push_back(text.into());
    }

    /// Render every rank's recent-call backtrace (used for deadlock
    /// reports and strict-mode panics).
    pub fn ledger_dump(&self) -> String {
        render_ledgers(&self.inner.lock().ledgers)
    }

    /// A rank arrived at collective epoch `epoch` with descriptor `desc`;
    /// when the last rank arrives the epoch is cross-checked.
    pub fn on_collective(&self, rank: usize, epoch: u64, desc: CollDesc) {
        if !self.mode.enabled() {
            return;
        }
        self.note(
            rank,
            format!(
                "{}(root={:?}, op={:?}, {}B) @coll#{epoch}",
                desc.kind, desc.root, desc.op, desc.bytes
            ),
        );
        let mut inner = self.inner.lock();
        let n = self.nranks;
        let slot = inner.colls.entry(epoch).or_insert_with(|| CollSlot {
            descs: (0..n).map(|_| None).collect(),
            narrived: 0,
        });
        if slot.descs[rank].is_none() {
            slot.narrived += 1;
        }
        slot.descs[rank] = Some(desc);
        if slot.narrived < n {
            return;
        }
        let slot = inner.colls.remove(&epoch).expect("slot present");
        let descs: Vec<CollDesc> = slot
            .descs
            .into_iter()
            .map(|d| d.expect("arrived"))
            .collect();
        if let Some(log) = inner.coll_log.as_mut() {
            log.push((epoch, descs[0].clone()));
        }
        for v in cross_check(epoch, &descs) {
            self.emit(&mut inner, v);
        }
    }

    /// Start recording completed collectives (rank 0's descriptor, keyed
    /// by epoch). Off by default; the plan↔trace conformance pass turns
    /// it on so a run's collective sequence can be diffed against the
    /// static plan.
    pub fn record_collectives(&self) {
        if !self.mode.enabled() {
            return;
        }
        let mut inner = self.inner.lock();
        if inner.coll_log.is_none() {
            inner.coll_log = Some(Vec::new());
        }
    }

    /// The recorded collective log, sorted by epoch. Empty unless
    /// [`Checker::record_collectives`] was called before the run.
    pub fn collective_log(&self) -> Vec<(u64, CollDesc)> {
        let inner = self.inner.lock();
        let mut log = inner.coll_log.clone().unwrap_or_default();
        log.sort_by_key(|(e, _)| *e);
        log
    }

    /// Record an injected point-to-point send.
    pub fn on_send(&self, src: usize, dst: usize, tag: u32, bytes: u64) {
        if !self.mode.enabled() {
            return;
        }
        self.note(src, format!("send(dst={dst}, tag={tag}, {bytes}B)"));
        let mut inner = self.inner.lock();
        inner
            .pending_sends
            .entry((src, dst, tag))
            .or_default()
            .push_back(bytes);
    }

    /// A receive was posted (possibly with wildcards) — ledger only.
    pub fn on_recv_post(&self, rank: usize, src: Option<usize>, tag: Option<u32>) {
        if !self.mode.enabled() {
            return;
        }
        let src = src.map_or("any".into(), |s| s.to_string());
        let tag = tag.map_or("any".into(), |t| t.to_string());
        self.note(rank, format!("recv(src={src}, tag={tag}) posted"));
    }

    /// A receive completed, consuming a message from `src` with `tag`.
    pub fn on_recv(&self, rank: usize, src: usize, tag: u32, bytes: u64) {
        if !self.mode.enabled() {
            return;
        }
        self.note(rank, format!("recv(src={src}, tag={tag}, {bytes}B) done"));
        let mut inner = self.inner.lock();
        // Consume the matching outstanding send; a receive whose send
        // bypassed the checker is ignored rather than misreported.
        if let Some(q) = inner.pending_sends.get_mut(&(src, rank, tag)) {
            q.pop_front();
            if q.is_empty() {
                inner.pending_sends.remove(&(src, rank, tag));
            }
        }
    }

    /// Start watching a file system: enables its I/O trace and includes it
    /// in conflict analysis from now on.
    pub fn watch_fs(&self, fs: Arc<Mutex<Pfs>>) {
        if !self.mode.enabled() {
            return;
        }
        fs.lock().trace.enable();
        let mut inner = self.inner.lock();
        if inner.traced.iter().any(|t| Arc::ptr_eq(&t.fs, &fs)) {
            return;
        }
        inner.traced.push(TracedFs { fs, cursor: 0 });
    }

    /// All ranks synchronized at virtual time `t` (a barrier release).
    /// Closes the current sync epoch and analyzes its I/O.
    pub fn sync_point(&self, t: SimTime) {
        if !self.mode.enabled() {
            return;
        }
        let mut inner = self.inner.lock();
        // Every rank of the barrier reports the same release instant;
        // only the first closes the epoch.
        if inner.boundaries.last() == Some(&t) {
            return;
        }
        inner.boundaries.push(t);
        self.analyze_trace(&mut inner, Some(t));
    }

    /// One rank's collective-write view regions for `file`. `expect` is
    /// the number of participating ranks; when the last one arrives the
    /// regions are checked for cross-rank overlap.
    pub fn on_view_write(&self, file: usize, rank: usize, expect: usize, regions: &[(u64, u64)]) {
        if !self.mode.enabled() {
            return;
        }
        let bytes: u64 = regions.iter().map(|(_, l)| l).sum();
        self.note(
            rank,
            format!(
                "write_all(file={file}, {} regions, {bytes}B)",
                regions.len()
            ),
        );
        let mut inner = self.inner.lock();
        let call = {
            let next = inner.view_next.entry((file, rank)).or_insert(0);
            let c = *next;
            *next += 1;
            c
        };
        let slot = inner.views.entry((file, call)).or_insert_with(|| ViewSlot {
            regions: (0..expect).map(|_| None).collect(),
            narrived: 0,
            expect,
        });
        if rank >= slot.regions.len() {
            // Participant set changed size — treat each size as separate.
            return;
        }
        if slot.regions[rank].is_none() {
            slot.narrived += 1;
        }
        slot.regions[rank] = Some(regions.to_vec());
        if slot.narrived < slot.expect {
            return;
        }
        let slot = inner.views.remove(&(file, call)).expect("slot present");
        let mut tagged: Vec<AccessRange> = Vec::new();
        for (r, regs) in slot.regions.into_iter().enumerate() {
            for (offset, len) in regs.into_iter().flatten() {
                if len > 0 {
                    tagged.push(AccessRange {
                        client: r,
                        offset,
                        len,
                    });
                }
            }
        }
        for (a, b) in overlapping_pairs(&mut tagged) {
            self.emit(&mut inner, Violation::ViewOverlap { file, call, a, b });
        }
    }

    /// Analyze traced I/O. `up_to = Some(t)` consumes events that started
    /// before `t`; `None` consumes everything (finalize).
    fn analyze_trace(&self, inner: &mut Inner, up_to: Option<SimTime>) {
        let mut found: Vec<Violation> = Vec::new();
        // Take the fs list out so we can borrow `inner` for emission later.
        let mut traced = std::mem::take(&mut inner.traced);
        for tfs in traced.iter_mut() {
            let g = tfs.fs.lock();
            let events = &g.trace.events;
            let end = match up_to {
                Some(t) => {
                    // Pre-barrier events form a prefix (every rank's I/O
                    // completes before it enters the barrier).
                    let mut e = tfs.cursor;
                    while e < events.len() && events[e].start < t {
                        e += 1;
                    }
                    e
                }
                None => events.len(),
            };
            if end > tfs.cursor {
                found.extend(scan_conflicts(&events[tfs.cursor..end], &inner.boundaries));
                tfs.cursor = end;
            }
        }
        inner.traced = traced;
        for v in found {
            self.emit(inner, v);
        }
    }

    /// Snapshot the report without running final analysis.
    pub fn report(&self) -> CheckReport {
        let inner = self.inner.lock();
        CheckReport {
            violations: inner.violations.clone(),
            dropped: inner.dropped,
        }
    }

    /// Finish the run: analyze remaining traced I/O, report unmatched
    /// sends and never-completed collectives, and return the report. In
    /// strict mode any new violation panics here.
    pub fn finalize(&self) -> CheckReport {
        if !self.mode.enabled() {
            return CheckReport::default();
        }
        let mut inner = self.inner.lock();
        self.analyze_trace(&mut inner, None);
        let mut pend: Vec<((usize, usize, u32), VecDeque<u64>)> =
            std::mem::take(&mut inner.pending_sends)
                .into_iter()
                .collect();
        pend.sort_by_key(|(k, _)| *k);
        for ((src, dst, tag), q) in pend {
            for bytes in q {
                self.emit(
                    &mut inner,
                    Violation::UnmatchedSend {
                        src,
                        dst,
                        tag,
                        bytes,
                    },
                );
            }
        }
        let mut colls: Vec<(u64, CollSlot)> =
            std::mem::take(&mut inner.colls).into_iter().collect();
        colls.sort_by_key(|(e, _)| *e);
        for (epoch, slot) in colls {
            let missing: Vec<usize> = slot
                .descs
                .iter()
                .enumerate()
                .filter(|(_, d)| d.is_none())
                .map(|(r, _)| r)
                .collect();
            self.emit(
                &mut inner,
                Violation::CollectiveIncomplete { epoch, missing },
            );
        }
        CheckReport {
            violations: inner.violations.clone(),
            dropped: inner.dropped,
        }
    }

    /// Finish a run that a simulated crash cut short: analyze the I/O
    /// that did land, but *discard* in-flight sends and collectives
    /// instead of reporting them. A crash legitimately truncates epochs
    /// mid-flight — the unmatched send a dead rank left behind is the
    /// fault injector's doing, not an application bug, and must not
    /// surface as a false positive (or a strict-mode panic) during
    /// recovery.
    pub fn finalize_truncated(&self) -> CheckReport {
        if !self.mode.enabled() {
            return CheckReport::default();
        }
        let mut inner = self.inner.lock();
        self.analyze_trace(&mut inner, None);
        inner.pending_sends.clear();
        inner.colls.clear();
        CheckReport {
            violations: inner.violations.clone(),
            dropped: inner.dropped,
        }
    }
}

fn render_ledgers(ledgers: &[VecDeque<String>]) -> String {
    let mut out = String::new();
    for (r, l) in ledgers.iter().enumerate() {
        out.push_str(&format!("  rank {r}:\n"));
        if l.is_empty() {
            out.push_str("    (no recorded calls)\n");
        }
        for call in l {
            out.push_str(&format!("    {call}\n"));
        }
    }
    out
}

/// Cross-check one completed collective epoch.
fn cross_check(epoch: u64, descs: &[CollDesc]) -> Vec<Violation> {
    let mut out = Vec::new();
    let first = &descs[0];
    if descs.iter().any(|d| d.kind != first.kind) {
        out.push(Violation::CollectiveKindMismatch {
            epoch,
            kinds: descs.iter().enumerate().map(|(r, d)| (r, d.kind)).collect(),
        });
        // Kinds differ: the remaining fields are incomparable.
        return out;
    }
    if descs.iter().any(|d| d.root != first.root) {
        out.push(Violation::CollectiveRootMismatch {
            epoch,
            kind: first.kind,
            roots: descs.iter().enumerate().map(|(r, d)| (r, d.root)).collect(),
        });
    }
    if descs.iter().any(|d| d.op != first.op) {
        out.push(Violation::CollectiveOpMismatch {
            epoch,
            kind: first.kind,
            ops: descs
                .iter()
                .enumerate()
                .map(|(r, d)| (r, d.op.unwrap_or("?")))
                .collect(),
        });
    }
    if first.uniform_bytes && descs.iter().any(|d| d.bytes != first.bytes) {
        out.push(Violation::CollectiveLengthMismatch {
            epoch,
            kind: first.kind,
            bytes: descs
                .iter()
                .enumerate()
                .map(|(r, d)| (r, d.bytes))
                .collect(),
        });
    }
    out
}

/// Find all overlapping pairs between ranges of *different* clients.
/// Sorts `ranges` by offset; output order is deterministic.
fn overlapping_pairs(ranges: &mut [AccessRange]) -> Vec<(AccessRange, AccessRange)> {
    ranges.sort_by_key(|r| (r.offset, r.client, r.len));
    let mut out = Vec::new();
    for i in 0..ranges.len() {
        for j in (i + 1)..ranges.len() {
            if ranges[j].offset >= ranges[i].offset + ranges[i].len {
                break;
            }
            if ranges[i].client != ranges[j].client {
                out.push((ranges[i], ranges[j]));
                if out.len() >= 64 {
                    return out;
                }
            }
        }
    }
    out
}

/// Slice `events` into sync epochs at `boundaries` and detect conflicts
/// within each epoch. Pure function — usable directly over an
/// [`amrio_disk::IoTrace`] too.
pub fn scan_conflicts(events: &[IoEvent], boundaries: &[SimTime]) -> Vec<Violation> {
    // Group by (file, epoch); the ordered map makes the scan (and the
    // order violations are reported in) deterministic by construction.
    let mut groups: BTreeMap<(usize, usize), Vec<&IoEvent>> = BTreeMap::new();
    for e in events {
        let epoch = boundaries.partition_point(|b| *b <= e.start);
        groups.entry((e.file, epoch)).or_default().push(e);
    }
    let mut out = Vec::new();
    for (&(file, epoch), group) in &groups {
        scan_group(file, epoch, group, &mut out);
    }
    out
}

fn range_of(e: &IoEvent) -> AccessRange {
    AccessRange {
        client: e.client,
        offset: e.offset,
        len: e.len,
    }
}

fn event_overlap(a: &IoEvent, b: &IoEvent) -> bool {
    a.offset < b.offset + b.len && b.offset < a.offset + a.len
}

fn scan_group(file: usize, epoch: usize, group: &[&IoEvent], out: &mut Vec<Violation>) {
    // Identify data-sieving RMW windows: a read re-written by the same
    // client over the identical byte range within the epoch.
    let nev = group.len();
    let mut is_rmw_read = vec![false; nev];
    let mut is_rmw_write = vec![false; nev];
    for (ri, r) in group.iter().enumerate() {
        if r.write {
            continue;
        }
        for (wi, w) in group.iter().enumerate() {
            if w.write
                && w.client == r.client
                && w.offset == r.offset
                && w.len == r.len
                && w.start >= r.start
            {
                is_rmw_read[ri] = true;
                is_rmw_write[wi] = true;
            }
        }
    }
    // Pairwise conflicts between different clients. Epoch groups are
    // bounded by per-epoch I/O so the quadratic scan stays cheap, and
    // reported pairs are capped to keep pathological runs readable.
    let mut reported = 0usize;
    let mut sieve_seen: Vec<(usize, usize, u64, u64)> = Vec::new();
    let sieve = |out: &mut Vec<Violation>,
                 seen: &mut Vec<(usize, usize, u64, u64)>,
                 window: &IoEvent,
                 other: &IoEvent| {
        let sig = (window.client, other.client, window.offset, window.len);
        if !seen.contains(&sig) {
            seen.push(sig);
            out.push(Violation::SieveRmwConflict {
                file,
                epoch,
                window: range_of(window),
                other: range_of(other),
            });
            return true;
        }
        false
    };
    for i in 0..nev {
        for j in (i + 1)..nev {
            let (a, b) = (group[i], group[j]);
            if a.client == b.client || !event_overlap(a, b) {
                continue;
            }
            if reported >= 64 {
                return;
            }
            match (a.write, b.write) {
                (false, false) => {}
                (true, true) => {
                    // Attribute to data sieving when either side is an
                    // RMW flush; dedupe with the read-side report.
                    if is_rmw_write[i] {
                        if sieve(out, &mut sieve_seen, a, b) {
                            reported += 1;
                        }
                    } else if is_rmw_write[j] {
                        if sieve(out, &mut sieve_seen, b, a) {
                            reported += 1;
                        }
                    } else {
                        out.push(Violation::WriteWriteConflict {
                            file,
                            epoch,
                            a: range_of(a),
                            b: range_of(b),
                        });
                        reported += 1;
                    }
                }
                (w_a, _) => {
                    let (r, w, r_idx) = if w_a { (b, a, j) } else { (a, b, i) };
                    if is_rmw_read[r_idx] {
                        if sieve(out, &mut sieve_seen, r, w) {
                            reported += 1;
                        }
                    } else {
                        out.push(Violation::ReadWriteConflict {
                            file,
                            epoch,
                            read: range_of(r),
                            write: range_of(w),
                        });
                        reported += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(client: usize, offset: u64, len: u64, write: bool, start_us: u64) -> IoEvent {
        IoEvent {
            client,
            file: 0,
            offset,
            len,
            write,
            start: SimTime(start_us * 1_000),
            end: SimTime(start_us * 1_000 + 500),
        }
    }

    #[test]
    fn disjoint_writes_are_clean() {
        let events = vec![ev(0, 0, 100, true, 1), ev(1, 100, 100, true, 1)];
        assert!(scan_conflicts(&events, &[]).is_empty());
    }

    #[test]
    fn overlapping_writes_in_one_epoch_conflict() {
        let events = vec![ev(0, 0, 100, true, 1), ev(1, 50, 100, true, 2)];
        let v = scan_conflicts(&events, &[]);
        assert_eq!(v.len(), 1);
        assert!(
            matches!(v[0], Violation::WriteWriteConflict { .. }),
            "{:?}",
            v[0]
        );
    }

    #[test]
    fn overlapping_writes_in_different_epochs_are_clean() {
        let events = vec![ev(0, 0, 100, true, 1), ev(1, 50, 100, true, 10)];
        // Barrier at t=5us separates the two writes.
        assert!(scan_conflicts(&events, &[SimTime(5_000)]).is_empty());
    }

    #[test]
    fn read_of_unsynced_write_conflicts() {
        let events = vec![ev(0, 0, 100, true, 1), ev(1, 20, 10, false, 2)];
        let v = scan_conflicts(&events, &[]);
        assert_eq!(v.len(), 1);
        assert!(
            matches!(v[0], Violation::ReadWriteConflict { .. }),
            "{:?}",
            v[0]
        );
    }

    #[test]
    fn same_client_overlap_is_fine() {
        let events = vec![ev(3, 0, 100, true, 1), ev(3, 50, 100, true, 2)];
        assert!(scan_conflicts(&events, &[]).is_empty());
    }

    #[test]
    fn rmw_window_touching_foreign_bytes_is_sieve_conflict() {
        // Client 0 data-sieves: reads [0,512), writes back [0,512).
        // Client 1 writes [100,200) in the same epoch — clobbered.
        let events = vec![
            ev(0, 0, 512, false, 1),
            ev(1, 100, 100, true, 2),
            ev(0, 0, 512, true, 3),
        ];
        let v = scan_conflicts(&events, &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            matches!(v[0], Violation::SieveRmwConflict { .. }),
            "{:?}",
            v[0]
        );
    }

    #[test]
    fn cross_check_flags_kind_op_and_length() {
        let mk = |kind, root, op, bytes, uniform| CollDesc {
            kind,
            root,
            op,
            bytes,
            uniform_bytes: uniform,
        };
        // Kind mismatch short-circuits.
        let v = cross_check(
            0,
            &[
                mk(CollKind::Bcast, Some(0), None, 8, false),
                mk(CollKind::Barrier, None, None, 0, true),
            ],
        );
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], Violation::CollectiveKindMismatch { .. }));
        // Op + length together.
        let v = cross_check(
            3,
            &[
                mk(CollKind::Allreduce, None, Some("sum"), 16, true),
                mk(CollKind::Allreduce, None, Some("max"), 24, true),
            ],
        );
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(matches!(v[0], Violation::CollectiveOpMismatch { .. }));
        assert!(matches!(v[1], Violation::CollectiveLengthMismatch { .. }));
    }

    #[test]
    fn checker_collects_collective_mismatch_in_log_mode() {
        let ck = Checker::new(CheckMode::Log, 2);
        ck.on_collective(
            0,
            0,
            CollDesc {
                kind: CollKind::Bcast,
                root: Some(0),
                op: None,
                bytes: 64,
                uniform_bytes: false,
            },
        );
        ck.on_collective(
            1,
            0,
            CollDesc {
                kind: CollKind::Bcast,
                root: Some(1),
                op: None,
                bytes: 0,
                uniform_bytes: false,
            },
        );
        let rep = ck.finalize();
        assert_eq!(rep.len(), 1, "{rep}");
        assert!(matches!(
            rep.violations[0],
            Violation::CollectiveRootMismatch { .. }
        ));
    }

    #[test]
    fn unmatched_send_reported_at_finalize() {
        let ck = Checker::new(CheckMode::Log, 2);
        ck.on_send(0, 1, 7, 100);
        ck.on_send(0, 1, 7, 200);
        ck.on_recv(1, 0, 7, 100);
        let rep = ck.finalize();
        assert_eq!(rep.len(), 1, "{rep}");
        assert!(
            matches!(
                rep.violations[0],
                Violation::UnmatchedSend {
                    src: 0,
                    dst: 1,
                    tag: 7,
                    ..
                }
            ),
            "{:?}",
            rep.violations[0]
        );
    }

    #[test]
    fn truncated_finalize_forgives_in_flight_traffic() {
        // A crash cut the run mid-collective with a send in flight:
        // neither may surface as a violation, even under Strict.
        let ck = Checker::new(CheckMode::Strict, 2);
        ck.on_send(0, 1, 7, 100);
        ck.on_collective(
            0,
            3,
            CollDesc {
                kind: CollKind::Barrier,
                root: None,
                op: None,
                bytes: 0,
                uniform_bytes: false,
            },
        );
        assert!(ck.finalize_truncated().is_clean());
        // The pending state was consumed: a later plain finalize stays
        // clean too instead of double-reporting.
        assert!(ck.finalize().is_clean());
    }

    #[test]
    fn view_overlap_detected_across_ranks() {
        let ck = Checker::new(CheckMode::Log, 2);
        ck.on_view_write(5, 0, 2, &[(0, 100), (200, 50)]);
        ck.on_view_write(5, 1, 2, &[(90, 20)]);
        let rep = ck.finalize();
        assert_eq!(rep.len(), 1, "{rep}");
        assert!(matches!(
            rep.violations[0],
            Violation::ViewOverlap { file: 5, .. }
        ));
    }

    #[test]
    fn disjoint_views_are_clean() {
        let ck = Checker::new(CheckMode::Log, 3);
        ck.on_view_write(1, 0, 3, &[(0, 100)]);
        ck.on_view_write(1, 1, 3, &[(100, 100)]);
        ck.on_view_write(1, 2, 3, &[(200, 100)]);
        assert!(ck.finalize().is_clean());
    }

    #[test]
    fn off_mode_is_inert() {
        let ck = Checker::new(CheckMode::Off, 2);
        ck.on_send(0, 1, 1, 10);
        ck.on_view_write(0, 0, 2, &[(0, 10)]);
        ck.on_view_write(0, 1, 2, &[(5, 10)]);
        assert!(ck.finalize().is_clean());
    }

    #[test]
    fn strict_mode_panics_with_ledger() {
        let ck = Checker::new(CheckMode::Strict, 2);
        ck.on_send(0, 1, 3, 64);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ck.finalize();
        }))
        .expect_err("must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("amrio-check violation"), "{msg}");
        assert!(msg.contains("unmatched send"), "{msg}");
        assert!(msg.contains("send(dst=1, tag=3, 64B)"), "{msg}");
    }
}
