//! The parallel file system simulator.
//!
//! A [`Pfs`] owns a set of I/O servers (each a [`BlockDev`]) and a flat
//! namespace of files with *real* byte contents. Requests are priced per
//! the platform's striping, network placement, locking, and client-side
//! queueing rules, and must be issued from `amrio-simt` ordered sections
//! so contention resolves deterministically.
//!
//! Mechanisms reproduced from the paper's platforms:
//!
//! * **Striping**: a contiguous file range maps round-robin over servers;
//!   adjacent blocks on the same server coalesce into one contiguous disk
//!   request (so a single large sequential stream uses all servers at
//!   near-full bandwidth, while small strided chunks pay per-request
//!   costs — the GPFS "mismatch" of §4.2).
//! * **Block tokens** (GPFS): writes acquire a token per lock block;
//!   writes from different clients into the same block serialize and pay
//!   a revocation cost (false sharing across stripe boundaries).
//! * **Per-node I/O queue** (IBM SP): requests from processors of one SMP
//!   node serialize through that node's I/O request queue.
//! * **Client-local placement** (PVFS interface on local disks, §4.4):
//!   every client reads/writes its own directly-attached disk.

use crate::dev::{BlockDev, DiskParams};
use crate::store::ExtentStore;
use crate::trace::{IoEvent, IoTrace};
use amrio_fault::{Crashed, FaultPlan, IoError, IoResult};
use amrio_net::{Endpoint, Net};
use amrio_simt::{SimDur, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

/// Size of the request header / ack messages exchanged with servers.
const REQ_MSG: u64 = 64;

/// How file data is placed on servers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Round-robin striping over all servers.
    Striped,
    /// Client `c` uses server `c`'s (its own node's) disk directly.
    ClientLocal,
}

/// Static configuration of a simulated parallel file system.
#[derive(Clone, Debug)]
pub struct FsConfig {
    pub label: String,
    /// Stripe (and GPFS lock-block) unit in bytes.
    pub stripe: u64,
    pub nservers: usize,
    pub disk: DiskParams,
    /// Network endpoints of the servers; `None` means direct-attached
    /// storage with no network hop (XFS on the Origin2000, local disks).
    pub server_endpoints: Option<Vec<Endpoint>>,
    pub placement: Placement,
    /// GPFS-style write tokens at this granularity (bytes).
    pub lock_block: Option<u64>,
    /// Cost of stealing a write token owned by another client.
    pub token_cost: SimDur,
    /// If set, requests serialize through the client node's I/O queue at
    /// this cost per request (IBM SP SMP nodes).
    pub client_queue_cost: Option<SimDur>,
    /// Per-client streaming limit (bytes/s) on the local syscall/copy
    /// path of direct-attached storage: one 2002-era process cannot
    /// saturate a striped volume, but several together can.
    pub single_stream_bw: Option<f64>,
}

/// Identifies an open file.
pub type FileId = usize;

#[derive(Clone, Debug, Default)]
struct FileData {
    store: ExtentStore,
    /// Application-specific stripe override (the paper's §5 proposal:
    /// "flexible, application-specific disk file striping and
    /// distribution patterns").
    stripe_override: Option<u64>,
}

#[derive(Clone, Copy, Debug)]
struct Token {
    owner: Endpoint,
    free_at: SimTime,
}

/// Aggregate counters for a file system instance.
#[derive(Clone, Copy, Debug, Default)]
pub struct FsStats {
    pub reads: u64,
    pub writes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    /// Requests as seen by servers after striping/coalescing.
    pub server_requests: u64,
    pub token_steals: u64,
    pub meta_ops: u64,
}

/// One (server index, device offset, length, file offset) piece of a
/// request after striping and coalescing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Piece {
    pub server: usize,
    pub dev_off: u64,
    pub len: u64,
    pub file_off: u64,
}

/// One I/O request against a [`Pfs`]. Every request is a single
/// contiguous file range; the vectored variants only change where the
/// bytes live in *host* memory, and are priced and traced exactly like
/// the scalar op of the total length. The fault layer, tracer, and
/// checker all intercept one choke point ([`Pfs::submit`]).
#[derive(Debug)]
pub enum IoOp<'a, 'b> {
    /// Write `data` at file offset `off`.
    Write { off: u64, data: &'a [u8] },
    /// Write the concatenation of `parts` at `off` (pwritev-style).
    WriteGather { off: u64, parts: &'a [&'b [u8]] },
    /// Read `len` bytes at `off` into a fresh buffer.
    Read { off: u64, len: u64 },
    /// Read `Σ parts[i].len()` bytes at `off`, scattered into `parts`
    /// (preadv-style).
    ReadScatter {
        off: u64,
        parts: &'a mut [&'b mut [u8]],
    },
}

impl IoOp<'_, '_> {
    pub fn is_write(&self) -> bool {
        matches!(self, IoOp::Write { .. } | IoOp::WriteGather { .. })
    }

    pub fn offset(&self) -> u64 {
        match self {
            IoOp::Write { off, .. }
            | IoOp::WriteGather { off, .. }
            | IoOp::Read { off, .. }
            | IoOp::ReadScatter { off, .. } => *off,
        }
    }

    /// Total bytes moved by the request.
    pub fn total_len(&self) -> u64 {
        match self {
            IoOp::Write { data, .. } => data.len() as u64,
            IoOp::WriteGather { parts, .. } => parts.iter().map(|p| p.len() as u64).sum(),
            IoOp::Read { len, .. } => *len,
            IoOp::ReadScatter { parts, .. } => parts.iter().map(|p| p.len() as u64).sum(),
        }
    }
}

/// Successful outcome of a [`Pfs::submit`].
#[derive(Clone, Debug)]
pub struct IoCompletion {
    /// When the request entered service (after the client-side queue).
    pub start: SimTime,
    /// When the last server acked / the last byte reached the client.
    pub done: SimTime,
    /// The bytes, for [`IoOp::Read`] requests; `None` otherwise.
    pub data: Option<Vec<u8>>,
}

/// The simulated parallel file system.
#[derive(Clone, Debug)]
pub struct Pfs {
    cfg: FsConfig,
    servers: Vec<BlockDev>,
    /// `alive[s]` — whether server `s` is still in the stripe map.
    /// Degraded servers keep their [`BlockDev`] (for stats) but receive
    /// no further requests; survivors absorb their extents.
    alive: Vec<bool>,
    files: Vec<FileData>,
    names: HashMap<String, FileId>,
    tokens: HashMap<(FileId, u64), Token>,
    node_queue: HashMap<usize, SimTime>,
    client_stream_free: HashMap<Endpoint, SimTime>,
    /// Optional fault schedule consulted by [`Pfs::submit`].
    faults: Option<Arc<FaultPlan>>,
    pub stats: FsStats,
    /// Optional Pablo-style request trace (see [`crate::trace`]).
    pub trace: IoTrace,
}

impl Pfs {
    pub fn new(cfg: FsConfig) -> Pfs {
        assert!(cfg.stripe > 0, "stripe must be positive");
        assert!(cfg.nservers > 0, "need at least one server");
        if let Some(eps) = &cfg.server_endpoints {
            assert_eq!(eps.len(), cfg.nservers, "one endpoint per server");
        }
        let servers = (0..cfg.nservers).map(|_| BlockDev::new(cfg.disk)).collect();
        Pfs {
            alive: vec![true; cfg.nservers],
            cfg,
            servers,
            files: Vec::new(),
            names: HashMap::new(),
            tokens: HashMap::new(),
            node_queue: HashMap::new(),
            client_stream_free: HashMap::new(),
            faults: None,
            stats: FsStats::default(),
            trace: IoTrace::default(),
        }
    }

    /// Attach a fault schedule: [`Pfs::submit`] consults it per request
    /// (failures, transient errors, slowdowns, stalls). An empty plan is
    /// a strict no-op — timing and contents stay bit-identical.
    pub fn attach_faults(&mut self, plan: Arc<FaultPlan>) {
        self.faults = Some(plan);
    }

    /// Detach the fault schedule. A restarted incarnation salvaging this
    /// file system after a crash runs fault-free: the armed crash has
    /// already fired, and the restart must not re-fire it.
    pub fn clear_faults(&mut self) {
        self.faults = None;
    }

    pub fn faults(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// Number of servers still in the stripe map.
    pub fn alive_servers(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// Whether `s` has been dropped from the stripe map.
    pub fn is_degraded(&self, s: usize) -> bool {
        !self.alive[s]
    }

    /// Drop server `s` out of the stripe map at `when` (graceful
    /// degradation): subsequent requests remap round-robin over the
    /// survivors, which absorb the failed server's extents. File
    /// *contents* live in per-file extent stores, so nothing is lost —
    /// only placement (and therefore timing) changes, exactly like a
    /// declustered PVFS volume rebuilding onto fewer servers. Returns
    /// false if `s` was already degraded. Panics rather than degrade the
    /// last surviving server.
    pub fn degrade_server(&mut self, s: usize, when: SimTime) -> bool {
        assert!(s < self.cfg.nservers, "no such server {s}");
        if !self.alive[s] {
            return false;
        }
        assert!(
            self.alive_servers() > 1,
            "cannot degrade the last surviving server {s}"
        );
        self.alive[s] = false;
        if let Some(plan) = &self.faults {
            plan.note_failover(s, when);
        }
        true
    }

    pub fn config(&self) -> &FsConfig {
        &self.cfg
    }

    pub fn server(&self, i: usize) -> &BlockDev {
        &self.servers[i]
    }

    /// Halt with a [`Crashed`] panic if an armed crash is due at `t`.
    /// Metadata ops check only their submission time: a create/open
    /// that *started* before the crash instant completes atomically
    /// (metadata updates are journaled in one piece; only data I/O
    /// tears).
    fn check_crash(&self, t: SimTime) {
        if let Some(at) = self.faults.as_ref().and_then(|p| p.crash_due(t)) {
            std::panic::panic_any(Crashed { at });
        }
    }

    /// Create (or truncate) a file; charges one metadata round trip.
    pub fn create(
        &mut self,
        client: Endpoint,
        net: &mut Net,
        path: &str,
        t: SimTime,
    ) -> (FileId, SimTime) {
        self.check_crash(t);
        let id = *self.names.entry(path.to_string()).or_insert_with(|| {
            self.files.push(FileData::default());
            self.files.len() - 1
        });
        self.files[id].store = ExtentStore::new();
        let done = self.meta_op(client, net, t);
        (id, done)
    }

    /// Open an existing file; charges one metadata round trip.
    pub fn open(
        &mut self,
        client: Endpoint,
        net: &mut Net,
        path: &str,
        t: SimTime,
    ) -> (FileId, SimTime) {
        self.check_crash(t);
        let id = *self
            .names
            .get(path)
            .unwrap_or_else(|| panic!("open of missing file {path:?}"));
        let done = self.meta_op(client, net, t);
        (id, done)
    }

    pub fn exists(&self, path: &str) -> bool {
        self.names.contains_key(path)
    }

    pub fn file_size(&self, f: FileId) -> u64 {
        self.files[f].store.len()
    }

    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.names.keys().map(|s| s.as_str())
    }

    /// Resolve a path to its [`FileId`] without any simulated cost —
    /// post-run analysis (trace export, plan conformance) uses this to
    /// group [`crate::trace::IoEvent`]s by file name.
    pub fn file_id(&self, path: &str) -> Option<FileId> {
        self.names.get(path).copied()
    }

    /// Snapshot of the recorded trace paired with the path → id map —
    /// the raw material for plan↔trace conformance checking.
    pub fn trace_snapshot(&self) -> (Vec<(String, FileId)>, Vec<IoEvent>) {
        let mut names: Vec<(String, FileId)> =
            self.names.iter().map(|(p, id)| (p.clone(), *id)).collect();
        names.sort();
        (names, self.trace.events.clone())
    }

    /// A small control message to the metadata server (server 0).
    fn meta_op(&mut self, client: Endpoint, net: &mut Net, t: SimTime) -> SimTime {
        self.stats.meta_ops += 1;
        match &self.cfg.server_endpoints {
            Some(eps) => {
                let req = net.transfer(client, eps[0], REQ_MSG, t);
                let rsp = net.transfer(eps[0], client, REQ_MSG, req.arrival);
                rsp.arrival
            }
            None => t + self.cfg.disk.per_request,
        }
    }

    /// The stripe unit in effect for a file (config default, unless the
    /// application installed a per-file override).
    pub fn stripe_of(&self, f: FileId) -> u64 {
        self.files
            .get(f)
            .and_then(|fd| fd.stripe_override)
            .unwrap_or(self.cfg.stripe)
    }

    /// Install an application-specific stripe unit for one file — the
    /// future-work interface the paper's §5 asks parallel file systems
    /// for. Takes effect for subsequent requests and lock-block layout.
    pub fn set_file_striping(&mut self, f: FileId, stripe: u64) {
        assert!(stripe > 0, "stripe must be positive");
        self.files[f].stripe_override = Some(stripe);
    }

    /// Decompose `[off, off+len)` into coalesced per-server pieces.
    /// Striping is staggered by file id (like allocation groups), so small
    /// files spread over all servers instead of piling onto server 0.
    ///
    /// Only servers still in the stripe map participate: after a
    /// [`Pfs::degrade_server`], the round-robin runs over the survivors
    /// (when nothing is degraded the mapping is bit-identical to the
    /// full layout).
    pub fn map_pieces(&self, client: Endpoint, f: FileId, off: u64, len: u64) -> Vec<Piece> {
        self.map_pieces_frags(client, f, off, len).0
    }

    /// [`Pfs::map_pieces`] plus the un-coalesced stripe fragments, each
    /// as `(piece index, file offset, length)`. A coalesced piece covers
    /// *non-contiguous* file ranges (successive stripe blocks of one
    /// server), so torn-write landing needs the fragments to know which
    /// file bytes a completed piece actually persisted.
    fn map_pieces_frags(
        &self,
        client: Endpoint,
        f: FileId,
        off: u64,
        len: u64,
    ) -> (Vec<Piece>, Vec<(usize, u64, u64)>) {
        if len == 0 {
            return (Vec::new(), Vec::new());
        }
        // Identity map while healthy; survivor list once degraded.
        let survivors: Option<Vec<usize>> = if self.alive_servers() == self.cfg.nservers {
            None
        } else {
            Some((0..self.cfg.nservers).filter(|s| self.alive[*s]).collect())
        };
        let nmap = survivors.as_ref().map_or(self.cfg.nservers, |v| v.len());
        let resolve = |k: usize| survivors.as_ref().map_or(k, |v| v[k]);
        match self.cfg.placement {
            Placement::ClientLocal => {
                let server = resolve(client % nmap);
                (
                    vec![Piece {
                        server,
                        dev_off: off,
                        len,
                        file_off: off,
                    }],
                    vec![(0, off, len)],
                )
            }
            Placement::Striped => {
                let s = self.stripe_of(f);
                let n = nmap as u64;
                let mut pieces: Vec<Piece> = Vec::new();
                let mut frags: Vec<(usize, u64, u64)> = Vec::new();
                let mut cur = off;
                let end = off + len;
                while cur < end {
                    let block = cur / s;
                    let server = resolve(((block + f as u64) % n) as usize);
                    let local_block = block / n;
                    let in_block = cur % s;
                    let piece_len = (s - in_block).min(end - cur);
                    let dev_off = local_block * s + in_block;
                    // Coalesce with the previous piece on the same server
                    // when contiguous on disk (round-robin guarantees that
                    // successive blocks of a server land on adjacent local
                    // blocks, so long sequential file ranges become one
                    // large disk request per server).
                    if let Some(i) = pieces.iter().rposition(|p| p.server == server) {
                        if pieces[i].dev_off + pieces[i].len == dev_off {
                            pieces[i].len += piece_len;
                            frags.push((i, cur, piece_len));
                            cur += piece_len;
                            continue;
                        }
                    }
                    pieces.push(Piece {
                        server,
                        dev_off,
                        len: piece_len,
                        file_off: cur,
                    });
                    frags.push((pieces.len() - 1, cur, piece_len));
                    cur += piece_len;
                }
                (pieces, frags)
            }
        }
    }

    /// Occupy the client's local streaming path for `bytes`; returns when
    /// the last byte has left (or reached) the client.
    fn client_stream(&mut self, client: Endpoint, bytes: u64, t: SimTime) -> SimTime {
        match self.cfg.single_stream_bw {
            None => t,
            Some(bw) => {
                let free = self
                    .client_stream_free
                    .entry(client)
                    .or_insert(SimTime::ZERO);
                let start = t.max(*free);
                *free = start + SimDur::transfer(bytes, bw);
                *free
            }
        }
    }

    /// Lock-block granularity for a file: tracks the stripe override
    /// (GPFS tokens live at stripe-block granularity).
    fn lock_block_of(&self, f: FileId) -> Option<u64> {
        self.cfg.lock_block?;
        let fd = self.files.get(f)?;
        Some(fd.stripe_override.unwrap_or(self.cfg.lock_block.unwrap()))
    }

    fn client_queue(&mut self, client: Endpoint, net: &Net, t: SimTime) -> SimTime {
        match self.cfg.client_queue_cost {
            None => t,
            Some(cost) => {
                let node = net.node_of(client);
                let q = self.node_queue.entry(node).or_insert(SimTime::ZERO);
                let start = t.max(*q);
                *q = start + cost;
                *q
            }
        }
    }

    /// Submit one I/O request — **the** choke point every request goes
    /// through: fault consultation, pricing, stats, byte landing, and
    /// trace recording all happen here, for scalar and vectored ops
    /// alike. Takes the op by `&mut` so a caller can re-submit the same
    /// op after a failure (retry/failover).
    ///
    /// Fault semantics (all keyed to the submission time `t`, so runs
    /// are reproducible):
    /// * an armed crash at or before `t` ⇒ the whole application halts:
    ///   a [`Crashed`] panic before any side effect;
    /// * a permanently-failed server in the request's stripe map ⇒
    ///   `Err(ServerDown)` after a request round trip; nothing is
    ///   priced, landed, traced, or counted in [`FsStats`];
    /// * a transient-error budget hit ⇒ `Err(Transient)`, same rules;
    /// * slowdown/stall windows stretch the server's service time but
    ///   the request still succeeds;
    /// * a crash *during* the request (submitted before the crash
    ///   instant, completing after it) tears it at extent granularity:
    ///   a write persists exactly the stripe fragments whose server had
    ///   them durably on disk by the crash instant, a read returns
    ///   nothing; either way nothing is traced and the [`Crashed`]
    ///   panic halts the world. [`FsStats`] count the full request as
    ///   issued — the store, not the counters, is the durability truth.
    pub fn submit(
        &mut self,
        client: Endpoint,
        net: &mut Net,
        f: FileId,
        op: &mut IoOp<'_, '_>,
        t: SimTime,
    ) -> IoResult<IoCompletion> {
        let write = op.is_write();
        let off = op.offset();
        let len = op.total_len();
        if let Some(plan) = self.faults.clone() {
            if let Some(at) = plan.crash_due(t) {
                std::panic::panic_any(Crashed { at });
            }
            let pieces = self.map_pieces(client, f, off, len);
            for p in &pieces {
                if plan.server_failed(p.server, t) {
                    let at = self.fail_probe(client, net, p.server, t);
                    return Err(IoError::ServerDown {
                        server: p.server,
                        at,
                    });
                }
            }
            for p in &pieces {
                if plan.take_transient(p.server, t) {
                    let at = self.fail_probe(client, net, p.server, t);
                    return Err(IoError::Transient {
                        server: p.server,
                        at,
                    });
                }
            }
        }
        let (start, completion) = if write {
            let (start, completion, piece_done) = self.transfer_write(client, net, f, off, len, t);
            if let Some(at) = self.crash_cut(completion) {
                self.land_torn_write(client, f, op, &piece_done, at);
                std::panic::panic_any(Crashed { at });
            }
            (start, completion)
        } else {
            let (start, completion) = self.transfer_read(client, net, f, off, len, t);
            if let Some(at) = self.crash_cut(completion) {
                std::panic::panic_any(Crashed { at });
            }
            (start, completion)
        };
        let data = match op {
            IoOp::Write { data, .. } => {
                amrio_simt::count_copy(data.len());
                self.files[f].store.write(off, data);
                None
            }
            IoOp::WriteGather { parts, .. } => {
                let mut cur = off;
                for p in parts.iter() {
                    amrio_simt::count_copy(p.len());
                    self.files[f].store.write(cur, p);
                    cur += p.len() as u64;
                }
                None
            }
            IoOp::Read { .. } => {
                amrio_simt::count_copy(len as usize);
                Some(self.files[f].store.read_vec(off, len as usize))
            }
            IoOp::ReadScatter { parts, .. } => {
                let mut cur = off;
                for p in parts.iter_mut() {
                    amrio_simt::count_copy(p.len());
                    self.files[f].store.read(cur, p);
                    cur += p.len() as u64;
                }
                None
            }
        };
        self.trace.record(IoEvent {
            client,
            file: f,
            offset: off,
            len,
            write,
            start,
            end: completion,
        });
        Ok(IoCompletion {
            start,
            done: completion,
            data,
        })
    }

    /// If an armed crash fires strictly inside a request that completes
    /// at `completion`, the crash instant. (A crash at or before the
    /// submission time is caught earlier, before any side effect.)
    fn crash_cut(&self, completion: SimTime) -> Option<SimTime> {
        self.faults
            .as_ref()
            .and_then(|p| p.crash_at())
            .filter(|&at| completion > at)
    }

    /// Land the surviving extents of a write torn by a crash at `at`:
    /// exactly the stripe fragments whose coalesced server piece was
    /// durably on disk (`piece_done[i] <= at`). Fragments of pieces
    /// still in flight are lost — the file keeps whatever those ranges
    /// held before, which is how a real striped volume looks after
    /// power loss mid-`pwritev`.
    fn land_torn_write(
        &mut self,
        client: Endpoint,
        f: FileId,
        op: &IoOp<'_, '_>,
        piece_done: &[SimTime],
        at: SimTime,
    ) {
        let off = op.offset();
        let len = op.total_len();
        let (_, frags) = self.map_pieces_frags(client, f, off, len);
        for &(pi, file_off, frag_len) in &frags {
            if piece_done[pi] > at {
                continue;
            }
            // Copy this fragment's bytes out of the host buffer(s).
            match op {
                IoOp::Write { data, .. } => {
                    let s = (file_off - off) as usize;
                    let e = s + frag_len as usize;
                    amrio_simt::count_copy(e - s);
                    self.files[f].store.write(file_off, &data[s..e]);
                }
                IoOp::WriteGather { parts, .. } => {
                    let mut cur = off;
                    for p in parts.iter() {
                        let pstart = cur;
                        let pend = cur + p.len() as u64;
                        let s = file_off.max(pstart);
                        let e = (file_off + frag_len).min(pend);
                        if s < e {
                            let a = (s - pstart) as usize;
                            let b = (e - pstart) as usize;
                            amrio_simt::count_copy(b - a);
                            self.files[f].store.write(s, &p[a..b]);
                        }
                        cur = pend;
                    }
                }
                IoOp::Read { .. } | IoOp::ReadScatter { .. } => {
                    unreachable!("torn landing is for writes only")
                }
            }
        }
    }

    /// Cost of observing a request failure: a header round trip to the
    /// failing server (or, on direct-attached storage, one request
    /// overhead). Failed attempts charge time but never touch stats,
    /// stores, or the trace.
    fn fail_probe(
        &mut self,
        client: Endpoint,
        net: &mut Net,
        server: usize,
        t: SimTime,
    ) -> SimTime {
        match &self.cfg.server_endpoints {
            Some(eps) => {
                let req = net.transfer(client, eps[server], REQ_MSG, t);
                net.transfer(eps[server], client, REQ_MSG, req.arrival)
                    .arrival
            }
            None => t + self.cfg.disk.per_request,
        }
    }

    /// One server disk access with fault windows applied: a stalled
    /// server defers the request to the end of its stall window; a
    /// slowdown window stretches the service time.
    fn server_access(
        &mut self,
        server: usize,
        dev_off: u64,
        len: u64,
        begin: SimTime,
        write: bool,
    ) -> SimTime {
        let (begin, scale) = match &self.faults {
            Some(plan) => {
                let begin = match plan.server_stall_until(server, begin) {
                    Some(until) => until.max(begin),
                    None => begin,
                };
                (begin, plan.server_scale(server, begin))
            }
            None => (begin, 1.0),
        };
        self.servers[server].access_scaled(dev_off, len, begin, write, scale)
    }

    /// Synchronous write. Returns the completion time (all servers
    /// acked). Thin wrapper over [`Pfs::submit`]; panics on an injected
    /// fault — fault-plan runs go through `submit` (via the mpiio retry
    /// layer) instead.
    pub fn write_at(
        &mut self,
        client: Endpoint,
        net: &mut Net,
        f: FileId,
        off: u64,
        data: &[u8],
        t: SimTime,
    ) -> SimTime {
        let mut op = IoOp::Write { off, data };
        match self.submit(client, net, f, &mut op, t) {
            Ok(c) => c.done,
            Err(e) => panic!("write_at: unhandled I/O fault: {e}"),
        }
    }

    /// The simulated-time model of one contiguous write: stats, client
    /// queue + streaming path, striping into per-server pieces, GPFS
    /// token traffic, and server disk access. Returns `(queued start,
    /// completion, per-piece disk-completion times)`; the caller lands
    /// the bytes and records the trace. The per-piece times (parallel to
    /// [`Pfs::map_pieces`] order) are the instants each server had the
    /// piece durably on disk — the crash fault cuts at exactly this
    /// granularity.
    fn transfer_write(
        &mut self,
        client: Endpoint,
        net: &mut Net,
        f: FileId,
        off: u64,
        len: u64,
        t: SimTime,
    ) -> (SimTime, SimTime, Vec<SimTime>) {
        self.stats.writes += 1;
        self.stats.bytes_written += len;
        let t = self.client_queue(client, net, t);
        let stream_done = self.client_stream(client, len, t);
        let pieces = self.map_pieces(client, f, off, len);
        let mut piece_done = Vec::with_capacity(pieces.len());
        let mut completion = stream_done;
        let mut send_clock = t;
        for p in &pieces {
            self.stats.server_requests += 1;
            // Token acquisition (GPFS): serialize conflicting writers.
            let mut start_floor = SimTime::ZERO;
            let mut token_penalty = SimDur::ZERO;
            if let Some(lb) = self.lock_block_of(f) {
                let b0 = p.file_off / lb;
                let b1 = (p.file_off + p.len - 1) / lb;
                for b in b0..=b1 {
                    let tok = self.tokens.entry((f, b)).or_insert(Token {
                        owner: client,
                        free_at: SimTime::ZERO,
                    });
                    if tok.owner != client {
                        self.stats.token_steals += 1;
                        token_penalty += self.cfg.token_cost;
                        start_floor = start_floor.max(tok.free_at);
                        tok.owner = client;
                    }
                }
            }
            let arrival = match &self.cfg.server_endpoints {
                Some(eps) => {
                    let x = net.transfer(client, eps[p.server], p.len + REQ_MSG, send_clock);
                    send_clock = x.sender_free;
                    x.arrival
                }
                None => send_clock,
            };
            let begin = arrival.max(start_floor) + token_penalty;
            let disk_done = self.server_access(p.server, p.dev_off, p.len, begin, true);
            piece_done.push(disk_done);
            if let Some(lb) = self.lock_block_of(f) {
                let b0 = p.file_off / lb;
                let b1 = (p.file_off + p.len - 1) / lb;
                for b in b0..=b1 {
                    if let Some(tok) = self.tokens.get_mut(&(f, b)) {
                        tok.free_at = tok.free_at.max(disk_done);
                    }
                }
            }
            let acked = match &self.cfg.server_endpoints {
                Some(eps) => {
                    net.transfer(eps[p.server], client, REQ_MSG, disk_done)
                        .arrival
                }
                None => disk_done,
            };
            completion = completion.max(acked);
        }
        (t, completion, piece_done)
    }

    /// Synchronous read. Returns `(completion, data)`. Thin wrapper over
    /// [`Pfs::submit`]; panics on an injected fault.
    pub fn read_at(
        &mut self,
        client: Endpoint,
        net: &mut Net,
        f: FileId,
        off: u64,
        len: u64,
        t: SimTime,
    ) -> (SimTime, Vec<u8>) {
        let mut op = IoOp::Read { off, len };
        match self.submit(client, net, f, &mut op, t) {
            Ok(c) => (c.done, c.data.expect("read completion carries data")),
            Err(e) => panic!("read_at: unhandled I/O fault: {e}"),
        }
    }

    /// The simulated-time model of one contiguous read (see
    /// [`Pfs::transfer_write`]). Returns `(queued start, completion)`.
    fn transfer_read(
        &mut self,
        client: Endpoint,
        net: &mut Net,
        f: FileId,
        off: u64,
        len: u64,
        t: SimTime,
    ) -> (SimTime, SimTime) {
        self.stats.reads += 1;
        self.stats.bytes_read += len;
        let t = self.client_queue(client, net, t);
        let stream_done = self.client_stream(client, len, t);
        let pieces = self.map_pieces(client, f, off, len);
        let mut completion = stream_done;
        let mut send_clock = t;
        for p in &pieces {
            self.stats.server_requests += 1;
            let arrival = match &self.cfg.server_endpoints {
                Some(eps) => {
                    let x = net.transfer(client, eps[p.server], REQ_MSG, send_clock);
                    send_clock = x.sender_free;
                    x.arrival
                }
                None => send_clock,
            };
            let disk_done = self.server_access(p.server, p.dev_off, p.len, arrival, false);
            let back = match &self.cfg.server_endpoints {
                Some(eps) => {
                    net.transfer(eps[p.server], client, p.len + REQ_MSG, disk_done)
                        .arrival
                }
                None => disk_done,
            };
            completion = completion.max(back);
        }
        (t, completion)
    }

    /// Direct (cost-free) access to file bytes, for assertions in tests and
    /// for post-run integration of per-process output files.
    pub fn peek(&self, f: FileId, off: u64, len: usize) -> Vec<u8> {
        self.files[f].store.read_vec(off, len)
    }

    /// FNV-1a digest of the complete file-system image — every path (in
    /// sorted order), its length, and its full contents. Cost-free and
    /// copy-ledger-free; used to prove two runs produced byte-identical
    /// checkpoints.
    pub fn image_digest(&self) -> u64 {
        use amrio_simt::digest::{fnv1a, FNV_OFFSET};
        let mut h: u64 = FNV_OFFSET;
        let mut mix = |bytes: &[u8]| h = fnv1a(h, bytes);
        let mut names: Vec<(&String, &FileId)> = self.names.iter().collect();
        names.sort();
        for (path, id) in names {
            let len = self.files[*id].store.len();
            mix(path.as_bytes());
            mix(&[0]);
            mix(&len.to_le_bytes());
            let mut off = 0u64;
            while off < len {
                let n = (len - off).min(1 << 20) as usize;
                mix(&self.files[*id].store.read_vec(off, n));
                off += n as u64;
            }
        }
        h
    }

    /// FNV-1a digest of one file: its length followed by its full
    /// contents (see [`ExtentStore::digest`]). Cost-free and
    /// copy-ledger-free; the checkpoint manifest stores this per file so
    /// recovery can tell a committed generation from a torn one.
    pub fn file_digest(&self, f: FileId) -> u64 {
        self.files[f].store.digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrio_net::NetConfig;

    fn striped(nservers: usize, stripe: u64) -> (Pfs, Net) {
        let fs = Pfs::new(FsConfig {
            label: "test".into(),
            stripe,
            nservers,
            disk: DiskParams::new(100, 5, 50.0),
            server_endpoints: None,
            placement: Placement::Striped,
            lock_block: None,
            token_cost: SimDur::ZERO,
            client_queue_cost: None,
            single_stream_bw: None,
        });
        (fs, Net::new(NetConfig::ccnuma(4)))
    }

    #[test]
    fn data_roundtrips() {
        let (mut fs, mut net) = striped(4, 1024);
        let (f, t) = fs.create(0, &mut net, "a", SimTime::ZERO);
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 256) as u8).collect();
        let t = fs.write_at(0, &mut net, f, 123, &data, t);
        let (_, got) = fs.read_at(1, &mut net, f, 123, data.len() as u64, t);
        assert_eq!(got, data);
        assert_eq!(fs.file_size(f), 123 + 10_000);
    }

    #[test]
    fn striping_coalesces_contiguous_ranges() {
        let (fs, _) = striped(4, 1024);
        // 16 KiB from offset 0 over 4 servers: exactly one piece per server.
        let pieces = fs.map_pieces(0, 0, 0, 16 * 1024);
        assert_eq!(pieces.len(), 4);
        for p in &pieces {
            assert_eq!(p.len, 4 * 1024);
        }
        let servers: Vec<usize> = pieces.iter().map(|p| p.server).collect();
        assert_eq!(servers, vec![0, 1, 2, 3]);
    }

    #[test]
    fn small_unaligned_request_touches_few_servers() {
        let (fs, _) = striped(4, 1024);
        let pieces = fs.map_pieces(0, 0, 1000, 100);
        assert_eq!(pieces.len(), 2); // crosses one stripe boundary
        assert_eq!(pieces[0].server, 0);
        assert_eq!(pieces[1].server, 1);
    }

    #[test]
    fn device_offsets_are_round_robin() {
        let (fs, _) = striped(2, 100);
        // file blocks 0,1,2,3 -> (s0,b0),(s1,b0),(s0,b1),(s1,b1)
        let p = fs.map_pieces(0, 0, 250, 10);
        assert_eq!(
            p,
            vec![Piece {
                server: 0,
                dev_off: 150,
                len: 10,
                file_off: 250
            }]
        );
    }

    #[test]
    fn big_write_is_parallel_across_servers() {
        // Time for an 8 MB write over 4 servers must be ~1/4 of over 1.
        let (mut fs4, mut net) = striped(4, 64 * 1024);
        let (mut fs1, _) = striped(1, 64 * 1024);
        let data = vec![7u8; 8 << 20];
        let (f4, t0) = fs4.create(0, &mut net, "a", SimTime::ZERO);
        let t4 = fs4.write_at(0, &mut net, f4, 0, &data, t0).as_secs_f64();
        let (f1, t0) = fs1.create(0, &mut net, "a", SimTime::ZERO);
        let t1 = fs1.write_at(0, &mut net, f1, 0, &data, t0).as_secs_f64();
        assert!(t4 < t1 / 3.0, "t4={t4} t1={t1}");
    }

    #[test]
    fn token_false_sharing_serializes_writers() {
        let mk = |lock: bool| {
            Pfs::new(FsConfig {
                label: "gpfs".into(),
                stripe: 1024,
                nservers: 1,
                disk: DiskParams::new(10, 0, 1000.0),
                server_endpoints: None,
                placement: Placement::Striped,
                lock_block: lock.then_some(1024),
                token_cost: SimDur::from_millis(5),
                client_queue_cost: None,
                single_stream_bw: None,
            })
        };
        let mut net = Net::new(NetConfig::ccnuma(4));
        // Two clients write into the same 1 KiB lock block.
        let run = |fs: &mut Pfs, net: &mut Net| {
            let (f, t0) = fs.create(0, net, "a", SimTime::ZERO);
            let t1 = fs.write_at(0, net, f, 0, &[1u8; 512], t0);
            fs.write_at(1, net, f, 512, &[2u8; 512], t1)
        };
        let mut locked = mk(true);
        let mut unlocked = mk(false);
        let tl = run(&mut locked, &mut net);
        let tu = run(&mut unlocked, &mut net);
        assert!(tl > tu + SimDur::from_millis(4));
        assert_eq!(locked.stats.token_steals, 1);
    }

    #[test]
    fn client_queue_serializes_same_node_requests() {
        let mut fs = Pfs::new(FsConfig {
            label: "sp".into(),
            stripe: 1 << 20,
            nservers: 1,
            disk: DiskParams::new(10, 0, 10_000.0),
            server_endpoints: None,
            placement: Placement::Striped,
            lock_block: None,
            token_cost: SimDur::ZERO,
            client_queue_cost: Some(SimDur::from_millis(1)),
            single_stream_bw: None,
        });
        // 4 ranks on one SMP node (procs_per_node=4).
        let mut net = Net::new(NetConfig::smp_cluster(4, 4));
        let (f, _) = fs.create(0, &mut net, "a", SimTime::ZERO);
        let mut last = SimTime::ZERO;
        for c in 0..4 {
            last = last.max(fs.write_at(c, &mut net, f, c as u64 * 10, &[0u8; 10], SimTime::ZERO));
        }
        // Four requests through one queue at 1ms each.
        assert!(last >= SimTime::ZERO + SimDur::from_millis(4));
    }

    #[test]
    fn client_local_placement_uses_own_disk() {
        let mut fs = Pfs::new(FsConfig {
            label: "local".into(),
            stripe: 64 * 1024,
            nservers: 4,
            disk: DiskParams::new(100, 5, 20.0),
            server_endpoints: None,
            placement: Placement::ClientLocal,
            lock_block: None,
            token_cost: SimDur::ZERO,
            client_queue_cost: None,
            single_stream_bw: None,
        });
        let mut net = Net::new(NetConfig::fast_ethernet(4));
        let (f, _) = fs.create(0, &mut net, "a", SimTime::ZERO);
        let data = vec![1u8; 1 << 20];
        // All four clients write concurrently to their own disks: the
        // makespan equals one client's time, not four.
        let mut times = Vec::new();
        for c in 0..4 {
            times.push(fs.write_at(c, &mut net, f, (c as u64) << 20, &data, SimTime::ZERO));
        }
        let spread =
            times.iter().max().unwrap().as_secs_f64() - times.iter().min().unwrap().as_secs_f64();
        assert!(spread < 1e-9, "local disks must not contend: {times:?}");
    }

    #[test]
    fn networked_servers_charge_transfer() {
        let eps = vec![8, 9]; // servers on dedicated nodes
        let mut fs = Pfs::new(FsConfig {
            label: "pvfs".into(),
            stripe: 64 * 1024,
            nservers: 2,
            disk: DiskParams::new(100, 5, 1000.0),
            server_endpoints: Some(eps),
            placement: Placement::Striped,
            lock_block: None,
            token_cost: SimDur::ZERO,
            client_queue_cost: None,
            single_stream_bw: None,
        });
        let mut net = Net::new(NetConfig::fast_ethernet(8).with_extra_endpoints(&[8, 9]));
        let (f, t0) = fs.create(0, &mut net, "a", SimTime::ZERO);
        let data = vec![1u8; 1 << 20];
        let done = fs.write_at(0, &mut net, f, 0, &data, t0);
        // 1 MB through an 11.5 MB/s NIC: at least ~87 ms.
        assert!(done.as_secs_f64() > 0.085, "{done:?}");
    }

    #[test]
    fn read_of_hole_returns_zeros_within_size() {
        let (mut fs, mut net) = striped(2, 1024);
        let (f, t0) = fs.create(0, &mut net, "a", SimTime::ZERO);
        fs.write_at(0, &mut net, f, 10_000, b"x", t0);
        let (_, data) = fs.read_at(0, &mut net, f, 0, 4, SimTime::ZERO);
        assert_eq!(data, vec![0; 4]);
    }

    #[test]
    fn stats_accumulate() {
        let (mut fs, mut net) = striped(2, 1024);
        let (f, t0) = fs.create(0, &mut net, "a", SimTime::ZERO);
        fs.write_at(0, &mut net, f, 0, &[1u8; 4096], t0);
        fs.read_at(0, &mut net, f, 0, 4096, SimTime::ZERO);
        assert_eq!(fs.stats.writes, 1);
        assert_eq!(fs.stats.reads, 1);
        assert_eq!(fs.stats.bytes_written, 4096);
        assert_eq!(fs.stats.bytes_read, 4096);
        assert_eq!(fs.stats.meta_ops, 1);
        // 4 KiB over 2 servers at 1 KiB stripes coalesces to 2+2... within
        // one request per server per contiguous run: exactly 2 per op.
        assert_eq!(fs.stats.server_requests, 4);
    }

    #[test]
    #[should_panic(expected = "missing file")]
    fn open_missing_panics() {
        let (mut fs, mut net) = striped(2, 1024);
        fs.open(0, &mut net, "nope", SimTime::ZERO);
    }

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// Seeded property test: a vectored write followed by a vectored
    /// read is indistinguishable — in stored bytes, virtual time, and
    /// trace shape — from the scalar ops on the concatenated buffer.
    #[test]
    fn gather_scatter_equivalent_to_scalar() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        for _round in 0..25 {
            let nparts = 1 + (xorshift(&mut seed) % 8) as usize;
            let off = xorshift(&mut seed) % 200_000;
            let parts: Vec<Vec<u8>> = (0..nparts)
                .map(|_| {
                    let len = (xorshift(&mut seed) % 5000) as usize;
                    (0..len).map(|_| xorshift(&mut seed) as u8).collect()
                })
                .collect();
            let flat: Vec<u8> = parts.concat();

            let (mut fs_g, mut net_g) = striped(4, 1024);
            let (mut fs_s, mut net_s) = striped(4, 1024);
            let (fg, tg0) = fs_g.create(0, &mut net_g, "a", SimTime::ZERO);
            let (fsc, ts0) = fs_s.create(0, &mut net_s, "a", SimTime::ZERO);

            let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
            let mut op = IoOp::WriteGather { off, parts: &refs };
            let tg = fs_g.submit(0, &mut net_g, fg, &mut op, tg0).unwrap().done;
            let ts = fs_s.write_at(0, &mut net_s, fsc, off, &flat, ts0);
            assert_eq!(tg, ts, "vectored write must be priced as one scalar op");
            assert_eq!(fs_g.image_digest(), fs_s.image_digest());
            assert_eq!(fs_g.file_size(fg), fs_s.file_size(fsc));

            let mut bufs: Vec<Vec<u8>> = parts.iter().map(|p| vec![0u8; p.len()]).collect();
            {
                let mut mrefs: Vec<&mut [u8]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
                let mut op = IoOp::ReadScatter {
                    off,
                    parts: &mut mrefs,
                };
                let tr = fs_g.submit(0, &mut net_g, fg, &mut op, tg).unwrap().done;
                let (tr_s, got) = fs_s.read_at(0, &mut net_s, fsc, off, flat.len() as u64, ts);
                assert_eq!(tr, tr_s, "vectored read must be priced as one scalar op");
                assert_eq!(got, flat);
            }
            assert_eq!(bufs.concat(), flat);
            assert_eq!(fs_g.stats.bytes_written, fs_s.stats.bytes_written);
            assert_eq!(fs_g.stats.bytes_read, fs_s.stats.bytes_read);
            assert_eq!(fs_g.stats.writes, fs_s.stats.writes);
            assert_eq!(fs_g.stats.reads, fs_s.stats.reads);
            assert_eq!(fs_g.stats.server_requests, fs_s.stats.server_requests);
        }
    }

    #[test]
    fn gather_traces_one_event_of_total_length() {
        let (mut fs, mut net) = striped(2, 1024);
        fs.trace.enable();
        let (f, t0) = fs.create(0, &mut net, "a", SimTime::ZERO);
        let parts: [&[u8]; 2] = [&[1u8; 100], &[2u8; 50]];
        let mut op = IoOp::WriteGather {
            off: 64,
            parts: &parts,
        };
        fs.submit(0, &mut net, f, &mut op, t0).unwrap();
        let w: Vec<_> = fs
            .trace
            .events
            .iter()
            .filter(|e| e.write && e.len > 0)
            .collect();
        assert_eq!(w.len(), 1, "one gathered request, one trace event");
        assert_eq!((w[0].offset, w[0].len), (64, 150));
    }
}

#[cfg(test)]
mod stream_tests {
    use super::*;
    use crate::dev::DiskParams;
    use amrio_net::NetConfig;

    fn capped(bw: Option<f64>) -> Pfs {
        Pfs::new(FsConfig {
            label: "cap".into(),
            stripe: 256 * 1024,
            nservers: 4,
            disk: DiskParams::new(10, 0, 50.0),
            server_endpoints: None,
            placement: Placement::Striped,
            lock_block: None,
            token_cost: SimDur::ZERO,
            client_queue_cost: None,
            single_stream_bw: bw,
        })
    }

    #[test]
    fn single_stream_cap_limits_one_client() {
        let mut net = Net::new(NetConfig::ccnuma(4));
        let data = vec![0u8; 8 << 20];
        // Uncapped: 8 MB over 4x50 MB/s ~ 0.04 s.
        let mut fs = capped(None);
        let (f, t0) = fs.create(0, &mut net, "a", SimTime::ZERO);
        let free = fs.write_at(0, &mut net, f, 0, &data, t0);
        // Capped at 10 MB/s: ~0.8 s.
        let mut fs = capped(Some(10.0e6));
        let (f, t0) = fs.create(0, &mut net, "a", SimTime::ZERO);
        let capped_t = fs.write_at(0, &mut net, f, 0, &data, t0);
        assert!(capped_t.as_secs_f64() > 0.7, "{capped_t:?}");
        assert!(free.as_secs_f64() < 0.3, "{free:?}");
    }

    #[test]
    fn stream_cap_does_not_serialize_distinct_clients() {
        let mut net = Net::new(NetConfig::ccnuma(4));
        let data = vec![0u8; 4 << 20];
        let mut fs = capped(Some(10.0e6));
        let (f, _) = fs.create(0, &mut net, "a", SimTime::ZERO);
        let t1 = fs.write_at(0, &mut net, f, 0, &data, SimTime::ZERO);
        let t2 = fs.write_at(1, &mut net, f, 8 << 20, &data, SimTime::ZERO);
        // Client 1 is not delayed by client 0's stream window (only by
        // shared disks, which are fast here).
        assert!((t2.as_secs_f64() - t1.as_secs_f64()).abs() < 0.2);
    }

    #[test]
    fn file_stagger_spreads_small_files() {
        let fs = capped(None);
        // Small files starting in block 0 land on different servers
        // because placement is staggered by file id.
        let s0 = fs.map_pieces(0, 0, 0, 100)[0].server;
        let s1 = fs.map_pieces(0, 1, 0, 100)[0].server;
        let s2 = fs.map_pieces(0, 2, 0, 100)[0].server;
        assert_ne!(s0, s1);
        assert_ne!(s1, s2);
    }

    #[test]
    fn write_seek_cheaper_than_read_seek() {
        let params = DiskParams::new(0, 8, 1000.0);
        let mut wdev = crate::dev::BlockDev::new(params);
        let mut rdev = crate::dev::BlockDev::new(params);
        let w = wdev.access(0, 10, SimTime::ZERO, true);
        let r = rdev.access(0, 10, SimTime::ZERO, false);
        assert!(w.as_secs_f64() < r.as_secs_f64() / 4.0);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use amrio_fault::window_secs;
    use amrio_net::NetConfig;

    fn striped(nservers: usize) -> (Pfs, Net) {
        let fs = Pfs::new(FsConfig {
            label: "test".into(),
            stripe: 1024,
            nservers,
            disk: DiskParams::new(100, 5, 50.0),
            server_endpoints: None,
            placement: Placement::Striped,
            lock_block: None,
            token_cost: SimDur::ZERO,
            client_queue_cost: None,
            single_stream_bw: None,
        });
        (fs, Net::new(NetConfig::ccnuma(4)))
    }

    #[test]
    fn empty_plan_changes_nothing() {
        let data: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
        let run = |plan: Option<FaultPlan>| {
            let (mut fs, mut net) = striped(4);
            if let Some(p) = plan {
                fs.attach_faults(Arc::new(p));
            }
            let (f, t0) = fs.create(0, &mut net, "a", SimTime::ZERO);
            let t = fs.write_at(0, &mut net, f, 7, &data, t0);
            let (t, got) = fs.read_at(1, &mut net, f, 7, data.len() as u64, t);
            assert_eq!(got, data);
            (t, fs.image_digest(), fs.stats)
        };
        let (t_none, d_none, s_none) = run(None);
        let (t_empty, d_empty, s_empty) = run(Some(FaultPlan::new()));
        assert_eq!(t_none, t_empty, "empty plan must not perturb timing");
        assert_eq!(d_none, d_empty);
        assert_eq!(s_none.server_requests, s_empty.server_requests);
    }

    #[test]
    fn transient_error_charges_time_but_no_side_effects() {
        let (mut fs, mut net) = striped(4);
        fs.attach_faults(Arc::new(FaultPlan::new().with_transient_errors(
            0,
            window_secs(0.0, 10.0),
            1,
        )));
        fs.trace.enable();
        let (f, t0) = fs.create(0, &mut net, "a", SimTime::ZERO);
        let mut op = IoOp::Write {
            off: 0,
            data: &[1u8; 4096],
        };
        let err = fs.submit(0, &mut net, f, &mut op, t0).unwrap_err();
        assert!(matches!(err, IoError::Transient { server: 0, .. }));
        assert!(err.at() > t0, "failure observation must cost time");
        assert_eq!(fs.stats.writes, 0, "failed attempt must not count");
        assert_eq!(fs.stats.bytes_written, 0);
        assert!(fs.trace.events.is_empty(), "failed attempt must not trace");
        assert_eq!(fs.file_size(f), 0, "failed attempt must not land bytes");
        // Budget spent: the retry succeeds.
        let done = fs.submit(0, &mut net, f, &mut op, err.at()).unwrap();
        assert_eq!(fs.stats.writes, 1);
        assert_eq!(fs.file_size(f), 4096);
        assert_eq!(fs.trace.events.len(), 1);
        assert!(done.done > err.at());
    }

    #[test]
    fn degrade_remaps_and_data_survives() {
        let (mut fs, mut net) = striped(4);
        fs.attach_faults(Arc::new(FaultPlan::new()));
        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 253) as u8).collect();
        let (f, t0) = fs.create(0, &mut net, "a", SimTime::ZERO);
        let t = fs.write_at(0, &mut net, f, 0, &data, t0);
        assert!(fs
            .map_pieces(0, f, 0, data.len() as u64)
            .iter()
            .any(|p| p.server == 2));
        assert!(fs.degrade_server(2, t));
        assert!(!fs.degrade_server(2, t), "second degrade is a no-op");
        assert_eq!(fs.alive_servers(), 3);
        assert!(fs.is_degraded(2));
        assert!(
            fs.map_pieces(0, f, 0, data.len() as u64)
                .iter()
                .all(|p| p.server != 2),
            "survivors absorb the extents"
        );
        let (_, got) = fs.read_at(1, &mut net, f, 0, data.len() as u64, t);
        assert_eq!(got, data, "contents are placement-independent");
        let plan = fs.faults().unwrap();
        let r = plan.report(t + SimDur::from_millis(10));
        assert_eq!(r.failovers, 1);
        assert_eq!(r.degraded_servers, 1);
        assert!(r.degraded_mode_secs > 0.0);
    }

    #[test]
    fn failed_server_rejects_until_degraded() {
        let (mut fs, mut net) = striped(2);
        fs.attach_faults(Arc::new(
            FaultPlan::new().with_server_failure(1, SimTime(1000)),
        ));
        let (f, _) = fs.create(0, &mut net, "a", SimTime::ZERO);
        let mut op = IoOp::Write {
            off: 0,
            data: &[1u8; 4096],
        };
        // Before the failure instant the write succeeds.
        fs.submit(0, &mut net, f, &mut op, SimTime(0)).unwrap();
        // After it, any op touching server 1 gets ServerDown.
        let err = fs
            .submit(0, &mut net, f, &mut op, SimTime(2000))
            .unwrap_err();
        assert!(matches!(err, IoError::ServerDown { server: 1, .. }));
        // Failover: drop it from the stripe map; the retry succeeds.
        assert!(fs.degrade_server(1, err.at()));
        fs.submit(0, &mut net, f, &mut op, err.at()).unwrap();
    }

    #[test]
    fn slowdown_and_stall_stretch_service() {
        let base = {
            let (mut fs, mut net) = striped(1);
            let (f, t0) = fs.create(0, &mut net, "a", SimTime::ZERO);
            fs.write_at(0, &mut net, f, 0, &[1u8; 1 << 20], t0)
        };
        let slowed = {
            let (mut fs, mut net) = striped(1);
            fs.attach_faults(Arc::new(FaultPlan::new().with_server_slowdown(
                0,
                window_secs(0.0, 100.0),
                3.0,
            )));
            let (f, t0) = fs.create(0, &mut net, "a", SimTime::ZERO);
            fs.write_at(0, &mut net, f, 0, &[1u8; 1 << 20], t0)
        };
        let stalled = {
            let (mut fs, mut net) = striped(1);
            fs.attach_faults(Arc::new(
                FaultPlan::new().with_server_stall(0, window_secs(0.0, 0.5)),
            ));
            let (f, t0) = fs.create(0, &mut net, "a", SimTime::ZERO);
            fs.write_at(0, &mut net, f, 0, &[1u8; 1 << 20], t0)
        };
        assert!(
            slowed.as_secs_f64() > 2.0 * base.as_secs_f64(),
            "slowdown x3: {slowed:?} vs {base:?}"
        );
        assert!(
            stalled >= SimTime::ZERO + SimDur::from_millis(500),
            "stalled request must wait out the window: {stalled:?}"
        );
    }

    #[test]
    #[should_panic(expected = "unhandled I/O fault")]
    fn legacy_wrapper_panics_on_fault() {
        let (mut fs, mut net) = striped(2);
        fs.attach_faults(Arc::new(FaultPlan::new().with_transient_errors(
            0,
            window_secs(0.0, 10.0),
            10,
        )));
        let (f, t0) = fs.create(0, &mut net, "a", SimTime::ZERO);
        fs.write_at(0, &mut net, f, 0, &[1u8; 4096], t0);
    }
}

#[cfg(test)]
mod crash_tests {
    use super::*;
    use amrio_fault::Crashed;
    use amrio_net::NetConfig;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn striped(nservers: usize) -> (Pfs, Net) {
        let fs = Pfs::new(FsConfig {
            label: "test".into(),
            stripe: 1024,
            nservers,
            disk: DiskParams::new(100, 5, 50.0),
            server_endpoints: None,
            placement: Placement::Striped,
            lock_block: None,
            token_cost: SimDur::ZERO,
            client_queue_cost: None,
            single_stream_bw: None,
        });
        (fs, Net::new(NetConfig::ccnuma(4)))
    }

    /// Striped over networked servers: piece sends serialize through the
    /// client NIC, so per-piece disk completions spread out in time and a
    /// mid-write crash genuinely tears the request.
    fn networked() -> (Pfs, Net) {
        let eps = vec![8, 9, 10, 11];
        let fs = Pfs::new(FsConfig {
            label: "pvfs".into(),
            stripe: 1024,
            nservers: 4,
            disk: DiskParams::new(100, 5, 50.0),
            server_endpoints: Some(eps),
            placement: Placement::Striped,
            lock_block: None,
            token_cost: SimDur::ZERO,
            client_queue_cost: None,
            single_stream_bw: None,
        });
        (
            fs,
            Net::new(NetConfig::fast_ethernet(8).with_extra_endpoints(&[8, 9, 10, 11])),
        )
    }

    fn crash_of(payload: Box<dyn std::any::Any + Send>) -> Crashed {
        *payload
            .downcast::<Crashed>()
            .expect("panic payload must be Crashed")
    }

    #[test]
    fn crash_before_submission_has_no_side_effects() {
        amrio_fault::silence_crash_panics();
        let (mut fs, mut net) = striped(4);
        let (f, t0) = fs.create(0, &mut net, "a", SimTime::ZERO);
        fs.attach_faults(Arc::new(FaultPlan::new().with_crash(t0)));
        fs.trace.enable();
        let mut op = IoOp::Write {
            off: 0,
            data: &[1u8; 4096],
        };
        let c = crash_of(
            catch_unwind(AssertUnwindSafe(|| {
                let _ = fs.submit(0, &mut net, f, &mut op, t0 + SimDur::from_millis(1));
            }))
            .unwrap_err(),
        );
        assert_eq!(c.at, t0);
        assert_eq!(fs.stats.writes, 0, "no pricing before the crash check");
        assert_eq!(fs.file_size(f), 0);
        assert!(fs.trace.events.is_empty());
    }

    #[test]
    fn mid_write_crash_tears_at_extent_granularity() {
        amrio_fault::silence_crash_panics();
        // Find the clean completion time of a large striped write, then
        // crash strictly inside it. Data bytes are nonzero so surviving
        // bytes never alias with holes.
        let data: Vec<u8> = (0..64 * 1024u32).map(|i| 1 + (i % 241) as u8).collect();
        let clean_done = {
            let (mut fs, mut net) = networked();
            let (f, t0) = fs.create(0, &mut net, "a", SimTime::ZERO);
            fs.write_at(0, &mut net, f, 0, &data, t0)
        };
        let (mut fs, mut net) = networked();
        let (f, t0) = fs.create(0, &mut net, "a", SimTime::ZERO);
        let tc = SimTime(t0.0 + (clean_done.0 - t0.0) / 2);
        fs.attach_faults(Arc::new(FaultPlan::new().with_crash(tc)));
        let mut op = IoOp::Write {
            off: 0,
            data: &data,
        };
        let c = crash_of(
            catch_unwind(AssertUnwindSafe(|| {
                let _ = fs.submit(0, &mut net, f, &mut op, t0);
            }))
            .unwrap_err(),
        );
        assert_eq!(c.at, tc);
        // Some extents survived, and every surviving byte is correct;
        // the rest of the range still reads as holes (zeros).
        let got = fs.peek(f, 0, data.len());
        let survived: usize = (0..data.len()).filter(|&i| got[i] == data[i]).count();
        let lost = got.iter().filter(|&&b| b == 0).count();
        assert!(survived > 0, "a mid-write crash should persist something");
        assert!(lost > 0, "a mid-write crash should lose something");
        for (i, &b) in got.iter().enumerate() {
            assert!(
                b == data[i] || b == 0,
                "byte {i} is neither written nor hole"
            );
        }
        // The cut is at stripe granularity: surviving bytes form whole
        // 1 KiB stripe fragments.
        for frag in 0..data.len() / 1024 {
            let s = frag * 1024;
            let whole = (s..s + 1024).all(|i| got[i] == data[i]);
            let hole = (s..s + 1024).all(|i| got[i] == 0);
            assert!(whole || hole, "fragment {frag} is torn inside a stripe");
        }
    }

    #[test]
    fn torn_writes_are_deterministic() {
        amrio_fault::silence_crash_panics();
        let data: Vec<u8> = (0..100_000u32).map(|i| 1 + (i % 239) as u8).collect();
        let clean_done = {
            let (mut fs, mut net) = networked();
            let (f, t0) = fs.create(0, &mut net, "crash", SimTime::ZERO);
            fs.write_at(0, &mut net, f, 0, &data, t0)
        };
        let run = |tc: SimTime| {
            let (mut fs, mut net) = networked();
            let (f, t0) = fs.create(0, &mut net, "crash", SimTime::ZERO);
            fs.attach_faults(Arc::new(FaultPlan::new().with_crash(tc)));
            let mut op = IoOp::Write {
                off: 0,
                data: &data,
            };
            let c = crash_of(
                catch_unwind(AssertUnwindSafe(|| {
                    let _ = fs.submit(0, &mut net, f, &mut op, t0);
                }))
                .unwrap_err(),
            );
            (c.at, fs.image_digest())
        };
        let tc = SimTime(clean_done.0 / 3);
        let (a1, d1) = run(tc);
        let (a2, d2) = run(tc);
        assert_eq!(a1, a2);
        assert_eq!(d1, d2, "same crash instant, bit-identical torn image");
        let (_, d3) = run(SimTime(clean_done.0 * 2 / 3));
        assert_ne!(d1, d3, "a later crash persists more");
    }

    #[test]
    fn read_crossing_crash_returns_nothing() {
        amrio_fault::silence_crash_panics();
        let (mut fs, mut net) = striped(4);
        let (f, t0) = fs.create(0, &mut net, "a", SimTime::ZERO);
        let data = vec![7u8; 32 * 1024];
        let t1 = fs.write_at(0, &mut net, f, 0, &data, t0);
        fs.attach_faults(Arc::new(
            FaultPlan::new().with_crash(t1 + SimDur::from_nanos(1)),
        ));
        fs.trace.enable();
        let reads_before = fs.stats.reads;
        let mut op = IoOp::Read {
            off: 0,
            len: data.len() as u64,
        };
        let payload = catch_unwind(AssertUnwindSafe(|| {
            let _ = fs.submit(0, &mut net, f, &mut op, t1);
        }))
        .unwrap_err();
        let _ = crash_of(payload);
        assert_eq!(fs.stats.reads, reads_before + 1, "request was issued");
        assert!(fs.trace.events.is_empty(), "but never completed");
    }

    #[test]
    fn file_digest_distinguishes_files() {
        let (mut fs, mut net) = striped(2);
        let (a, t0) = fs.create(0, &mut net, "a", SimTime::ZERO);
        let (b, t1) = fs.create(0, &mut net, "b", t0);
        assert_eq!(fs.file_digest(a), fs.file_digest(b), "both empty");
        let t2 = fs.write_at(0, &mut net, a, 0, b"same", t1);
        fs.write_at(0, &mut net, b, 0, b"same", t2);
        assert_eq!(fs.file_digest(a), fs.file_digest(b));
        fs.write_at(0, &mut net, b, 4, b"!", t2);
        assert_ne!(fs.file_digest(a), fs.file_digest(b));
    }

    #[test]
    fn clear_faults_disarms_the_crash() {
        amrio_fault::silence_crash_panics();
        let (mut fs, mut net) = striped(2);
        let (f, t0) = fs.create(0, &mut net, "a", SimTime::ZERO);
        fs.attach_faults(Arc::new(FaultPlan::new().with_crash(SimTime::ZERO)));
        fs.clear_faults();
        assert!(fs.faults().is_none());
        fs.write_at(0, &mut net, f, 0, &[1u8; 128], t0);
        assert_eq!(fs.file_size(f), 128);
    }
}

#[cfg(test)]
mod app_striping_tests {
    use super::*;
    use crate::dev::DiskParams;
    use amrio_net::NetConfig;

    fn gpfs_like() -> Pfs {
        Pfs::new(FsConfig {
            label: "gpfs".into(),
            stripe: 512 * 1024,
            nservers: 4,
            disk: DiskParams::new(100, 2, 50.0),
            server_endpoints: None,
            placement: Placement::Striped,
            lock_block: Some(512 * 1024),
            token_cost: SimDur::from_millis(1),
            client_queue_cost: None,
            single_stream_bw: None,
        })
    }

    #[test]
    fn override_changes_piece_mapping() {
        let mut fs = gpfs_like();
        let mut net = Net::new(NetConfig::ccnuma(4));
        let (f, _) = fs.create(0, &mut net, "a", SimTime::ZERO);
        assert_eq!(fs.stripe_of(f), 512 * 1024);
        // Default: a 64 KiB chunk at offset 0 fits in one huge stripe.
        let before = fs.map_pieces(0, f, 0, 256 * 1024);
        assert_eq!(before.len(), 1);
        fs.set_file_striping(f, 64 * 1024);
        let after = fs.map_pieces(0, f, 0, 256 * 1024);
        assert_eq!(after.len(), 4, "fine stripes spread over all servers");
        assert_eq!(fs.stripe_of(f), 64 * 1024);
    }

    #[test]
    fn app_striping_eliminates_token_false_sharing() {
        // Two writers interleave 64 KiB chunks. With 512 KiB lock blocks
        // they fight for tokens; with app-aligned 64 KiB stripes each
        // chunk owns its block.
        let run = |aligned: bool| {
            let mut fs = gpfs_like();
            let mut net = Net::new(NetConfig::ccnuma(4));
            let (f, t0) = fs.create(0, &mut net, "a", SimTime::ZERO);
            if aligned {
                fs.set_file_striping(f, 64 * 1024);
            }
            let mut done = t0;
            for k in 0..8u64 {
                for client in 0..2usize {
                    let off = (k * 2 + client as u64) * 64 * 1024;
                    done = done.max(fs.write_at(client, &mut net, f, off, &[1u8; 64 * 1024], t0));
                }
            }
            (done, fs.stats.token_steals)
        };
        let (t_default, steals_default) = run(false);
        let (t_aligned, steals_aligned) = run(true);
        assert!(steals_default > 0);
        assert_eq!(steals_aligned, 0, "aligned stripes: no shared blocks");
        assert!(t_aligned < t_default, "{t_aligned:?} vs {t_default:?}");
    }

    #[test]
    fn data_still_roundtrips_with_override() {
        let mut fs = gpfs_like();
        let mut net = Net::new(NetConfig::ccnuma(4));
        let (f, t0) = fs.create(0, &mut net, "a", SimTime::ZERO);
        fs.set_file_striping(f, 4096);
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let t = fs.write_at(0, &mut net, f, 777, &data, t0);
        let (_, got) = fs.read_at(1, &mut net, f, 777, data.len() as u64, t);
        assert_eq!(got, data);
    }
}
