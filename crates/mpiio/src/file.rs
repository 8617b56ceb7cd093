//! File handles, hints, independent I/O and data sieving (the ROMIO
//! optimizations of Thakur/Gropp/Lusk 1999 that the paper builds on).

use crate::datatype::{buffer_positions, sieve_windows, window_runs, Datatype, Region};
use crate::retry::Requests;
use amrio_disk::{FaultPlan, FileId, FsConfig, Pfs, RetryPolicy};
use amrio_mpi::Comm;
use amrio_simt::sync::Mutex;
use amrio_simt::SimDur;
use std::cell::RefCell;
use std::sync::Arc;

/// CPU cost charged per noncontiguous region processed (offset-list
/// handling in the I/O library).
pub(crate) const PER_REGION_CPU: SimDur = SimDur(120);

/// Time charged for installing an application stripe (50 µs, one
/// metadata-ish request), at create under an advisory or through
/// [`MpiFile::set_app_striping`].
const STRIPING_COST: SimDur = SimDur(50_000);

/// ROMIO-style tuning hints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hints {
    /// Number of collective-I/O aggregators (`cb_nodes`); `None` = all
    /// ranks aggregate.
    pub cb_nodes: Option<usize>,
    /// Aggregator chunk size per file system request (`cb_buffer_size`).
    pub cb_buffer_size: u64,
    /// Enable data sieving for noncontiguous independent reads.
    pub ds_read: bool,
    /// Enable read-modify-write data sieving for noncontiguous
    /// independent writes.
    pub ds_write: bool,
    /// Sieve buffer size (`ind_rd_buffer_size`).
    pub sieve_buffer_size: u64,
    /// Align collective file domains to the file system stripe.
    pub align_file_domains: bool,
    /// Use collective buffering for view writes (`romio_cb_write`);
    /// when false, `write_all_view` degrades to independent per-rank
    /// writes of the view regions (no collectives at all).
    pub cb_write: bool,
    /// Use collective buffering for view reads (`romio_cb_read`).
    pub cb_read: bool,
}

impl Default for Hints {
    fn default() -> Hints {
        Hints {
            cb_nodes: None,
            cb_buffer_size: 4 << 20,
            ds_read: true,
            ds_write: false,
            sieve_buffer_size: 512 << 10,
            align_file_domains: true,
            cb_write: true,
            cb_read: true,
        }
    }
}

/// A tuned I/O configuration, typically derived statically by
/// `amrio-tune`'s cost-model search and installed on an [`MpiIo`]
/// context before a run. Every knob is timing/placement-only: applying
/// an advisory never changes the bytes a strategy writes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Advisory {
    /// Default hints for every file opened through the context.
    pub hints: Option<Hints>,
    /// Enable write-behind staging with this capacity on every opened
    /// file.
    pub write_behind: Option<usize>,
    /// Install this application-specific stripe on every file the
    /// context creates (the paper's §5 flexible-striping interface).
    pub app_stripe: Option<u64>,
}

/// How to open a file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Create,
    Open,
}

/// The MPI-IO context: wraps a simulated parallel file system.
pub struct MpiIo {
    fs: Arc<Mutex<Pfs>>,
    retry: RetryPolicy,
    advisory: Advisory,
}

impl MpiIo {
    pub fn new(cfg: FsConfig) -> MpiIo {
        MpiIo::from_fs(Arc::new(Mutex::new(Pfs::new(cfg))))
    }

    pub fn from_fs(fs: Arc<Mutex<Pfs>>) -> MpiIo {
        MpiIo {
            fs,
            retry: RetryPolicy::default(),
            advisory: Advisory::default(),
        }
    }

    /// Install a tuning advisory: its hints, write-behind capacity and
    /// application stripe become the defaults for every file opened
    /// through this context. Call before any file is opened.
    pub fn set_advisory(&mut self, advisory: Advisory) {
        self.advisory = advisory;
    }

    pub fn advisory(&self) -> Advisory {
        self.advisory
    }

    /// Attach a fault-injection plan to the underlying file system.
    /// Call before any file is opened; requests then consult the plan
    /// and recover per the retry policy.
    pub fn attach_faults(&self, plan: Arc<FaultPlan>) {
        self.fs.lock().attach_faults(plan);
    }

    /// Retry/backoff/failover policy handed to files opened after this
    /// call.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Shared handle to the underlying file system (inspection, reuse by
    /// the serial HDF4 path on the same simulated volume).
    pub fn fs(&self) -> Arc<Mutex<Pfs>> {
        Arc::clone(&self.fs)
    }

    /// Register this volume with a correctness checker: enables I/O
    /// tracing so the checker's conflict analyzer can scan accesses
    /// between sync points. Call before any file is opened.
    pub fn attach_checker(&self, checker: &amrio_check::Checker) {
        checker.watch_fs(Arc::clone(&self.fs));
    }

    /// Collectively open `path`. With [`Mode::Create`], rank 0 creates the
    /// file and everyone else attaches after a barrier (like
    /// `MPI_File_open` with `MPI_MODE_CREATE`).
    pub fn open<'c, 'w>(&self, comm: &'c Comm<'w>, path: &str, mode: Mode) -> MpiFile<'c, 'w> {
        match mode {
            Mode::Create => {
                let created = (comm.rank() == 0).then(|| self.open_single(comm, path, mode));
                comm.barrier();
                created.unwrap_or_else(|| self.open_single(comm, path, Mode::Open))
            }
            Mode::Open => self.open_single(comm, path, mode),
        }
    }

    /// Open independently from a single rank (no collective semantics) —
    /// what a sequential library (HDF4) running on processor 0 does.
    /// The handle takes the advisory's hints and write-behind capacity;
    /// a created file also takes its application stripe.
    pub fn open_single<'c, 'w>(
        &self,
        comm: &'c Comm<'w>,
        path: &str,
        mode: Mode,
    ) -> MpiFile<'c, 'w> {
        let me = comm.rank();
        let fid = comm.io(|t, net| {
            let mut fs = self.fs.lock();
            let (fid, done) = match mode {
                Mode::Create => fs.create(me, net, path, t),
                Mode::Open => fs.open(me, net, path, t),
            };
            match (mode, self.advisory.app_stripe) {
                (Mode::Create, Some(s)) => {
                    fs.set_file_striping(fid, s);
                    (done + STRIPING_COST, fid)
                }
                _ => (done, fid),
            }
        });
        let file = MpiFile {
            comm,
            fs: Arc::clone(&self.fs),
            fid,
            hints: self.advisory.hints.unwrap_or_default(),
            retry: self.retry,
            view_disp: 0,
            view_type: None,
            write_behind: RefCell::new(None),
        };
        if let Some(cap) = self.advisory.write_behind {
            file.enable_write_behind(cap);
        }
        file
    }
}

/// An open MPI-IO file handle for one rank.
pub struct MpiFile<'c, 'w> {
    pub(crate) comm: &'c Comm<'w>,
    pub(crate) fs: Arc<Mutex<Pfs>>,
    pub(crate) fid: FileId,
    pub(crate) hints: Hints,
    pub(crate) retry: RetryPolicy,
    view_disp: u64,
    view_type: Option<Datatype>,
    /// Two-stage write-behind buffer for independent writes (the
    /// Liao/Ching/Coloma/Choudhary/Kandemir follow-up optimization):
    /// adjacent `write_at` calls coalesce locally and reach the file
    /// system as one large request.
    write_behind: RefCell<Option<WbBuf>>,
}

struct WbBuf {
    start: u64,
    data: Vec<u8>,
    cap: usize,
}

impl Drop for MpiFile<'_, '_> {
    fn drop(&mut self) {
        // Close semantics: staged writes reach the file system.
        self.flush_write_behind();
    }
}

impl<'c, 'w> MpiFile<'c, 'w> {
    pub fn set_hints(&mut self, hints: Hints) {
        self.hints = hints;
    }

    /// Issue a sequence of file system requests named `what` in one
    /// ordered I/O section: the one path from this handle to the file
    /// system. `f` submits through the [`Requests`] context, which
    /// retries, fails over, and panics with `"<what>: unrecoverable I/O
    /// fault"` once recovery is exhausted.
    pub(crate) fn requests<R>(
        &self,
        what: &'static str,
        f: impl FnOnce(&mut Requests<'_>) -> R,
    ) -> R {
        self.comm.io(|t, net| {
            let mut fs = self.fs.lock();
            let mut rq = Requests {
                fs: &mut fs,
                net,
                client: self.comm.rank(),
                fid: self.fid,
                policy: self.retry,
                what,
                clock: t,
            };
            let r = f(&mut rq);
            (rq.clock, r)
        })
    }

    /// Stripe unit of the underlying file system (for alignment decisions
    /// in layers above, e.g. HDF5 data allocation).
    pub fn fs_stripe(&self) -> u64 {
        self.fs.lock().config().stripe
    }

    /// Install an application-specific stripe unit for this file — the
    /// flexible-striping interface the paper's conclusions ask parallel
    /// file systems to provide. Charges one metadata-ish request.
    pub fn set_app_striping(&self, stripe: u64) {
        self.requests("set striping", |rq| {
            rq.fs.set_file_striping(rq.fid, stripe);
            rq.charge(STRIPING_COST);
        });
    }

    /// Install a file view: `disp` displacement plus a filetype whose
    /// flattened runs (ascending) select where this rank's data lives.
    pub fn set_view(&mut self, disp: u64, filetype: Datatype) {
        self.view_disp = disp;
        self.view_type = Some(filetype);
    }

    /// Absolute file regions selected by the current view.
    /// (View operations flush staged write-behind data first so every
    /// access path observes the same bytes.)
    pub(crate) fn view_regions(&self) -> Vec<Region> {
        self.flush_write_behind();
        let t = self
            .view_type
            .as_ref()
            .expect("view operation requires set_view");
        let regions = t.flatten();
        // Charge the offset-list computation.
        self.comm
            .ctx()
            .advance(SimDur(PER_REGION_CPU.0 * regions.len() as u64));
        regions
            .iter()
            .map(|(o, l)| (o + self.view_disp, *l))
            .collect()
    }

    pub fn size(&self) -> u64 {
        self.fs.lock().file_size(self.fid)
    }

    /// Enable two-stage write-behind buffering of independent writes:
    /// adjacent `write_at` calls accumulate in a local staging buffer (a
    /// cheap memcpy) and hit the file system as one large request when
    /// the buffer fills, a non-adjacent write arrives, a read needs the
    /// data, or the handle drops.
    pub fn enable_write_behind(&self, capacity: usize) {
        assert!(capacity > 0);
        self.flush_write_behind();
        *self.write_behind.borrow_mut() = Some(WbBuf {
            start: 0,
            data: Vec::new(),
            cap: capacity,
        });
    }

    /// Flush any staged write-behind data to the file system.
    pub fn flush_write_behind(&self) {
        let staged = {
            let mut wb = self.write_behind.borrow_mut();
            match wb.as_mut() {
                Some(b) if !b.data.is_empty() => {
                    let start = b.start;
                    Some((start, std::mem::take(&mut b.data)))
                }
                _ => None,
            }
        };
        if let Some((start, data)) = staged {
            self.write_through(start, &data);
        }
    }

    fn write_through(&self, off: u64, data: &[u8]) {
        self.requests("independent write", |rq| rq.write(off, data));
    }

    /// Independent contiguous write at an explicit offset (blocking, or
    /// staged if write-behind is enabled).
    pub fn write_at(&self, off: u64, data: &[u8]) {
        {
            let mut wb = self.write_behind.borrow_mut();
            if let Some(b) = wb.as_mut() {
                let adjacent = b.data.is_empty() || off == b.start + b.data.len() as u64;
                if adjacent && b.data.len() + data.len() <= b.cap {
                    if b.data.is_empty() {
                        b.start = off;
                    }
                    amrio_simt::count_copy(data.len());
                    b.data.extend_from_slice(data);
                    // Staging is a memcpy, not I/O.
                    self.comm
                        .ctx()
                        .advance(SimDur::transfer(data.len() as u64, self.comm.mem_bw()));
                    return;
                }
            }
        }
        self.flush_write_behind();
        let staged = {
            let mut wb = self.write_behind.borrow_mut();
            match wb.as_mut() {
                Some(b) if data.len() <= b.cap => {
                    b.start = off;
                    amrio_simt::count_copy(data.len());
                    b.data.extend_from_slice(data);
                    true
                }
                _ => false,
            }
        };
        if staged {
            self.comm
                .ctx()
                .advance(SimDur::transfer(data.len() as u64, self.comm.mem_bw()));
        } else {
            self.write_through(off, data);
        }
    }

    /// Vectored contiguous write: `parts` land back-to-back starting at
    /// `off`, priced and traced as one file system request of their total
    /// length (like `pwritev`). Callers hand over borrowed slices, so no
    /// staging buffer is assembled. Flushes write-behind first so the
    /// request is ordered after staged data.
    pub fn write_gather_at(&self, off: u64, parts: &[&[u8]]) {
        self.flush_write_behind();
        if parts.iter().all(|p| p.is_empty()) {
            return;
        }
        self.requests("gathered write", |rq| rq.write_gather(off, parts));
    }

    /// Vectored contiguous read: fills `parts` back-to-back from `off`,
    /// priced and traced as one request of their total length (like
    /// `preadv`). Flushes write-behind first so reads observe staged data.
    pub fn read_scatter_at(&self, off: u64, parts: &mut [&mut [u8]]) {
        self.flush_write_behind();
        if parts.iter().all(|p| p.is_empty()) {
            return;
        }
        self.requests("scattered read", |rq| rq.read_scatter(off, parts));
    }

    /// Independent contiguous read at an explicit offset (blocking).
    /// Flushes staged writes first so reads observe them.
    pub fn read_at(&self, off: u64, len: u64) -> Vec<u8> {
        self.flush_write_behind();
        self.requests("independent read", |rq| rq.read(off, len))
    }

    /// Independent write through the view. `buf` supplies exactly the
    /// bytes the view selects, in ascending region order. Noncontiguous
    /// views either pay one request per run or use read-modify-write data
    /// sieving, per hints.
    pub fn write_view(&self, buf: &[u8]) {
        let regions = self.view_regions();
        let total: u64 = regions.iter().map(|(_, l)| l).sum();
        assert_eq!(buf.len() as u64, total, "buffer must match view size");
        if regions.len() <= 1 {
            if let Some(&(off, _)) = regions.first() {
                self.write_at(off, buf);
            }
            return;
        }
        if self.hints.ds_write {
            return self.sieved_write(&regions, buf);
        }
        // One blocking request per run, sliced from the caller's buffer
        // without staging.
        let pos = buffer_positions(&regions);
        self.requests("view write", |rq| {
            for (&(off, len), &p) in regions.iter().zip(&pos) {
                rq.write(off, &buf[p as usize..(p + len) as usize]);
            }
        });
    }

    /// Independent read through the view; returns the selected bytes in
    /// ascending region order. Uses data sieving when enabled.
    pub fn read_view(&self) -> Vec<u8> {
        let regions = self.view_regions();
        let total: u64 = regions.iter().map(|(_, l)| l).sum();
        if regions.len() <= 1 {
            return match regions.first() {
                Some(&(off, len)) => self.read_at(off, len),
                None => Vec::new(),
            };
        }
        if self.hints.ds_read {
            return self.sieved_read(&regions, total);
        }
        self.requests("view read", |rq| {
            let mut out = Vec::with_capacity(total as usize);
            for &(off, len) in &regions {
                let data = rq.read(off, len);
                amrio_simt::count_copy(data.len());
                out.extend_from_slice(&data);
            }
            out
        })
    }

    /// Data sieving read: fetch the hole-spanning extent in large sieve
    /// buffers, then extract the requested runs in memory.
    fn sieved_read(&self, regions: &[Region], total: u64) -> Vec<u8> {
        let pos = buffer_positions(regions);
        let sieve = self.hints.sieve_buffer_size.max(1);
        let mem_bw = self.comm.mem_bw();
        let cpu = SimDur(PER_REGION_CPU.0 * (regions.len().min(64)) as u64 / 8);
        self.requests("sieved read", |rq| {
            let mut out = vec![0u8; total as usize];
            for (win, ri) in sieve_windows(regions, sieve) {
                let data = rq.read(win.0, win.1);
                // Copy intersecting pieces out; charge memcpy.
                let mut copied = 0;
                for (w, b) in window_runs(regions, &pos, win, ri) {
                    copied += b.len();
                    out[b.clone()].copy_from_slice(&data[w..w + b.len()]);
                }
                amrio_simt::count_copy(copied);
                rq.charge(SimDur::transfer(copied as u64, mem_bw) + cpu);
            }
            out
        })
    }

    /// Data sieving write: read-modify-write each sieve window.
    fn sieved_write(&self, regions: &[Region], buf: &[u8]) {
        let pos = buffer_positions(regions);
        let sieve = self.hints.sieve_buffer_size.max(1);
        let mem_bw = self.comm.mem_bw();
        self.requests("sieved write", |rq| {
            for (win, ri) in sieve_windows(regions, sieve) {
                let mut data = rq.read(win.0, win.1);
                let mut copied = 0;
                for (w, b) in window_runs(regions, &pos, win, ri) {
                    copied += b.len();
                    data[w..w + b.len()].copy_from_slice(&buf[b]);
                }
                amrio_simt::count_copy(copied);
                rq.charge(SimDur::transfer(copied as u64, mem_bw));
                rq.write(win.0, &data);
            }
        });
    }
}
