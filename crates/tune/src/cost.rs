//! Static virtual-time prediction for MPI-IO access plans.
//!
//! [`predict`] replays an [`AccessPlan`] through the *production I/O
//! stack* — a fresh [`amrio_mpi::World`] over the platform's network
//! model, a fresh `Pfs` behind a real [`amrio_mpiio::MpiIo`] with the
//! candidate configuration installed as its advisory — without running
//! any of the application. Each rank walks the plan's dataset
//! footprints and issues the same calls the runtime strategy would:
//! collective view writes/reads (`Datatype::Hindexed` views carrying
//! the plan's exact per-rank regions), the particle sort's message
//! pattern, gathered or write-behind-staged subgrid requests, and the
//! metadata writes. Every hint-sensitive code path (two-phase
//! aggregation, domain alignment, sieving, staging, application
//! striping) is therefore priced by the same code that prices real
//! runs.
//!
//! The prediction is still an approximation: data-dependent volumes
//! (sample-sort cuts, the restart particle scatter) are taken as even
//! splits, and replicated-state reassembly after a restart is not
//! replayed. Those costs are identical across candidate
//! configurations, which is what a *ranking* needs.

use amrio_amr::{block_bounds, bytes_per_particle};
use amrio_disk::FsConfig;
use amrio_mpi::{Comm, World};
use amrio_mpiio::{Advisory, Datatype, Hints, Mode, MpiFile, MpiIo};
use amrio_net::NetConfig;
use amrio_plan::{AccessPlan, DatasetPlan, FilePlan, Writers};
use amrio_simt::SimDur;

/// Per-item local sort cost, mirroring `amrio-enzo`'s sample sort.
const NS_PER_SORT_ITEM: u64 = 30;
/// Per-particle classify cost of the restart position scatter.
const NS_PER_CLASSIFY: u64 = 20;

/// One candidate configuration the cost model can price and the search
/// can ship as an [`Advisory`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TuneConfig {
    /// Human-readable knob summary (stable; used in reports and CSV).
    pub label: String,
    pub hints: Hints,
    /// Per-file application stripe installed at create time.
    pub app_stripe: Option<u64>,
    /// Write-behind staging capacity for independent writes.
    pub write_behind: Option<usize>,
}

impl TuneConfig {
    /// The ROMIO-default configuration — exactly what a run without an
    /// advisory uses.
    pub fn defaults() -> TuneConfig {
        TuneConfig {
            label: "romio-defaults".into(),
            hints: Hints::default(),
            app_stripe: None,
            write_behind: None,
        }
    }

    /// Number of knobs this configuration turns away from the ROMIO
    /// defaults — the search's simplicity metric when predictions tie
    /// within the evaluator's resolution.
    pub fn knobs(&self) -> usize {
        let d = Hints::default();
        let h = &self.hints;
        usize::from(h.cb_nodes.is_some())
            + usize::from(h.cb_buffer_size != d.cb_buffer_size)
            + usize::from(h.align_file_domains != d.align_file_domains)
            + usize::from(h.cb_write != d.cb_write)
            + usize::from(h.cb_read != d.cb_read)
            + usize::from(h.ds_write != d.ds_write)
            + usize::from(h.ds_read != d.ds_read)
            + usize::from(h.sieve_buffer_size != d.sieve_buffer_size)
            + usize::from(self.app_stripe.is_some())
            + usize::from(self.write_behind.is_some())
    }

    /// Package this configuration for [`amrio_mpiio::MpiIo::set_advisory`].
    pub fn advisory(&self) -> Advisory {
        Advisory {
            hints: Some(self.hints),
            write_behind: self.write_behind,
            app_stripe: self.app_stripe,
        }
    }
}

/// Predicted virtual seconds for the dump and restart phases.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PredictedCost {
    pub write_s: f64,
    pub read_s: f64,
}

impl PredictedCost {
    pub fn total_s(&self) -> f64 {
        self.write_s + self.read_s
    }
}

/// Price `plan` on the platform `(fs, net)` under `cfg`. Only shared-file
/// MPI-IO plans are supported (the backend the tuner searches over).
pub fn predict(
    plan: &AccessPlan,
    fs: &FsConfig,
    net: &NetConfig,
    cfg: &TuneConfig,
) -> PredictedCost {
    predict_traced(plan, fs, net, cfg).0
}

/// [`predict`] plus the raw file-system trace of the replay — what the
/// evaluator actually issued, for calibration against an executed run.
pub fn predict_traced(
    plan: &AccessPlan,
    fs: &FsConfig,
    net: &NetConfig,
    cfg: &TuneConfig,
) -> (PredictedCost, Vec<amrio_disk::IoEvent>) {
    assert_eq!(
        plan.backend, "MPI-IO",
        "cost evaluator prices the shared-file MPI-IO strategy"
    );
    let world = World::new(plan.nranks, net.clone());
    let mut io = MpiIo::new(fs.clone());
    io.set_advisory(cfg.advisory());
    io.fs().lock().trace.enable();
    let report = world.run(|comm| replay_rank(comm, &io, plan));
    let events = io.fs().lock().trace.events.clone();
    let (w, r) = report.results[0];
    (
        PredictedCost {
            write_s: w.as_secs_f64(),
            read_s: r.as_secs_f64(),
        },
        events,
    )
}

/// How the replay treats one dataset, decided structurally (the plan's
/// own `collective` flag reflects the hints it was *built* with, not the
/// candidate being priced).
enum Kind {
    /// Multi-writer / multi-region view dataset (top-grid fields):
    /// every rank participates through its view; the hints decide
    /// two-phase vs independent vs sieved.
    View,
    /// Data-dependent contiguous partition (top-grid particle arrays).
    Partition,
    /// Single writer, single region (one subgrid array).
    Single,
}

fn kind(ds: &DatasetPlan) -> Kind {
    match &ds.writers {
        Writers::Partition => Kind::Partition,
        Writers::Ranks(rs) => {
            if rs.len() <= 1 && rs.iter().all(|rr| rr.regions.len() <= 1) {
                Kind::Single
            } else {
                Kind::View
            }
        }
    }
}

/// Grid tag of a per-subgrid dataset name (`g%06d_<array>`); groups the
/// 17 back-to-back arrays of one subgrid.
fn grid_prefix(name: &str) -> &str {
    name.split('_').next().unwrap_or(name)
}

/// This rank's byte regions of a view dataset.
fn my_regions(ds: &DatasetPlan, me: usize) -> Vec<(u64, u64)> {
    let Writers::Ranks(rs) = &ds.writers else {
        return Vec::new();
    };
    rs.iter()
        .find(|rr| rr.rank == me)
        .map(|rr| rr.regions.clone())
        .unwrap_or_default()
}

/// Total particle bytes of a file's partition datasets, as a particle
/// count (the 10 arrays jointly carry `bytes_per_particle()` per
/// particle).
fn particle_count(file: &FilePlan) -> u64 {
    let total: u64 = file
        .datasets
        .iter()
        .filter(|ds| matches!(ds.writers, Writers::Partition))
        .map(|ds| ds.len)
        .sum();
    total / bytes_per_particle()
}

/// One rank's whole replay: barrier-bracketed write and read phases,
/// like the runtime driver's `timed` sections.
fn replay_rank(comm: &Comm, io: &MpiIo, plan: &AccessPlan) -> (SimDur, SimDur) {
    comm.barrier();
    let t0 = comm.now();
    for file in &plan.files {
        write_file(comm, io, file);
    }
    comm.barrier();
    let t1 = comm.now();
    for file in &plan.files {
        read_file(comm, io, file);
    }
    comm.barrier();
    (t1 - t0, comm.now() - t1)
}

/// Replay the message pattern of the parallel sample sort with uniform
/// volumes (`amrio-enzo`'s `parallel_sort_by_id`).
fn replay_sort(comm: &Comm, npart: u64) {
    let p = comm.size() as u64;
    let me = comm.rank() as u64;
    let (bs, be) = block_bounds(npart, p, me);
    let nloc = be - bs;
    let sort_cost = SimDur::from_nanos(nloc.max(1).ilog2() as u64 * nloc * NS_PER_SORT_ITEM / 8);
    comm.compute(sort_cost);
    comm.allgatherv(vec![0u8; (8 * p) as usize]);
    let per_pair = nloc * bytes_per_particle() / p;
    let payloads: Vec<(usize, Vec<u8>)> = (0..comm.size())
        .map(|dst| (dst, vec![0u8; per_pair as usize]))
        .collect();
    comm.alltoallv(payloads);
    comm.compute(sort_cost);
    comm.allgatherv(vec![0u8; 8]);
}

/// Replay the restart particle redistribution by position
/// (`scatter_particles_by_slab`), again with uniform volumes.
fn replay_scatter(comm: &Comm, npart: u64) {
    let p = comm.size() as u64;
    let me = comm.rank() as u64;
    let (bs, be) = block_bounds(npart, p, me);
    let nloc = be - bs;
    comm.compute(SimDur::from_nanos(nloc * NS_PER_CLASSIFY));
    let per_pair = nloc * bytes_per_particle() / p;
    let payloads: Vec<(usize, Vec<u8>)> = (0..comm.size())
        .map(|dst| (dst, vec![0u8; per_pair as usize]))
        .collect();
    comm.alltoallv(payloads);
}

/// Flush a pending gathered subgrid write (the 17 contiguous arrays of
/// one grid as a single scatter-gather request).
fn flush_gather(f: &MpiFile<'_, '_>, parts: &mut Vec<(u64, u64)>) {
    if parts.is_empty() {
        return;
    }
    let start = parts[0].0;
    let bufs: Vec<Vec<u8>> = parts.iter().map(|&(_, l)| vec![0u8; l as usize]).collect();
    let refs: Vec<&[u8]> = bufs.iter().map(|b| b.as_slice()).collect();
    f.write_gather_at(start, &refs);
    parts.clear();
}

fn write_file(comm: &Comm, io: &MpiIo, file: &FilePlan) {
    let me = comm.rank();
    let p = comm.size();
    // An advisory's write-behind capacity is armed at open.
    let mut f = io.open(comm, &file.path, Mode::Create);
    let wb = io.advisory().write_behind.is_some();

    let npart = particle_count(file);
    let mut sorted = false;
    // Pending (offset, len) parts of the current subgrid owned by me.
    let mut gather: Vec<(u64, u64)> = Vec::new();
    let mut last_prefix: Option<&str> = None;

    for ds in &file.datasets {
        match kind(ds) {
            Kind::View => {
                flush_gather(&f, &mut gather);
                last_prefix = None;
                let blocks = my_regions(ds, me);
                let len: u64 = blocks.iter().map(|&(_, l)| l).sum();
                f.set_view(0, Datatype::Hindexed { blocks });
                f.write_all_view(&vec![0u8; len as usize]);
            }
            Kind::Partition => {
                flush_gather(&f, &mut gather);
                last_prefix = None;
                if !sorted {
                    replay_sort(comm, npart);
                    sorted = true;
                }
                let width = ds.len / npart.max(1);
                let (bs, be) = block_bounds(npart, p as u64, me as u64);
                f.write_at(
                    ds.start + bs * width,
                    &vec![0u8; ((be - bs) * width) as usize],
                );
            }
            Kind::Single => {
                let Writers::Ranks(rs) = &ds.writers else {
                    unreachable!()
                };
                // Zero-length arrays cost nothing and keep adjacency.
                let Some(rr) = rs.first() else { continue };
                let prefix = grid_prefix(&ds.name);
                if last_prefix != Some(prefix) {
                    flush_gather(&f, &mut gather);
                    last_prefix = Some(prefix);
                }
                if rr.rank == me {
                    let &(off, len) = rr.regions.first().expect("single writer has a region");
                    if wb {
                        // Staged independent writes; adjacent arrays and
                        // grids coalesce inside the write-behind buffer.
                        f.write_at(off, &vec![0u8; len as usize]);
                    } else {
                        gather.push((off, len));
                    }
                }
            }
        }
    }
    flush_gather(&f, &mut gather);

    for &(rank, off, len) in &file.meta_writes {
        if rank == me {
            f.write_at(off, &vec![0u8; len as usize]);
        }
    }
    f.flush_write_behind();
    comm.barrier();
}

fn read_file(comm: &Comm, io: &MpiIo, file: &FilePlan) {
    let me = comm.rank();
    let p = comm.size();
    let mut f = io.open(comm, &file.path, Mode::Open);

    // Rank 0 reads the header and the metadata block, broadcasts.
    let meta = file
        .meta_writes
        .iter()
        .find(|&&(_, off, _)| off != 0)
        .copied();
    let payload = if me == 0 {
        f.read_at(0, 16);
        meta.map(|(_, off, len)| f.read_at(off, len))
            .unwrap_or_default()
    } else {
        Vec::new()
    };
    comm.bcast(0, payload);

    let npart = particle_count(file);
    let last_partition = file
        .datasets
        .iter()
        .rposition(|ds| matches!(ds.writers, Writers::Partition));

    // Pending (offset, len) parts of the current subgrid; restart
    // owners rotate round-robin over the subgrids in file order.
    let mut pending: Vec<(u64, u64)> = Vec::new();
    let mut groups = 0usize;
    let mut last_prefix: Option<&str> = None;
    let flush = |pending: &mut Vec<(u64, u64)>, groups: &mut usize, f: &MpiFile<'_, '_>| {
        if pending.is_empty() {
            return;
        }
        let reader = *groups % p;
        *groups += 1;
        if reader == me {
            let start = pending[0].0;
            let mut bufs: Vec<Vec<u8>> = pending
                .iter()
                .map(|&(_, l)| vec![0u8; l as usize])
                .collect();
            let mut refs: Vec<&mut [u8]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
            f.read_scatter_at(start, &mut refs);
        }
        pending.clear();
    };

    for (i, ds) in file.datasets.iter().enumerate() {
        match kind(ds) {
            Kind::View => {
                flush(&mut pending, &mut groups, &f);
                last_prefix = None;
                f.set_view(
                    0,
                    Datatype::Hindexed {
                        blocks: my_regions(ds, me),
                    },
                );
                f.read_all_view();
            }
            Kind::Partition => {
                flush(&mut pending, &mut groups, &f);
                last_prefix = None;
                let width = ds.len / npart.max(1);
                let (bs, be) = block_bounds(npart, p as u64, me as u64);
                f.read_at(ds.start + bs * width, (be - bs) * width);
                if Some(i) == last_partition {
                    replay_scatter(comm, npart);
                }
            }
            Kind::Single => {
                let Writers::Ranks(rs) = &ds.writers else {
                    unreachable!()
                };
                let Some(rr) = rs.first() else { continue };
                let prefix = grid_prefix(&ds.name);
                if last_prefix != Some(prefix) {
                    flush(&mut pending, &mut groups, &f);
                    last_prefix = Some(prefix);
                }
                let &(off, len) = rr.regions.first().expect("single writer has a region");
                pending.push((off, len));
            }
        }
    }
    flush(&mut pending, &mut groups, &f);
    comm.barrier();
}
