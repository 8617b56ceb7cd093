//! Symbolic per-rank collective schedules: the exact sequence of
//! collectives each rank enters during `write_checkpoint` and
//! `read_checkpoint`, derived from the configuration alone. Byte counts
//! are pinned (`Some`) wherever they are data-independent and left as
//! wildcards (`None`) only where payloads depend on evolved data
//! (particle counts after refinement, sort splitter samples).

use crate::conform::CollExpect;
use crate::{Backend, PlanInput};
use amrio_amr::{BARYON_FIELDS, PARTICLE_ARRAYS};
use amrio_check::CollKind;
use amrio_enzo::TOP_GRID;
use amrio_hdf5::OverheadModel;

const F64_LEN: u64 = 8;
/// `create_dataset` propagates metadata with a fixed 64-byte broadcast.
const H5_META_BCAST: u64 = 64;

fn step(
    kind: CollKind,
    root: Option<usize>,
    op: Option<&'static str>,
    bytes: Option<u64>,
    uniform: bool,
    label: &'static str,
) -> CollExpect {
    CollExpect {
        kind,
        root,
        op,
        bytes,
        uniform,
        label,
    }
}

fn barrier(label: &'static str) -> CollExpect {
    step(CollKind::Barrier, None, None, Some(0), true, label)
}

/// `bcast` forces the payload to empty on non-roots, so the byte count
/// is `payload` on the root and 0 elsewhere.
fn bcast(rank: usize, payload: u64, label: &'static str) -> CollExpect {
    let bytes = if rank == 0 { payload } else { 0 };
    step(CollKind::Bcast, Some(0), None, Some(bytes), false, label)
}

fn allreduce(op: &'static str, label: &'static str) -> CollExpect {
    step(
        CollKind::Allreduce,
        None,
        Some(op),
        Some(F64_LEN),
        true,
        label,
    )
}

fn alltoallv(label: &'static str) -> CollExpect {
    step(CollKind::Alltoallv, None, None, None, false, label)
}

/// The two-phase exchange inside one collective view write:
/// `exchange_bounds` (allreduce min + max over the covered span) then
/// the data redistribution to aggregators.
fn two_phase_write(v: &mut Vec<CollExpect>) {
    v.push(allreduce("min", "two-phase: span lower bound"));
    v.push(allreduce("max", "two-phase: span upper bound"));
    v.push(alltoallv("two-phase: data to aggregators"));
}

/// Same for a collective view read: bounds exchange, then the request
/// and data legs.
fn two_phase_read(v: &mut Vec<CollExpect>) {
    v.push(allreduce("min", "two-phase: span lower bound"));
    v.push(allreduce("max", "two-phase: span upper bound"));
    v.push(alltoallv("two-phase: read requests"));
    v.push(alltoallv("two-phase: read data"));
}

/// The parallel sample sort is always exactly three collectives; only
/// the final count exchange has a fixed payload (one u64 per rank).
fn parallel_sort(v: &mut Vec<CollExpect>) {
    v.push(step(
        CollKind::Allgatherv,
        None,
        None,
        None,
        false,
        "sort: splitter samples",
    ));
    v.push(alltoallv("sort: record exchange"));
    v.push(step(
        CollKind::Allgatherv,
        None,
        None,
        Some(8),
        false,
        "sort: count exchange",
    ));
}

/// Build `(write_schedule, read_schedule)`, one collective sequence per
/// rank. `h5_catalog_len` is the exact serialized catalog length (from
/// the footprint's layout replay), needed to pin the HDF5 open
/// broadcast.
pub fn build(
    input: &PlanInput,
    backend: Backend,
    h5_catalog_len: Option<u64>,
) -> (Vec<Vec<CollExpect>>, Vec<Vec<CollExpect>>) {
    let write = (0..input.nranks)
        .map(|r| match backend {
            Backend::Hdf4 => hdf4_write(input, r),
            Backend::MpiIo => mpiio_write(input),
            Backend::Hdf5(m) => hdf5_write(input, &m, r),
        })
        .collect();
    let read = (0..input.nranks)
        .map(|r| match backend {
            Backend::Hdf4 => hdf4_read(input, r),
            Backend::MpiIo => mpiio_read(input, r),
            Backend::Hdf5(m) => hdf5_read(input, &m, r, h5_catalog_len.expect("h5 catalog len")),
        })
        .collect();
    (write, read)
}

fn hdf4_write(input: &PlanInput, rank: usize) -> Vec<CollExpect> {
    let decomp = input.decomp();
    let slab_bytes = decomp.slab(rank).cells() * 4;
    let mut v = Vec::new();
    for _ in BARYON_FIELDS.iter() {
        // Every rank contributes its top-grid slab to processor 0; the
        // slab size is fixed by the decomposition.
        v.push(step(
            CollKind::Gatherv,
            Some(0),
            None,
            Some(slab_bytes),
            false,
            "collect top-grid field at rank 0",
        ));
    }
    // Particle record payloads depend on the evolved distribution.
    v.push(step(
        CollKind::Gatherv,
        Some(0),
        None,
        None,
        false,
        "collect top-grid particles at rank 0",
    ));
    v.push(barrier("checkpoint complete"));
    v
}

fn hdf4_read(input: &PlanInput, rank: usize) -> Vec<CollExpect> {
    let n = input.root_n();
    let np = input
        .hierarchy
        .find(TOP_GRID)
        .expect("no top grid")
        .nparticles;
    let mut v = vec![bcast(rank, input.meta_len(), "hierarchy broadcast")];
    for _ in BARYON_FIELDS.iter() {
        // Rank 0 scatters the full field; its contribution is the sum
        // of all slabs = the whole field.
        let root_total = n * n * n * 4;
        let bytes = if rank == 0 { root_total } else { 0 };
        v.push(step(
            CollKind::Scatterv,
            Some(0),
            None,
            Some(bytes),
            false,
            "scatter top-grid field",
        ));
    }
    // All np particles leave rank 0 as fixed-width wire records.
    let rec_total = np * amrio_amr::bytes_per_particle();
    let bytes = if rank == 0 { rec_total } else { 0 };
    v.push(step(
        CollKind::Scatterv,
        Some(0),
        None,
        Some(bytes),
        false,
        "scatter top-grid particles",
    ));
    v.push(barrier("restart complete"));
    v
}

fn mpiio_write(input: &PlanInput) -> Vec<CollExpect> {
    let mut v = vec![barrier("shared file create")];
    // With `cb_write` off, field writes run independently — the
    // two-phase exchange disappears from the schedule.
    if input.hints.cb_write {
        for _ in BARYON_FIELDS.iter() {
            two_phase_write(&mut v);
        }
    }
    parallel_sort(&mut v);
    v.push(barrier("checkpoint complete"));
    v
}

fn mpiio_read(input: &PlanInput, rank: usize) -> Vec<CollExpect> {
    let mut v = vec![bcast(rank, input.meta_len(), "hierarchy broadcast")];
    if input.hints.cb_read {
        for _ in BARYON_FIELDS.iter() {
            two_phase_read(&mut v);
        }
    }
    v.push(alltoallv("particle redistribution by slab"));
    v.push(barrier("restart complete"));
    v
}

/// One HDF5 dataset create/close cycle: optional create barrier, the
/// fixed metadata broadcast, then the close synchronization pair.
/// `body` emits whatever transfer collectives happen between create and
/// close.
fn h5_dataset(
    v: &mut Vec<CollExpect>,
    m: &OverheadModel,
    rank: usize,
    body: impl FnOnce(&mut Vec<CollExpect>),
) {
    if m.create_sync {
        v.push(barrier("dataset create sync"));
    }
    v.push(bcast(rank, H5_META_BCAST, "dataset metadata propagation"));
    body(v);
    if m.create_sync {
        v.push(barrier("dataset close sync"));
        v.push(barrier("dataset close sync"));
    }
}

/// Attributes synchronize the world only under the rank-0-attributes
/// overhead.
fn h5_attr(v: &mut Vec<CollExpect>, m: &OverheadModel, label: &'static str) {
    if m.rank0_attributes {
        v.push(barrier(label));
    }
}

fn hdf5_write(input: &PlanInput, m: &OverheadModel, rank: usize) -> Vec<CollExpect> {
    let mut v = vec![
        barrier("file create: collective open"),
        barrier("file create: superblock sync"),
    ];
    h5_attr(&mut v, m, "hierarchy attribute");
    for _ in BARYON_FIELDS.iter() {
        h5_dataset(&mut v, m, rank, |v| {
            if input.hints.cb_write {
                two_phase_write(v);
            }
            h5_attr(v, m, "units attribute");
        });
    }
    parallel_sort(&mut v);
    for _ in PARTICLE_ARRAYS.iter() {
        // Independent block writes: no transfer collectives.
        h5_dataset(&mut v, m, rank, |_| {});
    }
    let nsubgrids = input
        .hierarchy
        .grids
        .iter()
        .filter(|g| g.id != TOP_GRID)
        .count();
    for _ in 0..nsubgrids {
        for _ in 0..BARYON_FIELDS.len() + PARTICLE_ARRAYS.len() {
            h5_dataset(&mut v, m, rank, |_| {});
        }
    }
    if m.create_sync {
        v.push(barrier("file close sync"));
    }
    v.push(barrier("file close"));
    v
}

fn hdf5_read(input: &PlanInput, _m: &OverheadModel, rank: usize, cat_len: u64) -> Vec<CollExpect> {
    let mut v = vec![
        bcast(rank, cat_len, "catalog broadcast"),
        bcast(rank, input.meta_len(), "hierarchy attribute broadcast"),
    ];
    if input.hints.cb_read {
        for _ in BARYON_FIELDS.iter() {
            two_phase_read(&mut v);
        }
    }
    v.push(alltoallv("particle redistribution by slab"));
    v.push(barrier("restart complete"));
    v
}
