//! The three checkpoint I/O strategies the paper compares, behind one
//! trait: the original serial-HDF4 design, the optimized MPI-IO design,
//! and the parallel-HDF5 design.

pub mod hdf4;
pub mod hdf5;
pub mod mdms;
pub mod mpiio;
pub(crate) mod restart;

use crate::problem::SimConfig;
use crate::state::{SimState, TOP_GRID};
use crate::wire;
use amrio_amr::{
    Array3, BlockDecomp, CellBox, GridMeta, GridPatch, Hierarchy, ParticleSet, BARYON_FIELDS,
    NUM_FIELDS, PARTICLE_ARRAYS,
};
use amrio_mpi::Comm;
use amrio_mpiio::{Datatype, MpiIo, NumType};
use amrio_simt::{Bytes, SimDur};
use restart::{from_root, patch_from_arrays, read_block, Restart};
use std::borrow::Cow;

pub use hdf4::Hdf4Serial;
pub use hdf5::Hdf5Parallel;
pub use mdms::{MdmsAdvised, MpiIoNaive};
pub use mpiio::{MpiIoAppStriped, MpiIoMultiFile, MpiIoOptimized, MpiIoWriteBehind};

/// CPU cost per strided run when (un)packing subarrays by hand.
const NS_PER_RUN: u64 = 150;
/// CPU cost to classify one particle by position.
const NS_PER_CLASSIFY: u64 = 20;

/// A checkpoint writer/reader. `write_checkpoint` dumps the entire
/// simulation; `read_checkpoint` reconstructs it (the restart read, which
/// the paper notes is "pretty much like the new simulation read": both
/// run the one sequence in `io::restart`).
pub trait IoStrategy: Sync {
    fn name(&self) -> &'static str;
    fn write_checkpoint(&self, comm: &Comm, io: &MpiIo, st: &SimState, dump: u32);
    fn read_checkpoint(&self, comm: &Comm, io: &MpiIo, cfg: &SimConfig, dump: u32) -> SimState;
}

pub fn topgrid_path(dump: u32) -> String {
    format!("DD{dump:04}.topgrid")
}

pub fn subgrid_path(dump: u32, gid: u64) -> String {
    format!("DD{dump:04}.grid{gid:06}")
}

pub fn shared_path(dump: u32, ext: &str) -> String {
    format!("DD{dump:04}.{ext}")
}

/// Arrays per grid in file order: the baryon fields, then the particle
/// arrays. Every writer, reader and the static planner walk a grid's
/// arrays as `k in 0..GRID_ARRAYS` over the functions below.
pub const GRID_ARRAYS: usize = NUM_FIELDS + PARTICLE_ARRAYS.len();

/// Name of per-grid array `k` (file order).
pub fn array_name(k: usize) -> &'static str {
    if k < NUM_FIELDS {
        BARYON_FIELDS[k]
    } else {
        PARTICLE_ARRAYS[k - NUM_FIELDS].0
    }
}

/// Element type of array `k` (file order).
pub fn array_numtype(k: usize) -> NumType {
    match k.checked_sub(NUM_FIELDS) {
        None => NumType::F32,
        Some(0) => NumType::I64,
        Some(1..=3) => NumType::F64,
        Some(_) => NumType::F32,
    }
}

/// Shape of array `k` (file order) of grid `meta`: the grid's cells for
/// a field, one entry per particle for a particle array.
pub fn array_dims(meta: &GridMeta, k: usize) -> Vec<u64> {
    if k < NUM_FIELDS {
        meta.bbox.size().to_vec()
    } else {
        vec![meta.nparticles]
    }
}

/// Byte length of array `k` (file order) of grid `meta`.
pub fn array_len(meta: &GridMeta, k: usize) -> u64 {
    if k < NUM_FIELDS {
        meta.bbox.cells() * 4
    } else {
        meta.nparticles * PARTICLE_ARRAYS[k - NUM_FIELDS].1
    }
}

/// The bytes of `patch`'s arrays in file order, particles sorted by ID,
/// one array at a time (the inverse of `restart::patch_from_arrays`).
/// Particles already in ID order are not copied.
pub fn patch_arrays(patch: &GridPatch) -> impl Iterator<Item = Vec<u8>> + '_ {
    let mut sorted = Cow::Borrowed(&patch.particles);
    if !sorted.id.is_sorted() {
        sorted.to_mut().sort_by_id();
    }
    (0..GRID_ARRAYS).map(move |k| match patch.fields.get(k) {
        Some(field) => field.to_bytes(),
        None => sorted.array_bytes(array_name(k)),
    })
}

/// File view of one top-grid slab: its subarray of the `n`^3 field.
pub(crate) fn slab_view(n: u64, slab: &CellBox) -> Datatype {
    Datatype::subarray3([n, n, n], slab.lo, slab.size(), 4)
}

/// Rank 0 assembles a global field array from gathered slab payloads.
/// Charges the strided-unpack CPU cost, which grows with the number of
/// slab rows — one reason processor-0 collection scales poorly.
pub fn assemble_global<B: AsRef<[u8]>>(
    comm: &Comm,
    decomp: &BlockDecomp,
    n: u64,
    parts: &[B],
) -> Array3 {
    let mut global = Array3::zeros([n as usize; 3]);
    let mut runs = 0u64;
    for (r, bytes) in parts.iter().enumerate() {
        let slab = decomp.slab(r);
        let s = slab.size();
        let dims = [s[0] as usize, s[1] as usize, s[2] as usize];
        let sub = Array3::from_bytes(dims, bytes.as_ref());
        global.insert(
            [
                slab.lo[0] as usize,
                slab.lo[1] as usize,
                slab.lo[2] as usize,
            ],
            &sub,
        );
        runs += s[0] * s[1];
    }
    comm.compute(SimDur::from_nanos(runs * NS_PER_RUN));
    comm.compute(SimDur::transfer(n * n * n * 4, comm.mem_bw()));
    global
}

/// Rank 0 splits a global field array into per-rank slab payloads
/// (inverse of [`assemble_global`], same cost model).
pub fn extract_slabs(comm: &Comm, decomp: &BlockDecomp, global: &Array3) -> Vec<Vec<u8>> {
    let p = decomp.nranks();
    let mut out = Vec::with_capacity(p);
    let mut runs = 0u64;
    for r in 0..p {
        let slab = decomp.slab(r);
        let s = slab.size();
        runs += s[0] * s[1];
        let sub = global.extract(
            [
                slab.lo[0] as usize,
                slab.lo[1] as usize,
                slab.lo[2] as usize,
            ],
            [s[0] as usize, s[1] as usize, s[2] as usize],
        );
        out.push(sub.to_bytes());
    }
    comm.compute(SimDur::from_nanos(runs * NS_PER_RUN));
    comm.compute(SimDur::transfer(global.len() as u64 * 4, comm.mem_bw()));
    out
}
