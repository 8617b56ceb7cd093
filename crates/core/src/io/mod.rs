//! The three checkpoint I/O strategies the paper compares, behind one
//! trait: the original serial-HDF4 design, the optimized MPI-IO design,
//! and the parallel-HDF5 design.

pub mod hdf4;
pub mod hdf5;
pub mod mdms;
pub mod mpiio;

use crate::problem::SimConfig;
use crate::state::{SimState, TOP_GRID};
use crate::wire;
use amrio_amr::{Array3, BlockDecomp, CellBox, GridPatch, Hierarchy, ParticleSet, NUM_FIELDS};
use amrio_mpi::Comm;
use amrio_mpiio::{MpiIo, NumType};
use amrio_simt::SimDur;

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
/// the paper notes is "pretty much like the new simulation read").
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

/// Element type of each particle array (by index in `PARTICLE_ARRAYS`).
pub fn particle_numtype(idx: usize) -> NumType {
    match idx {
        0 => NumType::I64,
        1..=3 => NumType::F64,
        _ => NumType::F32,
    }
}

/// Restart reader assignment: subgrid `k` (hierarchy order) is read by —
/// and subsequently owned by — rank `k mod P` (round-robin, §3.1).
pub fn assign_restart_owners(h: &mut Hierarchy, p: usize) {
    let mut k = 0usize;
    for g in h.grids.iter_mut() {
        if g.id == TOP_GRID {
            continue;
        }
        g.owner = k % p;
        k += 1;
    }
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

/// Redistribute top-grid particles to their slab owners (alltoallv of
/// fixed-size records), charging the per-particle classification.
pub fn scatter_particles_by_slab(
    comm: &Comm,
    decomp: &BlockDecomp,
    n: u64,
    ps: &ParticleSet,
) -> ParticleSet {
    comm.compute(SimDur::from_nanos(ps.len() as u64 * NS_PER_CLASSIFY));
    let mut payloads: Vec<Vec<u8>> = (0..comm.size()).map(|_| Vec::new()).collect();
    for i in 0..ps.len() {
        let pos = [ps.pos[0][i], ps.pos[1][i], ps.pos[2][i]];
        let dst = decomp.owner_of_pos(pos, [n, n, n]);
        wire::push_particle(&mut payloads[dst], ps, i);
    }
    let received = comm.alltoallv(wire::non_empty(payloads));
    let mut mine = ParticleSet::new();
    for (_, part) in &received {
        wire::read_particles(part, &mut mine);
    }
    mine
}

/// Reassemble a [`SimState`] after a restart read.
#[allow(clippy::too_many_arguments)]
pub fn rebuild_state(
    comm: &Comm,
    cfg: &SimConfig,
    hierarchy: Hierarchy,
    time: f64,
    cycle: u64,
    top_fields: Vec<Array3>,
    top_particles: ParticleSet,
    my_subgrids: Vec<GridPatch>,
) -> SimState {
    assert_eq!(top_fields.len(), NUM_FIELDS);
    let n = cfg.root_n();
    let decomp = BlockDecomp::new(CellBox::cube(n), comm.size());
    let slab = decomp.slab(comm.rank());
    let mut my_top = GridPatch::new(TOP_GRID, 0, slab);
    my_top.fields = top_fields;
    my_top.particles = top_particles;
    let next_grid_id = hierarchy.grids.iter().map(|g| g.id).max().unwrap_or(0) + 1;
    SimState {
        cfg: cfg.clone(),
        decomp,
        hierarchy,
        my_top,
        my_subgrids,
        time,
        cycle,
        next_grid_id,
    }
}

/// Subgrids this rank must read in a restart, with their metadata, in
/// hierarchy order.
pub fn my_restart_subgrids(h: &Hierarchy, rank: usize) -> Vec<amrio_amr::GridMeta> {
    h.grids
        .iter()
        .filter(|g| g.id != TOP_GRID && g.owner == rank)
        .cloned()
        .collect()
}
