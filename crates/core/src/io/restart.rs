//! The one read sequence behind every restart and new-simulation read
//! (paper §3.1: the restart read "is pretty much like the new simulation
//! read"):
//!
//! 1. metadata: every rank learns the hierarchy and assigns the subgrid
//!    owners round-robin ([`Restart::new`]);
//! 2. top-grid fields: each rank gets its `(Block,Block,Block)` slab of
//!    every baryon field;
//! 3. top-grid particles: each rank gets the particles inside its slab;
//! 4. subgrids: each rank reads the subgrids it now owns;
//! 5. a barrier, then the state is rebuilt ([`Restart::finish`]).
//!
//! The steps fix the order of requests, compute charges and collectives.
//! A backend supplies only its file opens, its metadata source and the
//! calls that fetch bytes, as closures; the choices where the backends
//! really differ (collective view or independent runs, sieving, one
//! scattered request or one per array) live in those closures.

use super::*;
use amrio_amr::block_bounds;
use amrio_mpiio::MpiFile;

/// Rank 0 runs `fetch`; every rank receives its result by broadcast.
pub(crate) fn from_root(comm: &Comm, fetch: impl FnOnce() -> Vec<u8>) -> Bytes {
    let data = if comm.rank() == 0 {
        fetch()
    } else {
        Vec::new()
    };
    comm.bcast(0, data)
}

/// Entries `[bs, be)` of the particle array `a` stored contiguously at
/// `base`, as one independent request.
pub(crate) fn read_block(f: &MpiFile, base: u64, a: usize, bs: u64, be: u64) -> Vec<u8> {
    let width = PARTICLE_ARRAYS[a].1;
    f.read_at(base + bs * width, (be - bs) * width)
}

/// One subgrid from its arrays, fetched in file order: `fetch(k, len)`
/// returns the `len` bytes of array `k`.
pub(crate) fn patch_from_arrays<B: AsRef<[u8]>>(
    meta: &GridMeta,
    mut fetch: impl FnMut(usize, u64) -> B,
) -> GridPatch {
    let mut patch = GridPatch::new(meta.id, meta.level, meta.bbox);
    let dims = patch.dims();
    for k in 0..GRID_ARRAYS {
        let bytes = fetch(k, array_len(meta, k));
        match patch.fields.get_mut(k) {
            Some(field) => *field = Array3::from_bytes(dims, bytes.as_ref()),
            None => patch
                .particles
                .set_array_bytes(array_name(k), bytes.as_ref()),
        }
    }
    patch.particles.validate();
    patch
}

/// A read in progress: the replicated hierarchy is known and this rank's
/// top-grid slab is fixed.
pub(crate) struct Restart<'a> {
    comm: &'a Comm<'a>,
    cfg: &'a SimConfig,
    pub hierarchy: Hierarchy,
    time: f64,
    cycle: u64,
    decomp: BlockDecomp,
}

impl<'a> Restart<'a> {
    /// Decode the hierarchy every rank now holds. Subgrid `k` (hierarchy
    /// order) is read by, and subsequently owned by, rank `k mod P`
    /// (round-robin, §3.1).
    pub fn new(comm: &'a Comm<'a>, cfg: &'a SimConfig, meta: &[u8]) -> Restart<'a> {
        let (mut hierarchy, time, cycle) = wire::decode_hierarchy(meta);
        let subgrids = hierarchy.grids.iter_mut().filter(|g| g.id != TOP_GRID);
        for (k, g) in subgrids.enumerate() {
            g.owner = k % comm.size();
        }
        Restart {
            comm,
            cfg,
            hierarchy,
            time,
            cycle,
            decomp: BlockDecomp::new(CellBox::cube(cfg.root_n()), comm.size()),
        }
    }

    /// Top-grid edge length in cells.
    pub fn n(&self) -> u64 {
        self.cfg.root_n()
    }

    /// This rank's top-grid slab.
    pub fn slab(&self) -> CellBox {
        self.decomp.slab(self.comm.rank())
    }

    /// Top-grid fields: `fetch(i)` returns this rank's slab of field `i`.
    pub fn top_fields<B: AsRef<[u8]>>(&self, mut fetch: impl FnMut(usize) -> B) -> Vec<Array3> {
        let s = self.slab().size();
        let dims = [s[0] as usize, s[1] as usize, s[2] as usize];
        (0..NUM_FIELDS)
            .map(|i| Array3::from_bytes(dims, fetch(i).as_ref()))
            .collect()
    }

    /// Top-grid fields read whole by rank 0 (the original design): rank 0
    /// holds `global`, which returns all of field `i`; it splits each
    /// field into slabs and scatters them.
    pub fn top_fields_from_root<B: AsRef<[u8]>>(
        &self,
        mut global: Option<impl FnMut(usize) -> B>,
    ) -> Vec<Array3> {
        let n = self.n() as usize;
        self.top_fields(|i| {
            let parts = match &mut global {
                Some(read) => {
                    let field = Array3::from_bytes([n; 3], read(i).as_ref());
                    extract_slabs(self.comm, &self.decomp, &field)
                }
                None => Vec::new(),
            };
            self.comm.scatterv(0, parts)
        })
    }

    /// Top-grid particles read block-wise (§3.2): `fetch(a, bs, be)`
    /// returns entries `[bs, be)` of particle array `a`, this rank's
    /// block of the ID-sorted arrays; the particles then move to their
    /// slab owners by position.
    pub fn top_particles_blockwise<B: AsRef<[u8]>>(
        &self,
        mut fetch: impl FnMut(usize, u64, u64) -> B,
    ) -> ParticleSet {
        let np = self.hierarchy.find(TOP_GRID).expect("top grid").nparticles;
        let p = self.comm.size() as u64;
        let (bs, be) = block_bounds(np, p, self.comm.rank() as u64);
        let mut block = ParticleSet::new();
        for (a, (name, _)) in PARTICLE_ARRAYS.iter().enumerate() {
            block.set_array_bytes(name, fetch(a, bs, be).as_ref());
        }
        block.validate();
        scatter_particles_by_slab(self.comm, &self.decomp, self.n(), &block)
    }

    /// Top-grid particles read whole by rank 0 (the original design):
    /// rank 0 holds `all`, which returns every top-grid particle; it
    /// partitions them by position and scatters them.
    pub fn top_particles_from_root(
        &self,
        all: Option<impl FnOnce() -> ParticleSet>,
    ) -> ParticleSet {
        let parts = match all {
            Some(read) => {
                let ps = read();
                ps.validate();
                let n = self.n();
                let split = ps.partition_by(self.comm.size(), |pos| {
                    self.decomp.owner_of_pos(pos, [n, n, n])
                });
                split
                    .iter()
                    .map(|s| {
                        let mut rec = Vec::new();
                        for i in 0..s.len() {
                            wire::push_particle(&mut rec, s, i);
                        }
                        rec
                    })
                    .collect()
            }
            None => Vec::new(),
        };
        let mine = self.comm.scatterv(0, parts);
        let mut particles = ParticleSet::new();
        wire::read_particles(&mine, &mut particles);
        particles
    }

    /// Subgrids: `read(meta)` for every subgrid this rank owns, in
    /// hierarchy order.
    pub fn subgrids(&self, read: impl FnMut(&GridMeta) -> GridPatch) -> Vec<GridPatch> {
        let rank = self.comm.rank();
        self.hierarchy
            .grids
            .iter()
            .filter(|g| g.id != TOP_GRID && g.owner == rank)
            .map(read)
            .collect()
    }

    /// Wait for every rank, then reassemble the [`SimState`].
    pub fn finish(
        self,
        top_fields: Vec<Array3>,
        top_particles: ParticleSet,
        my_subgrids: Vec<GridPatch>,
    ) -> SimState {
        self.comm.barrier();
        let mut my_top = GridPatch::new(TOP_GRID, 0, self.slab());
        my_top.fields = top_fields;
        my_top.particles = top_particles;
        let next_grid_id = self.hierarchy.grids.iter().map(|g| g.id).max().unwrap_or(0) + 1;
        SimState {
            cfg: self.cfg.clone(),
            decomp: self.decomp,
            hierarchy: self.hierarchy,
            my_top,
            my_subgrids,
            time: self.time,
            cycle: self.cycle,
            next_grid_id,
        }
    }
}

/// Redistribute top-grid particles to their slab owners (alltoallv of
/// fixed-size records), charging the per-particle classification.
fn scatter_particles_by_slab(
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
