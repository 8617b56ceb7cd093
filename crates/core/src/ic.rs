//! The "new simulation" I/O category (paper §3.1): reading initial grids.
//!
//! A cosmology run starts from initial-condition files produced by a
//! separate generator (ENZO's `inits` tool): the top grid plus some
//! pre-refined subgrids, stored in (sequential) HDF4 format. The paper's
//! original design has processor 0 read every initial grid and
//! redistribute it; the optimized design lets all processors read the
//! top-grid in parallel "in the same way as the top-grid [checkpoint]"
//! — which works because the HDF4 record layout stores each dataset
//! contiguously at a discoverable offset, so MPI-IO file views can
//! address it directly.

use crate::io::hdf4::{read_particles_sds, write_patch_sds};
use crate::io::restart::{from_root, read_block, Restart};
use crate::io::{array_name, slab_view, GRID_ARRAYS};
use crate::problem::SimConfig;
use crate::state::{ic_position, ic_velocity, SimState, TOP_GRID};
use crate::wire;
use amrio_amr::grid::GridMeta;
use amrio_amr::solver;
use amrio_amr::{CellBox, GridPatch, Hierarchy, ParticleSet};
use amrio_amr::{BARYON_FIELDS, NUM_FIELDS};
use amrio_hdf4::H4File;
use amrio_mpi::Comm;
use amrio_mpiio::{Mode, MpiIo};

/// Path of the initial-conditions file.
pub fn ic_path() -> &'static str {
    "InitialGrid"
}

/// The `inits` tool: processor 0 generates the initial top grid (fields
/// plus particles, sorted by ID) and writes it as an HDF4 file. Runs
/// before the simulation; its cost is the IC-generation cost, not part
/// of the timed read.
pub fn write_initial_conditions(comm: &Comm, io: &MpiIo, cfg: &SimConfig) {
    if comm.rank() == 0 {
        let n = cfg.root_n();
        let np = cfg.num_particles();
        let mass = (n * n * n) as f32 / np.max(1) as f32;
        let mut ps = ParticleSet::with_capacity(np as usize);
        for i in 0..np {
            ps.push(
                i as i64,
                ic_position(cfg.seed, i),
                ic_velocity(cfg.seed, i),
                mass,
                [0.0, 0.0],
            );
        }
        let mut top = GridPatch::new(TOP_GRID, 0, CellBox::cube(n));
        top.particles = ps;
        solver::update_derived_fields(&mut top, [n, n, n]);

        let mut h = Hierarchy::new();
        h.add(GridMeta {
            id: TOP_GRID,
            level: 0,
            bbox: CellBox::cube(n),
            parent: None,
            owner: 0,
            nparticles: np,
        });

        let mut f = H4File::create(io, comm, ic_path());
        f.write_attr("hierarchy", &wire::encode_hierarchy(&h, 0.0, 0));
        write_patch_sds(&mut f, &h.grids[0], &top);
    }
    comm.barrier();
}

/// The original design: processor 0 reads every initial grid and
/// redistributes — fields as `(Block,Block,Block)` slabs, particles by
/// position (paper §3.1).
pub fn new_simulation_read_serial(comm: &Comm, io: &MpiIo, cfg: &SimConfig) -> SimState {
    let f = (comm.rank() == 0).then(|| H4File::open(io, comm, ic_path()));
    let meta = from_root(comm, || {
        let f = f.as_ref().expect("rank 0 opened the IC file");
        f.read_attr("hierarchy")
    });
    let r = Restart::new(comm, cfg, &meta);
    let fields = r.top_fields_from_root(
        f.as_ref()
            .map(|f| |i: usize| f.read_sds(BARYON_FIELDS[i]).1),
    );
    let particles = r.top_particles_from_root(f.as_ref().map(|f| || read_particles_sds(f)));
    r.finish(fields, particles, Vec::new())
}

/// The optimized design: every processor opens the (HDF4-format) IC file
/// and reads its own portion in parallel — collective subarray views for
/// the fields, block-wise contiguous reads + position redistribution for
/// the particles. Possible because HDF4 stores each SDS contiguously at
/// an offset the record scan discovers.
pub fn new_simulation_read_parallel(comm: &Comm, io: &MpiIo, cfg: &SimConfig) -> SimState {
    // Rank 0 scans the record directory once and broadcasts the
    // hierarchy and the dataset offsets (cheaper than every rank
    // scanning).
    let catalog = from_root(comm, || {
        let f = H4File::open(io, comm, ic_path());
        let hmeta = f.read_attr("hierarchy");
        let mut out = (hmeta.len() as u64).to_le_bytes().to_vec();
        out.extend_from_slice(&hmeta);
        for k in 0..GRID_ARRAYS {
            let info = f.info(array_name(k)).expect("dataset present");
            out.extend_from_slice(&info.data_off.to_le_bytes());
        }
        out
    });
    let hlen = u64::from_le_bytes(catalog[..8].try_into().unwrap()) as usize;
    let r = Restart::new(comm, cfg, &catalog[8..8 + hlen]);
    let offs: Vec<u64> = catalog[8 + hlen..]
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect();

    // Fields: collective reads through subarray views at the SDS offsets.
    let mut f = io.open(comm, ic_path(), Mode::Open);
    let fields = r.top_fields(|i| {
        f.set_view(offs[i], slab_view(r.n(), &r.slab()));
        f.read_all_view()
    });
    // Particles: block-wise contiguous reads + redistribution.
    let particles =
        r.top_particles_blockwise(|a, bs, be| read_block(&f, offs[NUM_FIELDS + a], a, bs, be));
    r.finish(fields, particles, Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ProblemSize;
    use crate::state::global_digest;
    use amrio_mpi::World;
    use amrio_mpiio::MpiIo;

    fn cfg(nranks: usize) -> SimConfig {
        let mut c = SimConfig::new(ProblemSize::Custom(16), nranks);
        c.particle_fraction = 0.5;
        c
    }

    #[test]
    fn serial_and_parallel_reads_agree() {
        // Note: the in-memory generator is NOT byte-identical to the file
        // path (field diffusion runs per-slab there vs globally in the IC
        // writer), so the equivalence that matters is between the two
        // file-based read designs — same file, same resulting state.
        let platform = crate::Platform::origin2000(4);
        let world = World::new(4, platform.net.clone());
        let io = MpiIo::new(platform.fs.clone());
        let r = world.run(|c| {
            let cfg = cfg(4);
            write_initial_conditions(c, &io, &cfg);
            let serial = new_simulation_read_serial(c, &io, &cfg);
            let parallel = new_simulation_read_parallel(c, &io, &cfg);
            let np = c.allreduce_u64(
                serial.my_top.particles.len() as u64,
                amrio_mpi::coll::ReduceOp::Sum,
            );
            assert_eq!(np, cfg.num_particles(), "no particle lost in scatter");
            (global_digest(c, &serial), global_digest(c, &parallel))
        });
        let (b, c_) = r.results[0];
        assert_eq!(b, c_, "parallel new-sim read must match the serial one");
    }

    #[test]
    fn parallel_new_sim_read_is_faster() {
        let time_of = |parallel: bool| {
            let platform = crate::Platform::origin2000(8);
            let world = World::new(8, platform.net.clone());
            let io = MpiIo::new(platform.fs.clone());
            let r = world.run(move |c| {
                // Large enough that data movement dominates the fixed
                // per-operation costs.
                let cfg = SimConfig::new(ProblemSize::Custom(32), 8);
                write_initial_conditions(c, &io, &cfg);
                c.barrier();
                let t0 = c.now();
                let st = if parallel {
                    new_simulation_read_parallel(c, &io, &cfg)
                } else {
                    new_simulation_read_serial(c, &io, &cfg)
                };
                c.barrier();
                let dt = c.now() - t0;
                assert!(st.my_top.particles.len() < cfg.num_particles() as usize);
                dt
            });
            r.results[0].0
        };
        let (parallel, serial) = (time_of(true), time_of(false));
        assert!(parallel < serial);
        // Exact virtual ns of both reads: any change to the requests,
        // compute charges or collectives they issue moves these.
        assert_eq!((parallel, serial), (304_411_218, 343_918_647));
    }

    #[test]
    fn evolution_from_either_read_path_matches() {
        // A run started from the serially-read ICs must follow the same
        // trajectory as one started from the parallel read.
        let platform = crate::Platform::origin2000(4);
        let world = World::new(4, platform.net.clone());
        let io = MpiIo::new(platform.fs.clone());
        let r = world.run(|c| {
            let cfg = cfg(4);
            write_initial_conditions(c, &io, &cfg);
            let mut a = new_simulation_read_serial(c, &io, &cfg);
            let mut b = new_simulation_read_parallel(c, &io, &cfg);
            crate::evolve::rebuild_refinement(c, &mut a);
            crate::evolve::rebuild_refinement(c, &mut b);
            crate::evolve::evolve_step(c, &mut a, 1.0);
            crate::evolve::evolve_step(c, &mut b, 1.0);
            (global_digest(c, &a), global_digest(c, &b))
        });
        let (a, b) = r.results[0];
        assert_eq!(a, b);
    }
}
