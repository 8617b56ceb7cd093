//! The original ENZO I/O design: sequential HDF4 through processor 0
//! (paper §2.2/§3.1).
//!
//! Write: the partitioned top-grid is collected by processor 0, combined
//! (particles re-sorted into their original ID order), and written to a
//! single file by processor 0 alone. Subgrids are written by their owners
//! into individual grid files — the only parallel part. Read (restart):
//! processor 0 reads and redistributes the top-grid; subgrids are read in
//! a round-robin manner.

use super::*;
use crate::state::TOP_GRID;
use amrio_amr::{GridPatch, ParticleSet, BARYON_FIELDS, PARTICLE_ARRAYS};
use amrio_hdf4::H4File;
use amrio_mpiio::NumType;
use amrio_simt::SimDur;

/// The serial HDF4 baseline strategy.
#[derive(Default)]
pub struct Hdf4Serial;

const NS_PER_SORT_ITEM: u64 = 30;

fn write_patch_sds(f: &mut H4File, patch: &GridPatch, sorted: &ParticleSet) {
    let dims = patch.dims();
    let d = [dims[0] as u64, dims[1] as u64, dims[2] as u64];
    for (i, name) in BARYON_FIELDS.iter().enumerate() {
        f.write_sds(name, NumType::F32, &d, &patch.fields[i].to_bytes());
    }
    for (i, (name, _)) in PARTICLE_ARRAYS.iter().enumerate() {
        f.write_sds(
            name,
            particle_numtype(i),
            &[sorted.len() as u64],
            &sorted.array_bytes(name),
        );
    }
}

/// Every particle of an HDF4 grid file, one SDS per array.
pub(crate) fn read_particles_sds(f: &H4File) -> ParticleSet {
    let mut ps = ParticleSet::new();
    for (name, _) in PARTICLE_ARRAYS.iter() {
        ps.set_array_bytes(name, &f.read_sds(name).1);
    }
    ps
}

impl IoStrategy for Hdf4Serial {
    fn name(&self) -> &'static str {
        "HDF4-serial"
    }

    fn write_checkpoint(&self, comm: &Comm, io: &MpiIo, st: &SimState, dump: u32) {
        let n = st.cfg.root_n();
        // --- Collect the top-grid at processor 0. ---
        let mut global_fields = Vec::new();
        for i in 0..NUM_FIELDS {
            let parts = comm.gatherv(0, st.my_top.fields[i].to_bytes());
            if comm.rank() == 0 {
                global_fields.push(assemble_global(comm, &st.decomp, n, &parts));
            }
        }
        let mut top_particles = ParticleSet::new();
        {
            let mut rec = Vec::new();
            for i in 0..st.my_top.particles.len() {
                wire::push_particle(&mut rec, &st.my_top.particles, i);
            }
            let parts = comm.gatherv(0, rec);
            if comm.rank() == 0 {
                for part in &parts {
                    wire::read_particles(part, &mut top_particles);
                }
                // Re-sort into the original read order (by ID).
                let np = top_particles.len() as u64;
                top_particles.sort_by_id();
                comm.compute(SimDur::from_nanos(
                    np.max(1).ilog2() as u64 * np * NS_PER_SORT_ITEM / 8,
                ));
            }
        }

        // --- Processor 0 writes the combined top-grid file. ---
        if comm.rank() == 0 {
            let mut f = H4File::create(io, comm, &topgrid_path(dump));
            f.write_attr(
                "hierarchy",
                &wire::encode_hierarchy(&st.hierarchy, st.time, st.cycle),
            );
            let mut top = GridPatch::new(TOP_GRID, 0, st.hierarchy.grids[0].bbox);
            top.fields = global_fields;
            write_patch_sds(&mut f, &top, &top_particles);
        }

        // --- Subgrids: every owner writes its own grid files in parallel.
        for g in &st.my_subgrids {
            let mut sorted = g.particles.clone();
            sorted.sort_by_id();
            let mut f = H4File::create(io, comm, &subgrid_path(dump, g.id));
            write_patch_sds(&mut f, g, &sorted);
        }
        comm.barrier();
    }

    fn read_checkpoint(&self, comm: &Comm, io: &MpiIo, cfg: &SimConfig, dump: u32) -> SimState {
        // --- Processor 0 reads the top-grid file and redistributes. ---
        let meta = from_root(comm, || {
            H4File::open(io, comm, &topgrid_path(dump)).read_attr("hierarchy")
        });
        let r = Restart::new(comm, cfg, &meta);
        // Rank 0 opens the top-grid file a second time for the data and
        // keeps the handle open across datasets.
        let top_file = (comm.rank() == 0).then(|| H4File::open(io, comm, &topgrid_path(dump)));
        let fields = r.top_fields_from_root(
            top_file
                .as_ref()
                .map(|f| |i: usize| f.read_sds(BARYON_FIELDS[i]).1),
        );
        // Particles: rank 0 reads all arrays, classifies them by
        // position, partitions and scatters.
        let particles = r.top_particles_from_root(top_file.as_ref().map(|f| {
            || {
                let ps = read_particles_sds(f);
                comm.compute(SimDur::from_nanos(ps.len() as u64 * NS_PER_CLASSIFY));
                ps
            }
        }));

        // --- Subgrids: round-robin read by the new owners. ---
        let subgrids = r.subgrids(|meta| {
            let f = H4File::open(io, comm, &subgrid_path(dump, meta.id));
            patch_from_arrays(meta, |k, _| f.read_sds(array_name(k)).1)
        });
        r.finish(fields, particles, subgrids)
    }
}
