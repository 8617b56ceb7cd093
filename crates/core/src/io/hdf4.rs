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
use amrio_hdf4::H4File;

/// The serial HDF4 baseline strategy.
#[derive(Default)]
pub struct Hdf4Serial;

const NS_PER_SORT_ITEM: u64 = 30;

/// One SDS per array of grid `meta`, whose data `patch` holds.
pub(crate) fn write_patch_sds(f: &mut H4File, meta: &GridMeta, patch: &GridPatch) {
    for (k, bytes) in patch_arrays(patch).enumerate() {
        f.write_sds(
            array_name(k),
            array_numtype(k),
            &array_dims(meta, k),
            &bytes,
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
            let meta = st.hierarchy.find(TOP_GRID).expect("top grid");
            let mut top = GridPatch::new(TOP_GRID, 0, meta.bbox);
            top.fields = global_fields;
            top.particles = top_particles;
            write_patch_sds(&mut f, meta, &top);
        }

        // --- Subgrids: every owner writes its own grid files in parallel.
        for g in &st.my_subgrids {
            let meta = st.hierarchy.find(g.id).expect("subgrid meta");
            let mut f = H4File::create(io, comm, &subgrid_path(dump, g.id));
            write_patch_sds(&mut f, meta, g);
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
