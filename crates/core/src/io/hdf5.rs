//! The parallel HDF5 design (paper §3.4): the same access patterns as the
//! MPI-IO strategy — collective transfers for the regular baryon fields,
//! independent block-wise transfers for the sorted particle arrays — but
//! expressed as hyperslab selections on HDF5 datasets, inheriting the
//! library's 2002-era overheads (per-dataset synchronization, metadata
//! interleaving, recursive hyperslab packing, rank-0-only attributes).

use super::*;
use crate::sort::parallel_sort_by_id;
use amrio_amr::{BARYON_FIELDS, PARTICLE_ARRAYS};
use amrio_hdf5::{H5File, Hyperslab, OverheadModel, Xfer};
use amrio_mpiio::NumType;

/// The parallel HDF5 strategy. Carries the overhead model so ablation
/// benches can toggle individual 2002 behaviours.
#[derive(Default)]
pub struct Hdf5Parallel {
    pub model: OverheadModel,
}

/// Name of the per-grid dataset holding one baryon field or particle
/// array; shared with the static planner so plans name real datasets.
pub fn ds_field(gid: u64, name: &str) -> String {
    format!("g{gid:06}_{name}")
}

fn slab_of(b: &amrio_amr::CellBox, within: &amrio_amr::CellBox) -> Hyperslab {
    let start = [
        b.lo[0] - within.lo[0],
        b.lo[1] - within.lo[1],
        b.lo[2] - within.lo[2],
    ];
    Hyperslab::new(&start, &b.size())
}

impl IoStrategy for Hdf5Parallel {
    fn name(&self) -> &'static str {
        "HDF5-parallel"
    }

    fn write_checkpoint(&self, comm: &Comm, io: &MpiIo, st: &SimState, dump: u32) {
        let n = st.cfg.root_n();
        let mut f = H5File::create(io, comm, &shared_path(dump, "h5"), self.model);
        f.write_attr(
            "hierarchy",
            &wire::encode_hierarchy(&st.hierarchy, st.time, st.cycle),
        );

        // --- Top-grid fields: collective hyperslab writes. ---
        let top_box = st.hierarchy.find(TOP_GRID).unwrap().bbox;
        for (i, name) in BARYON_FIELDS.iter().enumerate() {
            let ds = f.create_dataset(&ds_field(TOP_GRID, name), NumType::F32, &[n, n, n]);
            let slab = slab_of(&st.my_top.bbox, &top_box);
            f.write_hyperslab(ds, &slab, Xfer::Collective, &st.my_top.fields[i].to_bytes());
            f.write_attr(&format!("{}_units", ds_field(TOP_GRID, name)), &[0u8; 32]);
            f.close_dataset(ds);
        }

        // --- Top-grid particles: sort, then 1-D block hyperslabs,
        //     independent transfers. ---
        let (chunk, counts) = parallel_sort_by_id(comm, st.my_top.particles.clone());
        let np: u64 = counts.iter().sum();
        let my_start: u64 = counts[..comm.rank()].iter().sum();
        for (a, (name, _)) in PARTICLE_ARRAYS.iter().enumerate() {
            let ds = f.create_dataset(&ds_field(TOP_GRID, name), particle_numtype(a), &[np]);
            if !chunk.is_empty() {
                let slab = Hyperslab::new(&[my_start], &[chunk.len() as u64]);
                f.write_hyperslab(ds, &slab, Xfer::Independent, &chunk.array_bytes(name));
            }
            f.close_dataset(ds);
        }

        // --- Subgrids: dataset creation is collective (everyone walks the
        //     hierarchy in the same order); only the owner transfers data.
        let metas: Vec<amrio_amr::GridMeta> = st
            .hierarchy
            .grids
            .iter()
            .filter(|g| g.id != TOP_GRID)
            .cloned()
            .collect();
        for meta in &metas {
            let dims = meta.bbox.size();
            let local = st.my_subgrids.iter().find(|g| g.id == meta.id);
            let sorted = local.map(|g| {
                let mut s = g.particles.clone();
                s.sort_by_id();
                s
            });
            for (i, name) in BARYON_FIELDS.iter().enumerate() {
                let ds = f.create_dataset(&ds_field(meta.id, name), NumType::F32, &dims);
                if let Some(g) = local {
                    f.write_hyperslab(
                        ds,
                        &Hyperslab::all(&dims),
                        Xfer::Independent,
                        &g.fields[i].to_bytes(),
                    );
                }
                f.close_dataset(ds);
            }
            for (a, (name, _)) in PARTICLE_ARRAYS.iter().enumerate() {
                let ds = f.create_dataset(
                    &ds_field(meta.id, name),
                    particle_numtype(a),
                    &[meta.nparticles],
                );
                if let (Some(s), true) = (&sorted, meta.nparticles > 0) {
                    f.write_hyperslab(
                        ds,
                        &Hyperslab::all(&[meta.nparticles]),
                        Xfer::Independent,
                        &s.array_bytes(name),
                    );
                }
                f.close_dataset(ds);
            }
        }
        f.close();
    }

    fn read_checkpoint(&self, comm: &Comm, io: &MpiIo, cfg: &SimConfig, dump: u32) -> SimState {
        let mut f = H5File::open(io, comm, &shared_path(dump, "h5"), self.model);
        let r = Restart::new(comm, cfg, &from_root(comm, || f.read_attr("hierarchy")));

        // --- Top-grid fields: collective hyperslab reads. ---
        let top_box = r.hierarchy.find(TOP_GRID).expect("top grid").bbox;
        let fields = r.top_fields(|i| {
            let ds = f.open_dataset(&ds_field(TOP_GRID, BARYON_FIELDS[i]));
            f.read_hyperslab(ds, &slab_of(&r.slab(), &top_box), Xfer::Collective)
        });

        // --- Top-grid particles: block hyperslab reads + redistribution.
        //     An empty selection is not read.
        let particles = r.top_particles_blockwise(|a, bs, be| {
            let ds = f.open_dataset(&ds_field(TOP_GRID, PARTICLE_ARRAYS[a].0));
            if be > bs {
                f.read_hyperslab(ds, &Hyperslab::new(&[bs], &[be - bs]), Xfer::Independent)
            } else {
                Vec::new()
            }
        });

        // --- Subgrids: round-robin whole-dataset reads; a particle
        //     array of an empty subgrid is not read.
        let subgrids = r.subgrids(|meta| {
            patch_from_arrays(meta, |k, _| {
                let ds = f.open_dataset(&ds_field(meta.id, array_name(k)));
                if k < NUM_FIELDS {
                    let all = Hyperslab::all(&meta.bbox.size());
                    f.read_hyperslab(ds, &all, Xfer::Independent)
                } else if meta.nparticles > 0 {
                    let all = Hyperslab::all(&[meta.nparticles]);
                    f.read_hyperslab(ds, &all, Xfer::Independent)
                } else {
                    Vec::new()
                }
            })
        });
        r.finish(fields, particles, subgrids)
    }
}
