//! The parallel HDF5 design (paper §3.4): the same access patterns as the
//! MPI-IO strategy — collective transfers for the regular baryon fields,
//! independent block-wise transfers for the sorted particle arrays — but
//! expressed as hyperslab selections on HDF5 datasets, inheriting the
//! library's 2002-era overheads (per-dataset synchronization, metadata
//! interleaving, recursive hyperslab packing, rank-0-only attributes).

use super::*;
use crate::sort::parallel_sort_by_id;
use amrio_hdf5::{H5File, Hyperslab, OverheadModel, Xfer};

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

/// Every subgrid dataset of the shared file in creation order: the
/// subgrids in hierarchy order, each one's arrays in file order. Dataset
/// creation allocates file space, so this order fixes every address; the
/// static planner's footprint replays it.
pub fn subgrid_datasets(h: &Hierarchy) -> impl Iterator<Item = (&GridMeta, usize)> {
    h.grids
        .iter()
        .filter(|g| g.id != TOP_GRID)
        .flat_map(|g| (0..GRID_ARRAYS).map(move |k| (g, k)))
}

fn slab_of(b: &CellBox, within: &CellBox) -> Hyperslab {
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
        let mut f = H5File::create(io, comm, &shared_path(dump, "h5"), self.model);
        f.write_attr(
            "hierarchy",
            &wire::encode_hierarchy(&st.hierarchy, st.time, st.cycle),
        );

        // --- Top-grid fields: collective hyperslab writes. ---
        let top = st.hierarchy.find(TOP_GRID).expect("top grid");
        for k in 0..NUM_FIELDS {
            let name = ds_field(TOP_GRID, array_name(k));
            let ds = f.create_dataset(&name, array_numtype(k), &array_dims(top, k));
            let slab = slab_of(&st.my_top.bbox, &top.bbox);
            f.write_hyperslab(ds, &slab, Xfer::Collective, &st.my_top.fields[k].to_bytes());
            f.write_attr(&format!("{name}_units"), &[0u8; 32]);
            f.close_dataset(ds);
        }

        // --- Top-grid particles: sort, then 1-D block hyperslabs,
        //     independent transfers. ---
        let (chunk, counts) = parallel_sort_by_id(comm, st.my_top.particles.clone());
        let my_start: u64 = counts[..comm.rank()].iter().sum();
        for k in NUM_FIELDS..GRID_ARRAYS {
            let name = ds_field(TOP_GRID, array_name(k));
            let ds = f.create_dataset(&name, array_numtype(k), &array_dims(top, k));
            if !chunk.is_empty() {
                let slab = Hyperslab::new(&[my_start], &[chunk.len() as u64]);
                f.write_hyperslab(
                    ds,
                    &slab,
                    Xfer::Independent,
                    &chunk.array_bytes(array_name(k)),
                );
            }
            f.close_dataset(ds);
        }

        // --- Subgrids: dataset creation is collective (everyone walks the
        //     hierarchy in the same order); only the owner transfers data.
        let mut payload = None;
        for (meta, k) in subgrid_datasets(&st.hierarchy) {
            if k == 0 {
                let local = st.my_subgrids.iter().find(|g| g.id == meta.id);
                payload = local.map(patch_arrays);
            }
            let dims = array_dims(meta, k);
            let ds = f.create_dataset(&ds_field(meta.id, array_name(k)), array_numtype(k), &dims);
            if let Some(bytes) = payload.as_mut().and_then(Iterator::next) {
                if array_len(meta, k) > 0 {
                    f.write_hyperslab(ds, &Hyperslab::all(&dims), Xfer::Independent, &bytes);
                }
            }
            f.close_dataset(ds);
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
            patch_from_arrays(meta, |k, len| {
                let ds = f.open_dataset(&ds_field(meta.id, array_name(k)));
                if len > 0 {
                    let all = Hyperslab::all(&array_dims(meta, k));
                    f.read_hyperslab(ds, &all, Xfer::Independent)
                } else {
                    Vec::new()
                }
            })
        });
        r.finish(fields, particles, subgrids)
    }
}
