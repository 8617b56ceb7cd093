//! The optimized MPI-IO design (paper §3.2/§3.3): all grids in one shared
//! file; regular baryon fields through collective two-phase I/O with
//! subarray file views; irregular particle arrays through a parallel
//! sample sort by ID followed by contiguous block-wise independent
//! writes; reads redistribute particles by position after block-wise
//! contiguous reads.

use super::*;
use crate::sort::parallel_sort_by_id;
use amrio_mpiio::{Mode, MpiFile};

/// The optimized parallel strategy: everything in one shared file
/// (paper §3.3 argues this benefits restart reads and tape migration).
#[derive(Default)]
pub struct MpiIoOptimized;

/// Ablation variant: top-grid in the shared file, but each subgrid in its
/// own file (the layout the single-file optimization replaces).
#[derive(Default)]
pub struct MpiIoMultiFile;

fn subgrid_file(dump: u32, gid: u64) -> String {
    format!("DD{dump:04}.g{gid:06}.cpio")
}

/// Offsets of one grid's arrays laid out back-to-back from `*cur`, in
/// file order; advances `*cur` past them.
fn pack(meta: &GridMeta, cur: &mut u64) -> Vec<u64> {
    (0..GRID_ARRAYS)
        .map(|k| {
            let off = *cur;
            *cur += array_len(meta, k);
            off
        })
        .collect()
}

/// Per-subgrid layout when each subgrid lives in its own file.
fn subgrid_offsets(meta: &GridMeta) -> Vec<u64> {
    pack(meta, &mut 0)
}

/// Deterministic layout of the shared checkpoint file, computed
/// identically by every rank from the replicated hierarchy.
pub struct Layout {
    /// (grid id, array index 0..17) -> file offset; array order is the
    /// fixed per-grid access order: 7 fields then 10 particle arrays.
    offsets: Vec<(u64, Vec<u64>)>,
    /// End of data; the serialized hierarchy goes here.
    pub meta_addr: u64,
}

/// Fixed-size file header: metadata address and length.
pub const HEADER: u64 = 64;

impl Layout {
    pub fn new(h: &Hierarchy) -> Layout {
        let mut cur = HEADER;
        let offsets = h.grids.iter().map(|g| (g.id, pack(g, &mut cur))).collect();
        Layout {
            offsets,
            meta_addr: cur,
        }
    }

    pub fn field_off(&self, gid: u64, field: usize) -> u64 {
        self.array_off(gid, field)
    }

    pub fn particle_off(&self, gid: u64, array: usize) -> u64 {
        self.array_off(gid, NUM_FIELDS + array)
    }

    /// Offset of array `k` (file order: fields, then particle arrays).
    pub fn array_off(&self, gid: u64, k: usize) -> u64 {
        self.offsets
            .iter()
            .find(|(id, _)| *id == gid)
            .unwrap_or_else(|| panic!("grid {gid} not in layout"))
            .1[k]
    }
}

/// Top grid into the shared file: collective I/O with subarray views
/// for the fields; a parallel sort by ID, then block-wise contiguous
/// independent writes, for the particles.
fn write_top_grid(comm: &Comm, f: &mut MpiFile<'_, '_>, st: &SimState, layout: &Layout) {
    let n = st.cfg.root_n();
    for i in 0..NUM_FIELDS {
        f.set_view(layout.field_off(TOP_GRID, i), slab_view(n, &st.my_top.bbox));
        f.write_all_view(&st.my_top.fields[i].to_bytes());
    }
    let (chunk, counts) = parallel_sort_by_id(comm, st.my_top.particles.clone());
    let my_start: u64 = counts[..comm.rank()].iter().sum();
    for (a, (name, width)) in PARTICLE_ARRAYS.iter().enumerate() {
        let off = layout.particle_off(TOP_GRID, a) + my_start * width;
        f.write_at(off, &chunk.array_bytes(name));
    }
}

/// Rank 0 appends the hierarchy and fills the header.
fn write_meta(comm: &Comm, f: &MpiFile<'_, '_>, st: &SimState, layout: &Layout) {
    if comm.rank() == 0 {
        let meta = wire::encode_hierarchy(&st.hierarchy, st.time, st.cycle);
        f.write_at(layout.meta_addr, &meta);
        let mut header = Vec::with_capacity(HEADER as usize);
        header.extend_from_slice(&layout.meta_addr.to_le_bytes());
        header.extend_from_slice(&(meta.len() as u64).to_le_bytes());
        header.resize(HEADER as usize, 0);
        f.write_at(0, &header);
    }
}

/// The encoded hierarchy the header points at.
pub(crate) fn read_meta(f: &MpiFile<'_, '_>) -> Vec<u8> {
    let header = f.read_at(0, 16);
    let addr = u64::from_le_bytes(header[..8].try_into().expect("8-byte field"));
    let len = u64::from_le_bytes(header[8..16].try_into().expect("8-byte field"));
    f.read_at(addr, len)
}

/// Subgrid `meta` of the shared file as one independent request per
/// array.
pub(crate) fn read_subgrid_per_array(
    f: &MpiFile<'_, '_>,
    layout: &Layout,
    meta: &GridMeta,
) -> GridPatch {
    patch_from_arrays(meta, |k, len| f.read_at(layout.array_off(meta.id, k), len))
}

impl MpiIoOptimized {
    pub(crate) fn write_impl(
        comm: &Comm,
        io: &MpiIo,
        st: &SimState,
        dump: u32,
        write_behind: bool,
    ) {
        let layout = Layout::new(&st.hierarchy);
        let mut f = io.open(comm, &shared_path(dump, "cpio"), Mode::Create);
        if write_behind && io.advisory().write_behind.is_none() {
            // Stage independent writes (particle chunks, subgrid arrays)
            // locally; adjacent arrays coalesce into large requests. An
            // advisory's capacity, armed at open, stands.
            f.enable_write_behind(4 << 20);
        }
        write_top_grid(comm, &mut f, st, &layout);

        // --- Subgrids: owners write into the shared file, no
        //     communication (paper §3.1). The 17 per-grid arrays are
        //     laid out back-to-back, so without write-behind staging
        //     they go down as one gathered request per grid.
        for g in &st.my_subgrids {
            if write_behind {
                for (k, a) in patch_arrays(g).enumerate() {
                    f.write_at(layout.array_off(g.id, k), &a);
                }
            } else {
                let arrays: Vec<Vec<u8>> = patch_arrays(g).collect();
                let start = layout.array_off(g.id, 0);
                debug_assert!(
                    arrays.iter().enumerate().all(|(k, a)| {
                        let end = layout.array_off(g.id, k) + a.len() as u64;
                        k + 1 == GRID_ARRAYS || end == layout.array_off(g.id, k + 1)
                    }),
                    "subgrid arrays must be contiguous"
                );
                let parts: Vec<&[u8]> = arrays.iter().map(|a| a.as_slice()).collect();
                f.write_gather_at(start, &parts);
            }
        }
        write_meta(comm, &f, st, &layout);
        f.flush_write_behind();
        comm.barrier();
    }

    /// Restart from the shared file: rank 0 reads the header and the
    /// hierarchy, collective view reads fetch the top-grid fields and
    /// block-wise contiguous reads the particles; `subgrid` reads each
    /// owned subgrid.
    fn read_shared(
        comm: &Comm,
        io: &MpiIo,
        cfg: &SimConfig,
        dump: u32,
        mut subgrid: impl FnMut(&MpiFile<'_, '_>, &Layout, &GridMeta) -> GridPatch,
    ) -> SimState {
        let mut f = io.open(comm, &shared_path(dump, "cpio"), Mode::Open);
        let r = Restart::new(comm, cfg, &from_root(comm, || read_meta(&f)));
        let layout = Layout::new(&r.hierarchy);
        let fields = r.top_fields(|i| {
            f.set_view(layout.field_off(TOP_GRID, i), slab_view(r.n(), &r.slab()));
            f.read_all_view()
        });
        let particles = r.top_particles_blockwise(|a, bs, be| {
            read_block(&f, layout.particle_off(TOP_GRID, a), a, bs, be)
        });
        let subgrids = r.subgrids(|meta| subgrid(&f, &layout, meta));
        r.finish(fields, particles, subgrids)
    }
}

impl IoStrategy for MpiIoOptimized {
    fn name(&self) -> &'static str {
        "MPI-IO"
    }

    fn write_checkpoint(&self, comm: &Comm, io: &MpiIo, st: &SimState, dump: u32) {
        // An installed tuning advisory can opt the standard strategy into
        // write-behind staging (the `MPI-IO+wb` ablation) without changing
        // which bytes land where.
        let wb = io.advisory().write_behind.is_some();
        MpiIoOptimized::write_impl(comm, io, st, dump, wb);
    }

    fn read_checkpoint(&self, comm: &Comm, io: &MpiIo, cfg: &SimConfig, dump: u32) -> SimState {
        // All 17 per-grid arrays are contiguous in the shared file, so
        // each subgrid is one scattered read into its destination buffers.
        MpiIoOptimized::read_shared(comm, io, cfg, dump, |f, layout, meta| {
            let mut bufs: Vec<Vec<u8>> = (0..GRID_ARRAYS)
                .map(|k| vec![0u8; array_len(meta, k) as usize])
                .collect();
            let mut parts: Vec<&mut [u8]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
            f.read_scatter_at(layout.field_off(meta.id, 0), &mut parts);
            patch_from_arrays(meta, |k, _| std::mem::take(&mut bufs[k]))
        })
    }
}

impl IoStrategy for MpiIoMultiFile {
    fn name(&self) -> &'static str {
        "MPI-IO-multifile"
    }

    fn write_checkpoint(&self, comm: &Comm, io: &MpiIo, st: &SimState, dump: u32) {
        // Top-grid exactly as the shared-file strategy...
        let layout = Layout::new(&st.hierarchy);
        let mut f = io.open(comm, &shared_path(dump, "cpio"), Mode::Create);
        write_top_grid(comm, &mut f, st, &layout);
        // ...but every subgrid goes to its own file.
        for g in &st.my_subgrids {
            let offs = subgrid_offsets(st.hierarchy.find(g.id).expect("meta"));
            let gf = io.open_single(comm, &subgrid_file(dump, g.id), Mode::Create);
            for (off, a) in offs.iter().zip(patch_arrays(g)) {
                gf.write_at(*off, &a);
            }
        }
        write_meta(comm, &f, st, &layout);
        comm.barrier();
    }

    fn read_checkpoint(&self, comm: &Comm, io: &MpiIo, cfg: &SimConfig, dump: u32) -> SimState {
        // Subgrids: one open + reads per file (the cost §3.3 avoids).
        MpiIoOptimized::read_shared(comm, io, cfg, dump, |_, _, meta| {
            let offs = subgrid_offsets(meta);
            let gf = io.open_single(comm, &subgrid_file(dump, meta.id), Mode::Open);
            patch_from_arrays(meta, |k, len| gf.read_at(offs[k], len))
        })
    }
}

#[cfg(test)]
mod layout_tests {
    use super::*;
    use amrio_amr::{CellBox, GridMeta, Hierarchy};

    fn h() -> Hierarchy {
        let mut h = Hierarchy::new();
        h.add(GridMeta {
            id: 0,
            level: 0,
            bbox: CellBox::cube(8),
            parent: None,
            owner: 0,
            nparticles: 100,
        });
        h.add(GridMeta {
            id: 3,
            level: 1,
            bbox: CellBox::new([0, 0, 0], [4, 4, 4]),
            parent: Some(0),
            owner: 1,
            nparticles: 10,
        });
        h
    }

    #[test]
    fn layout_is_contiguous_and_ordered() {
        let l = Layout::new(&h());
        // Grid 0 fields: 7 x 512 cells x 4B from the header.
        assert_eq!(l.field_off(0, 0), HEADER);
        assert_eq!(l.field_off(0, 1), HEADER + 512 * 4);
        // Particle arrays follow the fields, sized by count x width.
        let p0 = l.particle_off(0, 0);
        assert_eq!(p0, HEADER + 7 * 512 * 4);
        assert_eq!(l.particle_off(0, 1), p0 + 100 * 8);
        // Grid 3 starts right after grid 0's last array.
        let g3 = l.field_off(3, 0);
        assert!(g3 > l.particle_off(0, 9));
        // Meta block sits at the very end.
        assert!(l.meta_addr > l.particle_off(3, 9));
    }

    #[test]
    fn layout_identical_regardless_of_caller() {
        let a = Layout::new(&h());
        let b = Layout::new(&h());
        assert_eq!(a.meta_addr, b.meta_addr);
        for g in [0u64, 3] {
            for i in 0..7 {
                assert_eq!(a.field_off(g, i), b.field_off(g, i));
            }
        }
    }

    #[test]
    #[should_panic(expected = "not in layout")]
    fn unknown_grid_panics() {
        Layout::new(&h()).field_off(99, 0);
    }
}

/// The optimized strategy plus two-stage write-behind buffering of the
/// independent writes (the Liao et al. follow-up optimization): particle
/// chunks and the 17 adjacent per-subgrid arrays coalesce into large
/// requests before touching the file system.
#[derive(Default)]
pub struct MpiIoWriteBehind;

impl IoStrategy for MpiIoWriteBehind {
    fn name(&self) -> &'static str {
        "MPI-IO+wb"
    }

    fn write_checkpoint(&self, comm: &Comm, io: &MpiIo, st: &SimState, dump: u32) {
        MpiIoOptimized::write_impl(comm, io, st, dump, true);
    }

    fn read_checkpoint(&self, comm: &Comm, io: &MpiIo, cfg: &SimConfig, dump: u32) -> SimState {
        MpiIoOptimized.read_checkpoint(comm, io, cfg, dump)
    }
}

/// Future-work variant (paper §5, file system side): same optimized
/// strategy, but the application installs a per-file stripe matched to
/// its aggregator file domains, so domains never share lock blocks or
/// scatter into oversized fixed stripes.
#[derive(Default)]
pub struct MpiIoAppStriped;

impl MpiIoAppStriped {
    /// Stripe choice: the largest power of two not exceeding one
    /// aggregator file domain (floored at 64 KiB), so every domain spans
    /// whole blocks and small subgrid arrays own their lock blocks.
    fn stripe_for(layout: &Layout, nranks: usize) -> u64 {
        let span = layout.meta_addr - HEADER;
        let per = (span / nranks as u64).max(64 * 1024);
        // Power-of-two floor of the per-aggregator domain, clamped to
        // [64 KiB, 256 KiB]: no write ever spans many blocks, and the
        // small subgrid arrays own their lock blocks outright.
        (1u64 << (63 - per.leading_zeros() as u64)).clamp(64 * 1024, 256 * 1024)
    }
}

impl IoStrategy for MpiIoAppStriped {
    fn name(&self) -> &'static str {
        "MPI-IO-appstripe"
    }

    fn write_checkpoint(&self, comm: &Comm, io: &MpiIo, st: &SimState, dump: u32) {
        // Pre-create the file and install the application stripe (a
        // re-create keeps per-file striping), then run the standard
        // optimized write against it.
        let layout = Layout::new(&st.hierarchy);
        let f = io.open(comm, &shared_path(dump, "cpio"), Mode::Create);
        if comm.rank() == 0 {
            f.set_app_striping(Self::stripe_for(&layout, comm.size()));
        }
        comm.barrier();
        drop(f);
        MpiIoOptimized.write_checkpoint(comm, io, st, dump);
    }

    fn read_checkpoint(&self, comm: &Comm, io: &MpiIo, cfg: &SimConfig, dump: u32) -> SimState {
        MpiIoOptimized.read_checkpoint(comm, io, cfg, dump)
    }
}
