//! Static file-byte footprints: for each checkpoint file, the exact
//! extent of every dataset, the writer set of every payload byte, every
//! metadata write, and the byte regions the restart read must fetch —
//! all replayed from the same deterministic layout logic the runtime
//! uses (`Layout` for MPI-IO, the HDF4 record stream, the HDF5
//! `LayoutOracle`).

use crate::{Backend, DatasetPlan, FilePlan, PlanInput, RankRegions, Writers};
use amrio_amr::{GridMeta, NUM_FIELDS};
use amrio_enzo::io::hdf5::{ds_field, subgrid_datasets};
use amrio_enzo::io::mpiio::{Layout, HEADER};
use amrio_enzo::io::{
    array_dims, array_len, array_name, array_numtype, shared_path, subgrid_path, topgrid_path,
    GRID_ARRAYS,
};
use amrio_enzo::TOP_GRID;
use amrio_hdf4::{record_header_len, MAGIC_LEN};
use amrio_hdf5::{LayoutOracle, OverheadModel, SUPERBLOCK_LEN};
use amrio_mpiio::Datatype;

/// Footprint of one backend's checkpoint, plus the HDF5 catalog length
/// the schedule builder needs to pin the open broadcast.
pub struct Footprint {
    pub files: Vec<FilePlan>,
    pub h5_catalog_len: Option<u64>,
}

pub fn build(input: &PlanInput, backend: Backend) -> Footprint {
    match backend {
        Backend::Hdf4 => hdf4(input),
        Backend::MpiIo => mpiio(input),
        Backend::Hdf5(m) => hdf5(input, m),
    }
}

/// The per-rank subarray regions of one top-grid field write/read,
/// shifted to the field's absolute extent. Shares the flattening
/// iterator with the runtime datatype layer.
fn top_field_writers(input: &PlanInput, n: u64, start: u64) -> Writers {
    let decomp = input.decomp();
    let ranks = (0..input.nranks)
        .filter_map(|r| {
            let slab = decomp.slab(r);
            let t = Datatype::subarray3([n, n, n], slab.lo, slab.size(), 4);
            let regions: Vec<(u64, u64)> = t
                .flatten()
                .into_iter()
                .map(|(off, len)| (start + off, len))
                .collect();
            (!regions.is_empty()).then_some(RankRegions { rank: r, regions })
        })
        .collect();
    Writers::Ranks(ranks)
}

fn single_writer(rank: usize, start: u64, len: u64) -> Writers {
    if len == 0 {
        Writers::Ranks(Vec::new())
    } else {
        Writers::Ranks(vec![RankRegions {
            rank,
            regions: vec![(start, len)],
        }])
    }
}

/// The plan of array `k` of grid `g`, stored at `[start, start + len)`:
/// each top-grid field is written through every rank's slab view
/// (independently when `cb_write` is off), the top-grid particles in
/// ID-sorted blocks, and a subgrid's arrays by its owner alone.
fn grid_dataset(input: &PlanInput, g: &GridMeta, k: usize, start: u64, len: u64) -> DatasetPlan {
    let (collective, writers) = if g.id != TOP_GRID {
        (false, single_writer(g.owner, start, len))
    } else if k < NUM_FIELDS {
        (
            input.hints.cb_write,
            top_field_writers(input, input.root_n(), start),
        )
    } else {
        (false, Writers::Partition)
    };
    DatasetPlan {
        name: ds_field(g.id, array_name(k)),
        start,
        len,
        collective,
        writers,
    }
}

fn mpiio(input: &PlanInput) -> Footprint {
    let layout = Layout::new(&input.hierarchy);
    let meta_len = input.meta_len();

    let mut datasets = Vec::new();
    for g in &input.hierarchy.grids {
        for k in 0..GRID_ARRAYS {
            let start = layout.array_off(g.id, k);
            datasets.push(grid_dataset(input, g, k, start, array_len(g, k)));
        }
    }

    // Restart: rank 0 probes the 16-byte header prefix and the
    // hierarchy; every dataset extent is read back in full.
    let mut reads = vec![(0, 16), (layout.meta_addr, meta_len)];
    reads.extend(datasets.iter().map(|d| d.extent()));

    Footprint {
        files: vec![FilePlan {
            path: shared_path(input.dump, "cpio"),
            datasets,
            meta_writes: vec![(0, layout.meta_addr, meta_len), (0, 0, HEADER)],
            reads,
        }],
        h5_catalog_len: None,
    }
}

/// Replay one HDF4 record append: header then payload, both written by
/// `writer`, advancing the file cursor exactly like `H4File::append`.
fn h4_record(
    file: &mut FilePlan,
    cur: &mut u64,
    writer: usize,
    name: &str,
    ndims: usize,
    data_len: u64,
    as_dataset: bool,
) {
    let hlen = record_header_len(name.len(), ndims);
    file.meta_writes.push((writer, *cur, hlen));
    let start = *cur + hlen;
    if as_dataset {
        file.datasets.push(DatasetPlan {
            name: name.to_string(),
            start,
            len: data_len,
            collective: false,
            writers: single_writer(writer, start, data_len),
        });
    } else if data_len > 0 {
        // Attribute payload: metadata, not a dataset.
        file.meta_writes.push((writer, start, data_len));
    }
    *cur = start + data_len;
}

fn h4_file(path: String, writer: usize) -> (FilePlan, u64) {
    let file = FilePlan {
        path,
        datasets: Vec::new(),
        meta_writes: vec![(writer, 0, MAGIC_LEN)],
        reads: Vec::new(),
    };
    (file, MAGIC_LEN)
}

/// Replay `write_patch_sds`: one record per array of grid `g`.
fn h4_grid_records(file: &mut FilePlan, cur: &mut u64, writer: usize, g: &GridMeta) {
    for k in 0..GRID_ARRAYS {
        let ndims = array_dims(g, k).len();
        h4_record(
            file,
            cur,
            writer,
            array_name(k),
            ndims,
            array_len(g, k),
            true,
        );
    }
}

fn hdf4(input: &PlanInput) -> Footprint {
    let top_meta = input.hierarchy.find(TOP_GRID).expect("no top grid");

    // Top-grid file: magic, hierarchy attribute, 7 fields, 10 arrays —
    // all appended by rank 0.
    let (mut top, mut cur) = h4_file(topgrid_path(input.dump), 0);
    h4_record(
        &mut top,
        &mut cur,
        0,
        "hierarchy",
        1,
        input.meta_len(),
        false,
    );
    h4_grid_records(&mut top, &mut cur, 0, top_meta);
    // The restart re-opens the file (scanning every record header) and
    // reads every attribute and dataset: the whole file is fetched.
    top.reads = vec![(0, cur)];
    let mut files = vec![top];

    // Subgrid files: appended by their dump-time owners, fully read
    // back by the restart round-robin owners.
    for g in input.hierarchy.grids.iter().filter(|g| g.id != TOP_GRID) {
        let (mut f, mut cur) = h4_file(subgrid_path(input.dump, g.id), g.owner);
        h4_grid_records(&mut f, &mut cur, g.owner, g);
        f.reads = vec![(0, cur)];
        files.push(f);
    }

    Footprint {
        files,
        h5_catalog_len: None,
    }
}

fn hdf5(input: &PlanInput, model: OverheadModel) -> Footprint {
    let meta_len = input.meta_len();
    let top = input.hierarchy.find(TOP_GRID).expect("no top grid");

    let mut o = LayoutOracle::new(model, input.stripe);
    let mut file = FilePlan {
        path: shared_path(input.dump, "h5"),
        datasets: Vec::new(),
        // Superblock: written once at create, rewritten at close.
        meta_writes: vec![(0, 0, SUPERBLOCK_LEN)],
        reads: vec![(0, SUPERBLOCK_LEN)],
    };

    // Replay the exact allocation order of `Hdf5Parallel::write_checkpoint`.
    let attr_addr = o.write_attr("hierarchy", meta_len);
    file.meta_writes.push((0, attr_addr, meta_len));
    file.reads.push((attr_addr, meta_len));

    // Create one dataset; the close marker is a 16-byte rank-0 header
    // update just before the raw data.
    let mut create = |g: &GridMeta, k: usize| {
        let name = ds_field(g.id, array_name(k));
        let e = o.create_dataset(&name, array_numtype(k), &array_dims(g, k));
        file.meta_writes.push((0, e.header_addr, e.header_len));
        file.datasets
            .push(grid_dataset(input, g, k, e.data_addr, e.data_len));
        if g.id == TOP_GRID && k < NUM_FIELDS {
            let ua = o.write_attr(&format!("{name}_units"), 32);
            file.meta_writes.push((0, ua, 32));
        }
        file.meta_writes
            .push((0, e.data_addr.saturating_sub(64), 16));
    };
    for k in 0..GRID_ARRAYS {
        create(top, k);
    }
    for (g, k) in subgrid_datasets(&input.hierarchy) {
        create(g, k);
    }
    let (cat_addr, cat_len) = o.close();
    file.meta_writes.push((0, cat_addr, cat_len));
    file.meta_writes.push((0, 0, SUPERBLOCK_LEN));
    file.reads.push((cat_addr, cat_len));
    // The restart reads every dataset payload (fields collectively,
    // particles block-wise, subgrids whole).
    let extents: Vec<(u64, u64)> = file.datasets.iter().map(|d| d.extent()).collect();
    file.reads.extend(extents);

    Footprint {
        files: vec![file],
        h5_catalog_len: Some(cat_len),
    }
}
