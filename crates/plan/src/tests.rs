//! Planner unit tests, including the degenerate configurations:
//! zero-particle grids, decompositions wider than the grid, and the
//! sequential HDF4 path, plus hand-broken plans that exercise every
//! exact-once failure kind. `tests/plan_conformance.rs` proves the
//! typical, 1-rank, zero-particle and wide-decomposition plans with
//! both exact-once and `amrio-verify`'s collective-lockstep walk.

use crate::{
    plan, verify_exact_once, AccessPlan, Backend, DatasetPlan, FilePlan, Kind, PlanInput,
    RankRegions, Span, Writers,
};
use amrio_amr::{CellBox, GridMeta, Hierarchy};
use amrio_enzo::{Platform, TOP_GRID};
use amrio_hdf5::OverheadModel;

fn hierarchy(n: u64, np: u64, subgrids: &[(u64, u64, usize, u64)]) -> Hierarchy {
    let mut h = Hierarchy::new();
    h.add(GridMeta {
        id: TOP_GRID,
        level: 0,
        bbox: CellBox::cube(n),
        parent: None,
        owner: 0,
        nparticles: np,
    });
    for &(id, size, owner, nparticles) in subgrids {
        h.add(GridMeta {
            id,
            level: 1,
            bbox: CellBox::new([0, 0, 0], [size, size, size]),
            parent: Some(TOP_GRID),
            owner,
            nparticles,
        });
    }
    h
}

fn input(h: Hierarchy, nranks: usize) -> PlanInput {
    let platform = Platform::origin2000(nranks);
    PlanInput::new(h, 1.5, 7, nranks, &platform.fs)
}

fn backends() -> [Backend; 3] {
    [
        Backend::Hdf4,
        Backend::MpiIo,
        Backend::Hdf5(OverheadModel::default()),
    ]
}

fn assert_clean(input: &PlanInput, backend: Backend) {
    let p = plan(input, backend);
    let cov = verify_exact_once(&p);
    assert!(
        cov.is_proven(),
        "{} coverage issues: {:#?}",
        p.backend,
        cov.diagnostics
    );
    assert_eq!(p.write_schedule.len(), input.nranks);
    assert_eq!(p.read_schedule.len(), input.nranks);
}

#[test]
fn zero_particle_grids_are_proven() {
    let h = hierarchy(8, 0, &[(1, 4, 1, 0)]);
    let inp = input(h, 2);
    for b in backends() {
        let p = plan(&inp, b);
        // Every particle dataset is empty but still planned.
        let empties = p
            .files
            .iter()
            .flat_map(|f| f.datasets.iter())
            .filter(|d| d.len == 0)
            .count();
        assert!(empties >= 10, "{}: {empties} empty datasets", p.backend);
        assert_clean(&inp, b);
    }
}

#[test]
fn decomposition_wider_than_grid_is_proven() {
    // A 2^3 top grid split across 5 ranks: some slabs are empty, yet
    // coverage and lockstep must still hold.
    let h = hierarchy(2, 9, &[]);
    let inp = input(h, 5);
    for b in backends() {
        assert_clean(&inp, b);
    }
    // Empty slabs contribute no write regions.
    let p = plan(&inp, Backend::MpiIo);
    let field = &p.files[0].datasets[0];
    match &field.writers {
        Writers::Ranks(ranks) => assert!(ranks.len() < inp.nranks),
        Writers::Partition => panic!("field must have static writers"),
    }
}

#[test]
fn hdf4_topgrid_has_exactly_one_writer_rank_zero() {
    let h = hierarchy(8, 33, &[(1, 4, 2, 6)]);
    let inp = input(h, 4);
    let p = plan(&inp, Backend::Hdf4);
    // Sequential path: the combined top-grid file is written by rank 0
    // alone — every dataset writer and every metadata write.
    let top = &p.files[0];
    assert!(top.path.ends_with(".topgrid"));
    for ds in &top.datasets {
        match &ds.writers {
            Writers::Ranks(ranks) => {
                assert_eq!(ranks.len(), 1, "{}: multiple writers", ds.name);
                assert_eq!(ranks[0].rank, 0, "{}: writer is not rank 0", ds.name);
            }
            Writers::Partition => panic!("{}: HDF4 has no partitioned writers", ds.name),
        }
    }
    assert!(top.meta_writes.iter().all(|&(r, _, _)| r == 0));
    // Subgrid files are written by their owners — the only parallelism.
    assert!(p.files[1].meta_writes.iter().all(|&(r, _, _)| r == 2));
}

#[test]
fn mpiio_datasets_tile_the_file_between_header_and_meta() {
    let h = hierarchy(8, 50, &[(1, 4, 1, 7)]);
    let inp = input(h, 2);
    let p = plan(&inp, Backend::MpiIo);
    let f = &p.files[0];
    let mut extents: Vec<(u64, u64)> = f.datasets.iter().map(|d| d.extent()).collect();
    extents.sort_unstable();
    // Contiguous from the 64-byte header to the metadata address.
    let mut cur = amrio_enzo::io::mpiio::HEADER;
    for (s, l) in extents {
        assert_eq!(s, cur, "hole before offset {s}");
        cur += l;
    }
    let meta = f.meta_writes.iter().find(|&&(_, off, _)| off > 0).unwrap();
    assert_eq!(meta.1, cur, "hierarchy must start at end of data");
}

#[test]
fn schedules_match_across_models_except_overheads() {
    let h = hierarchy(8, 10, &[(1, 4, 0, 2)]);
    let inp = input(h, 2);
    let old = plan(&inp, Backend::Hdf5(OverheadModel::default()));
    let modern = plan(&inp, Backend::Hdf5(OverheadModel::modern()));
    // The 2002 model adds barriers (create/close sync, rank-0
    // attributes); stripping barriers must leave identical sequences.
    let strip = |p: &crate::AccessPlan| -> Vec<&'static str> {
        p.write_schedule[0]
            .iter()
            .filter(|s| s.kind != amrio_check::CollKind::Barrier)
            .map(|s| s.label)
            .collect()
    };
    assert_eq!(strip(&old), strip(&modern));
    assert!(old.write_schedule[0].len() > modern.write_schedule[0].len());
}

#[test]
fn metrics_are_sane() {
    let h = hierarchy(16, 200, &[(1, 4, 1, 10)]);
    let inp = input(h, 4);
    for b in backends() {
        let p = plan(&inp, b);
        let m = crate::layout_metrics(&inp, &p);
        assert_eq!(m.data_bytes, p.data_bytes());
        assert!(m.write_regions > 0);
        assert!(m.mean_region_bytes > 0.0);
        assert!(m.aligned_region_frac >= 0.0 && m.aligned_region_frac <= 1.0);
    }
    // Only the collective backends have an aggregator imbalance.
    let m4 = crate::layout_metrics(&inp, &plan(&inp, Backend::Hdf4));
    assert_eq!(m4.aggregator_imbalance, 0.0);
    let mio = crate::layout_metrics(&inp, &plan(&inp, Backend::MpiIo));
    assert!(mio.aggregator_imbalance >= 1.0);
}

/// A one-file plan over the given datasets and metadata writes.
fn broken(datasets: Vec<DatasetPlan>, meta_writes: Vec<(usize, u64, u64)>) -> AccessPlan {
    AccessPlan {
        backend: "test",
        nranks: 2,
        write_schedule: vec![Vec::new(), Vec::new()],
        read_schedule: vec![Vec::new(), Vec::new()],
        files: vec![FilePlan {
            path: "f".into(),
            datasets,
            meta_writes,
            reads: Vec::new(),
        }],
    }
}

/// Dataset `name` over `[start, start + len)` with per-rank regions.
fn ds(name: &str, start: u64, len: u64, writers: &[(usize, &[(u64, u64)])]) -> DatasetPlan {
    DatasetPlan {
        name: name.into(),
        start,
        len,
        collective: true,
        writers: Writers::Ranks(
            writers
                .iter()
                .map(|&(rank, regions)| RankRegions {
                    rank,
                    regions: regions.to_vec(),
                })
                .collect(),
        ),
    }
}

/// The plan fails exact-once with exactly one diagnostic, of `kind`
/// at `span`.
fn assert_single(p: &AccessPlan, kind: Kind, span: Span) {
    let cov = verify_exact_once(p);
    assert_eq!(cov.diagnostics.len(), 1, "{:#?}", cov.diagnostics);
    let d = &cov.diagnostics[0];
    assert_eq!((d.kind, &d.span), (kind, &span), "{d}");
    assert!(!cov.is_proven());
}

#[test]
fn region_escaping_its_extent_is_flagged() {
    // Rank 1's region runs 8 bytes past the end; the clipped regions
    // still tile the extent, so the escape is the only finding.
    let p = broken(
        vec![ds("d", 100, 100, &[(0, &[(100, 50)]), (1, &[(150, 58)])])],
        vec![],
    );
    let span = Span::new("test").file("f").dataset("d");
    assert_single(
        &p,
        Kind::RegionEscapesExtent,
        span.ranks(1, 1).bytes((150, 58)),
    );
}

#[test]
fn coverage_gap_is_flagged() {
    let p = broken(
        vec![ds("d", 0, 100, &[(0, &[(0, 40)]), (1, &[(60, 40)])])],
        vec![],
    );
    let span = Span::new("test").file("f").dataset("d");
    assert_single(&p, Kind::CoverageGap, span.bytes((40, 20)));
}

#[test]
fn overlapping_writers_are_flagged() {
    let p = broken(
        vec![ds("d", 0, 100, &[(0, &[(0, 60)]), (1, &[(50, 50)])])],
        vec![],
    );
    let span = Span::new("test").file("f").dataset("d");
    assert_single(
        &p,
        Kind::OverlappingWriters,
        span.ranks(0, 1).bytes((50, 10)),
    );
}

#[test]
fn overlapping_dataset_extents_are_flagged() {
    let p = broken(
        vec![
            ds("a", 0, 100, &[(0, &[(0, 100)])]),
            ds("b", 90, 50, &[(1, &[(90, 50)])]),
        ],
        vec![],
    );
    let span = Span::new("test").file("f").dataset("b");
    assert_single(&p, Kind::DatasetOverlap, span.bytes((90, 10)));
}

#[test]
fn metadata_write_on_payload_is_flagged() {
    let p = broken(
        vec![ds("d", 64, 100, &[(0, &[(64, 100)])])],
        vec![(1, 0, 80)],
    );
    let span = Span::new("test").file("f").dataset("d");
    assert_single(&p, Kind::MetaOnPayload, span.ranks(1, 1).bytes((0, 80)));
}
