//! Plan↔trace conformance: for each backend, a strict-mode checked run
//! is probed (collective log + Pfs trace) and diffed against the
//! statically derived access plan. Any divergence — an extra
//! collective, a stray byte, an unread planned region — is a hard
//! failure. The same plans must also pass the static proofs
//! (exact-once coverage, and collective lockstep by `amrio-verify`'s
//! vector-clock walk), as must the degenerate hand-built
//! configurations: 1-rank worlds, zero-particle grids, and
//! decompositions wider than the grid.

use amrio::amr::{CellBox, GridMeta, Hierarchy};
use amrio::check::CheckMode;
use amrio::enzo::TOP_GRID;
use amrio::enzo::{
    Experiment, Hdf4Serial, Hdf5Parallel, IoStrategy, MpiIoOptimized, Platform, ProblemSize,
    SimConfig,
};
use amrio::hdf5::OverheadModel;
use amrio::plan::{check_conformance, plan, verify_exact_once, AccessPlan, Backend, PlanInput};
use amrio::verify::clock;

fn cfg(nranks: usize) -> SimConfig {
    let mut c = SimConfig::new(ProblemSize::Custom(16), nranks);
    c.particle_fraction = 0.5;
    c.refine_threshold = 3.0;
    c
}

/// `p` is proven exact-once and in collective lockstep.
fn assert_proven(p: &AccessPlan) {
    let cov = verify_exact_once(p);
    let lock = clock::analyze(p).diagnostics;
    assert!(
        cov.is_proven() && lock.is_empty(),
        "{} ({} ranks): not proven:\n{:#?}\n{lock:#?}",
        p.backend,
        p.nranks,
        cov.diagnostics
    );
    assert!(cov.covered_bytes > 0, "{}: empty plan", p.backend);
}

fn assert_conforms(strategy: &dyn IoStrategy, backend: Backend, nranks: usize) {
    let platform = Platform::origin2000(nranks);
    let cfg = cfg(nranks);
    let out = Experiment::new(&platform, &cfg, strategy)
        .cycles(1)
        .check(CheckMode::Strict)
        .probe()
        .run();
    let (report, check, probe) = (
        out.report,
        out.check.expect("checker was attached"),
        out.probe.expect("probe was requested"),
    );
    assert!(report.verified, "{}: restart must verify", report.strategy);
    assert!(
        check.is_clean(),
        "{}: checker violations:\n{check}",
        report.strategy
    );

    let input = PlanInput::from_probe(&probe, &platform.fs);
    let p = plan(&input, backend);

    assert_proven(&p);

    let issues = check_conformance(&p, &probe);
    assert!(
        issues.is_empty(),
        "{} ({} ranks): {} plan/trace divergences:\n{}",
        p.backend,
        nranks,
        issues.len(),
        issues
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn hdf4_run_conforms_to_static_plan() {
    assert_conforms(&Hdf4Serial, Backend::Hdf4, 4);
}

#[test]
fn mpiio_run_conforms_to_static_plan() {
    assert_conforms(&MpiIoOptimized, Backend::MpiIo, 4);
}

#[test]
fn hdf5_run_conforms_to_static_plan() {
    assert_conforms(
        &Hdf5Parallel::default(),
        Backend::Hdf5(OverheadModel::default()),
        4,
    );
}

#[test]
fn hdf5_modern_model_run_conforms_to_static_plan() {
    let strategy = Hdf5Parallel {
        model: OverheadModel::modern(),
    };
    assert_conforms(&strategy, Backend::Hdf5(OverheadModel::modern()), 4);
}

#[test]
fn single_rank_runs_conform_to_static_plans() {
    assert_conforms(&Hdf4Serial, Backend::Hdf4, 1);
    assert_conforms(&MpiIoOptimized, Backend::MpiIo, 1);
    assert_conforms(
        &Hdf5Parallel::default(),
        Backend::Hdf5(OverheadModel::default()),
        1,
    );
}

/// Hand-built hierarchies the experiment runner never produces: the
/// top grid plus `(id, edge, owner, particles)` level-1 subgrids.
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

#[test]
fn degenerate_plans_are_proven_for_all_backends() {
    let cases = [
        (
            hierarchy(16, 120, &[(1, 4, 1, 10), (2, 8, 3, 0), (5, 2, 0, 3)]),
            4,
        ),
        (hierarchy(8, 40, &[(1, 4, 0, 5)]), 1),
        (hierarchy(8, 0, &[(1, 4, 1, 0)]), 2),
        // A 2^3 top grid across 5 ranks: some slabs are empty.
        (hierarchy(2, 9, &[]), 5),
    ];
    for (h, nranks) in cases {
        let input = PlanInput::new(h, 1.5, 7, nranks, &Platform::origin2000(nranks).fs);
        for backend in [
            Backend::Hdf4,
            Backend::MpiIo,
            Backend::Hdf5(OverheadModel::default()),
        ] {
            assert_proven(&plan(&input, backend));
        }
    }
}
