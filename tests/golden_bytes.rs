//! Golden-bytes equivalence: the final file-system image of a
//! checkpoint dump, and the virtual time of its write and restart read,
//! must stay bit-identical across data-path changes.
//!
//! The three original digests were captured from the pre-zero-copy
//! implementation (scalar writes, payload-cloning collectives, domain
//! assembly in two-phase I/O); the table was extended to every strategy,
//! with write and read times, before the restart readers were folded
//! into one shared sequence, and to two more cells before the per-grid
//! array catalogue was shared by every writer. Every cell runs on the
//! IBM SP-2/GPFS platform with a 16^3 root grid and 2 evolution cycles:
//!
//! * `SMOKE` — the selfbench smoke cell: 4 ranks, one particle per cell
//!   (5 grids: the top grid and 4 subgrids);
//! * `NO_PARTICLES` — 4 ranks, `particle_fraction = 0.0`: every particle
//!   dataset is empty, so every HDF5 particle selection is zero-length
//!   (1 grid);
//! * `THREE_RANKS` — 3 ranks, `particle_fraction = 0.5`: 2048 top-grid
//!   particles split into uneven ID blocks (5 grids).
//!
//! Any refactor that changes *what* lands on disk, or which requests,
//! compute charges and collectives the dump and restart issue, fails
//! here. `RunReport::image_digest` is an FNV-1a hash over every file's
//! path, length, and content. The initial-conditions file written by
//! `ic::write_initial_conditions` is pinned by its own file digest.

use amrio::enzo::ic::{ic_path, write_initial_conditions};
use amrio::enzo::spec::StrategyId;
use amrio::enzo::{Experiment, Platform, ProblemSize, SimConfig};
use amrio::mpi::World;
use amrio::mpiio::MpiIo;

const EVOLVE_CYCLES: u32 = 2;
const ROOT_N: u64 = 16;

/// One configuration of the table: rank count, particle fraction and the
/// number of grids its dump holds.
struct Cell {
    nranks: usize,
    particle_fraction: f64,
    grids: usize,
}

const SMOKE: Cell = Cell {
    nranks: 4,
    particle_fraction: 1.0,
    grids: 5,
};
const NO_PARTICLES: Cell = Cell {
    nranks: 4,
    particle_fraction: 0.0,
    grids: 1,
};
const THREE_RANKS: Cell = Cell {
    nranks: 3,
    particle_fraction: 0.5,
    grids: 5,
};

/// `(image_digest, write_time.to_bits(), read_time.to_bits())` of the
/// `SMOKE` cell.
fn pinned(id: StrategyId) -> (u64, u64, u64) {
    match id {
        StrategyId::Hdf4Serial => (0x33c1060cccaba736, 0x3fc1e755ab137ac2, 0x3ff5d3e77e42bfdd),
        StrategyId::MpiIoOptimized => (0xe775d975bcc484a4, 0x3fc0836a74234ea0, 0x3fc14d8dfb337023),
        StrategyId::Hdf5Parallel => (0x48f25b415df8973e, 0x3fe37268a8be833c, 0x3fe97d6f5f087920),
        StrategyId::MpiIoNaive => (0xe775d975bcc484a4, 0x3fc0836a74234ea0, 0x3ffffca649f893f2),
        StrategyId::MdmsAdvised => (0x406f437104267724, 0x3fc0c58554570915, 0x3fe02f9e13e2f20e),
        StrategyId::MpiIoMultiFile => (0x4751cd15603d328e, 0x3fc71a9068dd27fe, 0x3fc7ee806ed8d953),
        StrategyId::MpiIoWriteBehind => {
            (0xe775d975bcc484a4, 0x3fc340d217ba5bdc, 0x3fc14d8dfb337023)
        }
        StrategyId::MpiIoAppStriped => (0xe775d975bcc484a4, 0x3fc159a71b0c75da, 0x3fc4bf23dfe1b011),
    }
}

/// The `NO_PARTICLES` cell's pins.
fn pinned_no_particles(id: StrategyId) -> (u64, u64, u64) {
    match id {
        StrategyId::Hdf4Serial => (0x9513eec785b1418e, 0x3fa0354415bfc107, 0x3fd511f5b762e96a),
        StrategyId::MpiIoOptimized => (0xe9efb63fa3ea0ad7, 0x3fa2181d69589a5c, 0x3faa9a1652630a78),
        StrategyId::Hdf5Parallel => (0x377b50d1dd1155e3, 0x3fb8cb8aa08b0306, 0x3fb517181b3b0017),
        StrategyId::MpiIoNaive => (0xe9efb63fa3ea0ad7, 0x3fa2181d69589a5c, 0x3ff88782266066f3),
        StrategyId::MdmsAdvised => (0xec82beb321a07062, 0x3fa32088ea278431, 0x3faab0972e7cb783),
        StrategyId::MpiIoMultiFile => (0xe9efb63fa3ea0ad7, 0x3fa2181d69589a5c, 0x3faa9a1652630a78),
        StrategyId::MpiIoWriteBehind => {
            (0xe9efb63fa3ea0ad7, 0x3f95da531d336c94, 0x3faa9a1652630a78)
        }
        StrategyId::MpiIoAppStriped => (0xe9efb63fa3ea0ad7, 0x3fa2f1b51fc32514, 0x3fae0bac39370be3),
    }
}

/// The `THREE_RANKS` cell's pins.
fn pinned_three_ranks(id: StrategyId) -> (u64, u64, u64) {
    match id {
        StrategyId::Hdf4Serial => (0x14dc60ee535c0325, 0x3fc0fb0abc8b4fef, 0x3ff5ea3cecd693b1),
        StrategyId::MpiIoOptimized => (0x0d915c7ee3b5bcfc, 0x3fc0bc0c579e99d6, 0x3fc031f6db71b3d5),
        StrategyId::Hdf5Parallel => (0x65e63b8eb257c737, 0x3fe304ac78aa9cdd, 0x3fe5759e3dd45d20),
        StrategyId::MpiIoNaive => (0x0d915c7ee3b5bcfc, 0x3fc0bc0c579e99d6, 0x3fe5b08c78268ae2),
        StrategyId::MdmsAdvised => (0x1b5fb161de440077, 0x3fc0fe270cdf3687, 0x3fd75f18582a5253),
        StrategyId::MpiIoMultiFile => (0x69b0bd8a79f318ef, 0x3fc76bc5ab9b4ed0, 0x3fc6e00cc13fb70b),
        StrategyId::MpiIoWriteBehind => {
            (0x0d915c7ee3b5bcfc, 0x3fc0bc3c193e730b, 0x3fc031f6db71b3d5)
        }
        StrategyId::MpiIoAppStriped => (0x0d915c7ee3b5bcfc, 0x3fc13994f94344c6, 0x3fc2028ba4d3226b),
    }
}

fn check(cell: &Cell, id: StrategyId, want: (u64, u64, u64)) {
    let platform = Platform::ibm_sp2(cell.nranks);
    let mut cfg = SimConfig::new(ProblemSize::Custom(ROOT_N), cell.nranks);
    cfg.particle_fraction = cell.particle_fraction;
    let strategy = id.build();
    let r = Experiment::new(&platform, &cfg, strategy.as_ref())
        .cycles(EVOLVE_CYCLES)
        .run()
        .report;
    assert!(r.verified, "{id}: restart verification failed");
    assert_eq!(r.grids, cell.grids, "{id}: grid count");
    let got = (
        r.image_digest,
        r.write_time.to_bits(),
        r.read_time.to_bits(),
    );
    assert_eq!(
        got, want,
        "{id} x {} ranks, particle fraction {}: (image_digest, write bits, read bits)",
        cell.nranks, cell.particle_fraction
    );
}

#[test]
fn hdf4_serial_image_matches_seed() {
    check(
        &SMOKE,
        StrategyId::Hdf4Serial,
        pinned(StrategyId::Hdf4Serial),
    );
}

#[test]
fn mpiio_optimized_image_matches_seed() {
    let id = StrategyId::MpiIoOptimized;
    check(&SMOKE, id, pinned(id));
}

#[test]
fn hdf5_parallel_image_matches_seed() {
    check(
        &SMOKE,
        StrategyId::Hdf5Parallel,
        pinned(StrategyId::Hdf5Parallel),
    );
}

#[test]
fn mpiio_naive_image_and_times_match_pins() {
    check(
        &SMOKE,
        StrategyId::MpiIoNaive,
        pinned(StrategyId::MpiIoNaive),
    );
}

#[test]
fn mdms_advised_image_and_times_match_pins() {
    check(
        &SMOKE,
        StrategyId::MdmsAdvised,
        pinned(StrategyId::MdmsAdvised),
    );
}

#[test]
fn mpiio_multifile_image_and_times_match_pins() {
    let id = StrategyId::MpiIoMultiFile;
    check(&SMOKE, id, pinned(id));
}

#[test]
fn mpiio_writebehind_image_and_times_match_pins() {
    let id = StrategyId::MpiIoWriteBehind;
    check(&SMOKE, id, pinned(id));
}

#[test]
fn mpiio_appstripe_image_and_times_match_pins() {
    let id = StrategyId::MpiIoAppStriped;
    check(&SMOKE, id, pinned(id));
}

#[test]
fn particle_free_cell_matches_pins_for_every_strategy() {
    for id in StrategyId::ALL {
        check(&NO_PARTICLES, id, pinned_no_particles(id));
    }
}

#[test]
fn three_rank_half_particle_cell_matches_pins_for_every_strategy() {
    for id in StrategyId::ALL {
        check(&THREE_RANKS, id, pinned_three_ranks(id));
    }
}

#[test]
fn initial_conditions_file_matches_pin() {
    // The configuration of the `ic` module's own tests.
    let platform = Platform::origin2000(4);
    let mut cfg = SimConfig::new(ProblemSize::Custom(16), 4);
    cfg.particle_fraction = 0.5;
    let io = MpiIo::new(platform.fs.clone());
    World::new(4, platform.net.clone()).run(|c| write_initial_conditions(c, &io, &cfg));
    let fs = io.fs();
    let fs = fs.lock();
    let id = fs.file_id(ic_path()).expect("IC file written");
    assert_eq!(fs.file_digest(id), 0xd74a8d3894825296);
}
