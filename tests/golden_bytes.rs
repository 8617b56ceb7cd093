//! Golden-bytes equivalence: the final file-system image of a
//! checkpoint dump, and the virtual time of its write and restart read,
//! must stay bit-identical across data-path changes.
//!
//! The three original digests were captured from the pre-zero-copy
//! implementation (scalar writes, payload-cloning collectives, domain
//! assembly in two-phase I/O); the table was extended to every strategy,
//! with write and read times, before the restart readers were folded
//! into one shared sequence. The cell is the one the selfbench smoke
//! cells use: IBM SP-2/GPFS platform, 16^3 root grid, 4 ranks, 2
//! evolution cycles. Any refactor that changes *what* lands on disk, or
//! which requests, compute charges and collectives the dump and restart
//! issue, fails here. `RunReport::image_digest` is an FNV-1a hash over
//! every file's path, length, and content.

use amrio::enzo::spec::StrategyId;
use amrio::enzo::{Experiment, Platform, ProblemSize, SimConfig};

const EVOLVE_CYCLES: u32 = 2;
const NRANKS: usize = 4;
const ROOT_N: u64 = 16;

/// `(image_digest, write_time.to_bits(), read_time.to_bits())`.
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

fn check(id: StrategyId) {
    let platform = Platform::ibm_sp2(NRANKS);
    let cfg = SimConfig::new(ProblemSize::Custom(ROOT_N), NRANKS);
    let strategy = id.build();
    let r = Experiment::new(&platform, &cfg, strategy.as_ref())
        .cycles(EVOLVE_CYCLES)
        .run()
        .report;
    assert!(r.verified, "{id}: restart verification failed");
    let got = (
        r.image_digest,
        r.write_time.to_bits(),
        r.read_time.to_bits(),
    );
    assert_eq!(
        got,
        pinned(id),
        "{id}: (image_digest, write bits, read bits)"
    );
}

#[test]
fn hdf4_serial_image_matches_seed() {
    check(StrategyId::Hdf4Serial);
}

#[test]
fn mpiio_optimized_image_matches_seed() {
    check(StrategyId::MpiIoOptimized);
}

#[test]
fn hdf5_parallel_image_matches_seed() {
    check(StrategyId::Hdf5Parallel);
}

#[test]
fn mpiio_naive_image_and_times_match_pins() {
    check(StrategyId::MpiIoNaive);
}

#[test]
fn mdms_advised_image_and_times_match_pins() {
    check(StrategyId::MdmsAdvised);
}

#[test]
fn mpiio_multifile_image_and_times_match_pins() {
    check(StrategyId::MpiIoMultiFile);
}

#[test]
fn mpiio_writebehind_image_and_times_match_pins() {
    check(StrategyId::MpiIoWriteBehind);
}

#[test]
fn mpiio_appstripe_image_and_times_match_pins() {
    check(StrategyId::MpiIoAppStriped);
}
