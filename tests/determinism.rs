//! Whole-stack determinism: identical configurations must give
//! bit-identical timings, bytes, and content digests across repeated
//! runs, regardless of host thread scheduling.

use amrio::enzo::spec::{ExperimentSpec, PlatformId, StrategyId};
use amrio::enzo::{Experiment, MpiIoOptimized, Platform, ProblemSize, SimConfig};

fn one(strategy: StrategyId) -> (u64, u64, u64, u64) {
    let mut spec = ExperimentSpec::new(PlatformId::IbmSp2, strategy, 16, 6);
    spec.cycles = 2;
    spec.particle_fraction = 0.5;
    let r = Experiment::from_spec(&spec)
        .expect("valid spec")
        .run()
        .report;
    assert!(r.verified);
    (
        (r.write_time * 1e9) as u64,
        (r.read_time * 1e9) as u64,
        r.bytes_written,
        r.bytes_read,
    )
}

#[test]
fn repeated_runs_are_bit_identical() {
    let a = one(StrategyId::MpiIoOptimized);
    let b = one(StrategyId::MpiIoOptimized);
    assert_eq!(a, b, "timings/bytes must not depend on host scheduling");
}

/// `(nranks, image_digest, makespan ns, ordered_ops)` of the rank sweep
/// below: ibm-sp2, mpiio-optimized, a 16^3 root grid, one cycle.
/// Host-side executor and collective changes must reproduce these
/// exactly; only a documented model change may move them.
const RANK_SWEEP_GOLDENS: [(usize, u64, u64, u64); 4] = [
    (4, 0xc2a2139b4d19faac, 265_814_245, 466),
    (16, 0xcf7e8fd9e867783e, 1_113_395_741, 1786),
    (64, 0x111092a0c72b8eef, 4_498_762_430, 7066),
    (256, 0xe5d3edd687d68e1a, 15_501_451_740, 28186),
];

/// Rank-sweep determinism under the indexed executor: worlds from 4 to
/// 256 ranks, run twice, must produce identical checkpoint images,
/// virtual makespans, and ordered-op counts, equal to the pinned
/// goldens — the scheduler and the collectives may change *when* host
/// threads wake, never *what* the simulation computes.
#[test]
fn rank_sweep_is_deterministic() {
    for (nranks, digest, makespan_ns, ordered_ops) in RANK_SWEEP_GOLDENS {
        let platform = Platform::ibm_sp2(nranks);
        let cfg = SimConfig::new(ProblemSize::Custom(16), nranks);
        let go = || {
            let r = Experiment::new(&platform, &cfg, &MpiIoOptimized)
                .cycles(1)
                .run()
                .report;
            assert!(r.verified, "restart verification failed at {nranks} ranks");
            (r.image_digest, (r.makespan * 1e9) as u64, r.ordered_ops)
        };
        let a = go();
        let b = go();
        assert_eq!(
            a, b,
            "(digest, makespan, ordered_ops) diverged at {nranks} ranks"
        );
        assert_eq!(
            a,
            (digest, makespan_ns, ordered_ops),
            "(digest, makespan, ordered_ops) moved off the golden at {nranks} ranks"
        );
    }
}

#[test]
fn strategies_read_write_same_payload() {
    let a = one(StrategyId::MpiIoOptimized);
    let b = one(StrategyId::Hdf4Serial);
    // Same simulation, so the raw array payload is the same; formats add
    // different metadata so allow a small envelope.
    let (aw, bw) = (a.2 as f64, b.2 as f64);
    assert!(
        (aw - bw).abs() / aw < 0.05,
        "payloads diverge: {aw} vs {bw}"
    );
}
