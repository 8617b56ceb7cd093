//! Fault injection end to end: an empty plan is a strict no-op (golden
//! digests and virtual times reproduce exactly), seeded faults recover
//! deterministically, and a PVFS server failure in the middle of a dump
//! completes in degraded mode with the restart still verifying.

use amrio::check::CheckMode;
use amrio::enzo::{
    Experiment, Hdf4Serial, Hdf5Parallel, IoStrategy, MpiIoOptimized, Platform, ProblemSize,
    RunOutcome, SimConfig,
};
use amrio::fault::{window_secs, FaultPlan};
use amrio::simt::SimTime;
use std::num::NonZeroU32;
use std::sync::Arc;

const EVOLVE_CYCLES: u32 = 2;
const NRANKS: usize = 4;
const ROOT_N: u64 = 16;

/// The golden image digests of tests/golden_bytes.rs — the empty-plan
/// runs below must reproduce them bit for bit.
const GOLDEN_HDF4: u64 = 0x33c1060cccaba736;
const GOLDEN_MPIIO: u64 = 0xe775d975bcc484a4;
const GOLDEN_HDF5: u64 = 0x48f25b415df8973e;

fn run_sp2(strategy: &dyn IoStrategy, faults: Option<Arc<FaultPlan>>) -> RunOutcome {
    let platform = Platform::ibm_sp2(NRANKS);
    let cfg = SimConfig::new(ProblemSize::Custom(ROOT_N), NRANKS);
    let mut exp = Experiment::new(&platform, &cfg, strategy).cycles(EVOLVE_CYCLES);
    if let Some(plan) = faults {
        exp = exp.faults(plan);
    }
    exp.run()
}

/// Attaching an empty fault plan must change nothing: same checkpoint
/// image as the goldens, and bit-identical virtual times.
#[test]
fn empty_fault_plan_reproduces_goldens_exactly() {
    let cases: [(&dyn IoStrategy, u64); 3] = [
        (&Hdf4Serial, GOLDEN_HDF4),
        (&MpiIoOptimized, GOLDEN_MPIIO),
        (&Hdf5Parallel::default(), GOLDEN_HDF5),
    ];
    for (strategy, golden) in cases {
        let base = run_sp2(strategy, None).report;
        let faulted = run_sp2(strategy, Some(Arc::new(FaultPlan::new()))).report;
        assert!(base.verified && faulted.verified);
        assert_eq!(
            base.image_digest, golden,
            "{}: baseline digest",
            base.strategy
        );
        assert_eq!(
            faulted.image_digest, golden,
            "{}: empty plan changed the image",
            faulted.strategy
        );
        assert_eq!(
            faulted.write_time.to_bits(),
            base.write_time.to_bits(),
            "{}: empty plan changed write time",
            base.strategy
        );
        assert_eq!(
            faulted.read_time.to_bits(),
            base.read_time.to_bits(),
            "{}: empty plan changed read time",
            base.strategy
        );
        assert_eq!(
            faulted.makespan.to_bits(),
            base.makespan.to_bits(),
            "{}: empty plan changed makespan",
            base.strategy
        );
        assert!(faulted.resilience.is_quiet(), "empty plan recorded actions");
    }
}

/// Seeded transient errors + a server slowdown: retries fire, the run
/// slows down, the image stays correct, and everything is bit-identical
/// across repeated runs.
#[test]
fn seeded_faults_recover_deterministically() {
    let go = || {
        let plan = Arc::new(
            FaultPlan::new()
                .with_transient_errors(0, window_secs(0.0, 1.0e6), 4)
                .with_server_slowdown(1, window_secs(0.0, 1.0e6), 3.0),
        );
        let out = run_sp2(&MpiIoOptimized, Some(Arc::clone(&plan)));
        (
            out.report.makespan.to_bits(),
            out.report.image_digest,
            out.report.resilience,
        )
    };
    let (m1, d1, r1) = go();
    let (m2, d2, r2) = go();
    assert_eq!(m1, m2, "fault recovery must be deterministic");
    assert_eq!(d1, d2);
    assert_eq!(r1, r2);
    assert!(r1.retries >= 4, "transient budget must be consumed: {r1:?}");
    assert_eq!(r1.failovers, 0);
    assert_eq!(d1, GOLDEN_MPIIO, "faults must not change the bytes");
}

/// Kill a PVFS server in the middle of the checkpoint dump: the stripe
/// map degrades, survivors absorb the extents, the dump completes, and
/// the restart read verifies bit-for-bit — under the strict checker.
#[test]
fn mid_dump_pvfs_server_failure_degrades_gracefully() {
    let platform = Platform::chiba_pvfs(NRANKS);
    let cfg = SimConfig::new(ProblemSize::Custom(ROOT_N), NRANKS);

    // Probe a clean run to find the dump's time window.
    let baseline = Experiment::new(&platform, &cfg, &MpiIoOptimized)
        .cycles(EVOLVE_CYCLES)
        .check(CheckMode::Strict)
        .probe()
        .run();
    let probe = baseline.probe.expect("probe was requested");
    let writes: Vec<_> = probe.events.iter().filter(|e| e.write).collect();
    assert!(!writes.is_empty(), "baseline dump must write");
    let w0 = writes.iter().map(|e| e.start).min().unwrap();
    let w1 = writes.iter().map(|e| e.end).max().unwrap();
    // Fail server 2 a quarter of the way into the dump window.
    let t_fail = SimTime(w0.0 + (w1.0 - w0.0) / 4);

    let plan = Arc::new(FaultPlan::new().with_server_failure(2, t_fail));
    let out = Experiment::new(&platform, &cfg, &MpiIoOptimized)
        .cycles(EVOLVE_CYCLES)
        .check(CheckMode::Strict)
        .faults(Arc::clone(&plan))
        .run();
    let rep = out.report;
    let check = out.check.expect("checker was attached");

    assert!(rep.verified, "degraded-mode restart must verify");
    assert!(
        check.is_clean(),
        "checker violations under faults:\n{check}"
    );
    assert!(
        rep.resilience.failovers >= 1,
        "server failure must trigger a failover: {:?}",
        rep.resilience
    );
    assert_eq!(rep.resilience.degraded_servers, 1);
    assert!(
        rep.resilience.degraded_mode_secs > 0.0,
        "degraded-mode time must accrue: {:?}",
        rep.resilience
    );
    // Note: the degraded makespan is not necessarily larger — remapping
    // onto 7 survivors also means fewer pieces per striped request.
    assert_eq!(
        rep.image_digest, baseline.report.image_digest,
        "bytes must survive degradation"
    );
}

/// Crash-consistency end to end: arm a crash in the middle of a
/// generational run, let the driver recover from the newest committed
/// generation, and require the finished run to be byte-identical to the
/// clean generational run — deterministically, under the strict checker.
#[test]
fn crash_recovery_is_deterministic_and_byte_identical() {
    let platform = Platform::ibm_sp2(NRANKS);
    let cfg = SimConfig::new(ProblemSize::Custom(ROOT_N), NRANKS);

    // The clean generational baseline: dump + commit every cycle.
    let clean = Experiment::new(&platform, &cfg, &MpiIoOptimized)
        .cycles(EVOLVE_CYCLES)
        .dump_every(NonZeroU32::new(1).unwrap())
        .check(CheckMode::Strict)
        .run();
    assert!(clean.report.verified);
    assert!(clean.recovery.is_none(), "no crash was armed");

    let crashed_run = |t: SimTime| {
        let plan = Arc::new(FaultPlan::new().with_crash(t));
        Experiment::new(&platform, &cfg, &MpiIoOptimized)
            .cycles(EVOLVE_CYCLES)
            .dump_every(NonZeroU32::new(1).unwrap())
            .check(CheckMode::Strict)
            .faults(plan)
            .run()
    };

    // Crash halfway through the clean run's virtual makespan: some
    // generations are committed, later ones are torn or unwritten.
    let mid = SimTime((clean.report.makespan * 0.5e9) as u64);
    let a = crashed_run(mid);
    let rec = a
        .recovery
        .as_ref()
        .expect("the crash must trigger recovery");
    assert_eq!(rec.crashes, 1, "{rec:?}");
    assert!(rec.resume_verified, "resumed state must match its manifest");
    assert!(a.report.verified, "post-recovery restart must verify");
    assert!(a.check.as_ref().unwrap().is_clean());
    assert_eq!(a.report.resilience.crashes, 1);
    assert_eq!(a.report.resilience.recoveries, 1);
    assert_eq!(
        a.report.image_digest, clean.report.image_digest,
        "recovered run must finish with the clean run's bytes"
    );

    // Same seed + same crash time → bit-identical everything.
    let b = crashed_run(mid);
    assert_eq!(a.report.image_digest, b.report.image_digest);
    assert_eq!(
        a.report.makespan.to_bits(),
        b.report.makespan.to_bits(),
        "crash recovery must be deterministic"
    );
    assert_eq!(
        a.recovery.as_ref().unwrap().resumed_generation,
        b.recovery.as_ref().unwrap().resumed_generation
    );

    // A crash before any commit restarts from scratch and still
    // converges to the same bytes.
    let early = crashed_run(SimTime(1));
    let rec = early.recovery.as_ref().expect("early crash must recover");
    assert_eq!(rec.resumed_generation, None, "nothing was committed yet");
    assert!(early.report.verified);
    assert_eq!(early.report.image_digest, clean.report.image_digest);
}

/// A fault plan without a crash commits nothing: without `dump_every`
/// the run is the single dump, the goldens of
/// `empty_fault_plan_reproduces_goldens_exactly` remain in force, and
/// `crash_at` stays unarmed.
#[test]
fn crash_free_plans_keep_the_exact_path() {
    assert!(FaultPlan::new().crash_at().is_none());
    let plan = Arc::new(FaultPlan::new().with_transient_errors(0, window_secs(0.0, 1.0e6), 1));
    assert!(plan.crash_at().is_none());
    let out = run_sp2(&MpiIoOptimized, Some(plan));
    assert!(out.recovery.is_none(), "no crash, no recovery path");
    assert_eq!(out.report.image_digest, GOLDEN_MPIIO);
}

/// The single dump at `cycles = 0`, captured from the two-copy driver:
/// `(image_digest, makespan, write_time, read_time)` bits.
const ZERO_CYCLE_SINGLE_DUMP: (u64, u64, u64, u64) = (
    0x32506e00c0cf2be3,
    0x3fd128acf6b26836,
    0x3fc09d888281355b,
    0x3fc167ade2039e4e,
);

/// Every dump is preceded by a refinement rebuild, also at `cycles = 0`:
/// the single dump reproduces its pinned figures, and a generational
/// run of zero cycles dumps the same checkpoint (same timing, same
/// dump-time hierarchy) plus its manifest.
#[test]
fn zero_cycle_dump_rebuilds_on_both_commit_settings() {
    let platform = Platform::ibm_sp2(NRANKS);
    let cfg = SimConfig::new(ProblemSize::Custom(ROOT_N), NRANKS);
    let run = |dump_every: Option<u32>| {
        let mut exp = Experiment::new(&platform, &cfg, &MpiIoOptimized)
            .cycles(0)
            .probe();
        if let Some(k) = dump_every {
            exp = exp.dump_every(NonZeroU32::new(k).unwrap());
        }
        let out = exp.run();
        (
            out.report,
            out.probe.expect("probe was requested").hierarchy,
        )
    };
    let (single, single_hierarchy) = run(None);
    assert!(single.verified);
    assert_eq!(
        (
            single.image_digest,
            single.makespan.to_bits(),
            single.write_time.to_bits(),
            single.read_time.to_bits()
        ),
        ZERO_CYCLE_SINGLE_DUMP
    );

    let (generational, generational_hierarchy) = run(Some(1));
    assert!(generational.verified);
    assert_eq!(
        generational.write_time.to_bits(),
        single.write_time.to_bits(),
        "a zero-cycle generation must dump the single dump's checkpoint"
    );
    assert_eq!(generational.grids, single.grids);
    assert_eq!(generational.max_level, single.max_level);
    assert_eq!(
        generational_hierarchy, single_hierarchy,
        "both runs must dump the same refined hierarchy (grid ids, boxes, owners)"
    );
}

/// A crash armed without `dump_every` commits its one dump: a crash
/// before that commit restarts from scratch, one after it resumes from
/// generation 0, and both finish with the bytes of the crash-free run
/// that commits every `cycles` cycles.
#[test]
fn crash_without_dump_every_commits_the_single_dump() {
    let platform = Platform::ibm_sp2(NRANKS);
    let cfg = SimConfig::new(ProblemSize::Custom(ROOT_N), NRANKS);
    let clean = Experiment::new(&platform, &cfg, &MpiIoOptimized)
        .cycles(EVOLVE_CYCLES)
        .dump_every(NonZeroU32::new(EVOLVE_CYCLES).unwrap())
        .check(CheckMode::Strict)
        .probe()
        .run();
    assert!(clean.report.verified);
    let probe = clean.probe.expect("probe was requested");
    let manifest = probe
        .files
        .iter()
        .find(|(path, _)| *path == amrio::recover::manifest_path(0))
        .map(|&(_, id)| id)
        .expect("the clean run commits generation 0");
    let committed = probe
        .events
        .iter()
        .filter(|e| e.file == manifest && e.write)
        .map(|e| e.end)
        .max()
        .expect("the manifest is written");

    let crashed_run = |t: SimTime| {
        let plan = Arc::new(FaultPlan::new().with_crash(t));
        Experiment::new(&platform, &cfg, &MpiIoOptimized)
            .cycles(EVOLVE_CYCLES)
            .check(CheckMode::Strict)
            .faults(plan)
            .run()
    };
    for (t, resumed) in [(SimTime(1), None), (SimTime(committed.0 + 1), Some(0))] {
        let out = crashed_run(t);
        let rec = out.recovery.as_ref().expect("the armed crash must fire");
        assert_eq!(rec.resumed_generation, resumed, "crash at {t:?}");
        assert!(rec.resume_verified, "crash at {t:?}");
        assert!(out.report.verified, "crash at {t:?}");
        assert!(out.check.as_ref().unwrap().is_clean(), "crash at {t:?}");
        assert_eq!(
            out.report.image_digest, clean.report.image_digest,
            "crash at {t:?}: recovered run must finish with the committed run's bytes"
        );
    }
}

/// Per-rank compute stragglers dilate local work without breaking
/// verification, and message faults on the interconnect are absorbed by
/// retransmit/delay penalties.
#[test]
fn stragglers_and_message_faults_slow_but_do_not_break() {
    let base = run_sp2(&MpiIoOptimized, None).report;
    let plan = Arc::new(
        FaultPlan::new()
            .with_straggler(0, window_secs(0.0, 1.0e6), 2.0)
            .with_message_delays(
                None,
                None,
                window_secs(0.0, 1.0e6),
                amrio::simt::SimDur::from_micros(200),
                50,
            ),
    );
    let out = run_sp2(&MpiIoOptimized, Some(Arc::clone(&plan))).report;
    assert!(out.verified);
    assert_eq!(out.image_digest, GOLDEN_MPIIO);
    assert!(
        out.makespan > base.makespan,
        "straggler + delays must cost time: {} vs {}",
        out.makespan,
        base.makespan
    );
    assert!(out.resilience.straggler_secs > 0.0, "{:?}", out.resilience);
    assert!(out.resilience.delayed_messages > 0, "{:?}", out.resilience);
}
