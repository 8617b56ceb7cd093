//! Differential guarantees for `amrio-verify`: the unmutated shipped
//! plan proves Safe *and* replays clean through the real runtime
//! checker; every seeded mutation is flagged statically with the
//! expected kind, by the verifier and by `amrio-tune`'s lints alike;
//! and every plan-level mutation also reproduces under
//! the runtime checker with its violation kinds covered by the static
//! report — zero false negatives at kind granularity. The fault- and
//! commit-level mutations are reproduced against the runtime *stack*
//! instead (retry exhaustion, crash recovery, the recovery scanner, the
//! manifest checksum), since the collective checker never sees them.

use amrio::check::CheckMode;
use amrio::enzo::{
    Experiment, Hdf4Serial, Hdf5Parallel, MpiIoNaive, MpiIoOptimized, Platform, ProblemSize,
    SimConfig,
};
use amrio::fault::{FaultPlan, RetryPolicy};
use amrio::net::{Net, NetConfig};
use amrio::plan::{plan, Backend, Kind, PlanInput, Severity};
use amrio::recover::{manifest_path, scan, GenStatus, Manifest, ManifestError};
use amrio::simt::SimTime;
use amrio::tune::{lint, lint_faults};
use amrio::verify::mutate::corpus;
use amrio::verify::{replay, runtime_kind, verify, Verdict, VerifyInput, VerifyStatic};
use std::num::NonZeroU32;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

const NRANKS: usize = 4;

fn cell() -> (Platform, SimConfig) {
    (
        Platform::origin2000(NRANKS),
        SimConfig::new(ProblemSize::Custom(16), NRANKS),
    )
}

/// The dump-time plan input of the shipped MPI-IO experiment, via a
/// probed run (the same hierarchy `plan_input_of` derives statically).
fn probed_input(platform: &Platform, cfg: &SimConfig) -> PlanInput {
    let probe = Experiment::new(platform, cfg, &MpiIoOptimized)
        .cycles(2)
        .probe()
        .run()
        .probe
        .expect("probe requested");
    PlanInput::from_probe(&probe, &platform.fs)
}

/// The positive half of the differential gate: the unmutated plan is
/// statically Safe, and the replayed runtime checker agrees it is clean.
#[test]
fn unmutated_plan_is_safe_and_replays_clean() {
    let (platform, cfg) = cell();
    let input = probed_input(&platform, &cfg);
    let p = plan(&input, Backend::MpiIo);

    let report = verify(&VerifyInput::plain(&p, &input.hints, &platform.fs));
    assert_eq!(
        report.verdict(),
        Verdict::Safe,
        "shipped plan must prove Safe:\n{report}"
    );
    assert!(report.pairs.disjoint + report.pairs.ordered > 0);
    assert!(report.barriers.0 > 0, "write phase must have sync edges");

    let runtime = replay(&p, &input.hints, &platform.fs, CheckMode::Log);
    assert!(
        runtime.is_clean(),
        "replayed checker must agree with Safe:\n{runtime}"
    );
    // Strict replay is the same claim, stated as "does not panic".
    replay(&p, &input.hints, &platform.fs, CheckMode::Strict);
}

/// `.verify_static()` on real experiments: every modeled strategy
/// proves Safe; an unmodeled strategy honestly says Unknown.
#[test]
fn experiments_verify_statically() {
    let (platform, cfg) = cell();
    for report in [
        Experiment::new(&platform, &cfg, &MpiIoOptimized).cycles(2),
        Experiment::new(&platform, &cfg, &Hdf4Serial).cycles(2),
        Experiment::new(&platform, &cfg, &Hdf5Parallel::default()).cycles(2),
    ]
    .map(|e| e.verify_static())
    {
        assert_eq!(report.verdict(), Verdict::Safe, "{report}");
    }

    let unmodeled = Experiment::new(&platform, &cfg, &MpiIoNaive)
        .cycles(2)
        .verify_static();
    assert_eq!(unmodeled.verdict(), Verdict::Unknown);
    assert!(
        unmodeled.kinds().contains(&Kind::UnmodeledBackend),
        "{unmodeled}"
    );
}

/// Every corpus case is flagged statically with exactly the expected
/// verdict, and the expected kinds appear in the report — for multiple
/// seeds, since the mutation sites are seed-chosen. The lint pass must
/// agree: every expected schedule or race kind appears at `Error` in
/// `lint` under the case's hints, and every expected fault or
/// crash-floor kind in `lint_faults`.
#[test]
fn every_mutation_is_flagged_statically() {
    let (platform, cfg) = cell();
    let input = probed_input(&platform, &cfg);
    for seed in [1, 0xC0FFEE, 0xDEAD_BEEF_u64] {
        for case in corpus(&input, seed) {
            let report = verify(&VerifyInput {
                plan: &case.plan,
                hints: &case.hints,
                fs: &platform.fs,
                faults: case.faults.as_ref(),
                retry: case.retry,
                commit: case.commit,
            });
            assert_eq!(
                report.verdict(),
                case.expect_verdict,
                "seed {seed} case {}: {}\n{report}",
                case.name,
                case.description
            );
            let kinds = report.kinds();
            let lints = lint(
                &PlanInput {
                    hints: case.hints,
                    ..input.clone()
                },
                &case.plan,
            );
            let fault_lints = case
                .faults
                .as_ref()
                .map(|f| lint_faults(&case.plan, &platform.fs, f, &case.retry))
                .unwrap_or_default();
            for &k in &case.expect {
                assert!(
                    kinds.contains(&k),
                    "seed {seed} case {}: missing {k}\n{report}",
                    case.name
                );
                let linted = match k {
                    Kind::RankDivergence
                    | Kind::ScheduleDeadlock
                    | Kind::WriteWriteRace
                    | Kind::UnsyncedRead
                    | Kind::SievingRmw => lints
                        .iter()
                        .any(|d| d.kind == k && d.severity == Severity::Error),
                    Kind::FailoverStripped
                    | Kind::RetryBudgetExceeded
                    | Kind::CrashBeforeFirstCommit => fault_lints.iter().any(|d| d.kind == k),
                    _ => true,
                };
                assert!(
                    linted,
                    "seed {seed} case {}: lint disagrees with verify on {k}\n{lints:#?}\n\
                     {fault_lints:#?}",
                    case.name
                );
            }
        }
    }
}

/// The zero-false-negative direction: every plan-level mutation also
/// reproduces under the replayed *runtime* checker, and every runtime
/// violation's kind is covered by the static report.
#[test]
fn plan_mutations_reproduce_under_the_runtime_checker() {
    let (platform, cfg) = cell();
    let input = probed_input(&platform, &cfg);
    for case in corpus(&input, 42) {
        if !case.replay_flags {
            continue;
        }
        let static_report = verify(&VerifyInput {
            plan: &case.plan,
            hints: &case.hints,
            fs: &platform.fs,
            faults: case.faults.as_ref(),
            retry: case.retry,
            commit: case.commit,
        });
        let static_kinds = static_report.kinds();
        let runtime = replay(&case.plan, &case.hints, &platform.fs, CheckMode::Log);
        assert!(
            !runtime.is_clean(),
            "case {}: mutation must reproduce at runtime",
            case.name
        );
        for v in &runtime.violations {
            let k = runtime_kind(v)
                .unwrap_or_else(|| panic!("case {}: unmapped runtime violation {v:?}", case.name));
            assert!(
                static_kinds.contains(&k),
                "FALSE NEGATIVE: case {}: runtime reports {k} but static report is\n{static_report}",
                case.name
            );
        }
    }
}

/// Runtime reproduction of `strip-failover`: a permanent server failure
/// with failover disabled is unrecoverable — the dump dies in the retry
/// layer, exactly what `Unknown(FailoverStripped)` refuses to prove away.
#[test]
fn stripped_failover_is_fatal_at_runtime() {
    let platform = Platform::chiba_pvfs(NRANKS);
    let cfg = SimConfig::new(ProblemSize::Custom(16), NRANKS);
    let faults = Arc::new(FaultPlan::new().with_server_failure(2, SimTime(0)));
    let no_failover = RetryPolicy {
        failover: false,
        ..RetryPolicy::default()
    };
    let err = catch_unwind(AssertUnwindSafe(|| {
        Experiment::new(&platform, &cfg, &MpiIoOptimized)
            .cycles(2)
            .faults(faults)
            .retry_policy(no_failover)
            .run();
    }))
    .expect_err("a dead server without failover must be fatal");
    let msg = err
        .downcast_ref::<String>()
        .map(|s| s.as_str())
        .or_else(|| err.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic>");
    assert!(
        msg.contains("unrecoverable I/O fault"),
        "unexpected panic: {msg}"
    );
}

/// Runtime reproduction of `pre-commit-crash`: a crash armed before the
/// first commit floor restarts from scratch — no committed generation
/// existed, exactly what `Unknown(CrashBeforeFirstCommit)` predicts.
#[test]
fn pre_commit_crash_restarts_from_scratch() {
    let (platform, cfg) = cell();
    let faults = Arc::new(FaultPlan::new().with_crash(SimTime(1_000)));
    let out = Experiment::new(&platform, &cfg, &MpiIoOptimized)
        .cycles(2)
        .dump_every(NonZeroU32::new(1).unwrap())
        .faults(faults)
        .run();
    let rec = out.recovery.expect("the armed crash must fire");
    assert_eq!(
        rec.resumed_generation, None,
        "no generation can commit before 1µs"
    );
    assert!(out.report.verified, "from-scratch rerun must still verify");
}

/// Runtime reproduction of `unordered-commit`: publishing the manifest
/// while the dump is still in flight opens a window where the recovery
/// scanner accepts a half-written generation as Committed — and once
/// the late data lands, the same generation scans Torn.
#[test]
fn unordered_commit_exposes_a_half_written_generation() {
    let (platform, _) = cell();
    let mut fs = amrio::disk::Pfs::new(platform.fs.clone());
    let mut net = Net::new(NetConfig::ccnuma(NRANKS));

    let (fid, t) = fs.create(0, &mut net, "DD0000.topgrid", SimTime::ZERO);
    // Half the dump lands...
    let t = fs.write_at(0, &mut net, fid, 0, &[7u8; 2048], t);
    // ...and the manifest is published *before* the rest (the commit
    // ordering the CommitNotOrdered violation refutes).
    let man = Manifest::capture(&fs, 0, 3, 1.5, 0xfeed);
    let (fm, t) = fs.create(0, &mut net, &manifest_path(0), t);
    let t = fs.write_at(0, &mut net, fm, 0, &man.encode(), t);

    // A crash in this window: the scanner has no way to tell — the
    // half-written generation is Committed and recovery would resume
    // from half a dump.
    let mid = scan(&fs);
    assert_eq!(mid.generations[0].status, GenStatus::Committed);
    assert_eq!(
        mid.latest_committed().unwrap().generation,
        0,
        "mis-ordered publish exposes the incomplete generation"
    );

    // The rest of the dump lands after the publish: the same generation
    // no longer matches its manifest.
    fs.write_at(0, &mut net, fid, 2048, &[8u8; 2048], t);
    let after = scan(&fs);
    assert_eq!(after.generations[0].status, GenStatus::Torn);
    assert!(after.latest_committed().is_none());
}

/// Runtime reproduction of `torn-manifest`: the self-checksum is what
/// makes a crash-torn manifest fail closed. Any tear or corruption is
/// rejected — strip the checksum (the mutation) and nothing would.
#[test]
fn manifest_checksum_rejects_torn_commits() {
    let m = Manifest {
        generation: 1,
        cycle: 9,
        time: 4.5,
        state_digest: 0xabad1dea,
        entries: Vec::new(),
    };
    let bytes = m.encode();
    assert_eq!(Manifest::decode(&bytes).unwrap(), m);

    // A crash mid-write tears the tail: rejected.
    for cut in [bytes.len() - 1, bytes.len() - 9, bytes.len() / 2] {
        assert!(Manifest::decode(&bytes[..cut]).is_err(), "cut at {cut}");
    }
    // A flipped byte anywhere: rejected by the self-checksum.
    let mut bad = bytes.clone();
    bad[12] ^= 0x01;
    assert_eq!(
        Manifest::decode(&bad).unwrap_err(),
        ManifestError::SelfChecksum
    );
}
