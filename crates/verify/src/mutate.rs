//! The seeded mutation corpus: deliberately broken plans, fault
//! schedules, and commit protocols with *known* expected verdicts.
//!
//! Each mutation models one of the failure modes the 2002 paper (and
//! the runtime checker built after it) cares about: a rank missing a
//! collective, footprints widened into overlap, the write/read barrier
//! removed, data sieving enabled over interleaved independent writers,
//! failover stripped under a permanent server failure, a transient
//! budget exceeding the retry policy, a crash armed before any commit
//! can land, and a commit protocol with its ordering or checksum
//! broken.
//!
//! The corpus is the negative half of the differential gate: the
//! static verdict must flag every case with the expected kind, and the
//! plan-level mutations must also reproduce under the replayed runtime
//! checker — zero false negatives, by construction *and* by test
//! (`tests/verify.rs`).

use crate::commit::CommitSpec;
use crate::Verdict;
use amrio_check::CollKind;
use amrio_fault::{window_secs, FaultPlan, RetryPolicy};
use amrio_mpiio::Hints;
use amrio_plan::{plan, AccessPlan, Backend, Kind, PlanInput, Writers};
use amrio_simt::SimTime;

/// One corpus entry: a (possibly) broken configuration and the verdict
/// the static analysis must reach for it.
pub struct MutatedCase {
    pub name: &'static str,
    pub description: String,
    pub plan: AccessPlan,
    pub hints: Hints,
    pub faults: Option<FaultPlan>,
    pub retry: RetryPolicy,
    pub commit: CommitSpec,
    pub expect_verdict: Verdict,
    /// Finding kinds the static report must contain (subset check).
    pub expect: Vec<Kind>,
    /// Whether the replayed runtime checker must also report at least
    /// one violation (true for plan-level mutations; fault/commit
    /// mutations are reproduced against the runtime *stack* instead —
    /// see `tests/verify.rs`).
    pub replay_flags: bool,
}

impl MutatedCase {
    fn clean(
        name: &'static str,
        description: String,
        plan: AccessPlan,
        hints: Hints,
    ) -> MutatedCase {
        MutatedCase {
            name,
            description,
            plan,
            hints,
            faults: None,
            retry: RetryPolicy::default(),
            commit: CommitSpec::default(),
            expect_verdict: Verdict::Violation,
            expect: Vec::new(),
            replay_flags: true,
        }
    }
}

/// Deterministic xorshift64* — the corpus is "seeded": every target
/// choice (which rank, which step, which dataset) comes from this
/// stream, so a different seed explores different mutation sites while
/// any fixed seed reproduces exactly.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    pub fn pick(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Find a dataset with at least two statically-known writers; returns
/// (file index, dataset index).
fn multi_writer_dataset(plan: &AccessPlan) -> Option<(usize, usize)> {
    for (fi, f) in plan.files.iter().enumerate() {
        for (di, ds) in f.datasets.iter().enumerate() {
            if let Writers::Ranks(rs) = &ds.writers {
                if rs.len() >= 2 && rs.iter().all(|r| !r.regions.is_empty()) {
                    return Some((fi, di));
                }
            }
        }
    }
    None
}

/// Build the full corpus against `input` (re-planned per case where
/// the mutation changes hints) on the MPI-IO backend.
pub fn corpus(input: &PlanInput, seed: u64) -> Vec<MutatedCase> {
    let mut rng = Rng::new(seed);
    let base = plan(input, Backend::MpiIo);
    let hints = input.hints;
    let nranks = base.nranks;
    let mut out = Vec::new();

    // --- 1. Drop one rank's collective: the schedule desynchronizes and
    // the survivors block forever in the final barrier.
    {
        let mut p = base.clone();
        let rank = rng.pick(nranks);
        let step = rng.pick(p.write_schedule[rank].len());
        let dropped = p.write_schedule[rank].remove(step);
        let mut c = MutatedCase::clean(
            "drop-collective",
            format!("rank {rank} skips write step {step} ({dropped})"),
            p,
            hints,
        );
        c.expect = vec![Kind::ScheduleDeadlock];
        out.push(c);
    }

    // --- 2. Mismatch a collective kind: one rank enters a reduction
    // where everyone else enters a barrier.
    {
        let mut p = base.clone();
        let rank = rng.pick(nranks);
        // Find a barrier step to corrupt (every backend has one).
        let step = p.write_schedule[rank]
            .iter()
            .position(|e| e.kind == CollKind::Barrier)
            .expect("write schedule has a barrier");
        let e = &mut p.write_schedule[rank][step];
        e.kind = CollKind::Allreduce;
        e.op = Some("max");
        e.bytes = Some(8);
        e.label = "mutated: barrier -> allreduce";
        let mut c = MutatedCase::clean(
            "mismatch-kind",
            format!("rank {rank} enters allreduce at barrier step {step}"),
            p,
            hints,
        );
        c.expect = vec![Kind::RankDivergence];
        out.push(c);
    }

    // --- 3. Skew a uniform payload: one rank contributes 16 bytes to
    // an 8-byte allreduce.
    {
        let mut p = base.clone();
        let rank = rng.pick(nranks);
        let step = p.write_schedule[rank]
            .iter()
            .position(|e| e.uniform && e.bytes.unwrap_or(0) > 0)
            .expect("write schedule has a uniform payload step");
        let e = &mut p.write_schedule[rank][step];
        e.bytes = Some(e.bytes.unwrap_or(0) + 8);
        e.label = "mutated: skewed payload";
        let mut c = MutatedCase::clean(
            "skew-payload",
            format!("rank {rank} skews the uniform payload of write step {step}"),
            p,
            hints,
        );
        c.expect = vec![Kind::RankDivergence];
        out.push(c);
    }

    // --- 4. Widen a footprint into overlap: one rank's region grows
    // until it covers the start of another rank's.
    {
        let mut p = base.clone();
        let (fi, di) = multi_writer_dataset(&p).expect("plan has a multi-writer dataset");
        let ds = &mut p.files[fi].datasets[di];
        if let Writers::Ranks(rs) = &mut ds.writers {
            // Widen the writer with the earlier first region until it
            // covers one byte of the later one.
            let (a, b) = if rs[0].regions[0].0 <= rs[1].regions[0].0 {
                (0, 1)
            } else {
                (1, 0)
            };
            let (b_off, _) = rs[b].regions[0];
            let (a_off, a_len) = &mut rs[a].regions[0];
            let need = b_off - *a_off + 1;
            *a_len = (*a_len).max(need);
        }
        let mut c = MutatedCase::clean(
            "widen-footprint",
            format!(
                "widened a writer region of {} into its neighbor",
                p.files[fi].path
            ),
            p,
            hints,
        );
        c.expect = vec![Kind::WriteWriteRace];
        out.push(c);
    }

    // --- 5. Remove the write phase's closing barrier on every rank:
    // no divergence, but restart reads are no longer ordered after
    // checkpoint writes.
    {
        let mut p = base.clone();
        for s in &mut p.write_schedule {
            let last = s.pop().expect("non-empty write schedule");
            assert_eq!(
                last.kind,
                CollKind::Barrier,
                "backends close with a barrier"
            );
        }
        let mut c = MutatedCase::clean(
            "strip-close-barrier",
            "the write phase's closing barrier is removed on every rank".to_string(),
            p,
            hints,
        );
        // Reads race with writes, and the commit publish loses its
        // ordering edge with them.
        c.expect = vec![Kind::UnsyncedRead, Kind::CommitNotOrdered];
        out.push(c);
    }

    // --- 6. Enable data sieving over interleaved independent writers:
    // re-plan with collective buffering off and ds_write on — each
    // multi-region rank's RMW window covers foreign bytes (§5.2's
    // read-modify-write hazard).
    {
        let mut sieve_input = input.clone();
        sieve_input.hints.cb_write = false;
        sieve_input.hints.ds_write = true;
        let p = plan(&sieve_input, Backend::MpiIo);
        let mut c = MutatedCase::clean(
            "sieve-independent-writes",
            "cb_write off + ds_write on: interleaved writers become overlapping RMW windows"
                .to_string(),
            p,
            sieve_input.hints,
        );
        c.expect = vec![Kind::SievingRmw];
        out.push(c);
    }

    // --- 7. Strip failover under a permanent server failure: liveness
    // becomes unprovable (typed Unknown, not a checker violation).
    {
        let server = rng.pick(2);
        let mut c = MutatedCase::clean(
            "strip-failover",
            format!("server {server} fails permanently and the retry policy cannot fail over"),
            base.clone(),
            hints,
        );
        c.faults = Some(FaultPlan::new().with_server_failure(server, SimTime(0)));
        c.retry = RetryPolicy {
            failover: false,
            ..RetryPolicy::default()
        };
        c.expect_verdict = Verdict::Unknown;
        c.expect = vec![Kind::FailoverStripped];
        c.replay_flags = false;
        out.push(c);
    }

    // --- 8. Transient budget exceeding the retry policy.
    {
        let retry = RetryPolicy::default();
        let budget = retry.max_retries as u64 + 4;
        let server = rng.pick(2);
        let mut c = MutatedCase::clean(
            "transient-budget",
            format!(
                "server {server} may inject {budget} transient errors, retries allow {}",
                retry.max_retries
            ),
            base.clone(),
            hints,
        );
        c.faults =
            Some(FaultPlan::new().with_transient_errors(server, window_secs(0.0, 1e6), budget));
        c.retry = retry;
        c.expect_verdict = Verdict::Unknown;
        c.expect = vec![Kind::RetryBudgetExceeded];
        c.replay_flags = false;
        out.push(c);
    }

    // --- 9. Arm a pre-commit crash: the protocol is intact (no
    // exposure possible) but the crash provably precedes the earliest
    // commit, so durable progress is unprovable.
    {
        let mut c = MutatedCase::clean(
            "pre-commit-crash",
            "crash armed at 1µs virtual — before any generation can commit".to_string(),
            base.clone(),
            hints,
        );
        c.faults = Some(FaultPlan::new().with_crash(SimTime(1_000)));
        c.expect_verdict = Verdict::Unknown;
        c.expect = vec![Kind::CrashBeforeFirstCommit];
        c.replay_flags = false;
        out.push(c);
    }

    // --- 10. Unorder the commit: the manifest publish is no longer
    // sequenced after the data barrier.
    {
        let mut c = MutatedCase::clean(
            "unordered-commit",
            "manifest publish not sequenced after the data-write barrier".to_string(),
            base.clone(),
            hints,
        );
        c.commit = CommitSpec {
            manifest_after_data_barrier: false,
            ..CommitSpec::default()
        };
        c.expect = vec![Kind::CommitNotOrdered];
        c.replay_flags = false;
        out.push(c);
    }

    // --- 11. Strip the manifest self-checksum with a crash armed: a
    // torn manifest can decode as a committed generation.
    {
        let mut c = MutatedCase::clean(
            "torn-manifest",
            "manifest self-checksum stripped while a crash is armed".to_string(),
            base.clone(),
            hints,
        );
        c.faults = Some(FaultPlan::new().with_crash(SimTime(1_000_000_000)));
        c.commit = CommitSpec {
            manifest_checksummed: false,
            ..CommitSpec::default()
        };
        c.expect = vec![Kind::UncommittedExposure];
        c.replay_flags = false;
        out.push(c);
    }

    out
}
