//! `amrio-tune` — static plan linting and cost-model-driven hint search.
//!
//! Built on `amrio-plan`'s statically derived
//! [`AccessPlan`](amrio_plan::AccessPlan)s, this crate answers two
//! questions *before anything runs*:
//!
//! 1. **Is the plan hazardous?** [`lint`] walks the plan and emits
//!    `amrio-plan`'s typed, severity-ranked [`Diagnostic`]s with
//!    machine-readable [`Span`]s. It owns the performance lints —
//!    small-write frequency hazards, lock-block straddles, aggregator
//!    imbalance — and takes every correctness finding from
//!    `amrio-verify`'s own rules: the vector-clock lockstep proof
//!    (rank divergence, schedule deadlock) and the race classifier
//!    under the input's hints (write-write, unsynced reads, data-sieving
//!    read-modify-write). [`lint_faults`] checks a fault plan and retry
//!    policy against the plan: it owns the configuration-sanity lints
//!    (faults targeting servers or ranks outside the run, or servers
//!    the plan never touches) and takes `amrio-verify`'s fault folding
//!    (failures without failover, transient budgets the retry policy
//!    cannot absorb) and crash-before-first-commit floor.
//!
//! 2. **What hints should this run use?** [`predict`] prices a plan on
//!    replicas of the platform's disk/network models under a candidate
//!    [`TuneConfig`]; [`search`] enumerates the hint space (aggregator
//!    count, collective buffer size, domain alignment, collective vs
//!    independent per direction, data sieving, application striping,
//!    write-behind staging) and returns the ranked [`TuneOutcome`]. The
//!    winner ships as an [`amrio_mpiio::Advisory`] through
//!    `Experiment::advisory(..)` — timing-only knobs, so tuned runs
//!    stay byte-identical to untuned ones. [`search_verified`] adds
//!    static admission control: candidates `amrio-verify` refutes
//!    (e.g. data sieving over interleaved independent writers) are
//!    pruned before the cost model ever prices them, so a
//!    fast-but-racing configuration can never win.

#![forbid(unsafe_code)]

pub mod cost;
pub mod lint;
pub mod search;

pub use amrio_plan::{sort_diagnostics, Diagnostic, Kind, Severity, Span};
pub use cost::{predict, predict_traced, PredictedCost, TuneConfig};
pub use lint::{lint, lint_faults};
pub use search::{
    candidate_space, search, search_verified, Candidate, PrunedCandidate, TuneOutcome,
    VerifiedOutcome, RANK_TOLERANCE,
};

#[cfg(test)]
mod tests {
    use super::*;
    use amrio_amr::{CellBox, GridMeta, Hierarchy};
    use amrio_disk::{window_secs, FaultPlan, FsConfig, RetryPolicy};
    use amrio_mpiio::Hints;
    use amrio_plan::{AccessPlan, DatasetPlan, FilePlan, PlanInput, RankRegions, Writers};
    use amrio_simt::SimTime;

    fn plan_with(datasets: Vec<DatasetPlan>, nranks: usize) -> AccessPlan {
        AccessPlan {
            backend: "MPI-IO",
            nranks,
            write_schedule: Vec::new(),
            read_schedule: Vec::new(),
            files: vec![FilePlan {
                path: "DD0000.cpio".into(),
                datasets,
                meta_writes: vec![(0, 4096, 100), (0, 0, 64)],
                reads: Vec::new(),
            }],
        }
    }

    fn ranks(rs: &[(usize, &[(u64, u64)])]) -> Writers {
        Writers::Ranks(
            rs.iter()
                .map(|&(rank, regions)| RankRegions {
                    rank,
                    regions: regions.to_vec(),
                })
                .collect(),
        )
    }

    fn hierarchy(n: u64) -> Hierarchy {
        let mut h = Hierarchy::new();
        h.add(GridMeta {
            id: 0,
            level: 0,
            bbox: CellBox::cube(n),
            parent: None,
            owner: 0,
            nparticles: 4096,
        });
        h.add(GridMeta {
            id: 1,
            level: 1,
            bbox: CellBox::new([0, 0, 0], [8, 8, 8]),
            parent: Some(0),
            owner: 1,
            nparticles: 256,
        });
        h.add(GridMeta {
            id: 2,
            level: 1,
            bbox: CellBox::new([8, 0, 0], [16, 8, 8]),
            parent: Some(0),
            owner: 0,
            nparticles: 128,
        });
        h
    }

    fn input(nranks: usize) -> PlanInput {
        PlanInput::new(
            hierarchy(16),
            0.0,
            0,
            nranks,
            &amrio_disk::presets::xfs_origin2000(),
        )
    }

    #[test]
    fn small_write_storm_is_flagged() {
        let regions: Vec<(u64, u64)> = (0..100).map(|i| (64 + 16 * i, 16u64)).collect();
        let ds = DatasetPlan {
            name: "g000001_density".into(),
            start: 64,
            len: 16 * 100,
            collective: false,
            writers: ranks(&[(0, &regions)]),
        };
        let inp = input(2);
        let diags = lint(&inp, &plan_with(vec![ds], 2));
        assert!(
            diags.iter().any(|d| d.kind == Kind::SmallWrites),
            "{diags:?}"
        );
    }

    #[test]
    fn sieve_rmw_on_interleaved_independent_writers_is_an_error() {
        let ds = DatasetPlan {
            name: "field".into(),
            start: 0,
            len: 4000,
            collective: false,
            writers: ranks(&[
                (0, &[(0, 500), (1000, 500), (2000, 500)]),
                (1, &[(500, 500), (1500, 500), (2500, 500)]),
            ]),
        };
        let mut inp = input(2);
        inp.hints.ds_write = true;
        let diags = lint(&inp, &plan_with(vec![ds.clone()], 2));
        let hit = diags
            .iter()
            .find(|d| d.kind == Kind::SievingRmw)
            .expect("finding");
        assert_eq!(hit.severity, Severity::Error);
        assert_eq!(hit.span.ranks, Some((0, 1)));

        // Default hints (no ds_write): clean.
        let inp = input(2);
        assert!(lint(&inp, &plan_with(vec![ds], 2))
            .iter()
            .all(|d| d.kind != Kind::SievingRmw));
    }

    #[test]
    fn fault_lints_catch_untouched_and_unrecoverable() {
        let ds = DatasetPlan {
            name: "g000001_density".into(),
            start: 64,
            len: 1 << 20,
            collective: false,
            writers: ranks(&[(0, &[(64, 1 << 20)])]),
        };
        let plan = plan_with(vec![ds], 2);
        let fs = FsConfig {
            stripe: 64 << 10,
            nservers: 4,
            ..amrio_disk::presets::xfs_origin2000()
        };
        let faults = FaultPlan::new().with_server_slowdown(9, window_secs(0.0, 1.0), 2.0);
        let diags = lint_faults(&plan, &fs, &faults, &RetryPolicy::default());
        assert!(
            diags.iter().any(|d| d.kind == Kind::FaultBadServer),
            "{diags:?}"
        );

        let failing = FaultPlan::new().with_server_failure(0, SimTime(500_000_000));
        let retry = RetryPolicy {
            failover: false,
            ..RetryPolicy::default()
        };
        // Unprovable rather than refuted: the failed server may be one
        // the plan never touches (that case is `fault-untouched-server`).
        let diags = lint_faults(&plan, &fs, &failing, &retry);
        assert!(
            diags
                .iter()
                .any(|d| d.kind == Kind::FailoverStripped && d.severity == Severity::Warning),
            "{diags:?}"
        );
    }

    #[test]
    fn crash_before_first_possible_commit_is_flagged() {
        let ds = DatasetPlan {
            name: "g000001_density".into(),
            start: 64,
            len: 1 << 20,
            collective: false,
            writers: ranks(&[(0, &[(64, 1 << 20)])]),
        };
        let plan = plan_with(vec![ds], 2);
        let fs = amrio_disk::presets::xfs_origin2000();

        // 1 MiB of payload cannot commit within 1µs of virtual time:
        // recovery would be guaranteed to restart from scratch.
        let early = FaultPlan::new().with_crash(SimTime(1_000));
        let diags = lint_faults(&plan, &fs, &early, &RetryPolicy::default());
        let hit = diags
            .iter()
            .find(|d| d.kind == Kind::CrashBeforeFirstCommit)
            .expect("early crash must be flagged");
        assert_eq!(hit.severity, Severity::Warning);

        // A crash armed well past the write floor is a legitimate
        // experiment; so is a plan with no crash at all.
        let late = FaultPlan::new().with_crash(SimTime(u64::MAX));
        assert!(lint_faults(&plan, &fs, &late, &RetryPolicy::default())
            .iter()
            .all(|d| d.kind != Kind::CrashBeforeFirstCommit));
        assert!(
            lint_faults(&plan, &fs, &FaultPlan::new(), &RetryPolicy::default())
                .iter()
                .all(|d| d.kind != Kind::CrashBeforeFirstCommit)
        );
    }

    #[test]
    fn diagnostics_sort_worst_first_and_render() {
        let mut ds = vec![
            Diagnostic::new(Kind::SmallWrites, Span::default(), "m").suggest("s"),
            Diagnostic::new(
                Kind::SievingRmw,
                Span::new("MPI-IO")
                    .dataset("d")
                    .ranks(3, 0)
                    .bytes((64, 1024)),
                "m",
            )
            .suggest("s"),
        ];
        sort_diagnostics(&mut ds);
        assert_eq!(ds[0].kind, Kind::SievingRmw);
        let line = format!("{}", ds[0]);
        assert!(line.contains("error[sieving-rmw]"), "{line}");
        assert!(line.contains("ranks[0..=3]"), "{line}");
        assert!(line.contains("bytes[64+1024]"), "{line}");
        assert!(line.ends_with("— fix: s"), "{line}");
    }

    #[test]
    fn candidate_space_contains_the_handwritten_presets() {
        let space = candidate_space(4);
        // ROMIO defaults = the plain MPI-IO strategy.
        assert!(space.iter().any(|c| *c == TuneConfig::defaults()));
        // Write-behind staging = MPI-IO+wb.
        assert!(space
            .iter()
            .any(|c| c.hints == Hints::default() && c.write_behind.is_some()));
        // Every stripe the MPI-IO-appstripe clamp can land on.
        for s in [64u64 << 10, 128 << 10, 256 << 10] {
            assert!(
                space.iter().any(|c| c.hints == Hints::default()
                    && c.app_stripe == Some(s)
                    && c.write_behind.is_none()),
                "missing app-stripe {s}"
            );
        }
        // Labels are unique (they key CSV rows).
        let mut labels: Vec<&str> = space.iter().map(|c| c.label.as_str()).collect();
        labels.sort_unstable();
        let n = labels.len();
        labels.dedup();
        assert_eq!(n, labels.len(), "duplicate candidate labels");
    }

    #[test]
    fn predict_is_deterministic_and_separates_configs() {
        let inp = input(4);
        let plan = amrio_plan::plan(&inp, amrio_plan::Backend::MpiIo);
        let fs = amrio_disk::presets::xfs_origin2000();
        let net = amrio_net::NetConfig::ccnuma(4);
        let a = predict(&plan, &fs, &net, &TuneConfig::defaults());
        let b = predict(&plan, &fs, &net, &TuneConfig::defaults());
        assert_eq!(a, b, "same config must price identically");
        assert!(a.write_s > 0.0 && a.read_s > 0.0);

        // A pathologically small collective buffer must price worse.
        let tiny = TuneConfig {
            label: "tiny-cb".into(),
            hints: Hints {
                cb_buffer_size: 4096,
                ..Hints::default()
            },
            app_stripe: None,
            write_behind: None,
        };
        let t = predict(&plan, &fs, &net, &tiny);
        assert!(
            t.total_s() > a.total_s(),
            "4 KiB cb buffer should lose: {} vs {}",
            t.total_s(),
            a.total_s()
        );
    }

    #[test]
    fn verified_search_prunes_racing_candidates_before_costing() {
        let inp = input(4);
        let plan = amrio_plan::plan(&inp, amrio_plan::Backend::MpiIo);
        let fs = amrio_disk::presets::xfs_origin2000();
        let net = amrio_net::NetConfig::ccnuma(4);
        let v = search_verified(&plan, &fs, &net);

        // The sieving-over-independent-writers candidate is refuted
        // statically (its RMW windows cover foreign bytes) and must
        // never reach the cost model.
        let sieved = v
            .pruned
            .iter()
            .find(|p| p.cfg.label == "indw+ds")
            .expect("indw+ds must be pruned");
        assert!(
            sieved.kinds.contains(&Kind::SievingRmw),
            "{:?}",
            sieved.kinds
        );
        for p in &v.pruned {
            assert!(!p.kinds.is_empty(), "pruning must carry a refutation");
            assert!(
                !v.outcome.candidates.iter().any(|c| c.cfg == p.cfg),
                "{} both pruned and ranked",
                p.cfg.label
            );
        }

        // The admitted ranking matches the unverified search minus the
        // pruned configurations — admission control only removes.
        let plain = search(&plan, &fs, &net);
        assert_eq!(
            v.outcome.candidates.len() + v.pruned.len(),
            plain.candidates.len()
        );
        assert_eq!(v.outcome.best().cfg, plain.best().cfg);
        assert!(v
            .outcome
            .candidates
            .iter()
            .any(|c| c.cfg == TuneConfig::defaults()));
    }

    #[test]
    fn search_ranks_defaults_over_pathological_configs() {
        let inp = input(4);
        let plan = amrio_plan::plan(&inp, amrio_plan::Backend::MpiIo);
        let fs = amrio_disk::presets::xfs_origin2000();
        let net = amrio_net::NetConfig::ccnuma(4);
        let out = search(&plan, &fs, &net);
        assert!(!out.candidates.is_empty());
        // Sorted cheapest-first, except inside the near-tie band at the
        // head, which re-ranks simplest-first.
        let min = out
            .candidates
            .iter()
            .map(|c| c.cost.total_s())
            .fold(f64::INFINITY, f64::min);
        let cutoff = min * (1.0 + RANK_TOLERANCE);
        assert!(out.best().cost.total_s() <= cutoff);
        for w in out.candidates.windows(2) {
            if w[0].cost.total_s() <= cutoff && w[1].cost.total_s() <= cutoff {
                assert!(w[0].cfg.knobs() <= w[1].cfg.knobs());
            } else {
                assert!(w[0].cost.total_s() <= w[1].cost.total_s());
            }
        }
        // The winner is at least as good as the ROMIO defaults (which
        // are in the space), so an advisory can never lose to MPI-IO.
        let default_cost = out
            .candidates
            .iter()
            .find(|c| c.cfg == TuneConfig::defaults())
            .expect("defaults in space")
            .cost
            .total_s();
        assert!(out.best().cost.total_s() <= default_cost);
    }
}
