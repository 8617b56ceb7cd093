//! Hint-space search: price every candidate configuration with the
//! static cost model and ship the cheapest as an [`Advisory`].
//!
//! The candidate space deliberately contains the shipped hand-written
//! strategies as points: the ROMIO defaults (the plain `MPI-IO`
//! strategy), write-behind staging (`MPI-IO+wb`), and every application
//! stripe the `MPI-IO-appstripe` heuristic can pick (its power-of-two
//! clamp lands on 64/128/256 KiB). A correct ranking therefore never
//! selects a configuration worse than any of them.

use crate::cost::{predict, PredictedCost, TuneConfig};
use amrio_disk::FsConfig;
use amrio_mpiio::Hints;
use amrio_net::NetConfig;
use amrio_plan::{AccessPlan, Kind};
use amrio_verify::{verify, Verdict, VerifyInput};

/// One priced candidate.
#[derive(Clone, Debug)]
pub struct Candidate {
    pub cfg: TuneConfig,
    pub cost: PredictedCost,
}

/// The search result: all candidates sorted cheapest-first (ties keep
/// enumeration order, so the ROMIO defaults win a dead heat).
#[derive(Clone, Debug)]
pub struct TuneOutcome {
    pub candidates: Vec<Candidate>,
}

impl TuneOutcome {
    pub fn best(&self) -> &Candidate {
        &self.candidates[0]
    }
}

/// Enumerate the candidate hint configurations for a `p`-rank run.
pub fn candidate_space(p: usize) -> Vec<TuneConfig> {
    let mut out = vec![TuneConfig::defaults()];

    // Aggregator counts, deduplicated after clamping to the rank count
    // (`None` = all ranks, so it claims the resolved value `p`).
    let mut aggs: Vec<Option<usize>> = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for a in [None, Some(1), Some(2), Some((p / 2).max(1))] {
        if seen.insert(a.unwrap_or(p).clamp(1, p)) {
            aggs.push(a);
        }
    }
    let buffers: [u64; 2] = [1 << 20, 4 << 20];
    let stripes: [Option<u64>; 4] = [None, Some(64 << 10), Some(128 << 10), Some(256 << 10)];

    for &cb_nodes in &aggs {
        for &cb_buffer_size in &buffers {
            for &align_file_domains in &[true, false] {
                for &app_stripe in &stripes {
                    for &write_behind in &[None, Some(4 << 20)] {
                        let hints = Hints {
                            cb_nodes,
                            cb_buffer_size,
                            align_file_domains,
                            ..Hints::default()
                        };
                        let cfg = TuneConfig {
                            label: label(&hints, app_stripe, write_behind),
                            hints,
                            app_stripe,
                            write_behind,
                        };
                        if !out.contains(&cfg) {
                            out.push(cfg);
                        }
                    }
                }
            }
        }
    }

    // Independent fallbacks: collectives disabled per direction, with and
    // without data sieving. Kept at default striping — their point is the
    // access mode, not the layout.
    for (cb_write, ds_write, cb_read, ds_read) in [
        (false, false, true, true),
        (false, true, true, true),
        (true, false, false, true),
        (true, false, false, false),
    ] {
        let hints = Hints {
            cb_write,
            ds_write,
            cb_read,
            ds_read,
            ..Hints::default()
        };
        let cfg = TuneConfig {
            label: label(&hints, None, None),
            hints,
            app_stripe: None,
            write_behind: None,
        };
        if !out.contains(&cfg) {
            out.push(cfg);
        }
    }

    out
}

fn label(h: &Hints, app_stripe: Option<u64>, write_behind: Option<usize>) -> String {
    let mut parts = Vec::new();
    match h.cb_nodes {
        None => {}
        Some(n) => parts.push(format!("cb{n}")),
    }
    if h.cb_buffer_size != Hints::default().cb_buffer_size {
        parts.push(format!("buf{}K", h.cb_buffer_size >> 10));
    }
    if !h.align_file_domains {
        parts.push("noalign".into());
    }
    if !h.cb_write {
        parts.push(if h.ds_write { "indw+ds" } else { "indw" }.into());
    }
    if !h.cb_read {
        parts.push(if h.ds_read { "indr+ds" } else { "indr-nods" }.into());
    }
    if let Some(s) = app_stripe {
        parts.push(format!("stripe{}K", s >> 10));
    }
    if write_behind.is_some() {
        parts.push("wb".into());
    }
    if parts.is_empty() {
        "romio-defaults".into()
    } else {
        parts.join(",")
    }
}

/// Predicted margins smaller than this fraction of the minimum are
/// below the evaluator's resolution: its even-split stand-in for the
/// data-dependent particle sort under-prices balance-sensitive
/// machinery (write-behind staging in particular) by a few percent of
/// a phase. The search treats candidates inside the band as tied and
/// prefers the one that turns the fewest knobs — a sub-resolution
/// predicted win is not evidence, and the plainer configuration is the
/// safer ship.
pub const RANK_TOLERANCE: f64 = 0.02;

/// Price every candidate and rank them. Deterministic: stable sort on
/// predicted total, then candidates within [`RANK_TOLERANCE`] of the
/// minimum re-rank simplest-first ([`TuneConfig::knobs`]); enumeration
/// order breaks remaining ties, so the ROMIO defaults win a dead heat.
pub fn search(plan: &AccessPlan, fs: &FsConfig, net: &NetConfig) -> TuneOutcome {
    rank(price(candidate_space(plan.nranks), plan, fs, net))
}

/// A candidate the static verifier refuted before it was ever costed.
#[derive(Clone, Debug)]
pub struct PrunedCandidate {
    pub cfg: TuneConfig,
    /// The finding kinds that refuted it (e.g. `SievingRmw` for data
    /// sieving over interleaved independent writers).
    pub kinds: Vec<Kind>,
}

/// Result of [`search_verified`]: the ranked verified candidates plus
/// everything the static verifier refused to cost.
#[derive(Clone, Debug)]
pub struct VerifiedOutcome {
    pub outcome: TuneOutcome,
    pub pruned: Vec<PrunedCandidate>,
}

/// [`search`] with static admission control: every candidate's hints
/// are run through `amrio-verify`'s happens-before analysis against the
/// plan first, and candidates whose verdict is `Violation` (a cheap
/// configuration that would *race* — data sieving over interleaved
/// independent writers being the canonical case) are pruned before the
/// cost model ever prices them. A fast-but-unsafe candidate can
/// therefore never win the search. Candidates that merely verify
/// `Unknown` are kept — unprovable is not refuted.
///
/// If the plan itself is structurally broken (schedule divergence, a
/// commit-protocol violation), every candidate inherits the refutation
/// and the outcome's candidate list is empty — callers gate on that.
pub fn search_verified(plan: &AccessPlan, fs: &FsConfig, net: &NetConfig) -> VerifiedOutcome {
    let mut pruned = Vec::new();
    let mut admitted = Vec::new();
    for cfg in candidate_space(plan.nranks) {
        let report = verify(&VerifyInput::plain(plan, &cfg.hints, fs));
        if report.verdict() == Verdict::Violation {
            pruned.push(PrunedCandidate {
                kinds: report.kinds().into_iter().collect(),
                cfg,
            });
        } else {
            admitted.push(cfg);
        }
    }
    VerifiedOutcome {
        outcome: rank(price(admitted, plan, fs, net)),
        pruned,
    }
}

fn price(
    space: Vec<TuneConfig>,
    plan: &AccessPlan,
    fs: &FsConfig,
    net: &NetConfig,
) -> Vec<Candidate> {
    space
        .into_iter()
        .map(|cfg| {
            let cost = predict(plan, fs, net, &cfg);
            Candidate { cfg, cost }
        })
        .collect()
}

fn rank(mut candidates: Vec<Candidate>) -> TuneOutcome {
    candidates.sort_by(|a, b| {
        a.cost
            .total_s()
            .partial_cmp(&b.cost.total_s())
            .expect("predicted costs are finite")
    });
    if let Some(first) = candidates.first() {
        let cutoff = first.cost.total_s() * (1.0 + RANK_TOLERANCE);
        let band = candidates.partition_point(|c| c.cost.total_s() <= cutoff);
        candidates[..band].sort_by_key(|c| c.cfg.knobs());
    }
    TuneOutcome { candidates }
}
