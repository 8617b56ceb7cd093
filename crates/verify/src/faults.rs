//! Folding the fault plan into the verdict.
//!
//! Faults do not create new races — they remove liveness guarantees.
//! A plan proved race-free stays race-free under injected faults, but
//! "the run completes and commits" stops being provable when the
//! static retry/failover budget cannot absorb what the fault plan is
//! armed to inject. Those downgrades are *typed unknowns*, never
//! violations: the run may well succeed (transient budgets spread over
//! many ops, failures may strike servers the plan never touches after
//! failover), but the static model cannot prove it. `amrio-tune`'s
//! `lint_faults` reports the same findings by calling [`fold`].

use amrio_fault::{FaultPlan, RetryPolicy};
use amrio_plan::{Diagnostic, Kind, Span};

/// Compute the verdict downgrades `faults` forces under `retry`, as
/// `Warning` diagnostics against the plan of strategy `backend`.
pub fn fold(backend: &str, faults: &FaultPlan, retry: &RetryPolicy) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // A permanent server failure with failover disabled: every op that
    // maps a piece onto the dead server fails all its retries.
    let failed = faults.failure_servers();
    if !failed.is_empty() && !retry.failover {
        out.push(
            Diagnostic::new(
                Kind::FailoverStripped,
                Span::new(backend),
                format!(
                    "unprovable: server(s) {failed:?} fail permanently and failover is disabled"
                ),
            )
            .suggest("enable RetryPolicy::failover or drop the failure"),
        );
    }

    // A transient budget exceeding the per-op retry budget: one op can
    // absorb at most `max_retries` consecutive transient errors.
    for server in faults.server_targets() {
        let budget = faults.transient_budget(server);
        if budget > retry.max_retries as u64 {
            out.push(
                Diagnostic::new(
                    Kind::RetryBudgetExceeded,
                    Span::new(backend),
                    format!(
                        "unprovable: server {server} may inject {budget} transient errors but \
                         the retry policy allows only {} retries per op",
                        retry.max_retries
                    ),
                )
                .suggest("raise RetryPolicy::max_retries above the transient budget"),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrio_fault::window_secs;
    use amrio_simt::SimTime;

    #[test]
    fn no_faults_no_unknowns() {
        assert!(fold("t", &FaultPlan::new(), &RetryPolicy::default()).is_empty());
        let benign = FaultPlan::new().with_server_slowdown(0, window_secs(0.0, 1.0), 2.0);
        assert!(fold("t", &benign, &RetryPolicy::default()).is_empty());
    }

    #[test]
    fn failure_without_failover_downgrades() {
        let plan = FaultPlan::new().with_server_failure(1, SimTime(0));
        let ok = RetryPolicy::default();
        assert!(ok.failover, "default policy fails over");
        assert!(fold("t", &plan, &ok).is_empty());
        let stripped = RetryPolicy {
            failover: false,
            ..RetryPolicy::default()
        };
        let reasons = fold("t", &plan, &stripped);
        assert_eq!(reasons[0].kind, Kind::FailoverStripped);
        assert!(reasons[0].message.contains("[1]"), "{}", reasons[0]);
    }

    #[test]
    fn transient_budget_over_retries_downgrades() {
        let policy = RetryPolicy::default();
        let within = FaultPlan::new().with_transient_errors(
            0,
            window_secs(0.0, 10.0),
            policy.max_retries as u64,
        );
        assert!(fold("t", &within, &policy).is_empty());
        let over = FaultPlan::new().with_transient_errors(
            0,
            window_secs(0.0, 10.0),
            policy.max_retries as u64 + 1,
        );
        let d = &fold("t", &over, &policy)[0];
        assert_eq!(d.kind, Kind::RetryBudgetExceeded);
        assert!(d.message.contains("server 0 "), "{d}");
    }
}
