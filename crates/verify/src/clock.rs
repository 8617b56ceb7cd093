//! Per-rank vector clocks over the symbolic collective schedule.
//!
//! Collectives are the only inter-rank ordering edges in this stack
//! (there is no plan-level point-to-point traffic), and every collective
//! in the shipped backends is world-global — so schedule matching is
//! positional: the `i`-th collective of every rank is one collective
//! instance, exactly as the runtime checker matches deposits by each
//! rank's local epoch counter.
//!
//! The walk proves **lockstep** (all ranks agree on kind/root/op and,
//! for uniform steps, payload bytes at every position) or refutes it:
//!
//! * a positional disagreement is a [`Kind::RankDivergence`] — at
//!   runtime the checker reports a `Collective*Mismatch` for that
//!   epoch;
//! * a rank whose schedule ends while others still have steps is a
//!   [`Kind::ScheduleDeadlock`] — the surviving ranks block
//!   forever in their next collective, which the runtime checker
//!   reports as `CollectiveIncomplete`. With purely global collectives
//!   the schedule wait-for graph cannot form a proper cycle (a blocked
//!   rank waits on a terminated one — starvation, not circular wait),
//!   so rank divergence and exhaustion are the only deadlock shapes.
//!
//! Alongside the walk, every rank carries a [`VectorClock`]: it ticks
//! its own component at each step and joins with all participants at a
//! completed global collective. The clocks are what turn "the write
//! phase ends with a barrier" into a *proof* that checkpoint I/O
//! happens-before restart I/O: the ordering holds iff every rank's
//! clock at read start dominates every rank's clock at its last data
//! write. Only **barrier** steps count as I/O sync edges — that is the
//! edge the runtime checker observes (a `sync_point` closing an epoch)
//! — so an ordering "proved" through a non-barrier collective would be
//! a false negative against the oracle, and is deliberately not
//! claimed.
//!
//! This walk is the workspace's only lockstep proof: `amrio-tune`'s
//! lint and the plan↔trace tests call [`analyze`] too.

use amrio_check::CollKind;
use amrio_plan::conform::CollExpect;
use amrio_plan::{AccessPlan, Diagnostic, Kind, Span};

/// A classic vector clock: one logical-time component per rank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VectorClock(pub Vec<u64>);

impl VectorClock {
    pub fn new(nranks: usize) -> VectorClock {
        VectorClock(vec![0; nranks])
    }

    /// Advance `rank`'s own component (a local event).
    pub fn tick(&mut self, rank: usize) {
        self.0[rank] += 1;
    }

    /// Merge knowledge from `other` (component-wise max).
    pub fn join(&mut self, other: &VectorClock) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    /// `self` happens-after-or-equal `other` in every component — the
    /// happens-before proof obligation.
    pub fn dominates(&self, other: &VectorClock) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a >= b)
    }
}

/// The outcome of walking both phases' schedules.
#[derive(Clone, Debug)]
pub struct ScheduleAnalysis {
    /// `RankDivergence` / `ScheduleDeadlock` refutations.
    pub diagnostics: Vec<Diagnostic>,
    /// Proven: every write-phase I/O happens-before every read-phase
    /// I/O (the write phase ends in a barrier all ranks reach, and the
    /// post-barrier clocks dominate the pre-barrier ones).
    pub write_read_ordered: bool,
    /// Steps walked per phase (write, read).
    pub steps: (usize, usize),
    /// Barrier sync edges per phase (write, read).
    pub barriers: (usize, usize),
}

const LOCKSTEP_FIX: &str = "every rank must issue the same collective sequence; make the \
                            divergent call unconditional or independent";

/// Walk one phase, reporting refutations against `span`. Returns
/// (steps walked, barrier count, clean) where `clean` means every rank
/// executed every step in lockstep.
fn walk_phase(
    span: &Span,
    phase: &'static str,
    schedule: &[Vec<CollExpect>],
    clocks: &mut [VectorClock],
    out: &mut Vec<Diagnostic>,
) -> (usize, usize, bool) {
    let nranks = schedule.len();
    let max_steps = schedule.iter().map(|s| s.len()).max().unwrap_or(0);
    let mut barriers = 0usize;
    let mut clean = true;
    for step in 0..max_steps {
        let exhausted: Vec<usize> = (0..nranks).filter(|&r| schedule[r].len() <= step).collect();
        if !exhausted.is_empty() {
            // Some ranks never enter this collective: the others block
            // forever. Nothing after this point executes on any rank.
            let blocked: Vec<usize> = (0..nranks).filter(|&r| schedule[r].len() > step).collect();
            out.push(
                Diagnostic::new(
                    Kind::ScheduleDeadlock,
                    span.clone()
                        .ranks(exhausted[0], exhausted[exhausted.len() - 1]),
                    format!(
                        "{phase} step {step}: ranks {blocked:?} block forever (ranks \
                         {exhausted:?} never arrive)"
                    ),
                )
                .suggest(LOCKSTEP_FIX),
            );
            return (step, barriers, false);
        }
        // Positional cross-check against rank 0, mirroring the runtime
        // checker's per-epoch cross-check of deposited descriptors.
        let lead = &schedule[0][step];
        let mut all_barrier = lead.kind == CollKind::Barrier;
        for (r, sched) in schedule.iter().enumerate().skip(1) {
            let e = &sched[step];
            let diverged = e.kind != lead.kind
                || e.root != lead.root
                || e.op != lead.op
                || e.uniform != lead.uniform
                || (e.uniform && lead.uniform && e.bytes.unwrap_or(0) != lead.bytes.unwrap_or(0));
            if diverged {
                clean = false;
                out.push(
                    Diagnostic::new(
                        Kind::RankDivergence,
                        span.clone().ranks(r, r),
                        format!("{phase} step {step}: rank {r} enters {e}, rank 0 enters {lead}"),
                    )
                    .suggest(LOCKSTEP_FIX),
                );
            }
            if e.kind != CollKind::Barrier {
                all_barrier = false;
            }
        }
        // Vector-clock update: each rank ticks, then the completed
        // global collective joins all participants.
        for (r, c) in clocks.iter_mut().enumerate() {
            c.tick(r);
        }
        let mut joined = clocks[0].clone();
        for c in clocks.iter().skip(1) {
            joined.join(c);
        }
        for c in clocks.iter_mut() {
            *c = joined.clone();
        }
        if all_barrier {
            barriers += 1;
        }
    }
    (max_steps, barriers, clean)
}

/// Analyze both phases of `plan`: prove lockstep or report
/// divergence/deadlock, and establish whether checkpoint writes
/// happen-before restart reads.
pub fn analyze(plan: &AccessPlan) -> ScheduleAnalysis {
    let nranks = plan.nranks;
    let span = Span::new(plan.backend);
    let mut diagnostics = Vec::new();
    let mut clocks: Vec<VectorClock> = (0..nranks).map(|_| VectorClock::new(nranks)).collect();

    // Snapshot the clocks each rank's data writes carry: the I/O of the
    // write phase is modeled at the last point before the phase's final
    // step (all backends place their payload between the create barrier
    // and the closing barrier).
    let wlen = plan
        .write_schedule
        .iter()
        .map(|s| s.len())
        .min()
        .unwrap_or(0);
    let mut pre_clocks: Vec<VectorClock> = clocks.clone();
    {
        // Walk all but the final write step on scratch clocks to
        // capture each rank's clock at its last data write.
        let trimmed: Vec<Vec<CollExpect>> = plan
            .write_schedule
            .iter()
            .map(|s| s[..s.len().min(wlen.saturating_sub(1))].to_vec())
            .collect();
        let mut scratch = Vec::new();
        walk_phase(&span, "write", &trimmed, &mut pre_clocks, &mut scratch);
    }

    let (wsteps, wbarriers, wclean) = walk_phase(
        &span,
        "write",
        &plan.write_schedule,
        &mut clocks,
        &mut diagnostics,
    );
    // Clocks after the write phase = clocks at read start.
    let read_start = clocks.clone();
    let (rsteps, rbarriers, _rclean) = walk_phase(
        &span,
        "read",
        &plan.read_schedule,
        &mut clocks,
        &mut diagnostics,
    );

    // Ordering proof: the final write step must be a barrier present in
    // every rank's schedule (the checker's sync edge), the phase must
    // be in lockstep, and every rank's read-start clock must dominate
    // every rank's last-write clock.
    let trailing_barrier = wsteps > 0
        && plan.write_schedule.iter().all(|s| {
            s.last()
                .map(|e| e.kind == CollKind::Barrier)
                .unwrap_or(false)
        })
        && plan
            .write_schedule
            .iter()
            .map(|s| s.len())
            .collect::<std::collections::BTreeSet<_>>()
            .len()
            == 1;
    let dominated = read_start
        .iter()
        .all(|rs| pre_clocks.iter().all(|pw| rs.dominates(pw)));
    let write_read_ordered = wclean && trailing_barrier && dominated;

    ScheduleAnalysis {
        diagnostics,
        write_read_ordered,
        steps: (wsteps, rsteps),
        barriers: (wbarriers, rbarriers),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_clock_laws() {
        let mut a = VectorClock::new(3);
        let mut b = VectorClock::new(3);
        a.tick(0);
        a.tick(0);
        b.tick(1);
        assert!(!a.dominates(&b));
        assert!(!b.dominates(&a));
        let mut j = a.clone();
        j.join(&b);
        assert!(j.dominates(&a) && j.dominates(&b));
        assert_eq!(j.0, vec![2, 1, 0]);
    }

    fn barrier() -> CollExpect {
        CollExpect {
            kind: CollKind::Barrier,
            root: None,
            op: None,
            bytes: Some(0),
            uniform: true,
            label: "test barrier",
        }
    }

    fn allreduce() -> CollExpect {
        CollExpect {
            kind: CollKind::Allreduce,
            root: None,
            op: Some("min"),
            bytes: Some(8),
            uniform: true,
            label: "test allreduce",
        }
    }

    fn mini_plan(write: Vec<Vec<CollExpect>>) -> AccessPlan {
        AccessPlan {
            backend: "test",
            nranks: write.len(),
            write_schedule: write,
            read_schedule: vec![Vec::new(), Vec::new()],
            files: Vec::new(),
        }
    }

    #[test]
    fn lockstep_proves_ordering() {
        let plan = mini_plan(vec![
            vec![allreduce(), barrier()],
            vec![allreduce(), barrier()],
        ]);
        let a = analyze(&plan);
        assert!(a.diagnostics.is_empty());
        assert!(a.write_read_ordered);
        assert_eq!(a.barriers.0, 1);
    }

    #[test]
    fn missing_trailing_barrier_breaks_ordering_without_violation() {
        let plan = mini_plan(vec![vec![allreduce()], vec![allreduce()]]);
        let a = analyze(&plan);
        assert!(a.diagnostics.is_empty());
        assert!(
            !a.write_read_ordered,
            "allreduce is not a checker sync edge"
        );
    }

    #[test]
    fn short_schedule_is_deadlock() {
        let plan = mini_plan(vec![vec![allreduce(), barrier()], vec![allreduce()]]);
        let a = analyze(&plan);
        let d = &a.diagnostics[0];
        assert_eq!(d.kind, Kind::ScheduleDeadlock);
        assert_eq!(d.span.ranks, Some((1, 1)), "rank 1 never arrives");
        assert!(d.message.starts_with("write step 1:"), "{d}");
        assert!(!a.write_read_ordered);
    }

    #[test]
    fn kind_mismatch_is_divergence() {
        let plan = mini_plan(vec![
            vec![barrier(), barrier()],
            vec![allreduce(), barrier()],
        ]);
        let a = analyze(&plan);
        let d = &a.diagnostics[0];
        assert_eq!(d.kind, Kind::RankDivergence);
        assert_eq!(d.span.ranks, Some((1, 1)));
        assert!(d.message.starts_with("write step 0:"), "{d}");
    }
}
