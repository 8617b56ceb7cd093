//! The differential oracle: drive the *real* runtime checker from a
//! (possibly mutated) plan, without running the simulation.
//!
//! This is deliberately a different code path from the static analysis:
//! the plan's schedules are deposited collective-by-collective into a
//! live [`Checker`] (each rank keeping its own epoch counter, exactly
//! as `amrio-mpi` does), barriers close sync epochs via `sync_point`,
//! and the effective byte accesses ([`crate::accesses`]) are
//! materialized as trace events on a watched [`Pfs`] so the checker's
//! own epoch slicing, RMW detection, and overlap scan run unmodified.
//! The static verdict is then compared against what the checker
//! actually reports — the differential gate in `bin/verify`.
//!
//! Event placement mirrors the backends' structure: all checkpoint
//! writes land between the phase's intermediate barriers and its
//! closing barrier (every shipped backend writes its payload before
//! the final "complete"/"close" barrier), and restart reads land after
//! the write phase. If a mutation removes or breaks the closing
//! barrier, the reads share the writes' sync epoch and the checker
//! reports the read/write conflicts the static analysis predicted.

use crate::accesses;
use amrio_check::{CheckMode, CheckReport, Checker, CollDesc, CollKind};
use amrio_disk::{FsConfig, IoEvent, Pfs};
use amrio_mpiio::Hints;
use amrio_plan::conform::CollExpect;
use amrio_plan::AccessPlan;
use amrio_simt::sync::Mutex;
use amrio_simt::SimTime;
use std::sync::Arc;

fn desc_of(e: &CollExpect) -> CollDesc {
    CollDesc {
        kind: e.kind,
        root: e.root,
        op: e.op,
        bytes: e.bytes.unwrap_or(0),
        uniform_bytes: e.uniform,
    }
}

/// Replay `plan` into a fresh runtime checker and return its report.
/// Under [`CheckMode::Strict`] the checker panics at the first
/// violation, exactly as it would mid-simulation.
pub fn replay(plan: &AccessPlan, hints: &Hints, fs_cfg: &FsConfig, mode: CheckMode) -> CheckReport {
    let nranks = plan.nranks;
    let checker = Checker::new(mode, nranks);
    let fs = Arc::new(Mutex::new(Pfs::new(fs_cfg.clone())));
    checker.watch_fs(Arc::clone(&fs));

    let (writes, reads) = accesses::effective(plan, hints);

    // Synthetic virtual time: strictly monotone, nanosecond steps.
    let mut t_ns: u64 = 0;
    let mut tick = move || {
        t_ns += 1_000;
        SimTime(t_ns)
    };

    let push = |fs: &Arc<Mutex<Pfs>>,
                client: usize,
                file: usize,
                offset: u64,
                len: u64,
                write: bool,
                at: SimTime| {
        fs.lock().trace.events.push(IoEvent {
            client,
            file,
            offset,
            len,
            write,
            start: at,
            end: SimTime(at.0 + 500),
        });
    };

    // Per-rank epoch counters — the runtime matches collectives by each
    // rank's own deposit count, so a dropped step shifts everything
    // after it, exactly like a real desynchronized run.
    let mut epoch = vec![0u64; nranks];

    let mut run_phase =
        |schedule: &[Vec<CollExpect>], emit_writes: bool, tick: &mut dyn FnMut() -> SimTime| {
            let max_steps = schedule.iter().map(|s| s.len()).max().unwrap_or(0);
            for step in 0..max_steps {
                if emit_writes && step + 1 == max_steps {
                    // Payload lands before the phase's closing step.
                    let at = tick();
                    for w in &writes {
                        match w.kind {
                            accesses::AccessKind::RmwWindow => {
                                // Data sieving: read the window, then write
                                // it back — the checker's RMW signature.
                                push(&fs, w.rank, w.file, w.offset, w.len, false, at);
                                push(
                                    &fs,
                                    w.rank,
                                    w.file,
                                    w.offset,
                                    w.len,
                                    true,
                                    SimTime(at.0 + 100),
                                );
                            }
                            _ => push(&fs, w.rank, w.file, w.offset, w.len, true, at),
                        }
                    }
                }
                let at = tick();
                let mut arrived = 0;
                let mut all_barrier = true;
                for r in 0..nranks {
                    if let Some(e) = schedule[r].get(step) {
                        checker.on_collective(r, epoch[r], desc_of(e));
                        epoch[r] += 1;
                        arrived += 1;
                        if e.kind != CollKind::Barrier {
                            all_barrier = false;
                        }
                    }
                }
                // A barrier only releases when every rank arrives; only a
                // released barrier closes a sync epoch.
                if arrived == nranks && all_barrier {
                    checker.sync_point(at);
                }
            }
            if emit_writes && max_steps == 0 {
                let at = tick();
                for w in &writes {
                    push(&fs, w.rank, w.file, w.offset, w.len, true, at);
                }
            }
        };

    run_phase(&plan.write_schedule, true, &mut tick);

    // Restart reads happen after the write phase.
    let at = tick();
    for r in &reads {
        push(&fs, r.rank, r.file, r.offset, r.len, false, at);
    }
    run_phase(&plan.read_schedule, false, &mut tick);

    checker.finalize()
}
