//! `amrio-simt` — the discrete-event virtual-time kernel underneath the
//! whole amrio stack.
//!
//! Simulated processors run as OS threads; each carries a virtual clock.
//! Interactions with shared simulated hardware (networks, disks) are
//! serialized in `(clock, rank)` order through [`Ctx::ordered`], giving
//! deterministic, reproducible contention no matter how the host schedules
//! the threads. See [`engine`] for the scheduling rules.
//!
//! ```
//! use amrio_simt::{run, SimDur};
//!
//! let report = run(4, |ctx| {
//!     ctx.advance(SimDur::from_micros(10 * (ctx.rank() as u64 + 1)));
//!     ctx.now()
//! });
//! assert_eq!(report.makespan.0, 40_000);
//! ```

#![forbid(unsafe_code)]

pub mod bytes;
pub mod digest;
pub mod engine;
pub mod sync;
pub mod time;

pub use bytes::{copied_bytes, count_copy, reset_copied_bytes, Bytes};
pub use engine::{run, run_with_hook, ClockHook, Ctx, Deadlock, Rank, SchedStats, SimReport};
pub use time::{SimDur, SimTime};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    #[test]
    fn single_rank_advances() {
        let r = run(1, |ctx| {
            assert_eq!(ctx.rank(), 0);
            assert_eq!(ctx.nranks(), 1);
            ctx.advance(SimDur::from_micros(5));
            ctx.now()
        });
        assert_eq!(r.makespan, SimTime(5_000));
        assert_eq!(r.results[0], SimTime(5_000));
    }

    #[test]
    fn ordered_sections_observe_priority_order() {
        // Each rank advances to a distinct time then records itself in a
        // shared log from an ordered section; the log must come out sorted
        // by (time, rank) on every run.
        let log = Arc::new(Mutex::new(Vec::new()));
        for _ in 0..20 {
            log.lock().unwrap().clear();
            let log2 = Arc::clone(&log);
            run(8, move |ctx| {
                // Reverse order: rank 7 has the earliest clock.
                let d = SimDur::from_micros((8 - ctx.rank() as u64) * 10);
                ctx.advance(d);
                let log3 = Arc::clone(&log2);
                ctx.ordered_read(|t| log3.lock().unwrap().push((t, ctx.rank())));
            });
            let got = log.lock().unwrap().clone();
            let mut want = got.clone();
            want.sort();
            assert_eq!(got, want, "ordered sections ran out of priority order");
        }
    }

    #[test]
    fn equal_clock_ties_break_by_rank() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let log2 = Arc::clone(&log);
        run(6, move |ctx| {
            ctx.advance(SimDur::from_micros(7));
            let l = Arc::clone(&log2);
            ctx.ordered_read(|_| l.lock().unwrap().push(ctx.rank()));
        });
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn park_unpark_transfers_time() {
        let r = run(2, |ctx| {
            if ctx.rank() == 0 {
                // Wait for rank 1's signal.
                let woke = ctx.park();
                assert_eq!(woke, SimTime(2_000_000));
                ctx.now()
            } else {
                ctx.advance(SimDur::from_millis(2));
                ctx.ordered_read(|t| ctx.unpark(0, t));
                ctx.now()
            }
        });
        assert_eq!(r.results[0], SimTime(2_000_000));
    }

    #[test]
    fn unpark_before_park_leaves_permit() {
        let r = run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.advance(SimDur::from_micros(1));
                ctx.ordered_read(|t| ctx.unpark(1, t + SimDur::from_micros(9)));
                0
            } else {
                // Burn some real time so the permit is very likely posted
                // first; semantics must not depend on it either way.
                std::thread::sleep(std::time::Duration::from_millis(5));
                let t = ctx.park();
                assert_eq!(t, SimTime(10_000));
                1
            }
        });
        assert_eq!(r.results, vec![0, 1]);
    }

    #[test]
    fn batch_wake_raises_clocks_and_reindexes() {
        // Ranks 1..=3 park at clock 0; rank 0 wakes them all at once at
        // distinct times. Each must resume at its own `at`, and their
        // next ordered sections must follow the new keys, not rank order.
        let log = Arc::new(Mutex::new(Vec::new()));
        let r = run(4, |ctx| {
            let me = ctx.rank();
            if me == 0 {
                ctx.advance(SimDur::from_micros(1));
                ctx.ordered_read(|t| {
                    ctx.unpark_all([
                        (1, t + SimDur::from_micros(30)),
                        (2, t + SimDur::from_micros(10)),
                        (3, t + SimDur::from_micros(20)),
                    ])
                });
                ctx.advance(SimDur::from_micros(100));
            } else {
                ctx.park();
            }
            let woke = ctx.now();
            ctx.ordered_read(|_| log.lock().unwrap().push(me));
            woke
        });
        let us = |n: u64| SimTime(n * 1_000);
        assert_eq!(r.results, vec![us(101), us(31), us(11), us(21)]);
        assert_eq!(*log.lock().unwrap(), vec![2, 3, 1, 0]);
        assert_eq!(r.sched.wakeups, r.sched.handoffs + 3);
    }

    #[test]
    fn batch_wake_before_park_posts_a_permit() {
        // Rank 2 is parked when rank 0's batch wake runs; rank 1 is
        // still waiting for its own ordered grant, so it gets a permit
        // (the larger of its two wake times) and its later park
        // consumes it without blocking.
        let r = run(3, |ctx| match ctx.rank() {
            0 => {
                ctx.advance(SimDur::from_micros(1));
                ctx.ordered_read(|t| {
                    ctx.unpark_all([
                        (1, t + SimDur::from_micros(8)),
                        (2, t + SimDur::from_micros(3)),
                        (1, t + SimDur::from_micros(6)),
                    ])
                });
                ctx.now()
            }
            1 => {
                ctx.advance(SimDur::from_micros(5));
                ctx.ordered_read(|_| ());
                ctx.park()
            }
            _ => ctx.park(),
        });
        assert_eq!(
            r.results,
            vec![SimTime(1_000), SimTime(9_000), SimTime(4_000)]
        );
    }

    #[test]
    fn batch_wake_then_all_parked_is_a_typed_deadlock() {
        // Rank 0 wakes only rank 1; then every rank parks with nobody
        // left to wake it.
        let res = std::panic::catch_unwind(|| {
            run(3, |ctx| {
                if ctx.rank() == 0 {
                    ctx.advance(SimDur::from_micros(1));
                    ctx.ordered_read(|t| ctx.unpark_all([(1, t)]));
                } else if ctx.rank() == 1 {
                    ctx.park();
                }
                ctx.park();
            })
        });
        let err = res.expect_err("deadlock must panic");
        let d = err
            .downcast_ref::<Deadlock>()
            .expect("deadlock panics carry the typed Deadlock payload");
        assert!(d.0.contains("simulated deadlock"), "message: {}", d.0);
        for rank in 0..3 {
            assert!(
                d.0.contains(&format!("rank {rank}: Parked")),
                "state dump lost rank {rank}:\n{}",
                d.0
            );
        }
        assert!(d.0.contains("rank 1: Parked at 0.000001s"), "{}", d.0);
    }

    #[test]
    fn advance_to_is_monotonic() {
        run(1, |ctx| {
            ctx.advance_to(SimTime(500));
            ctx.advance_to(SimTime(100)); // no-op
            assert_eq!(ctx.now(), SimTime(500));
        });
    }

    #[test]
    fn deadlock_is_detected() {
        let res = std::panic::catch_unwind(|| {
            run(2, |ctx| {
                ctx.park();
            })
        });
        let err = match res {
            Err(e) => e,
            Ok(_) => panic!("deadlock must panic"),
        };
        let d = err
            .downcast_ref::<Deadlock>()
            .expect("deadlock panics carry the typed Deadlock payload");
        assert!(d.0.contains("deadlock"), "unexpected panic: {}", d.0);
    }

    #[test]
    fn rank_panic_poisons_peers() {
        let res = std::panic::catch_unwind(|| {
            run(3, |ctx| {
                if ctx.rank() == 1 {
                    panic!("boom from rank 1");
                }
                // Peers would otherwise wait forever.
                ctx.park();
            })
        });
        assert!(res.is_err());
    }

    #[test]
    fn ordered_result_and_clock_update() {
        let r = run(1, |ctx| {
            let v = ctx.ordered(|t| (t + SimDur::from_micros(42), "done"));
            assert_eq!(v, "done");
            ctx.now()
        });
        assert_eq!(r.results[0], SimTime(42_000));
    }

    #[test]
    fn free_rank_blocks_ordered_waiter_until_it_advances() {
        // Rank 1 sits at clock 0 doing "local work"; rank 0 wants an ordered
        // section at clock 10us and must wait until rank 1 passes it.
        let flag = Arc::new(AtomicUsize::new(0));
        let f2 = Arc::clone(&flag);
        run(2, move |ctx| {
            if ctx.rank() == 0 {
                ctx.advance(SimDur::from_micros(10));
                let f = Arc::clone(&f2);
                ctx.ordered_read(|_| {
                    assert_eq!(f.load(Ordering::SeqCst), 1, "rank 1 had earlier priority");
                });
            } else {
                std::thread::sleep(std::time::Duration::from_millis(10));
                let f = Arc::clone(&f2);
                ctx.ordered_read(|_| {
                    f.store(1, Ordering::SeqCst);
                });
                ctx.advance(SimDur::from_micros(100));
            }
        });
    }

    #[test]
    fn clock_hook_dilates_advance_but_not_advance_to() {
        struct DoubleRank0;
        impl ClockHook for DoubleRank0 {
            fn dilate(&self, rank: Rank, _now: SimTime, d: SimDur) -> SimDur {
                if rank == 0 {
                    SimDur(d.0 * 2)
                } else {
                    d
                }
            }
        }
        let r = run_with_hook(2, Some(Arc::new(DoubleRank0)), |ctx| {
            ctx.advance(SimDur::from_micros(10));
            if ctx.rank() == 1 {
                // advance_to must NOT be dilated.
                ctx.advance_to(SimTime(15_000));
            }
            ctx.now()
        });
        assert_eq!(r.results[0], SimTime(20_000));
        assert_eq!(r.results[1], SimTime(15_000));
    }

    #[test]
    fn report_counts_ordered_ops() {
        let r = run(3, |ctx| {
            for _ in 0..5 {
                ctx.ordered(|t| (t + SimDur::from_nanos(1), ()));
            }
        });
        assert_eq!(r.ordered_ops, 15);
    }

    #[test]
    fn determinism_of_makespan_under_contention() {
        let one = || {
            run(16, |ctx| {
                for i in 0..10u64 {
                    ctx.advance(SimDur::from_nanos(ctx.rank() as u64 * 13 + i));
                    ctx.ordered(|t| (t + SimDur::from_nanos(7), ()));
                }
                ctx.now()
            })
        };
        let a = one();
        let b = one();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.results, b.results);
    }
}

#[cfg(test)]
mod stress {
    use super::*;

    #[test]
    fn two_hundred_fifty_six_ranks_interleave_deterministically() {
        // Pure-engine rank sweep: a 256-rank world with contended
        // ordered sections must produce identical per-rank clocks,
        // makespan, and ordered-op counts on repeated runs.
        let go = || {
            run(256, |ctx| {
                for i in 0..8u64 {
                    ctx.advance(SimDur::from_nanos((ctx.rank() as u64 * 131 + i * 11) % 251));
                    ctx.ordered(|t| (t + SimDur::from_nanos(2), ()));
                }
                ctx.now()
            })
        };
        let a = go();
        let b = go();
        assert_eq!(a.results, b.results);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.ordered_ops, 256 * 8);
        assert_eq!(b.ordered_ops, 256 * 8);
    }

    #[test]
    fn sixty_four_ranks_interleave_deterministically() {
        let go = || {
            run(64, |ctx| {
                for i in 0..20u64 {
                    ctx.advance(SimDur::from_nanos((ctx.rank() as u64 * 31 + i * 7) % 97));
                    ctx.ordered(|t| (t + SimDur::from_nanos(3), ()));
                }
                ctx.now()
            })
        };
        let a = go();
        let b = go();
        assert_eq!(a.results, b.results);
        assert_eq!(a.ordered_ops, 64 * 20);
    }

    #[test]
    fn high_rank_count_deadlock_keeps_typed_payload_and_dump() {
        // All 512 ranks park with nobody left to wake them: the engine
        // must raise the typed Deadlock panic and the state dump must
        // still cover every rank even at high rank counts.
        let res = std::panic::catch_unwind(|| {
            run(512, |ctx| {
                ctx.advance(SimDur::from_nanos(ctx.rank() as u64));
                ctx.park();
            })
        });
        let err = res.expect_err("deadlock must panic");
        let d = err
            .downcast_ref::<Deadlock>()
            .expect("deadlock panics carry the typed Deadlock payload");
        assert!(d.0.contains("simulated deadlock"), "message: {}", d.0);
        for rank in [0, 1, 255, 511] {
            assert!(
                d.0.contains(&format!("rank {rank}:")),
                "state dump lost rank {rank}:\n{}",
                d.0
            );
        }
    }

    #[test]
    fn deadlock_after_last_live_rank_finishes() {
        // Ranks 1..n park forever; rank 0 just returns. The moment the
        // last unparked rank finishes, the parked survivors are dead —
        // the engine must wake one of them to report the deadlock.
        let res = std::panic::catch_unwind(|| {
            run(4, |ctx| {
                if ctx.rank() > 0 {
                    ctx.park();
                }
            })
        });
        let err = res.expect_err("deadlock must panic");
        assert!(err.downcast_ref::<Deadlock>().is_some());
    }

    #[test]
    fn root_cause_panic_wins_over_peer_cascade() {
        // Rank 2 hits the real bug while ranks 0/1 sit parked; the
        // poison protocol unwinds them with "peer rank panicked"
        // cascades, but the propagated payload must be the root cause.
        let res = std::panic::catch_unwind(|| {
            run(3, |ctx| {
                if ctx.rank() == 2 {
                    ctx.advance(SimDur::from_micros(1));
                    panic!("root cause from rank 2");
                }
                ctx.park();
            })
        });
        let err = res.expect_err("must propagate the panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("root cause from rank 2"),
            "propagated a secondary panic instead of the root cause: {msg}"
        );
    }

    #[test]
    fn contention_counters_are_reported() {
        let r = run(8, |ctx| {
            for i in 0..10u64 {
                ctx.advance(SimDur::from_nanos(ctx.rank() as u64 * 17 + i));
                ctx.ordered(|t| (t + SimDur::from_nanos(5), ()));
            }
        });
        assert_eq!(r.ordered_ops, 80);
        // Contended grants flow through targeted handoffs, and every
        // handoff is a wakeup; the index is maintained incrementally.
        assert!(r.sched.handoffs > 0, "no grant handoffs recorded");
        assert!(r.sched.wakeups >= r.sched.handoffs);
        assert!(r.sched.index_updates > 0);
        assert!(r.sched.lock_acquisitions > 0);
    }

    #[test]
    fn chained_park_unpark_pipeline() {
        // Rank i wakes rank i+1 after advancing; times accumulate.
        let n = 10;
        let r = run(n, |ctx| {
            if ctx.rank() > 0 {
                ctx.park();
            }
            ctx.advance(SimDur::from_micros(5));
            if ctx.rank() + 1 < ctx.nranks() {
                ctx.ordered_read(|t| ctx.unpark(ctx.rank() + 1, t));
            }
            ctx.now()
        });
        for w in r.results.windows(2) {
            assert_eq!(w[1].0 - w[0].0, 5_000);
        }
        assert_eq!(r.makespan, SimTime(5_000 * n as u64));
    }
}
