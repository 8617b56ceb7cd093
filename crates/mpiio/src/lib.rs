//! `amrio-mpiio` — a ROMIO-like MPI-IO implementation over the simulated
//! MPI and parallel file systems.
//!
//! Features used by the paper's optimized ENZO I/O:
//! * derived datatypes ([`Datatype`]) and file views ([`MpiFile::set_view`])
//!   — subarray views express the `(Block, Block, Block)` baryon-field
//!   partition;
//! * independent contiguous I/O at explicit offsets (the particle path);
//! * data sieving for noncontiguous independent access;
//! * two-phase collective I/O ([`MpiFile::write_all_view`] /
//!   [`MpiFile::read_all_view`]) with configurable aggregators and
//!   stripe-aligned file domains.

#![forbid(unsafe_code)]

pub mod collective;
pub mod datatype;
pub mod file;
mod retry;

pub use datatype::{normalize, Datatype, NumType, Region};
pub use file::{Advisory, Hints, Mode, MpiFile, MpiIo};

// Fault vocabulary of the fallible request path, re-exported so
// applications can configure injection and recovery from here.
pub use amrio_disk::{window_secs, FaultPlan, IoError, ResilienceReport, RetryPolicy, Window};

#[cfg(test)]
mod tests {
    use super::*;
    use amrio_disk::{DiskParams, FsConfig, Placement};
    use amrio_mpi::World;
    use amrio_net::NetConfig;
    use amrio_simt::SimDur;

    fn test_fs(nservers: usize) -> FsConfig {
        FsConfig {
            label: "testfs".into(),
            stripe: 64 * 1024,
            nservers,
            disk: DiskParams::new(100, 2, 100.0),
            server_endpoints: None,
            placement: Placement::Striped,
            lock_block: None,
            token_cost: SimDur::ZERO,
            client_queue_cost: None,
            single_stream_bw: None,
        }
    }

    /// Each rank owns a (Block,Block,Block) slab of a cubic array; fill a
    /// deterministic pattern and verify global file contents.
    fn bbb_pattern(n: u64, p: [u64; 3], rank: usize) -> (Datatype, Vec<u8>) {
        let pz = rank as u64 / (p[1] * p[2]);
        let py = (rank as u64 / p[2]) % p[1];
        let px = rank as u64 % p[2];
        let sub = [n / p[0], n / p[1], n / p[2]];
        let start = [pz * sub[0], py * sub[1], px * sub[2]];
        let t = Datatype::subarray3([n, n, n], start, sub, 4);
        // Buffer bytes = global linear index of each element, as u32 LE.
        let mut buf = Vec::with_capacity((sub.iter().product::<u64>() * 4) as usize);
        for z in 0..sub[0] {
            for y in 0..sub[1] {
                for x in 0..sub[2] {
                    let g = (start[0] + z) * n * n + (start[1] + y) * n + (start[2] + x);
                    buf.extend_from_slice(&(g as u32).to_le_bytes());
                }
            }
        }
        (t, buf)
    }

    #[test]
    fn collective_write_assembles_global_array() {
        let w = World::new(8, NetConfig::ccnuma(8));
        let io = MpiIo::new(test_fs(4));
        let fs = io.fs();
        w.run(|c| {
            let mut f = io.open(c, "grid", Mode::Create);
            let (t, buf) = bbb_pattern(8, [2, 2, 2], c.rank());
            f.set_view(0, t);
            f.write_all_view(&buf);
            c.barrier();
        });
        let fs = fs.lock();
        let fid = 0;
        assert_eq!(fs.file_size(fid), 8 * 8 * 8 * 4);
        let bytes = fs.peek(fid, 0, (8 * 8 * 8 * 4) as usize);
        for g in 0..8 * 8 * 8u32 {
            let v = u32::from_le_bytes(bytes[(g as usize) * 4..][..4].try_into().unwrap());
            assert_eq!(v, g, "element {g}");
        }
    }

    #[test]
    fn collective_read_returns_each_slab() {
        let w = World::new(8, NetConfig::smp_cluster(8, 4));
        let io = MpiIo::new(test_fs(4));
        let r = w.run(|c| {
            let mut f = io.open(c, "grid", Mode::Create);
            let (t, buf) = bbb_pattern(8, [2, 2, 2], c.rank());
            f.set_view(0, t);
            f.write_all_view(&buf);
            c.barrier();
            let got = f.read_all_view();
            got == buf
        });
        assert!(r.results.iter().all(|ok| *ok));
    }

    #[test]
    fn independent_view_write_matches_collective_contents() {
        let run = |collective: bool| {
            let w = World::new(8, NetConfig::ccnuma(8));
            let io = MpiIo::new(test_fs(4));
            let fs = io.fs();
            w.run(move |c| {
                let mut f = io.open(c, "g", Mode::Create);
                let (t, buf) = bbb_pattern(8, [2, 2, 2], c.rank());
                f.set_view(0, t);
                if collective {
                    f.write_all_view(&buf);
                } else {
                    f.write_view(&buf);
                }
                c.barrier();
            });
            let fs = fs.lock();
            fs.peek(0, 0, 8 * 8 * 8 * 4)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn collective_write_is_faster_than_naive_independent_on_strided() {
        // The headline optimization: two-phase beats per-run requests when
        // runs are small and the network is fast.
        let time = |collective: bool, sieve: bool| {
            let w = World::new(8, NetConfig::ccnuma(8));
            let io = MpiIo::new(test_fs(4));
            let r = w.run(move |c| {
                let mut f = io.open(c, "g", Mode::Create);
                let (t, buf) = bbb_pattern(32, [2, 2, 2], c.rank());
                f.set_view(0, t);
                f.set_hints(Hints {
                    ds_write: sieve,
                    ..Hints::default()
                });
                if collective {
                    f.write_all_view(&buf);
                } else {
                    f.write_view(&buf);
                }
                c.barrier();
                c.now()
            });
            r.makespan
        };
        let coll = time(true, false);
        let naive = time(false, false);
        assert!(
            coll.as_secs_f64() < naive.as_secs_f64() / 2.0,
            "collective {coll:?} vs naive {naive:?}"
        );
    }

    #[test]
    fn sieved_read_beats_per_region_read() {
        let time = |sieve: bool| {
            let w = World::new(4, NetConfig::ccnuma(4));
            let io = MpiIo::new(test_fs(4));
            let r = w.run(move |c| {
                let mut f = io.open(c, "g", Mode::Create);
                if c.rank() == 0 {
                    f.write_at(0, &vec![7u8; 32 * 32 * 32 * 4]);
                }
                c.barrier();
                let (t, _) = bbb_pattern(32, [1, 2, 2], c.rank());
                f.set_view(0, t);
                f.set_hints(Hints {
                    ds_read: sieve,
                    ..Hints::default()
                });
                let _ = f.read_view();
                c.barrier();
                c.now()
            });
            r.makespan
        };
        let sieved = time(true);
        let naive = time(false);
        assert!(
            sieved < naive,
            "sieved {sieved:?} should beat naive {naive:?}"
        );
    }

    #[test]
    fn sieved_write_roundtrips() {
        let w = World::new(4, NetConfig::ccnuma(4));
        let io = MpiIo::new(test_fs(2));
        let fs = io.fs();
        w.run(|c| {
            let mut f = io.open(c, "g", Mode::Create);
            let (t, buf) = bbb_pattern(8, [1, 2, 2], c.rank());
            f.set_view(0, t);
            f.set_hints(Hints {
                ds_write: true,
                sieve_buffer_size: 256, // force multiple windows
                ..Hints::default()
            });
            f.write_view(&buf);
            c.barrier();
        });
        let fs = fs.lock();
        let bytes = fs.peek(0, 0, 8 * 8 * 8 * 4);
        for g in 0..8 * 8 * 8u32 {
            let v = u32::from_le_bytes(bytes[(g as usize) * 4..][..4].try_into().unwrap());
            assert_eq!(v, g);
        }
    }

    #[test]
    fn explicit_offset_io_roundtrips() {
        let w = World::new(2, NetConfig::fast_ethernet(2));
        let io = MpiIo::new(test_fs(2));
        let r = w.run(|c| {
            let f = io.open(c, "p", Mode::Create);
            let data = vec![c.rank() as u8; 1000];
            f.write_at(c.rank() as u64 * 1000, &data);
            c.barrier();
            let other = f.read_at((1 - c.rank()) as u64 * 1000, 1000);
            other == vec![(1 - c.rank()) as u8; 1000]
        });
        assert!(r.results.iter().all(|x| *x));
    }

    #[test]
    fn cb_nodes_hint_limits_aggregators() {
        let w = World::new(8, NetConfig::ccnuma(8));
        let io = MpiIo::new(test_fs(4));
        let fs = io.fs();
        w.run(|c| {
            let mut f = io.open(c, "g", Mode::Create);
            let (t, buf) = bbb_pattern(16, [2, 2, 2], c.rank());
            f.set_view(0, t);
            f.set_hints(Hints {
                cb_nodes: Some(2),
                ..Hints::default()
            });
            f.write_all_view(&buf);
            c.barrier();
            let got = f.read_all_view();
            assert_eq!(got, buf);
        });
        // Contents still correct with 2 aggregators.
        let fs = fs.lock();
        let bytes = fs.peek(0, 0, 16 * 16 * 16 * 4);
        for g in 0..16 * 16 * 16u32 {
            let v = u32::from_le_bytes(bytes[(g as usize) * 4..][..4].try_into().unwrap());
            assert_eq!(v, g);
        }
    }

    #[test]
    fn collective_with_holes_preserves_existing_bytes() {
        // Ranks write every other 1 KiB block; pre-existing data in the
        // holes must survive the collective write.
        let w = World::new(2, NetConfig::ccnuma(2));
        let io = MpiIo::new(test_fs(2));
        let fs = io.fs();
        w.run(|c| {
            let mut f = io.open(c, "h", Mode::Create);
            if c.rank() == 0 {
                f.write_at(0, &vec![0xEE; 8192]);
            }
            c.barrier();
            let blocks: Vec<Region> = (0..2u64)
                .map(|i| ((c.rank() as u64 * 2 + i) * 2048, 1024))
                .collect();
            f.set_view(0, Datatype::Hindexed { blocks });
            f.write_all_view(&vec![c.rank() as u8 + 1; 2048]);
            c.barrier();
        });
        let fs = fs.lock();
        let bytes = fs.peek(0, 0, 8192);
        assert_eq!(bytes[0], 1); // rank 0 block
        assert_eq!(bytes[1500], 0xEE); // hole preserved
        assert_eq!(bytes[4096], 2); // rank 1 block
        assert_eq!(bytes[4096 + 1500], 0xEE);
    }

    #[test]
    fn deterministic_makespan() {
        let go = || {
            let w = World::new(8, NetConfig::fast_ethernet(8));
            let io = MpiIo::new(test_fs(8));
            let r = w.run(|c| {
                let mut f = io.open(c, "g", Mode::Create);
                let (t, buf) = bbb_pattern(16, [2, 2, 2], c.rank());
                f.set_view(0, t);
                f.write_all_view(&buf);
                c.barrier();
                c.now()
            });
            r.makespan
        };
        assert_eq!(go(), go());
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use amrio_disk::{DiskParams, FsConfig, Placement};
    use amrio_mpi::World;
    use amrio_net::NetConfig;
    use amrio_simt::{SimDur, SimTime};
    use std::sync::Arc;

    fn test_fs(nservers: usize) -> FsConfig {
        FsConfig {
            label: "faultfs".into(),
            stripe: 64 * 1024,
            nservers,
            disk: DiskParams::new(100, 2, 100.0),
            server_endpoints: None,
            placement: Placement::Striped,
            lock_block: None,
            token_cost: SimDur::ZERO,
            client_queue_cost: None,
            single_stream_bw: None,
        }
    }

    /// Transient errors inside the window are retried with backoff until
    /// the budget is exhausted; the op then completes and contents are
    /// intact. Run twice: recovery must be bit-deterministic.
    #[test]
    fn transient_errors_retry_deterministically() {
        let go = || {
            let w = World::new(2, NetConfig::ccnuma(2));
            let io = MpiIo::new(test_fs(2));
            let plan =
                Arc::new(FaultPlan::new().with_transient_errors(0, window_secs(0.0, 1.0e6), 3));
            io.attach_faults(Arc::clone(&plan));
            let fs = io.fs();
            let r = w.run(|c| {
                let f = io.open(c, "x", Mode::Create);
                if c.rank() == 0 {
                    f.write_at(0, &vec![0xAB; 256 * 1024]);
                }
                c.barrier();
                c.now()
            });
            let g = fs.lock();
            assert_eq!(g.peek(0, 0, 1)[0], 0xAB);
            assert_eq!(g.file_size(0), 256 * 1024);
            (r.makespan, plan.report(r.makespan).retries)
        };
        let (m1, retries1) = go();
        let (m2, retries2) = go();
        assert_eq!(retries1, 3, "budget of 3 transients -> 3 retries");
        assert_eq!(retries1, retries2);
        assert_eq!(m1, m2, "fault recovery must be deterministic");
    }

    /// A transient budget larger than max_retries makes every request
    /// fail for good: each request family panics naming its operation.
    #[test]
    fn exhausted_retries_panic_through_wrappers() {
        let two_runs = || Datatype::Hindexed {
            blocks: vec![(0, 64), (4096, 64)],
        };
        fn hints(ds: bool) -> Hints {
            Hints {
                ds_read: ds,
                ds_write: ds,
                ..Hints::default()
            }
        }
        type Family = (&'static str, fn(&mut MpiFile<'_, '_>));
        let families: [Family; 10] = [
            ("independent write", |f| f.write_at(0, &[1u8; 64])),
            ("independent read", |f| drop(f.read_at(0, 64))),
            ("gathered write", |f| f.write_gather_at(0, &[&[1u8; 64]])),
            ("scattered read", |f| {
                f.read_scatter_at(0, &mut [&mut [0u8; 64]])
            }),
            ("view write", |f| {
                f.set_hints(hints(false));
                f.write_view(&[1u8; 128]);
            }),
            ("view read", |f| {
                f.set_hints(hints(false));
                drop(f.read_view());
            }),
            ("sieved read", |f| {
                f.set_hints(hints(true));
                drop(f.read_view());
            }),
            ("sieved write", |f| {
                f.set_hints(hints(true));
                f.write_view(&[1u8; 128]);
            }),
            ("two-phase write", |f| f.write_all_view(&[1u8; 128])),
            ("two-phase read", |f| drop(f.read_all_view())),
        ];
        for (what, op) in families {
            let w = World::new(1, NetConfig::ccnuma(1));
            let mut io = MpiIo::new(test_fs(1));
            io.set_retry_policy(RetryPolicy {
                max_retries: 2,
                ..RetryPolicy::default()
            });
            io.attach_faults(Arc::new(FaultPlan::new().with_transient_errors(
                0,
                window_secs(0.0, 1.0e6),
                1000,
            )));
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                w.run(|c| {
                    let mut f = io.open(c, "x", Mode::Create);
                    f.set_view(0, two_runs());
                    op(&mut f);
                })
            }))
            .expect_err(what);
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            let want = format!("{what}: unrecoverable I/O fault");
            assert!(msg.starts_with(&want), "{what}: panicked with {msg:?}");
        }
    }

    /// A server that fails permanently mid-run is dropped from the
    /// stripe map; independent and collective writes complete against
    /// the survivors and the bytes land correctly.
    #[test]
    fn server_failure_fails_over_and_contents_survive() {
        let w = World::new(4, NetConfig::ccnuma(4));
        let io = MpiIo::new(test_fs(4));
        let plan = Arc::new(FaultPlan::new().with_server_failure(1, SimTime::ZERO));
        io.attach_faults(Arc::clone(&plan));
        let fs = io.fs();
        w.run(|c| {
            let mut f = io.open(c, "g", Mode::Create);
            // 256 KiB per rank: the 1 MiB file spans every 64 KiB stripe.
            let slab = 256 * 1024usize;
            let elems: Vec<u8> = (0..slab).map(|i| (i % 251) as u8).collect();
            let t = Datatype::Hindexed {
                blocks: vec![(c.rank() as u64 * slab as u64, slab as u64)],
            };
            f.set_view(0, t);
            f.write_all_view(&elems);
            c.barrier();
            let back = f.read_all_view();
            assert_eq!(back, elems, "rank {} readback", c.rank());
        });
        let g = fs.lock();
        assert_eq!(g.alive_servers(), 3, "server 1 left the stripe map");
        assert!(g.is_degraded(1));
        let rep = plan.report(SimTime::ZERO);
        assert!(rep.failovers >= 1, "failover must be recorded: {rep:?}");
    }
}

#[cfg(test)]
mod app_striping_tests {
    use super::*;
    use amrio_disk::{DiskParams, FsConfig, Placement};
    use amrio_mpi::World;
    use amrio_net::NetConfig;
    use amrio_simt::SimDur;

    #[test]
    fn set_app_striping_survives_recreate_and_affects_requests() {
        let cfg = FsConfig {
            label: "t".into(),
            stripe: 1 << 20,
            nservers: 4,
            disk: DiskParams::new(100, 2, 100.0),
            server_endpoints: None,
            placement: Placement::Striped,
            lock_block: None,
            token_cost: SimDur::ZERO,
            client_queue_cost: None,
            single_stream_bw: None,
        };
        let w = World::new(2, NetConfig::ccnuma(2));
        let io = MpiIo::new(cfg);
        let fs = io.fs();
        w.run(|c| {
            let f = io.open(c, "x", Mode::Create);
            if c.rank() == 0 {
                f.set_app_striping(64 * 1024);
            }
            c.barrier();
            drop(f);
            // Re-create (truncate) keeps the override.
            let f = io.open(c, "x", Mode::Create);
            if c.rank() == 0 {
                f.write_at(0, &vec![1u8; 512 * 1024]);
            }
            c.barrier();
        });
        let g = fs.lock();
        assert_eq!(g.stripe_of(0), 64 * 1024);
        // 512 KiB at 64 KiB stripes over 4 servers: 2 coalesced pieces
        // per server = more than one request.
        assert!(g.stats.server_requests >= 4);
    }
}

#[cfg(test)]
mod write_behind_tests {
    use super::*;
    use amrio_disk::{DiskParams, FsConfig, Placement};
    use amrio_mpi::World;
    use amrio_net::NetConfig;
    use amrio_simt::SimDur;

    fn fs() -> FsConfig {
        FsConfig {
            label: "wb".into(),
            stripe: 256 * 1024,
            nservers: 2,
            disk: DiskParams::new(500, 4, 50.0),
            server_endpoints: None,
            placement: Placement::Striped,
            lock_block: None,
            token_cost: SimDur::ZERO,
            client_queue_cost: None,
            single_stream_bw: None,
        }
    }

    #[test]
    fn adjacent_writes_coalesce_into_one_request() {
        let w = World::new(1, NetConfig::ccnuma(1));
        let io = MpiIo::new(fs());
        let fsh = io.fs();
        w.run(|c| {
            let f = io.open(c, "x", Mode::Create);
            f.enable_write_behind(1 << 20);
            for k in 0..64u64 {
                f.write_at(k * 1024, &[k as u8; 1024]);
            }
            f.flush_write_behind();
        });
        let g = fsh.lock();
        // 64 staged writes -> 1 flush.
        assert_eq!(g.stats.writes, 1);
        for k in 0..64u64 {
            assert_eq!(g.peek(0, k * 1024, 1)[0], k as u8);
        }
    }

    #[test]
    fn non_adjacent_write_forces_flush() {
        let w = World::new(1, NetConfig::ccnuma(1));
        let io = MpiIo::new(fs());
        let fsh = io.fs();
        w.run(|c| {
            let f = io.open(c, "x", Mode::Create);
            f.enable_write_behind(1 << 20);
            f.write_at(0, &[1u8; 100]);
            f.write_at(10_000, &[2u8; 100]); // gap: flushes the first
            drop(f); // drop flushes the second
        });
        let g = fsh.lock();
        assert_eq!(g.stats.writes, 2);
        assert_eq!(g.peek(0, 0, 1)[0], 1);
        assert_eq!(g.peek(0, 10_000, 1)[0], 2);
    }

    #[test]
    fn read_observes_staged_writes() {
        let w = World::new(1, NetConfig::ccnuma(1));
        let io = MpiIo::new(fs());
        w.run(|c| {
            let f = io.open(c, "x", Mode::Create);
            f.enable_write_behind(1 << 20);
            f.write_at(5, b"hello");
            let got = f.read_at(5, 5); // flushes, then reads
            assert_eq!(got, b"hello");
        });
    }

    #[test]
    fn capacity_overflow_splits_requests() {
        let w = World::new(1, NetConfig::ccnuma(1));
        let io = MpiIo::new(fs());
        let fsh = io.fs();
        w.run(|c| {
            let f = io.open(c, "x", Mode::Create);
            f.enable_write_behind(4096);
            for k in 0..8u64 {
                f.write_at(k * 1024, &[0u8; 1024]);
            }
            drop(f);
        });
        // 8 KiB through a 4 KiB buffer: two flushes.
        assert_eq!(fsh.lock().stats.writes, 2);
    }

    #[test]
    fn oversized_write_bypasses_buffer() {
        let w = World::new(1, NetConfig::ccnuma(1));
        let io = MpiIo::new(fs());
        let fsh = io.fs();
        w.run(|c| {
            let f = io.open(c, "x", Mode::Create);
            f.enable_write_behind(1024);
            f.write_at(0, &vec![7u8; 10_000]);
            drop(f);
        });
        let g = fsh.lock();
        assert_eq!(g.stats.writes, 1);
        assert_eq!(g.file_size(0), 10_000);
    }

    #[test]
    fn write_behind_is_faster_for_many_small_adjacent_writes() {
        let time_of = |wb: bool| {
            let w = World::new(1, NetConfig::ccnuma(1));
            let io = MpiIo::new(fs());
            let r = w.run(move |c| {
                let f = io.open(c, "x", Mode::Create);
                if wb {
                    f.enable_write_behind(1 << 20);
                }
                for k in 0..256u64 {
                    f.write_at(k * 512, &[0u8; 512]);
                }
                f.flush_write_behind();
                c.now()
            });
            r.makespan
        };
        let buffered = time_of(true);
        let direct = time_of(false);
        assert!(
            buffered.as_secs_f64() < direct.as_secs_f64() / 4.0,
            "buffered {buffered:?} vs direct {direct:?}"
        );
    }
}
