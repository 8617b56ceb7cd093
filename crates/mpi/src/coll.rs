//! Collective operations, priced by simulating their message patterns on
//! the shared network inside a rendezvous (see crate docs).
//!
//! Patterns follow the classic MPICH algorithms of the era: binomial trees
//! for broadcast/reduce, dissemination for barrier, rooted flat trees for
//! gatherv/scatterv (the root drains/injects messages serially — exactly
//! the bottleneck that hurts the HDF4 processor-0 design), and pairwise
//! exchange rounds for alltoallv.
//!
//! `alltoallv` is sparse: each rank passes `(dst, payload)` pairs and gets
//! back only the non-empty payloads addressed to it, so the host work of
//! moving payloads grows with the data, not with P². Its pricing is the
//! dense pairwise exchange all the same: every ordered pair is priced in
//! round order, and a pair with nothing to send is a zero-byte message
//! that pays the per-message overhead and latency and holds the adapters.

use crate::Comm;
use amrio_check::{CollDesc, CollKind};
use amrio_net::Net;
use amrio_simt::{Bytes, Rank, SimDur, SimTime};
use std::sync::Arc;

/// Reduction operators over `f64` vectors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Max,
    Min,
}

impl ReduceOp {
    pub fn name(self) -> &'static str {
        match self {
            ReduceOp::Sum => "sum",
            ReduceOp::Max => "max",
            ReduceOp::Min => "min",
        }
    }

    fn apply(self, acc: &mut [f64], v: &[f64]) {
        assert_eq!(acc.len(), v.len(), "reduce length mismatch");
        for (a, b) in acc.iter_mut().zip(v) {
            *a = match self {
                ReduceOp::Sum => *a + *b,
                ReduceOp::Max => a.max(*b),
                ReduceOp::Min => a.min(*b),
            };
        }
    }
}

fn unpack_cost(net: &Net, bytes: u64) -> SimDur {
    SimDur::transfer(bytes, net.config().intra.bandwidth)
}

/// Simulate a binomial broadcast of `bytes` from `root`; updates per-rank
/// clocks in place.
fn binomial_bcast_times(net: &mut Net, clocks: &mut [SimTime], root: Rank, bytes: u64) {
    let n = clocks.len();
    let rel = |r: usize| (r + n - root) % n;
    let abs = |r: usize| (r + root) % n;
    let mut have: Vec<bool> = (0..n).map(|r| rel(r) == 0).collect();
    let mut k = 1;
    while k < n {
        for relsrc in 0..k.min(n) {
            let reldst = relsrc + k;
            if reldst >= n {
                continue;
            }
            let (src, dst) = (abs(relsrc), abs(reldst));
            // A broken tree schedule silently corrupts every downstream
            // timing figure, so this invariant stays on in release builds.
            assert!(
                have[src] && !have[dst],
                "binomial bcast schedule broken at round k={k}: \
                 src rank {src} (has payload: {}) -> dst rank {dst} (has payload: {}), \
                 root {root}, {n} ranks",
                have[src],
                have[dst]
            );
            let x = net.transfer(src, dst, bytes, clocks[src]);
            clocks[src] = x.sender_free;
            clocks[dst] = clocks[dst].max(x.arrival) + unpack_cost(net, bytes);
            have[dst] = true;
        }
        k *= 2;
    }
}

/// Simulate a binomial reduce of `bytes` towards `root`.
fn binomial_reduce_times(net: &mut Net, clocks: &mut [SimTime], root: Rank, bytes: u64) {
    let n = clocks.len();
    let abs = |r: usize| (r + root) % n;
    let mut k = 1;
    while k < n {
        let mut rel = 0;
        while rel < n {
            let relsrc = rel + k;
            if relsrc < n {
                let (src, dst) = (abs(relsrc), abs(rel));
                let x = net.transfer(src, dst, bytes, clocks[src]);
                clocks[src] = x.sender_free;
                clocks[dst] = clocks[dst].max(x.arrival) + unpack_cost(net, bytes);
            }
            rel += 2 * k;
        }
        k *= 2;
    }
}

impl<'a> Comm<'a> {
    /// Synchronize all ranks; every rank leaves at the same instant.
    ///
    /// A barrier is also the MPI-IO *sync point*: with a checker
    /// attached, it closes the current file-consistency epoch.
    pub fn barrier(&self) {
        let desc = CollDesc {
            kind: CollKind::Barrier,
            root: None,
            op: None,
            bytes: 0,
            uniform_bytes: true,
        };
        self.rendezvous(desc, (), |net, inputs| {
            let mut clocks: Vec<SimTime> = inputs.iter().map(|(t, _)| *t).collect();
            // Reduce-then-broadcast with empty payloads.
            binomial_reduce_times(net, &mut clocks, 0, 8);
            binomial_bcast_times(net, &mut clocks, 0, 8);
            let release = clocks.iter().copied().max().unwrap_or(SimTime::ZERO);
            clocks.iter().map(|_| (release, ())).collect()
        });
        if let Some(ck) = self.checker() {
            // All ranks leave at the same release instant, so every rank
            // reports the same boundary and the checker dedupes.
            ck.sync_point(self.now());
        }
    }

    /// Broadcast `data` from `root`; every rank returns the payload.
    /// Every rank's result shares the root's buffer (no payload copies).
    pub fn bcast(&self, root: Rank, data: impl Into<Bytes>) -> Bytes {
        let me = self.rank();
        let input = if me == root {
            data.into()
        } else {
            Bytes::new()
        };
        let desc = CollDesc {
            kind: CollKind::Bcast,
            root: Some(root),
            op: None,
            bytes: input.len() as u64,
            uniform_bytes: false,
        };
        self.rendezvous(desc, input, move |net, inputs| {
            let mut clocks: Vec<SimTime> = inputs.iter().map(|(t, _)| *t).collect();
            let payload: Bytes = inputs
                .into_iter()
                .enumerate()
                .find(|(r, _)| *r == root)
                .map(|(_, (_, d))| d)
                .expect("root present");
            binomial_bcast_times(net, &mut clocks, root, payload.len() as u64);
            clocks.iter().map(|ct| (*ct, payload.clone())).collect()
        })
    }

    /// Gather variable-size payloads at `root`; returns per-rank data at
    /// the root (indexed by rank) and an empty vec elsewhere.
    ///
    /// The root drains the messages serially (flat tree), which is what
    /// makes processor-0 collection scale poorly with P.
    pub fn gatherv(&self, root: Rank, data: impl Into<Bytes>) -> Vec<Bytes> {
        let data = data.into();
        let desc = CollDesc {
            kind: CollKind::Gatherv,
            root: Some(root),
            op: None,
            bytes: data.len() as u64,
            uniform_bytes: false,
        };
        self.rendezvous(desc, data, move |net, inputs| {
            let n = inputs.len();
            let mut clocks: Vec<SimTime> = inputs.iter().map(|(t, _)| *t).collect();
            let payloads: Vec<Bytes> = inputs.into_iter().map(|(_, d)| d).collect();
            let mut root_clock = clocks[root];
            for src in 0..n {
                if src == root {
                    continue;
                }
                let bytes = payloads[src].len() as u64;
                let x = net.transfer(src, root, bytes, clocks[src]);
                clocks[src] = x.sender_free;
                root_clock = root_clock.max(x.arrival) + unpack_cost(net, bytes);
            }
            clocks[root] = root_clock;
            (0..n)
                .map(|r| {
                    let out = if r == root {
                        payloads.clone()
                    } else {
                        Vec::new()
                    };
                    (clocks[r], out)
                })
                .collect()
        })
    }

    /// Scatter per-rank payloads from `root` (which supplies a vec indexed
    /// by rank; other ranks pass anything, conventionally empty).
    pub fn scatterv<B: Into<Bytes>>(&self, root: Rank, data: Vec<B>) -> Bytes {
        let me = self.rank();
        let input: Vec<Bytes> = if me == root {
            data.into_iter().map(Into::into).collect()
        } else {
            Vec::new()
        };
        let desc = CollDesc {
            kind: CollKind::Scatterv,
            root: Some(root),
            op: None,
            bytes: input.iter().map(|p| p.len() as u64).sum(),
            uniform_bytes: false,
        };
        self.rendezvous(desc, input, move |net, inputs| {
            let n = inputs.len();
            let mut clocks: Vec<SimTime> = inputs.iter().map(|(t, _)| *t).collect();
            let parts: Vec<Bytes> = inputs
                .into_iter()
                .enumerate()
                .find(|(r, _)| *r == root)
                .map(|(_, (_, d))| d)
                .expect("root present");
            assert_eq!(parts.len(), n, "scatterv needs one payload per rank");
            let mut outs: Vec<Option<Bytes>> = (0..n).map(|_| None).collect();
            for (dst, part) in parts.into_iter().enumerate() {
                if dst == root {
                    outs[dst] = Some(part);
                    continue;
                }
                let bytes = part.len() as u64;
                let x = net.transfer(root, dst, bytes, clocks[root]);
                clocks[root] = x.sender_free;
                clocks[dst] = clocks[dst].max(x.arrival) + unpack_cost(net, bytes);
                outs[dst] = Some(part);
            }
            clocks
                .iter()
                .zip(outs)
                .map(|(ct, o)| (*ct, o.expect("payload for every rank")))
                .collect()
        })
    }

    /// Allreduce over `f64` vectors (binomial reduce + binomial bcast).
    pub fn allreduce_f64(&self, vals: &[f64], op: ReduceOp) -> Vec<f64> {
        let input = vals.to_vec();
        let desc = CollDesc {
            kind: CollKind::Allreduce,
            root: None,
            op: Some(op.name()),
            bytes: (input.len() * 8) as u64,
            uniform_bytes: true,
        };
        self.rendezvous(desc, input, move |net, inputs| {
            let n = inputs.len();
            let mut clocks: Vec<SimTime> = inputs.iter().map(|(t, _)| *t).collect();
            let bytes = (inputs[0].1.len() * 8) as u64;
            let mut acc = inputs[0].1.clone();
            for (_, v) in inputs.iter().skip(1) {
                op.apply(&mut acc, v);
            }
            binomial_reduce_times(net, &mut clocks, 0, bytes);
            binomial_bcast_times(net, &mut clocks, 0, bytes);
            (0..n).map(|r| (clocks[r], acc.clone())).collect()
        })
    }

    /// Allreduce of a single u64 (implemented over f64; exact for values
    /// below 2^53, which covers all sizes/counters the app exchanges).
    pub fn allreduce_u64(&self, val: u64, op: ReduceOp) -> u64 {
        assert!(val < (1 << 53), "u64 allreduce exact range exceeded");
        self.allreduce_f64(&[val as f64], op)[0] as u64
    }

    /// All-gather variable-size payloads; everyone returns all payloads
    /// indexed by rank. Implemented as gather-to-0 plus broadcast.
    pub fn allgatherv(&self, data: impl Into<Bytes>) -> Vec<Bytes> {
        self.allgatherv_with(data, |all| all.to_vec()).to_vec()
    }

    /// [`Comm::allgatherv`] that hands every rank `f(payloads)` instead
    /// of the payloads. `f` must be a deterministic function of the
    /// gathered payloads (indexed by rank): it runs once per collective,
    /// on whichever rank arrives last, and every rank receives the same
    /// shared result.
    pub fn allgatherv_with<R>(
        &self,
        data: impl Into<Bytes>,
        f: impl FnOnce(&[Bytes]) -> R,
    ) -> Arc<R>
    where
        R: Send + Sync + 'static,
    {
        let data = data.into();
        let desc = CollDesc {
            kind: CollKind::Allgatherv,
            root: None,
            op: None,
            bytes: data.len() as u64,
            uniform_bytes: false,
        };
        self.rendezvous(desc, data, |net, inputs| {
            let (mut clocks, payloads): (Vec<SimTime>, Vec<Bytes>) = inputs.into_iter().unzip();
            let mut root_clock = clocks[0];
            for src in 1..clocks.len() {
                let bytes = payloads[src].len() as u64;
                let x = net.transfer(src, 0, bytes, clocks[src]);
                clocks[src] = x.sender_free;
                root_clock = root_clock.max(x.arrival) + unpack_cost(net, bytes);
            }
            clocks[0] = root_clock;
            let total: u64 = payloads.iter().map(|p| p.len() as u64).sum();
            binomial_bcast_times(net, &mut clocks, 0, total);
            let shared = Arc::new(f(&payloads));
            clocks
                .into_iter()
                .map(|ct| (ct, Arc::clone(&shared)))
                .collect()
        })
    }

    /// Personalized all-to-all over a sparse send list.
    ///
    /// `data` holds `(dst, payload)` pairs with strictly ascending
    /// destinations; empty payloads may be passed and are never
    /// delivered. Returns every non-empty payload addressed to this rank
    /// as `(src, payload)`, ascending by source, a self-send included.
    ///
    /// Pairwise-exchange rounds: in round k, rank i sends to (i+k) mod P
    /// and receives from (i-k) mod P. Every ordered pair is priced, empty
    /// ones included: a zero-byte message still pays the per-message
    /// overhead and latency and occupies the adapters.
    pub fn alltoallv<B: Into<Bytes>>(&self, data: Vec<(Rank, B)>) -> Vec<(Rank, Bytes)> {
        let data: Vec<(Rank, Bytes)> = data.into_iter().map(|(d, p)| (d, p.into())).collect();
        assert!(
            data.windows(2).all(|w| w[0].0 < w[1].0),
            "alltoallv destinations must be strictly ascending"
        );
        assert!(
            data.last().is_none_or(|&(d, _)| d < self.size()),
            "alltoallv destination out of range"
        );
        let desc = CollDesc {
            kind: CollKind::Alltoallv,
            root: None,
            op: None,
            bytes: data.iter().map(|(_, p)| p.len() as u64).sum(),
            uniform_bytes: false,
        };
        self.rendezvous(desc, data, move |net, inputs| {
            let n = inputs.len();
            let (mut clocks, mut sends): (Vec<SimTime>, Vec<Vec<(Rank, Bytes)>>) =
                inputs.into_iter().unzip();
            // Everyone starts the exchange together (implicit sync).
            let start = clocks.iter().copied().max().unwrap_or(SimTime::ZERO);
            clocks.fill(start);
            // Rotate each send list into round order, (dst - i) mod n
            // ascending, so one cursor per source walks it once. A pair
            // with no entry reads no payload and is priced at zero bytes.
            for (i, s) in sends.iter_mut().enumerate() {
                let p = s.partition_point(|&(d, _)| d < i);
                s.rotate_left(p);
            }
            let mut cursors = vec![0usize; n];
            let mut next = |i: usize, dst: Rank| match sends[i].get_mut(cursors[i]) {
                Some((d, p)) if *d == dst => {
                    cursors[i] += 1;
                    std::mem::take(p)
                }
                _ => Bytes::new(),
            };
            let mut out: Vec<Vec<(Rank, Bytes)>> = (0..n).map(|_| Vec::new()).collect();
            // Local hand-offs first.
            for i in 0..n {
                let part = next(i, i);
                clocks[i] += unpack_cost(net, part.len() as u64);
                if !part.is_empty() {
                    out[i].push((i, part));
                }
            }
            let mut arrivals: Vec<(usize, SimTime, u64)> = Vec::with_capacity(n);
            for k in 1..n {
                // Pre-compute arrivals for this round, then merge.
                for (i, clock) in clocks.iter_mut().enumerate() {
                    let dst = (i + k) % n;
                    let part = next(i, dst);
                    let bytes = part.len() as u64;
                    let x = net.transfer(i, dst, bytes, *clock);
                    *clock = x.sender_free;
                    arrivals.push((dst, x.arrival, bytes));
                    if bytes > 0 {
                        out[dst].push((i, part));
                    }
                }
                for (dst, arr, bytes) in arrivals.drain(..) {
                    clocks[dst] = clocks[dst].max(arr) + unpack_cost(net, bytes);
                }
            }
            for o in &mut out {
                o.sort_unstable_by_key(|&(src, _)| src);
            }
            clocks.into_iter().zip(out).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::{Comm, World};
    use amrio_check::{CollDesc, CollKind};
    use amrio_fault::{window_secs, FaultPlan};
    use amrio_net::NetConfig;
    use amrio_simt::{Bytes, SimDur, SimTime};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use super::{unpack_cost, ReduceOp};

    #[test]
    fn barrier_synchronizes_clocks() {
        let w = World::new(8, NetConfig::ccnuma(8));
        let r = w.run(|c| {
            c.compute(amrio_simt::SimDur::from_micros(c.rank() as u64 * 100));
            c.barrier();
            c.now()
        });
        let t0 = r.results[0];
        assert!(r.results.iter().all(|t| *t == t0), "{:?}", r.results);
        assert!(t0 > SimTime(700_000), "barrier must wait for slowest rank");
    }

    #[test]
    fn bcast_delivers_payload_everywhere() {
        let w = World::new(5, NetConfig::fast_ethernet(5));
        let r = w.run(|c| {
            let data = if c.rank() == 2 {
                vec![9u8; 1000]
            } else {
                vec![]
            };
            c.bcast(2, data)
        });
        for d in &r.results {
            assert_eq!(d, &vec![9u8; 1000]);
        }
    }

    #[test]
    fn gatherv_collects_by_rank_and_serializes_at_root() {
        let w = World::new(6, NetConfig::fast_ethernet(6));
        let r = w.run(|c| {
            let mine = vec![c.rank() as u8; 100_000];
            let all = c.gatherv(0, mine);
            (c.now(), all)
        });
        let (t_root, all) = &r.results[0];
        for (i, d) in all.iter().enumerate() {
            assert_eq!(d, &vec![i as u8; 100_000]);
        }
        // Root's NIC receives 5 x 100 KB at 11.5 MB/s: >= ~43 ms.
        assert!(t_root.as_secs_f64() > 0.04, "{t_root:?}");
        // Non-roots return no data and finish earlier than the root.
        assert!(r.results[3].1.is_empty());
    }

    #[test]
    fn scatterv_routes_each_part() {
        let w = World::new(4, NetConfig::ccnuma(4));
        let r = w.run(|c| {
            let parts = if c.rank() == 1 {
                (0..4).map(|i| vec![i as u8; 10 + i]).collect()
            } else {
                Vec::new()
            };
            c.scatterv(1, parts)
        });
        for (i, d) in r.results.iter().enumerate() {
            assert_eq!(d, &vec![i as u8; 10 + i]);
        }
    }

    #[test]
    fn allreduce_computes_and_matches() {
        let w = World::new(7, NetConfig::smp_cluster(7, 4));
        let r = w.run(|c| {
            let v = [c.rank() as f64, 1.0];
            c.allreduce_f64(&v, ReduceOp::Sum)
        });
        for v in &r.results {
            assert_eq!(v, &vec![21.0, 7.0]);
        }
    }

    #[test]
    fn allreduce_minmax() {
        let w = World::new(5, NetConfig::ccnuma(5));
        let r = w.run(|c| {
            let hi = c.allreduce_f64(&[c.rank() as f64], ReduceOp::Max)[0];
            let lo = c.allreduce_f64(&[c.rank() as f64], ReduceOp::Min)[0];
            (hi, lo)
        });
        assert!(r.results.iter().all(|&(h, l)| h == 4.0 && l == 0.0));
    }

    #[test]
    fn alltoallv_redistributes() {
        let w = World::new(4, NetConfig::fast_ethernet(4));
        let r = w.run(|c| {
            let me = c.rank() as u8;
            let data: Vec<(usize, Vec<u8>)> = (0..4)
                .map(|dst| (dst, vec![me * 16 + dst as u8; 3]))
                .collect();
            c.alltoallv(data)
        });
        for (dst, per_src) in r.results.iter().enumerate() {
            let srcs: Vec<usize> = per_src.iter().map(|(s, _)| *s).collect();
            assert_eq!(srcs, [0, 1, 2, 3], "every source, ascending");
            for (src, d) in per_src {
                assert_eq!(d, &vec![(src * 16 + dst) as u8; 3], "src {src} dst {dst}");
            }
        }
    }

    #[test]
    fn allgatherv_gives_everyone_everything() {
        let w = World::new(3, NetConfig::ccnuma(3));
        let r = w.run(|c| c.allgatherv(vec![c.rank() as u8; c.rank() + 1]));
        for per in &r.results {
            assert_eq!(per.len(), 3);
            for (i, d) in per.iter().enumerate() {
                assert_eq!(d, &vec![i as u8; i + 1]);
            }
        }
    }

    #[test]
    fn allgatherv_and_allgatherv_with_keep_their_clocks() {
        // Both entry points finish every rank at the pinned clocks on
        // every platform.
        let pinned: [(NetConfig, [u64; 9]); 3] = [
            (
                NetConfig::ccnuma(9),
                [
                    22136, 20136, 20136, 20670, 20136, 20670, 20670, 21204, 22670,
                ],
            ),
            (
                NetConfig::smp_cluster(9, 4),
                [
                    52924, 49924, 50646, 51368, 71442, 72164, 72886, 73608, 75164,
                ],
            ),
            (
                NetConfig::fast_ethernet(9),
                [
                    319106, 400998, 400998, 521238, 400998, 521238, 521238, 641478, 439346,
                ],
            ),
        ];
        let clocks = |cfg: &NetConfig, n: usize, payload: fn(usize) -> Vec<u8>, with: bool| {
            let w = World::new(n, cfg.clone());
            let r = w.run(|c| {
                c.compute(SimDur::from_micros((c.rank() as u64 * 37) % 11));
                let mine = payload(c.rank());
                let lens: Vec<usize> = if with {
                    c.allgatherv_with(mine, |all| all.iter().map(|b| b.len()).collect::<Vec<_>>())
                        .to_vec()
                } else {
                    c.allgatherv(mine).iter().map(|b| b.len()).collect()
                };
                assert_eq!(lens, (0..n).map(|r| payload(r).len()).collect::<Vec<_>>());
                c.now().0
            });
            r.results
        };
        for (cfg, want) in pinned {
            for with in [false, true] {
                assert_eq!(clocks(&cfg, 9, |r| vec![r as u8; 8 * (r % 4)], with), want);
            }
            // All-empty payloads and a 1-rank world price alike too.
            for n in [1, 9] {
                let empty = |_| Vec::new();
                assert_eq!(clocks(&cfg, n, empty, true), clocks(&cfg, n, empty, false));
            }
        }
    }

    #[test]
    fn allgatherv_with_runs_its_function_once_and_shares_the_result() {
        let calls = AtomicUsize::new(0);
        let w = World::new(16, NetConfig::smp_cluster(16, 4));
        let r = w.run(|c| {
            let mut shared = Vec::new();
            for round in 0..3u8 {
                let sum = c.allgatherv_with(vec![c.rank() as u8 + round], |all| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    all.iter().map(|b| b[0] as u64).sum::<u64>()
                });
                shared.push(sum);
            }
            shared
        });
        assert_eq!(calls.load(Ordering::SeqCst), 3, "once per collective");
        for (round, sum) in r.results[0].iter().enumerate() {
            assert_eq!(**sum, (0..16u64).sum::<u64>() + 16 * round as u64);
        }
        for per in &r.results {
            for (mine, first) in per.iter().zip(&r.results[0]) {
                assert!(Arc::ptr_eq(mine, first), "one result for every rank");
            }
        }
    }

    #[test]
    fn sparse_alltoallv_routes_and_keeps_its_clocks() {
        // 64 ranks, ~92% empty pairs. Every payload must reach its
        // destination, and the completion clocks are pinned: empty pairs
        // are still priced, in the same order.
        let n = 64;
        let sends = |src: usize, dst: usize| (src + 2 * dst).is_multiple_of(13);
        let payload =
            |src: usize, dst: usize| vec![(src * 7 + dst) as u8; 64 * (1 + (src ^ dst) % 9)];
        let empty = (0..n)
            .flat_map(|s| (0..n).map(move |d| (s, d)))
            .filter(|&(s, d)| !sends(s, d))
            .count();
        assert!(empty * 10 >= n * n * 9, "{empty} of {} pairs empty", n * n);
        let w = World::new(n, NetConfig::smp_cluster(n, 8));
        let r = w.run(|c| {
            let me = c.rank();
            c.compute(SimDur::from_micros((me as u64 * 37) % 23));
            let data: Vec<(usize, Vec<u8>)> = (0..n)
                .filter(|&dst| sends(me, dst))
                .map(|dst| (dst, payload(me, dst)))
                .collect();
            let got = c.alltoallv(data);
            (c.now().0, got)
        });
        for (dst, (_, got)) in r.results.iter().enumerate() {
            let want: Vec<(usize, Bytes)> = (0..n)
                .filter(|&src| sends(src, dst))
                .map(|src| (src, payload(src, dst).into()))
                .collect();
            assert_eq!(got, &want, "dst {dst}");
        }
        let clocks: Vec<u64> = r.results.iter().map(|(t, _)| *t).collect();
        assert_eq!(clocks, SPARSE_ALLTOALLV_CLOCKS);
        assert_eq!(r.makespan.0, 2_010_526);
    }

    /// Per-rank completion clocks (ns) of `sparse_alltoallv_routes_and_keeps_its_clocks`.
    const SPARSE_ALLTOALLV_CLOCKS: [u64; 64] = [
        1982886, 1980901, 1984886, 1984886, 1985526, 1990317, 2000901, 2004886, 1982886, 1982181,
        1985708, 1985708, 1985708, 2000901, 2000901, 2004886, 1982886, 1984588, 1985708, 1985708,
        1986668, 2000901, 2005228, 2007797, 1986677, 1987797, 1987797, 1987797, 1987797, 2005228,
        2007317, 2007797, 1986677, 1988917, 1988917, 1991006, 1991006, 2006677, 2006677, 2007797,
        1986677, 1987961, 1990041, 1992601, 1991321, 2006677, 2010526, 2010526, 1989881, 1990526,
        1990526, 1990526, 1990526, 2009886, 2009886, 2009886, 1988526, 1988206, 1984886, 1985846,
        1985846, 1985366, 1990317, 2004886,
    ];

    /// The dense pairwise exchange this crate priced before the sparse
    /// form, kept as the oracle: an n×n matrix of payloads, every pair
    /// taken from it and priced in the same `(k, i)` order.
    impl Comm<'_> {
        fn alltoallv_dense_reference(&self, data: Vec<Bytes>) -> Vec<Bytes> {
            assert_eq!(data.len(), self.size(), "one payload per destination");
            let desc = CollDesc {
                kind: CollKind::Alltoallv,
                root: None,
                op: None,
                bytes: data.iter().map(|p| p.len() as u64).sum(),
                uniform_bytes: false,
            };
            self.rendezvous(desc, data, move |net, inputs| {
                let n = inputs.len();
                let mut clocks: Vec<SimTime> = inputs.iter().map(|(t, _)| *t).collect();
                let mut payloads: Vec<Vec<Bytes>> = inputs.into_iter().map(|(_, d)| d).collect();
                let start = clocks.iter().copied().max().unwrap_or(SimTime::ZERO);
                for c in clocks.iter_mut() {
                    *c = start;
                }
                let mut out: Vec<Vec<Bytes>> = (0..n).map(|_| vec![Bytes::new(); n]).collect();
                for i in 0..n {
                    let part = std::mem::take(&mut payloads[i][i]);
                    clocks[i] += unpack_cost(net, part.len() as u64);
                    out[i][i] = part;
                }
                let mut arrivals: Vec<(usize, SimTime, u64)> = Vec::with_capacity(n);
                for k in 1..n {
                    for i in 0..n {
                        let dst = (i + k) % n;
                        let part = std::mem::take(&mut payloads[i][dst]);
                        let bytes = part.len() as u64;
                        let x = net.transfer(i, dst, bytes, clocks[i]);
                        clocks[i] = x.sender_free;
                        arrivals.push((dst, x.arrival, bytes));
                        out[dst][i] = part;
                    }
                    for (dst, arr, bytes) in arrivals.drain(..) {
                        clocks[dst] = clocks[dst].max(arr) + unpack_cost(net, bytes);
                    }
                }
                clocks.iter().zip(out).map(|(ct, o)| (*ct, o)).collect()
            })
        }
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Everything a run of the exchange leaves behind: per-rank clocks
    /// and deliveries (non-empty payloads by source), the message and
    /// inter-node byte counters, every adapter's free time, and how many
    /// budgeted drops the fault plan handed out.
    type Outcome = (
        Vec<(u64, Vec<Vec<(usize, Bytes)>>)>,
        u64,
        u64,
        Vec<SimTime>,
        u64,
    );

    /// Two back-to-back exchanges of `sends[round][src]` (dense, indexed
    /// by destination; empty = no payload) after per-rank skew, through
    /// the sparse collective or the dense reference.
    fn exchange(
        cfg: &NetConfig,
        sends: &[Vec<Vec<Bytes>>],
        faults: Option<FaultPlan>,
        dense: bool,
    ) -> Outcome {
        let n = sends[0].len();
        let plan = faults.map(Arc::new);
        let mut w = World::new(n, cfg.clone());
        if let Some(p) = &plan {
            w = w.with_faults(Arc::clone(p));
        }
        let r = w.run(|c| {
            let me = c.rank();
            c.compute(SimDur::from_nanos((me as u64 * 7919) % 50_000));
            let mut got = Vec::new();
            for round in sends {
                let mine = &round[me];
                let recv: Vec<(usize, Bytes)> = if dense {
                    c.alltoallv_dense_reference(mine.clone())
                        .into_iter()
                        .enumerate()
                        .filter(|(_, p)| !p.is_empty())
                        .collect()
                } else {
                    // Pass some empty payloads explicitly: they must
                    // price and deliver exactly like absent entries.
                    let list =
                        mine.iter().cloned().enumerate().filter(|(d, p)| {
                            !p.is_empty() || (d + me + round.len()).is_multiple_of(3)
                        });
                    c.alltoallv(list.collect())
                };
                got.push(recv);
            }
            (c.now().0, got)
        });
        let adapters = (0..cfg.node_of.len())
            .map(|ep| w.shared.net.lock().adapter_free_at(ep))
            .collect();
        let dropped = plan.map_or(0, |p| p.report(r.makespan).dropped_messages);
        (
            r.results,
            w.net_messages(),
            w.net_inter_node_bytes(),
            adapters,
            dropped,
        )
    }

    /// Random dense send matrices: each ordered pair carries 1..=200
    /// random bytes with probability `per_mille`/1000.
    fn random_sends(rng: &mut u64, n: usize, per_mille: u64) -> Vec<Vec<Vec<Bytes>>> {
        (0..2)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        (0..n)
                            .map(|_| {
                                if splitmix64(rng) % 1000 >= per_mille {
                                    return Bytes::new();
                                }
                                let len = 1 + splitmix64(rng) % 200;
                                let v: Vec<u8> = (0..len).map(|_| splitmix64(rng) as u8).collect();
                                Bytes::from(v)
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn sparse_alltoallv_matches_the_dense_reference() {
        let mut rng = 20020923u64;
        for n in [1, 2, 7, 64] {
            let cfgs = [
                ("ccnuma", NetConfig::ccnuma(n)),
                ("smp_cluster", NetConfig::smp_cluster(n, 4)),
                ("fast_ethernet", NetConfig::fast_ethernet(n)),
            ];
            for (name, cfg) in &cfgs {
                for per_mille in [0, 10, 500, 1000] {
                    let sends = random_sends(&mut rng, n, per_mille);
                    let sparse = exchange(cfg, &sends, None, false);
                    let dense = exchange(cfg, &sends, None, true);
                    assert!(
                        sparse == dense,
                        "{name}, {n} ranks, {per_mille}/1000 pairs sent: sparse and dense differ"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_byte_pair_consumes_a_budgeted_drop_in_order() {
        // The first message of the (src, dst) pair below carries no
        // bytes; the one-message drop budget must still go to it, on
        // both forms, with identical consequences.
        let n = 7;
        let cfg = NetConfig::smp_cluster(n, 4);
        let mut rng = 7412u64;
        let sends = random_sends(&mut rng, n, 500);
        let (src, dst) = (0..n)
            .flat_map(|s| (0..n).map(move |d| (s, d)))
            .find(|&(s, d)| s != d && sends[0][s][d].is_empty())
            .expect("an empty pair at 50% density");
        let plan = || {
            FaultPlan::new().with_message_drops(
                Some(src),
                Some(dst),
                window_secs(0.0, 10.0),
                SimDur::from_millis(3),
                1,
            )
        };
        let sparse = exchange(&cfg, &sends, Some(plan()), false);
        let dense = exchange(&cfg, &sends, Some(plan()), true);
        assert_eq!(sparse.4, 1, "the zero-byte pair took the drop");
        assert!(sparse == dense, "sparse and dense differ under faults");
        let clean = exchange(&cfg, &sends, None, false);
        assert!(clean.0 != sparse.0, "the drop must move some clock");
    }

    #[test]
    fn gather_root_cost_grows_with_ranks() {
        // Flat-tree gather at the root should take longer with more ranks
        // for the same total volume per rank (the HDF4 pathology).
        let time_for = |n: usize| {
            let w = World::new(n, NetConfig::ccnuma(n));
            let r = w.run(|c| {
                c.gatherv(0, vec![1u8; 500_000]);
                c.now()
            });
            r.results[0]
        };
        let t4 = time_for(4);
        let t16 = time_for(16);
        assert!(t16 > t4, "t16={t16:?} t4={t4:?}");
    }

    #[test]
    fn collectives_are_deterministic() {
        let go = || {
            let w = World::new(9, NetConfig::smp_cluster(9, 4));
            let r = w.run(|c| {
                c.compute(amrio_simt::SimDur::from_micros((c.rank() as u64 * 37) % 11));
                let all = c.allgatherv(vec![c.rank() as u8; 64]);
                c.barrier();
                let x = c.allreduce_f64(&[all.len() as f64], ReduceOp::Sum)[0];
                (c.now(), x)
            });
            (r.makespan, r.results)
        };
        assert_eq!(go(), go());
    }
}
