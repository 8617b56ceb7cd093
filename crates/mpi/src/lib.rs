//! `amrio-mpi` — a simulated MPI on top of `amrio-simt` + `amrio-net`.
//!
//! Provides the subset of MPI the paper's three I/O implementations need:
//! buffered tagged point-to-point messaging and the world collectives
//! (barrier, bcast, gatherv, scatterv, reduce/allreduce, allgatherv,
//! alltoallv). Messages really carry bytes; their *cost* is priced through
//! the platform [`Net`] (adapter contention included), and a receive-side
//! unpack charge at memory bandwidth models the CPU cost of draining
//! messages — the term that serializes processor-0 gathers in the HDF4
//! baseline.
//!
//! Collectives are executed as *rendezvous*: the last rank to arrive
//! simulates the whole message pattern (binomial trees, dissemination
//! rounds, pairwise exchange rounds) against the shared network inside one
//! ordered section, then releases every rank at its computed completion
//! time. This keeps event counts low while remaining mechanistic about
//! ports and latencies.
//!
//! The release stores every peer's result first, drops the
//! collective-epoch lock, and then wakes all peers with one
//! [`Ctx::unpark_all`] — one scheduler lock for the batch, with the
//! notifications sent after unlocking — so no woken rank runs into a
//! lock its waker still holds. [`Comm::allgatherv_with`] goes one step
//! further for results every rank would compute identically (the
//! sample sort's splitters): the last arriver runs the function once
//! inside the pattern and every rank gets a shared `Arc` of the result.
//! [`Comm::replicated`] is its collective-free counterpart for values
//! that need no input from other ranks (the initial particle set): the
//! first rank to ask computes it, and no virtual time is charged.

#![forbid(unsafe_code)]

pub mod coll;

use amrio_check::{Checker, CollDesc};
use amrio_fault::FaultPlan;
use amrio_net::{Net, NetConfig};
use amrio_simt::sync::Mutex;
use amrio_simt::{Bytes, Ctx, Rank, SimDur, SimReport, SimTime};
use std::any::{Any, TypeId};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Message tag (like MPI tags).
pub type Tag = u32;

/// A received message. The payload is a shared [`Bytes`] window — the
/// very buffer the sender injected, never re-copied in transit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    pub src: Rank,
    pub tag: Tag,
    pub data: Bytes,
}

#[derive(Debug)]
struct InMsg {
    src: Rank,
    tag: Tag,
    data: Bytes,
    arrival: SimTime,
}

#[derive(Debug, Clone, Copy)]
struct WaitRecord {
    src: Option<Rank>,
    tag: Option<Tag>,
}

#[derive(Default)]
struct MailState {
    /// Unexpected-message queues, per destination rank, in send-event order.
    queues: Vec<Vec<InMsg>>,
    /// Outstanding blocking receives, per rank.
    waiting: Vec<Option<WaitRecord>>,
    /// Messages handed directly to a waiting receiver.
    delivery: Vec<Option<InMsg>>,
}

pub(crate) struct CollEpoch {
    pub arrived: Vec<Option<(SimTime, Box<dyn Any + Send>)>>,
    pub results: Vec<Option<(SimTime, Box<dyn Any + Send>)>>,
    pub narrived: usize,
    pub npending_results: usize,
}

#[derive(Default)]
struct CollState {
    epochs: HashMap<u64, CollEpoch>,
}

/// Counters accumulated over a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct MpiStats {
    pub sends: u64,
    pub p2p_bytes: u64,
    pub collectives: u64,
}

/// A value every rank computes identically, shared through
/// [`Comm::replicated`]: the first rank to arrive fills `value`, and
/// the slot is dropped once every rank has taken it.
struct Replica {
    type_id: TypeId,
    type_name: &'static str,
    value: Arc<OnceLock<Arc<dyn Any + Send + Sync>>>,
    taken: usize,
}

struct WorldShared {
    net: Mutex<Net>,
    mail: Mutex<MailState>,
    coll: Mutex<CollState>,
    stats: Mutex<MpiStats>,
    /// Live [`Comm::replicated`] slots, by per-rank call index.
    replicas: Mutex<HashMap<u64, Replica>>,
}

/// A simulated MPI world: the network plus messaging state. Create one,
/// then [`World::run`] a per-rank program.
pub struct World {
    shared: Arc<WorldShared>,
    nranks: usize,
    checker: Option<Arc<Checker>>,
    faults: Option<Arc<FaultPlan>>,
}

impl World {
    /// Build a world of `nranks` compute processes over `netcfg`.
    /// `netcfg` may contain extra endpoints beyond `nranks` (I/O servers).
    pub fn new(nranks: usize, netcfg: NetConfig) -> World {
        assert!(
            netcfg.node_of.len() >= nranks,
            "network must have an endpoint per rank"
        );
        World {
            shared: Arc::new(WorldShared {
                net: Mutex::new(Net::new(netcfg)),
                mail: Mutex::new(MailState {
                    queues: (0..nranks).map(|_| Vec::new()).collect(),
                    waiting: vec![None; nranks],
                    delivery: (0..nranks).map(|_| None).collect(),
                }),
                coll: Mutex::new(CollState::default()),
                stats: Mutex::new(MpiStats::default()),
                replicas: Mutex::new(HashMap::new()),
            }),
            nranks,
            checker: None,
            faults: None,
        }
    }

    /// Attach a deterministic fault plan: the network consults it for
    /// message drops/delays, and the engine's clock hook dilates local
    /// compute of straggler ranks. (Disk-side faults are attached to the
    /// `Pfs` separately; one plan is normally shared by both.)
    pub fn with_faults(self, plan: Arc<FaultPlan>) -> World {
        self.shared.net.lock().attach_faults(Arc::clone(&plan));
        World {
            faults: Some(plan),
            ..self
        }
    }

    /// Attach an `amrio-check` correctness checker: collective matching,
    /// point-to-point balancing and deadlock backtraces are recorded for
    /// every [`Comm`] this world hands out.
    pub fn with_checker(mut self, checker: Arc<Checker>) -> World {
        assert_eq!(
            checker.nranks(),
            self.nranks,
            "checker must be sized for this world"
        );
        self.checker = Some(checker);
        self
    }

    pub fn checker(&self) -> Option<&Arc<Checker>> {
        self.checker.as_ref()
    }

    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Run the per-rank program to completion.
    ///
    /// With a checker attached, a simulated deadlock panic is re-raised
    /// enriched with every rank's recent-call backtrace.
    pub fn run<T, F>(&self, f: F) -> SimReport<T>
    where
        T: Send,
        F: Fn(&Comm) -> T + Sync,
    {
        self.shared.replicas.lock().clear();
        let go = || {
            let hook = self
                .faults
                .clone()
                .map(|p| p as Arc<dyn amrio_simt::ClockHook>);
            amrio_simt::run_with_hook(self.nranks, hook, |ctx| {
                let comm = Comm {
                    ctx,
                    shared: Arc::clone(&self.shared),
                    nranks: self.nranks,
                    coll_seq: Cell::new(0),
                    replica_seq: Cell::new(0),
                    checker: self.checker.clone(),
                };
                f(&comm)
            })
        };
        let Some(ck) = &self.checker else {
            return go();
        };
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(go)) {
            Ok(report) => report,
            Err(payload) => match payload.downcast_ref::<amrio_simt::Deadlock>() {
                Some(d) => panic!(
                    "{d}\namrio-check deadlock report — per-rank recent calls:\n{}",
                    ck.ledger_dump()
                ),
                None => std::panic::resume_unwind(payload),
            },
        }
    }

    pub fn stats(&self) -> MpiStats {
        *self.shared.stats.lock()
    }

    /// Network counters after (or during) a run.
    pub fn net_messages(&self) -> u64 {
        self.shared.net.lock().messages
    }

    pub fn net_inter_node_bytes(&self) -> u64 {
        self.shared.net.lock().inter_node_bytes
    }
}

/// The per-rank communicator handle (always the world communicator — the
/// application in the paper only uses `MPI_COMM_WORLD`).
pub struct Comm<'a> {
    ctx: &'a Ctx,
    shared: Arc<WorldShared>,
    nranks: usize,
    coll_seq: Cell<u64>,
    replica_seq: Cell<u64>,
    checker: Option<Arc<Checker>>,
}

impl<'a> Comm<'a> {
    pub fn rank(&self) -> Rank {
        self.ctx.rank()
    }

    pub fn size(&self) -> usize {
        self.nranks
    }

    pub fn ctx(&self) -> &Ctx {
        self.ctx
    }

    /// The attached correctness checker, if any. I/O layers use this to
    /// feed their own detectors (view tiling, sync epochs).
    pub fn checker(&self) -> Option<&Arc<Checker>> {
        self.checker.as_ref()
    }

    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// The index of the next collective this rank will enter. Collective
    /// epochs are zero-based per run and advance in lockstep on every
    /// rank; bracketing a phase with two reads yields the half-open epoch
    /// window its collectives occupy, which is how the static planner's
    /// schedule is aligned with the runtime checker's collective log.
    pub fn coll_epoch(&self) -> u64 {
        self.coll_seq.get()
    }

    /// A value every rank would compute identically, computed once per
    /// world. Every rank's n-th call shares one slot: the first rank to
    /// arrive runs `f`, the others block on the host until it is done,
    /// and all of them get the same `Arc`.
    ///
    /// Unlike [`Comm::allgatherv_with`] this is not a collective: it
    /// charges no virtual time and sends no message, so a rank's clock,
    /// ordered sections and the checker's collective log are the same as
    /// without the call. Charge the work with [`Comm::compute`] if the
    /// model should see it. `f` must be a pure function of what every
    /// rank passes in, and must not call into the `Comm`.
    ///
    /// Panics if ranks ask for different types at the same call index.
    pub fn replicated<T>(&self, f: impl FnOnce() -> T) -> Arc<T>
    where
        T: Send + Sync + 'static,
    {
        let seq = self.replica_seq.get();
        self.replica_seq.set(seq + 1);
        let want = std::any::type_name::<T>();
        let value = {
            let mut slots = self.shared.replicas.lock();
            let slot = slots.entry(seq).or_insert_with(|| Replica {
                type_id: TypeId::of::<T>(),
                type_name: want,
                value: Arc::new(OnceLock::new()),
                taken: 0,
            });
            assert!(
                slot.type_id == TypeId::of::<T>(),
                "replicated call {seq}: rank {} asks for {want}, another rank for {}",
                self.rank(),
                slot.type_name
            );
            Arc::clone(&slot.value)
        };
        let shared = Arc::clone(value.get_or_init(|| Arc::new(f()) as Arc<dyn Any + Send + Sync>));
        let mut slots = self.shared.replicas.lock();
        let slot = slots
            .get_mut(&seq)
            .expect("slot alive until every rank took it");
        slot.taken += 1;
        if slot.taken == self.nranks {
            slots.remove(&seq);
        }
        shared.downcast().expect("slot type checked on entry")
    }

    /// Charge local computation time.
    pub fn compute(&self, d: SimDur) {
        self.ctx.advance(d);
    }

    /// Memory bandwidth used for receive-side unpack and memcpy charges.
    pub fn mem_bw(&self) -> f64 {
        self.shared.net.lock().config().intra.bandwidth
    }

    /// Run `f` with exclusive, time-ordered access to the shared network
    /// (used by the I/O layers to price file traffic on the same fabric).
    /// `f` maps (now, &mut Net) to (completion-time, result).
    pub fn io<R>(&self, f: impl FnOnce(SimTime, &mut Net) -> (SimTime, R)) -> R {
        self.ctx.ordered(|t| {
            let mut net = self.shared.net.lock();
            let (t2, r) = f(t, &mut net);
            (t2, r)
        })
    }

    /// Buffered send of a borrowed slice. The payload is copied once
    /// into the mailbox (counted in the copy ledger); hand over a
    /// [`Bytes`] via [`Comm::send_bytes`] to skip even that.
    pub fn send(&self, dst: Rank, tag: Tag, data: &[u8]) {
        self.send_bytes(dst, tag, Bytes::copy_from_slice(data));
    }

    /// Buffered zero-copy send: returns when the message is injected
    /// (sender free). The receiver gets this exact buffer.
    pub fn send_bytes(&self, dst: Rank, tag: Tag, data: Bytes) {
        assert!(dst < self.nranks, "send to invalid rank {dst}");
        let me = self.rank();
        if let Some(ck) = &self.checker {
            ck.on_send(me, dst, tag, data.len() as u64);
        }
        self.ctx.ordered(|t| {
            let mut net = self.shared.net.lock();
            let x = net.transfer(me, dst, data.len() as u64, t);
            drop(net);
            let mut st = self.shared.stats.lock();
            st.sends += 1;
            st.p2p_bytes += data.len() as u64;
            drop(st);
            let msg = InMsg {
                src: me,
                tag,
                data,
                arrival: x.arrival,
            };
            let mut mail = self.shared.mail.lock();
            let matched = mail.waiting[dst]
                .map(|w| w.src.is_none_or(|s| s == me) && w.tag.is_none_or(|wt| wt == tag))
                .unwrap_or(false);
            if matched {
                mail.waiting[dst] = None;
                debug_assert!(mail.delivery[dst].is_none());
                let arrival = msg.arrival;
                mail.delivery[dst] = Some(msg);
                drop(mail);
                self.ctx.unpark(dst, arrival);
            } else {
                mail.queues[dst].push(msg);
            }
            (x.sender_free, ())
        })
    }

    /// Blocking receive matching `src`/`tag` (None = wildcard).
    /// The receiver pays an unpack charge of `len / memory-bandwidth`.
    pub fn recv_match(&self, src: Option<Rank>, tag: Option<Tag>) -> Message {
        let me = self.rank();
        if let Some(ck) = &self.checker {
            ck.on_recv_post(me, src, tag);
        }
        let got = self.ctx.ordered(|t| {
            let mut mail = self.shared.mail.lock();
            let pos = mail.queues[me]
                .iter()
                .position(|m| src.is_none_or(|s| s == m.src) && tag.is_none_or(|wt| wt == m.tag));
            match pos {
                Some(i) => {
                    let m = mail.queues[me].remove(i);
                    let done = t.max(m.arrival);
                    (done, Some(m))
                }
                None => {
                    debug_assert!(mail.waiting[me].is_none(), "one recv at a time");
                    mail.waiting[me] = Some(WaitRecord { src, tag });
                    (t, None)
                }
            }
        });
        let msg = match got {
            Some(m) => m,
            None => {
                self.ctx.park();
                let mut mail = self.shared.mail.lock();
                mail.delivery[me]
                    .take()
                    .expect("woken receiver must have a delivery")
            }
        };
        // Unpack cost at memory bandwidth.
        let copy = SimDur::transfer(msg.data.len() as u64, self.mem_bw());
        self.ctx.advance(copy);
        if let Some(ck) = &self.checker {
            ck.on_recv(me, msg.src, msg.tag, msg.data.len() as u64);
        }
        Message {
            src: msg.src,
            tag: msg.tag,
            data: msg.data,
        }
    }

    pub fn recv(&self, src: Rank, tag: Tag) -> Message {
        self.recv_match(Some(src), Some(tag))
    }

    pub fn recv_any(&self, tag: Tag) -> Message {
        self.recv_match(None, Some(tag))
    }

    /// Send to `dst` and receive from `src` without deadlock (sends are
    /// buffered, so plain send-then-recv is safe; this is a convenience).
    pub fn sendrecv(&self, dst: Rank, sdata: &[u8], src: Rank, tag: Tag) -> Message {
        self.send(dst, tag, sdata);
        self.recv(src, tag)
    }

    /// The generic rendezvous used by every collective: deposit `input`,
    /// and the last rank to arrive runs `pattern` over everyone's
    /// (rank, arrival-time, input), returning per-rank (completion, output).
    pub(crate) fn rendezvous<I, O>(
        &self,
        desc: CollDesc,
        input: I,
        pattern: impl FnOnce(&mut Net, Vec<(SimTime, I)>) -> Vec<(SimTime, O)>,
    ) -> O
    where
        I: Send + 'static,
        O: Send + 'static,
    {
        let me = self.rank();
        let n = self.nranks;
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq + 1);
        self.shared.stats.lock().collectives += 1;
        if let Some(ck) = &self.checker {
            ck.on_collective(me, seq, desc);
        }

        if n == 1 {
            // Degenerate single-rank world: run the pattern directly.
            return self.ctx.ordered(|t| {
                let mut net = self.shared.net.lock();
                let mut out = pattern(&mut net, vec![(t, input)]);
                let (ct, o) = out.pop().expect("pattern returns one entry per rank");
                (ct, o)
            });
        }

        let ran = self.ctx.ordered(|t| {
            let mut coll = self.shared.coll.lock();
            let ep = coll.epochs.entry(seq).or_insert_with(|| CollEpoch {
                arrived: (0..n).map(|_| None).collect(),
                results: (0..n).map(|_| None).collect(),
                narrived: 0,
                npending_results: 0,
            });
            ep.arrived[me] = Some((t, Box::new(input)));
            ep.narrived += 1;
            if ep.narrived < n {
                return (t, None);
            }
            // Last arriver: run the pattern against the network.
            let inputs: Vec<(SimTime, I)> = ep
                .arrived
                .iter_mut()
                .map(|slot| {
                    let (at, b) = slot.take().expect("all arrived");
                    (
                        at,
                        *b.downcast::<I>().expect("uniform collective input type"),
                    )
                })
                .collect();
            let mut net = self.shared.net.lock();
            let outs = pattern(&mut net, inputs);
            drop(net);
            assert_eq!(outs.len(), n, "pattern returns one entry per rank");
            // Release: every result is stored first, then the epoch lock
            // is dropped, then all peers wake under one scheduler lock.
            let mut wakes = Vec::with_capacity(n - 1);
            let mut mine = None;
            for (r, (ct, o)) in outs.into_iter().enumerate() {
                if r == me {
                    mine = Some((ct, o));
                } else {
                    ep.results[r] = Some((ct, Box::new(o)));
                    wakes.push((r, ct));
                }
            }
            ep.npending_results = wakes.len();
            drop(coll);
            self.ctx.unpark_all(wakes);
            let (ct, o) = mine.expect("own result present");
            (ct, Some(o))
        });

        match ran {
            Some(o) => o,
            None => {
                self.ctx.park();
                let mut coll = self.shared.coll.lock();
                let ep = coll.epochs.get_mut(&seq).expect("epoch alive");
                let (ct, b) = ep.results[me].take().expect("result delivered");
                ep.npending_results -= 1;
                let done = ep.npending_results == 0;
                if done {
                    coll.epochs.remove(&seq);
                }
                drop(coll);
                self.ctx.advance_to(ct);
                *b.downcast::<O>().expect("uniform collective output type")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrio_net::NetConfig;

    #[test]
    fn send_recv_roundtrip() {
        let w = World::new(2, NetConfig::fast_ethernet(2));
        let r = w.run(|c| {
            if c.rank() == 0 {
                c.send(1, 7, b"payload");
                c.now()
            } else {
                let m = c.recv(0, 7);
                assert_eq!(m.data, b"payload");
                assert_eq!(m.src, 0);
                c.now()
            }
        });
        // Receiver finishes after the wire latency.
        assert!(r.results[1] > r.results[0]);
    }

    #[test]
    fn recv_any_matches_by_tag() {
        let w = World::new(3, NetConfig::ccnuma(3));
        let r = w.run(|c| match c.rank() {
            0 => {
                c.send(2, 5, b"five");
                0
            }
            1 => {
                c.send(2, 6, b"six");
                0
            }
            _ => {
                let six = c.recv_any(6);
                let five = c.recv_any(5);
                assert_eq!(six.data, b"six");
                assert_eq!(five.data, b"five");
                (six.src + 10 * five.src) as i32
            }
        });
        assert_eq!(r.results[2], 1);
    }

    #[test]
    fn wildcard_source_receives_in_arrival_order() {
        let w = World::new(3, NetConfig::ccnuma(3));
        let r = w.run(|c| {
            if c.rank() == 0 {
                let a = c.recv_match(None, Some(1));
                let b = c.recv_match(None, Some(1));
                vec![a.src, b.src]
            } else {
                // Stagger sends so rank 1's message always leaves first.
                if c.rank() == 2 {
                    c.compute(SimDur::from_millis(5));
                }
                c.send(0, 1, &[c.rank() as u8]);
                vec![]
            }
        });
        assert_eq!(r.results[0], vec![1, 2]);
    }

    #[test]
    fn sendrecv_pairwise_exchange_no_deadlock() {
        let w = World::new(4, NetConfig::smp_cluster(4, 2));
        let r = w.run(|c| {
            let peer = c.rank() ^ 1;
            let m = c.sendrecv(peer, &[c.rank() as u8; 32], peer, 9);
            m.data[0] as usize
        });
        assert_eq!(r.results, vec![1, 0, 3, 2]);
    }

    #[test]
    fn send_to_self_works() {
        let w = World::new(1, NetConfig::ccnuma(1));
        let r = w.run(|c| {
            c.send(0, 1, b"me");
            c.recv(0, 1).data
        });
        assert_eq!(r.results[0], b"me");
    }

    #[test]
    fn big_message_takes_longer_than_small() {
        let time = |n: usize| {
            let w = World::new(2, NetConfig::fast_ethernet(2));
            let r = w.run(move |c| {
                if c.rank() == 0 {
                    c.send(1, 0, &vec![0u8; n]);
                } else {
                    c.recv(0, 0);
                }
                c.now()
            });
            r.results[1]
        };
        assert!(time(1 << 20) > time(1 << 10));
    }

    #[test]
    fn stats_count_traffic() {
        let w = World::new(2, NetConfig::ccnuma(2));
        w.run(|c| {
            if c.rank() == 0 {
                c.send(1, 0, &[0u8; 100]);
            } else {
                c.recv(0, 0);
            }
            c.barrier();
        });
        let s = w.stats();
        assert_eq!(s.sends, 1);
        assert_eq!(s.p2p_bytes, 100);
        assert_eq!(s.collectives, 2);
        assert!(w.net_messages() > 0);
    }

    #[test]
    fn io_section_prices_against_shared_net() {
        let w = World::new(2, NetConfig::fast_ethernet(2));
        let r = w.run(|c| {
            if c.rank() == 0 {
                c.io(|t, net| {
                    let x = net.transfer(0, 1, 1 << 20, t);
                    (x.sender_free, x.arrival)
                })
            } else {
                c.now()
            }
        });
        assert!(r.results[0].as_secs_f64() > 0.08);
    }
}

#[cfg(test)]
mod replicated_tests {
    use super::*;
    use amrio_net::NetConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_once_and_every_rank_shares_the_result() {
        let calls = AtomicUsize::new(0);
        let w = World::new(64, NetConfig::smp_cluster(64, 8));
        let r = w.run(|c| {
            c.replicated(|| {
                calls.fetch_add(1, Ordering::SeqCst);
                (0..1000u64).collect::<Vec<_>>()
            })
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(r.results[0].len(), 1000);
        assert!(r.results.iter().all(|v| Arc::ptr_eq(v, &r.results[0])));
        assert!(w.shared.replicas.lock().is_empty(), "slot left behind");
    }

    #[test]
    fn charges_nothing_to_the_simulation() {
        // The same program with and without the call: clocks, ordered
        // sections, MPI counters and network messages all match.
        let go = |with: bool| {
            let w = World::new(8, NetConfig::smp_cluster(8, 4));
            let r = w.run(|c| {
                c.compute(SimDur::from_micros(3 * c.rank() as u64));
                if with {
                    c.replicated(|| vec![7u8; 4096]);
                }
                let peer = c.rank() ^ 1;
                c.sendrecv(peer, &[c.rank() as u8; 64], peer, 3);
                c.allgatherv(vec![c.rank() as u8; c.rank()]);
                c.now()
            });
            let s = w.stats();
            let counters = (s.sends, s.p2p_bytes, s.collectives, w.net_messages());
            (r.results, r.ordered_ops, counters)
        };
        assert_eq!(go(true), go(false));
    }

    #[test]
    fn successive_calls_match_in_call_order() {
        let w = World::new(16, NetConfig::smp_cluster(16, 4));
        let r = w.run(|c| {
            let a = c.replicated(|| 1u64);
            let b = c.replicated(|| 2u64);
            (*a, *b)
        });
        assert!(r.results.iter().all(|x| *x == (1, 2)));
        assert!(w.shared.replicas.lock().is_empty(), "slot left behind");
    }

    #[test]
    fn type_mismatch_panics_naming_both_types() {
        let w = World::new(4, NetConfig::ccnuma(4));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.run(|c| {
                if c.rank() == 0 {
                    c.replicated(|| 0u64);
                } else {
                    c.replicated(|| 0u32);
                }
            })
        }))
        .expect_err("mismatched types must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic carries a message");
        assert!(msg.contains("replicated call 0"), "{msg}");
        assert!(msg.contains("u64") && msg.contains("u32"), "{msg}");
        // The next run starts with an empty slot table.
        let r = w.run(|c| *c.replicated(|| 5u64));
        assert_eq!(r.results, vec![5; 4]);
    }
}

#[cfg(test)]
mod stress_tests {
    use super::*;
    use amrio_net::NetConfig;

    #[test]
    fn many_ranks_many_collectives() {
        let w = World::new(24, NetConfig::smp_cluster(24, 8));
        let r = w.run(|c| {
            let mut acc = 0u64;
            for round in 0..10u64 {
                let all = c.allgatherv(vec![c.rank() as u8; (round + 1) as usize]);
                acc += all.iter().map(|v| v.len() as u64).sum::<u64>();
                c.barrier();
            }
            acc
        });
        // Everyone saw the same traffic.
        assert!(r.results.iter().all(|a| *a == r.results[0]));
        assert_eq!(r.results[0], 24 * (1..=10).sum::<u64>());
    }

    #[test]
    fn interleaved_p2p_and_collectives() {
        let w = World::new(5, NetConfig::ccnuma(5));
        let r = w.run(|c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, 1, &[c.rank() as u8]);
            c.barrier();
            let m = c.recv(prev, 1);
            c.allreduce_u64(m.data[0] as u64, crate::coll::ReduceOp::Sum)
        });
        assert!(r.results.iter().all(|x| *x == (1 + 2 + 3 + 4)));
    }

    #[test]
    fn ring_pipeline_with_messages_in_flight() {
        // Each rank forwards a token around the ring 3 times.
        let w = World::new(6, NetConfig::fast_ethernet(6));
        let r = w.run(|c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            let mut token = if c.rank() == 0 { vec![0u8] } else { Vec::new() };
            for lap in 0..3 {
                if c.rank() == 0 {
                    c.send(next, lap, &token);
                    token = c.recv(prev, lap).data.into_vec();
                    token[0] += 1;
                } else {
                    let mut t = c.recv(prev, lap).data.into_vec();
                    t[0] += 1;
                    c.send(next, lap, &t);
                }
            }
            if c.rank() == 0 {
                token[0]
            } else {
                0
            }
        });
        // 3 laps x 6 hops, minus rank 0's final +1 bookkeeping: the token
        // was incremented once per hop by non-roots and once per lap by
        // root after receipt.
        assert_eq!(r.results[0], 3 * 6);
    }
}
