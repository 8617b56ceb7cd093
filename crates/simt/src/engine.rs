//! The event-driven virtual-time executor.
//!
//! Each simulated processor ("rank") runs as a real OS thread carrying a
//! *virtual clock*. Pure local work runs in parallel and just advances the
//! rank's own clock. Whenever a rank needs to interact with shared
//! simulation state (mailboxes, disks, NIC ports, ...) it enters an
//! [`Ctx::ordered`] section, which the scheduler grants strictly in
//! `(clock, rank)` priority order: a rank may enter only when no other
//! live, unparked rank could still produce an earlier-priority event.
//! Because every contended resource is only touched inside ordered
//! sections, resource queues observe requests in nondecreasing virtual
//! time and the whole run is deterministic regardless of how the OS
//! schedules the threads.
//!
//! The scheduler is built for worlds of hundreds to thousands of ranks:
//!
//! * **Priority index.** Live unparked ranks are kept in a tournament
//!   tree keyed by `(clock, rank)`, so the next grantable rank is found
//!   in O(log n) per update instead of an O(n) scan per wait-loop
//!   iteration. Parked and Done ranks are absent from the index: a
//!   parked rank can only be woken from inside another rank's ordered
//!   section, which itself obeys the priority order, so the wakee's
//!   next event can never travel back before events already granted.
//! * **Targeted handoff.** Every rank sleeps on its own condition
//!   variable. Whenever the scheduler state changes (an ordered section
//!   ends, a clock moves past a waiter, a rank parks or finishes), the
//!   engine computes the unique next grantable rank and wakes exactly
//!   that thread — no broadcast storms. Wakeups are only hints: the
//!   grant decision itself is always re-evaluated by the woken rank
//!   under the scheduler lock, which is what preserves the exact
//!   `(clock, rank)` grant order of the original scan-based scheduler.
//! * **Lock-light clocks.** Per-rank clocks live in atomics, so
//!   [`Ctx::now`] never takes the scheduler lock and [`Ctx::advance`]
//!   skips it entirely while no rank is waiting for an ordered grant
//!   (a SeqCst store/load pair makes the skip race-free: either the
//!   advancing rank sees the waiter and publishes its new key under the
//!   lock, or the waiter's grant check sees the advanced clock and
//!   refreshes the stale index entry itself).
//!
//! Blocking (e.g. a receive with no matching message) uses
//! [`Ctx::park`] / [`Ctx::unpark`] with one-shot permit semantics, so a
//! wake that races ahead of the sleep is never lost. A collective's
//! release wakes all its peers with one [`Ctx::unpark_all`]: one
//! scheduler lock for the whole batch, notifications after unlocking.

use crate::sync::{Condvar, Mutex, MutexGuard};
use crate::time::{SimDur, SimTime};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A processor index in `0..nranks`.
pub type Rank = usize;

/// A fault hook consulted on every local clock advance. Installed via
/// [`run_with_hook`]; used to model per-rank compute stragglers by
/// dilating a rank's own work. Only [`Ctx::advance`] is hooked —
/// [`Ctx::advance_to`] (waiting for an interaction to complete) is not,
/// so a straggler slows down its own computation without inflating the
/// completion times of resources it merely waits on.
///
/// Implementations must be deterministic functions of `(rank, now, d)`
/// plus their own fixed schedule: ranks advance concurrently, so the
/// engine gives no cross-rank ordering guarantee for hook calls (each
/// rank's own calls are ordered, and run under the scheduler lock).
pub trait ClockHook: Send + Sync {
    fn dilate(&self, rank: Rank, now: SimTime, d: SimDur) -> SimDur;
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RankState {
    /// Running local work (or not yet at a yield point).
    Free,
    /// Waiting to be granted an ordered section.
    WaitingOrdered,
    /// Inside an ordered section (exactly one rank at a time).
    OrderedRunning,
    /// Parked until another rank calls `unpark`.
    Parked,
    /// The rank closure returned (or panicked).
    Done,
}

impl RankState {
    /// States tracked by the priority index: ranks that could still
    /// produce an event on their own. Parked and Done ranks cannot act
    /// until acted upon by someone else.
    fn indexed(self) -> bool {
        matches!(
            self,
            RankState::Free | RankState::WaitingOrdered | RankState::OrderedRunning
        )
    }
}

/// Index key for a rank that is absent (parked or done): sorts after
/// every real `(clock, rank)` key.
const ABSENT: (SimTime, Rank) = (SimTime(u64::MAX), usize::MAX);

/// Tournament tree over `(clock, rank)` keys: `min()` in O(1), `set()`
/// in O(log n). Leaves hold one key per rank (or [`ABSENT`]); each
/// internal node holds the minimum of its children.
struct PriorityIndex {
    /// First leaf slot; rank `r`'s leaf lives at `base + r`.
    base: usize,
    /// 1-based complete binary tree; `tree[1]` is the global minimum.
    tree: Vec<(SimTime, Rank)>,
}

impl PriorityIndex {
    fn new(nranks: usize) -> PriorityIndex {
        let base = nranks.next_power_of_two();
        let mut idx = PriorityIndex {
            base,
            tree: vec![ABSENT; 2 * base],
        };
        for r in 0..nranks {
            idx.tree[base + r] = (SimTime::ZERO, r);
        }
        for i in (1..base).rev() {
            idx.tree[i] = idx.tree[2 * i].min(idx.tree[2 * i + 1]);
        }
        idx
    }

    /// Set `rank`'s key, repairing ancestors; returns whether the leaf
    /// actually changed.
    fn set(&mut self, rank: Rank, key: (SimTime, Rank)) -> bool {
        let mut i = self.base + rank;
        if self.tree[i] == key {
            return false;
        }
        self.tree[i] = key;
        while i > 1 {
            i /= 2;
            let m = self.tree[2 * i].min(self.tree[2 * i + 1]);
            if self.tree[i] == m {
                break;
            }
            self.tree[i] = m;
        }
        true
    }

    /// The smallest `(clock, rank)` among indexed ranks, if any.
    fn min(&self) -> Option<(SimTime, Rank)> {
        let k = self.tree[1];
        (k != ABSENT).then_some(k)
    }
}

struct Sched {
    state: Vec<RankState>,
    /// One-shot wake permits: `Some(t)` means a pending `unpark` at time `t`.
    permits: Vec<Option<SimTime>>,
    /// True while some rank is inside an ordered closure.
    ordered_busy: bool,
    /// Ranks in an indexed state; deadlock means this hits zero while
    /// parked ranks remain.
    live_unparked: usize,
    /// `(clock, rank)` tournament tree over live unparked ranks. A Free
    /// rank's key may lag its atomic clock (lock-free advances); the
    /// grant check repairs such entries on sight, so keys are only ever
    /// stale-*low*, which can delay a grant but never reorder one.
    index: PriorityIndex,
    // Contention counters, folded into [`SchedStats`] after the run.
    wakeups: u64,
    handoffs: u64,
    index_updates: u64,
}

struct Shared {
    sched: Mutex<Sched>,
    /// One condvar per rank (all paired with `sched`): targeted wakeups
    /// reach exactly the thread that can act.
    cvs: Vec<Condvar>,
    /// Per-rank virtual clocks, readable without the scheduler lock.
    clocks: Vec<AtomicU64>,
    /// Set when a rank panicked; everyone else unwinds promptly.
    poisoned: AtomicBool,
    /// Ranks currently in `WaitingOrdered`. SeqCst-paired with clock
    /// stores so the lock-free advance path can skip index maintenance
    /// exactly when nobody could be blocked on this rank's clock.
    nwaiting: AtomicUsize,
    lock_acquisitions: AtomicU64,
    ordered_ops: AtomicU64,
    hook: Option<Arc<dyn ClockHook>>,
}

impl Shared {
    fn sched(&self) -> MutexGuard<'_, Sched> {
        self.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
        self.sched.lock()
    }

    fn clock(&self, rank: Rank) -> SimTime {
        SimTime(self.clocks[rank].load(Ordering::SeqCst))
    }

    fn set_clock(&self, rank: Rank, t: SimTime) {
        self.clocks[rank].store(t.0, Ordering::SeqCst);
    }

    /// Re-key `rank` from its atomic clock (no-op for unindexed states).
    fn refresh_key(&self, g: &mut Sched, rank: Rank) {
        if g.state[rank].indexed() && g.index.set(rank, (self.clock(rank), rank)) {
            g.index_updates += 1;
        }
    }

    /// The unique rank that may enter an ordered section right now, if
    /// any: the index minimum, provided it is a waiting rank and no
    /// ordered section is in flight. Stale-low keys left by lock-free
    /// advances are repaired along the way.
    fn next_grant(&self, g: &mut Sched) -> Option<Rank> {
        if g.ordered_busy {
            return None;
        }
        loop {
            let (t, r) = g.index.min()?;
            let actual = self.clock(r);
            if actual > t {
                if g.index.set(r, (actual, r)) {
                    g.index_updates += 1;
                }
                continue;
            }
            return (g.state[r] == RankState::WaitingOrdered).then_some(r);
        }
    }

    /// Direct handoff: wake exactly the next grantable rank, if there is
    /// one. The wakee re-checks the grant under the lock, so a redundant
    /// wake is harmless and a missing one is what must never happen —
    /// every state change that could enable a grant calls this.
    fn wake_next(&self, g: &mut Sched) {
        if let Some(r) = self.next_grant(g) {
            g.handoffs += 1;
            g.wakeups += 1;
            self.cvs[r].notify_one();
        }
    }

    /// Flag the run as poisoned and wake every thread so it can unwind.
    fn poison(&self, g: &mut Sched) {
        self.poisoned.store(true, Ordering::SeqCst);
        g.wakeups += self.cvs.len() as u64;
        for cv in &self.cvs {
            cv.notify_all();
        }
    }

    fn dump(&self, g: &Sched) -> String {
        let mut s = String::new();
        for r in 0..g.state.len() {
            s.push_str(&format!(
                "  rank {r}: {:?} at {:?} permit={:?}\n",
                g.state[r],
                self.clock(r),
                g.permits[r]
            ));
        }
        s
    }
}

/// Per-rank handle passed to the rank closure; all engine services go
/// through it.
pub struct Ctx {
    rank: Rank,
    nranks: usize,
    shared: Arc<Shared>,
}

/// Panic payload raised when the engine detects that every live rank is
/// parked, i.e. the simulated program deadlocked. Carries the full
/// per-rank state dump (state, clock, pending permit).
#[derive(Debug)]
pub struct Deadlock(pub String);

impl std::fmt::Display for Deadlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl Ctx {
    pub fn rank(&self) -> Rank {
        self.rank
    }

    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// This rank's current virtual clock. Lock-free.
    pub fn now(&self) -> SimTime {
        self.shared.clock(self.rank)
    }

    /// Charge `d` of local computation to this rank.
    ///
    /// Lock-free while no rank is waiting for an ordered grant; takes
    /// the scheduler lock only to publish the new priority key (and hand
    /// the grant over) when someone may be blocked behind this clock.
    pub fn advance(&self, d: SimDur) {
        if d == SimDur::ZERO {
            return;
        }
        self.check_poison();
        let me = self.rank;
        if let Some(hook) = &self.shared.hook {
            // Hooked (fault-injection) runs keep the locked path:
            // `dilate` may account straggler time into plan statistics.
            let mut g = self.shared.sched();
            let now = self.shared.clock(me);
            let d = hook.dilate(me, now, d);
            self.shared.set_clock(me, now + d);
            self.shared.refresh_key(&mut g, me);
            self.shared.wake_next(&mut g);
            return;
        }
        self.shared.set_clock(me, self.shared.clock(me) + d);
        if self.shared.nwaiting.load(Ordering::SeqCst) == 0 {
            // Nobody can be blocked behind our clock: the SeqCst
            // store/load pair guarantees any waiter registering
            // concurrently will read the advanced clock when it
            // evaluates its grant.
            return;
        }
        let mut g = self.shared.sched();
        self.shared.refresh_key(&mut g, me);
        self.shared.wake_next(&mut g);
    }

    /// Move this rank's clock forward to at least `t` (no-op if already
    /// past). Used when an interaction's effect completes at `t`.
    pub fn advance_to(&self, t: SimTime) {
        self.check_poison();
        let me = self.rank;
        if self.shared.clock(me) >= t {
            return;
        }
        self.shared.set_clock(me, t);
        if self.shared.nwaiting.load(Ordering::SeqCst) == 0 {
            return;
        }
        let mut g = self.shared.sched();
        self.shared.refresh_key(&mut g, me);
        self.shared.wake_next(&mut g);
    }

    fn check_poison(&self) {
        if self.shared.poisoned.load(Ordering::SeqCst) {
            panic!("peer rank panicked; unwinding rank {}", self.rank);
        }
    }

    /// Run `f` when this rank holds the global `(clock, rank)` minimum among
    /// live unparked ranks and no other ordered section is in flight.
    ///
    /// `f` receives the rank's clock on entry and returns the clock the rank
    /// should hold afterwards together with a result; typically the
    /// completion time of the interaction. Shared simulation state must only
    /// be touched from inside ordered sections.
    pub fn ordered<R>(&self, f: impl FnOnce(SimTime) -> (SimTime, R)) -> R {
        let me = self.rank;
        let mut g = self.shared.sched();
        self.check_poison();
        debug_assert_eq!(g.state[me], RankState::Free, "nested ordered section");
        g.state[me] = RankState::WaitingOrdered;
        // Lock-free advances may have left our key stale; raising it can
        // also make *another* waiter the new minimum — hand over below.
        self.shared.refresh_key(&mut g, me);
        self.shared.nwaiting.fetch_add(1, Ordering::SeqCst);
        loop {
            match self.shared.next_grant(&mut g) {
                Some(r) if r == me => break,
                Some(r) => {
                    g.handoffs += 1;
                    g.wakeups += 1;
                    self.shared.cvs[r].notify_one();
                    self.shared.cvs[me].wait(&mut g);
                }
                None => self.shared.cvs[me].wait(&mut g),
            }
            self.check_poison();
        }
        self.shared.nwaiting.fetch_sub(1, Ordering::SeqCst);
        g.state[me] = RankState::OrderedRunning;
        g.ordered_busy = true;
        let t0 = self.shared.clock(me);
        drop(g);

        self.shared.ordered_ops.fetch_add(1, Ordering::Relaxed);
        let out = catch_unwind(AssertUnwindSafe(|| f(t0)));

        let mut g = self.shared.sched();
        g.ordered_busy = false;
        g.state[me] = RankState::Free;
        match out {
            Ok((t1, r)) => {
                assert!(t1 >= t0, "ordered section moved time backwards");
                self.shared.set_clock(me, t1);
                self.shared.refresh_key(&mut g, me);
                self.shared.wake_next(&mut g);
                drop(g);
                r
            }
            Err(payload) => {
                self.shared.poison(&mut g);
                drop(g);
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// Convenience: an ordered section that leaves the clock unchanged.
    pub fn ordered_read<R>(&self, f: impl FnOnce(SimTime) -> R) -> R {
        self.ordered(|t| (t, f(t)))
    }

    /// Park this rank until some other rank calls [`Ctx::unpark`] on it.
    /// Returns the rank's clock after waking (at least the wake time the
    /// waker supplied). A permit posted before `park` is consumed
    /// immediately, so wake-ups are never lost.
    pub fn park(&self) -> SimTime {
        let me = self.rank;
        let mut g = self.shared.sched();
        self.check_poison();
        self.shared.refresh_key(&mut g, me);
        if let Some(t) = g.permits[me].take() {
            if self.shared.clock(me) < t {
                self.shared.set_clock(me, t);
                self.shared.refresh_key(&mut g, me);
            }
            let now = self.shared.clock(me);
            // Our clock moving forward may hand the grant to a waiter.
            self.shared.wake_next(&mut g);
            return now;
        }
        g.state[me] = RankState::Parked;
        g.live_unparked -= 1;
        if g.index.set(me, ABSENT) {
            g.index_updates += 1;
        }
        if g.live_unparked == 0 {
            self.deadlock(&mut g);
        }
        // Our parking may unblock an ordered waiter.
        self.shared.wake_next(&mut g);
        loop {
            self.shared.cvs[me].wait(&mut g);
            self.check_poison();
            if g.state[me] == RankState::Free {
                break;
            }
            // A finishing rank woke us to report that nobody can make
            // progress any more.
            if g.live_unparked == 0 {
                self.deadlock(&mut g);
            }
        }
        let now = self.shared.clock(me);
        drop(g);
        now
    }

    /// Raise the typed [`Deadlock`] panic with the full state dump,
    /// poisoning the run so every other thread unwinds.
    fn deadlock(&self, g: &mut Sched) -> ! {
        let dump = self.shared.dump(g);
        self.shared.poison(g);
        std::panic::panic_any(Deadlock(format!(
            "simulated deadlock: all live ranks parked\n{dump}"
        )));
    }

    /// Wake `target` (or post a permit if it has not parked yet), with its
    /// clock raised to at least `at`: the one-element [`Ctx::unpark_all`].
    pub fn unpark(&self, target: Rank, at: SimTime) {
        self.unpark_all([(target, at)]);
    }

    /// Wake every `(target, at)` under one scheduler lock. A parked
    /// target gets its clock raised to at least `at` and rejoins the
    /// priority index; a target that has not parked yet gets a permit
    /// instead, which its next [`Ctx::park`] consumes. The condvar
    /// notifications go out after the lock is released, so a woken rank
    /// never runs straight into a held scheduler lock. Call this from
    /// inside an ordered section so wakes obey the global event order.
    pub fn unpark_all(&self, wakes: impl IntoIterator<Item = (Rank, SimTime)>) {
        let mut woken = Vec::new();
        let mut g = self.shared.sched();
        for (target, at) in wakes {
            match g.state[target] {
                RankState::Parked => {
                    if self.shared.clock(target) < at {
                        self.shared.set_clock(target, at);
                    }
                    g.state[target] = RankState::Free;
                    g.live_unparked += 1;
                    if g.index.set(target, (self.shared.clock(target), target)) {
                        g.index_updates += 1;
                    }
                    woken.push(target);
                }
                RankState::Done => panic!("unpark of finished rank {target}"),
                _ => {
                    let p = g.permits[target].get_or_insert(at);
                    if *p < at {
                        *p = at;
                    }
                }
            }
        }
        // Re-inserting keys can only lower the index minimum, so no
        // ordered waiter becomes grantable: waking the targets suffices.
        // A parked rank re-checks its state under the lock, so a notify
        // that lands after it already saw `Free` is a harmless hint.
        g.wakeups += woken.len() as u64;
        drop(g);
        for r in woken {
            self.shared.cvs[r].notify_one();
        }
    }

    /// Transition to `Done` after the rank closure returned or panicked,
    /// handing the scheduler forward (or reporting poison / deadlock).
    fn finish(&self, panicked: bool) {
        let me = self.rank;
        let mut g = self.shared.sched();
        let prev = g.state[me];
        if prev.indexed() {
            g.live_unparked -= 1;
            if g.index.set(me, ABSENT) {
                g.index_updates += 1;
            }
        }
        if prev == RankState::WaitingOrdered {
            // Unwound out of an ordered wait (poison): keep the
            // fast-path waiter count honest.
            self.shared.nwaiting.fetch_sub(1, Ordering::SeqCst);
        }
        g.state[me] = RankState::Done;
        if panicked {
            self.shared.poison(&mut g);
        } else if g.live_unparked == 0 {
            // Everyone still alive is parked: wake the lowest parked rank
            // so it can report the deadlock with a full state dump.
            if let Some(p) = (0..g.state.len()).find(|&r| g.state[r] == RankState::Parked) {
                g.wakeups += 1;
                self.shared.cvs[p].notify_one();
            }
        } else {
            self.shared.wake_next(&mut g);
        }
    }
}

/// Host stack size per rank thread, in bytes. Rank closures run the
/// whole simulated I/O stack but keep bulk data on the heap
/// ([`crate::Bytes`]), so small stacks suffice: a 1024-rank world takes
/// hundreds of megabytes of address space instead of gigabytes. Virtual
/// time does not depend on it.
const RANK_STACK_SIZE: usize = 256 * 1024;

/// Scheduler contention counters for one run: how much host-side work
/// the executor did to maintain the virtual-time order. Wall-clock
/// diagnostics only — virtual times are independent of these.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Condvar notifications issued (targeted grants, unparks, poison
    /// broadcasts).
    pub wakeups: u64,
    /// Direct grant handoffs: state changes that computed a unique next
    /// grantable rank and woke exactly it.
    pub handoffs: u64,
    /// Priority-index leaf updates (each O(log n)).
    pub index_updates: u64,
    /// Scheduler lock acquisitions.
    pub lock_acquisitions: u64,
}

/// Outcome of a simulation run.
#[derive(Debug)]
pub struct SimReport<T> {
    /// Per-rank results, indexed by rank.
    pub results: Vec<T>,
    /// The largest final clock over all ranks — the simulated makespan.
    pub makespan: SimTime,
    /// Number of ordered sections executed (a proxy for event count).
    pub ordered_ops: u64,
    /// Host-side scheduler contention counters.
    pub sched: SchedStats,
}

type Panic = Box<dyn std::any::Any + Send>;

/// The engine's own peer-cascade unwind (raised by `check_poison`) is
/// never the interesting panic — it only exists to tear the world down
/// after some rank hit a real one.
fn is_peer_cascade(p: &Panic) -> bool {
    p.downcast_ref::<String>()
        .is_some_and(|m| m.contains("peer rank panicked"))
}

/// Keep the root-cause panic: the first payload wins unless it is a
/// peer-cascade unwind and a later rank died of a real panic.
fn prefer_root_cause(current: Option<Panic>, new: Panic) -> Option<Panic> {
    match current {
        None => Some(new),
        Some(cur) if is_peer_cascade(&cur) && !is_peer_cascade(&new) => Some(new),
        some => some,
    }
}

/// Run `nranks` copies of `f` (one per rank) to completion under the
/// virtual-time scheduler and collect their results.
///
/// Panics if any rank panics (including simulated deadlock), propagating
/// the root-cause panic payload (see [`prefer_root_cause`]'s policy: the
/// first non-cascade panic wins over the "peer rank panicked" unwinds it
/// triggers in other ranks).
pub fn run<T, F>(nranks: usize, f: F) -> SimReport<T>
where
    T: Send,
    F: Fn(&Ctx) -> T + Sync,
{
    run_with_hook(nranks, None, f)
}

/// [`run`], with an optional [`ClockHook`] dilating local advances
/// (e.g. a fault plan's compute stragglers). `run(n, f)` is exactly
/// `run_with_hook(n, None, f)`.
pub fn run_with_hook<T, F>(nranks: usize, hook: Option<Arc<dyn ClockHook>>, f: F) -> SimReport<T>
where
    T: Send,
    F: Fn(&Ctx) -> T + Sync,
{
    assert!(nranks > 0, "need at least one rank");
    let shared = Arc::new(Shared {
        sched: Mutex::new(Sched {
            state: vec![RankState::Free; nranks],
            permits: vec![None; nranks],
            ordered_busy: false,
            live_unparked: nranks,
            index: PriorityIndex::new(nranks),
            wakeups: 0,
            handoffs: 0,
            index_updates: 0,
        }),
        cvs: (0..nranks).map(|_| Condvar::new()).collect(),
        clocks: (0..nranks).map(|_| AtomicU64::new(0)).collect(),
        poisoned: AtomicBool::new(false),
        nwaiting: AtomicUsize::new(0),
        lock_acquisitions: AtomicU64::new(0),
        ordered_ops: AtomicU64::new(0),
        hook,
    });

    let mut results: Vec<Option<T>> = (0..nranks).map(|_| None).collect();
    let mut first_panic: Option<Panic> = None;

    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(nranks);
        for rank in 0..nranks {
            let ctx = Ctx {
                rank,
                nranks,
                shared: Arc::clone(&shared),
            };
            let f = &f;
            let h = std::thread::Builder::new()
                .name(format!("rank{rank}"))
                .stack_size(RANK_STACK_SIZE)
                .spawn_scoped(s, move || {
                    let out = catch_unwind(AssertUnwindSafe(|| f(&ctx)));
                    ctx.finish(out.is_err());
                    out
                })
                .expect("spawn rank thread");
            handles.push(h);
        }
        for (rank, h) in handles.into_iter().enumerate() {
            match h.join().expect("rank thread itself must not die") {
                Ok(v) => results[rank] = Some(v),
                Err(p) => first_panic = prefer_root_cause(first_panic.take(), p),
            }
        }
    });

    if let Some(p) = first_panic {
        std::panic::resume_unwind(p);
    }

    let sched = {
        let g = shared.sched.lock();
        SchedStats {
            wakeups: g.wakeups,
            handoffs: g.handoffs,
            index_updates: g.index_updates,
            lock_acquisitions: shared.lock_acquisitions.load(Ordering::Relaxed),
        }
    };
    let makespan = (0..nranks)
        .map(|r| shared.clock(r))
        .max()
        .unwrap_or(SimTime::ZERO);
    SimReport {
        results: results.into_iter().map(|r| r.unwrap()).collect(),
        makespan,
        ordered_ops: shared.ordered_ops.load(Ordering::Relaxed),
        sched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_index_tracks_min_exactly() {
        let mut idx = PriorityIndex::new(5);
        assert_eq!(idx.min(), Some((SimTime::ZERO, 0)));
        assert!(idx.set(0, (SimTime(50), 0)));
        assert!(idx.set(1, (SimTime(20), 1)));
        assert!(idx.set(2, (SimTime(20), 2)));
        assert!(idx.set(3, (SimTime(90), 3)));
        assert!(idx.set(4, (SimTime(70), 4)));
        // Ties break by rank.
        assert_eq!(idx.min(), Some((SimTime(20), 1)));
        assert!(idx.set(1, ABSENT));
        assert_eq!(idx.min(), Some((SimTime(20), 2)));
        assert!(idx.set(2, (SimTime(95), 2)));
        assert_eq!(idx.min(), Some((SimTime(50), 0)));
        for r in [0, 2, 3, 4] {
            assert!(idx.set(r, ABSENT));
        }
        assert_eq!(idx.min(), None);
        // Unchanged writes report no update.
        assert!(!idx.set(3, ABSENT));
    }

    #[test]
    fn priority_index_single_rank() {
        let mut idx = PriorityIndex::new(1);
        assert_eq!(idx.min(), Some((SimTime::ZERO, 0)));
        assert!(idx.set(0, (SimTime(7), 0)));
        assert_eq!(idx.min(), Some((SimTime(7), 0)));
        assert!(idx.set(0, ABSENT));
        assert_eq!(idx.min(), None);
    }

    #[test]
    fn root_cause_preference() {
        let root: Panic = Box::new("real failure".to_string());
        let cascade: Panic = Box::new("peer rank panicked; unwinding rank 2".to_string());
        // First payload wins...
        let kept = prefer_root_cause(None, root).unwrap();
        assert!(!is_peer_cascade(&kept));
        // ...unless it was a cascade and a root cause arrives later.
        let kept = prefer_root_cause(Some(cascade), kept).unwrap();
        assert_eq!(kept.downcast_ref::<String>().unwrap(), "real failure");
        // A root cause is never displaced by a later cascade.
        let cascade2: Panic = Box::new("peer rank panicked; unwinding rank 0".to_string());
        let kept = prefer_root_cause(Some(kept), cascade2).unwrap();
        assert_eq!(kept.downcast_ref::<String>().unwrap(), "real failure");
    }
}
