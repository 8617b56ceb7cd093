//! End-to-end experiment driver: build a platform, initialize the
//! simulation, evolve it, then time a checkpoint dump and a restart read
//! with a chosen I/O strategy — the measurement loop behind every figure.
//!
//! The entry point is the [`Experiment`] builder: one configurable run
//! that optionally attaches a correctness checker, captures a
//! plan-conformance probe, and injects faults:
//!
//! ```ignore
//! let outcome = Experiment::new(&platform, &cfg, &MpiIoOptimized)
//!     .cycles(2)
//!     .check(CheckMode::Strict)
//!     .probe()
//!     .faults(Arc::new(plan))
//!     .run();
//! ```

use crate::evolve::{evolve_step, rebuild_refinement};
use crate::io::IoStrategy;
use crate::platform::Platform;
use crate::problem::SimConfig;
use crate::state::{global_digest, SimState};
use amrio_amr::Hierarchy;
use amrio_check::{CheckMode, CheckReport, Checker, CollDesc, Violation};
use amrio_disk::{Crashed, FaultPlan, FileId, IoEvent, Pfs, ResilienceReport, RetryPolicy};
use amrio_mpi::{Comm, World};
use amrio_mpiio::{Advisory, Mode, MpiIo};
use amrio_recover::{manifest_path, Manifest};
use amrio_simt::sync::Mutex;
use amrio_simt::{SchedStats, SimDur};
use std::num::NonZeroU32;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Result of one experiment run (virtual seconds).
#[derive(Clone, Debug)]
pub struct RunReport {
    pub platform: &'static str,
    pub strategy: &'static str,
    pub problem: String,
    pub nranks: usize,
    /// Time of the checkpoint dump (all grids).
    pub write_time: f64,
    /// Time of the restart read.
    pub read_time: f64,
    pub bytes_written: u64,
    pub bytes_read: u64,
    /// Grid count at dump time (incl. the root grid).
    pub grids: usize,
    pub max_level: u8,
    /// Restart state matched the dumped state bit-for-bit.
    pub verified: bool,
    /// Whole-run virtual makespan (setup + evolution + I/O).
    pub makespan: f64,
    /// FNV-1a digest of the complete post-run file-system image (see
    /// [`amrio_disk::Pfs::image_digest`]) — restart reads do not write,
    /// so this is the checkpoint image the dump produced.
    pub image_digest: u64,
    /// Recovery actions the I/O stack took under fault injection
    /// (all-zero when no fault plan was attached).
    pub resilience: ResilienceReport,
    /// Engine ordered sections executed — a proxy for the simulation's
    /// event count (for a crash-recovered run: the final incarnation).
    pub ordered_ops: u64,
    /// Host-side scheduler contention counters (wakeups, grant
    /// handoffs, index updates, lock acquisitions) — wall-clock
    /// diagnostics; virtual times are independent of them.
    pub sched: SchedStats,
}

/// Barrier-bracketed timing: all ranks enter and leave together, so the
/// duration is identical on every rank.
pub fn timed<R>(comm: &Comm, f: impl FnOnce() -> R) -> (SimDur, R) {
    comm.barrier();
    let t0 = comm.now();
    let r = f();
    comm.barrier();
    (comm.now() - t0, r)
}

/// Everything a plan↔trace conformance pass needs from one checked run:
/// the dump-time state the static planner is derived from, the
/// collective-epoch windows bracketing the timed write and read phases,
/// the recorded collective log, and the raw file-system trace.
#[derive(Clone, Debug)]
pub struct RunProbe {
    /// Replicated hierarchy at checkpoint time (what the plan is built
    /// from).
    pub hierarchy: Hierarchy,
    pub time: f64,
    pub cycle: u64,
    pub nranks: usize,
    /// Collective epochs `[start, end)` spent inside
    /// `write_checkpoint` (excludes the timing barriers around it).
    pub write_epochs: (u64, u64),
    /// Collective epochs `[start, end)` spent inside `read_checkpoint`.
    pub read_epochs: (u64, u64),
    /// Completed collectives `(epoch, rank-0 descriptor)`, epoch-sorted.
    pub collectives: Vec<(u64, CollDesc)>,
    /// Path → file-id map of every file the run touched.
    pub files: Vec<(String, FileId)>,
    /// Every file-system request the run issued.
    pub events: Vec<IoEvent>,
}

/// What the crash-recovery path did; present on [`RunOutcome`] iff at
/// least one simulated crash interrupted the run.
#[derive(Clone, Debug)]
pub struct RecoveryOutcome {
    /// Crash→restart iterations the run went through.
    pub crashes: u64,
    /// Generation the final (successful) incarnation resumed from;
    /// `None` means no committed generation existed yet and it
    /// restarted from scratch.
    pub resumed_generation: Option<u32>,
    /// Cycle recorded in the resumed generation's manifest (0 when
    /// restarting from scratch).
    pub resumed_cycle: u64,
    /// Torn or orphaned generations the recovery scans discarded,
    /// summed over all restarts.
    pub torn_generations: u64,
    /// The resumed state reproduced the manifest's state digest
    /// bit-for-bit (vacuously true when restarting from scratch).
    pub resume_verified: bool,
}

/// Everything one [`Experiment`] run produced. `check` is present iff a
/// check mode was requested; `probe` iff probing was requested;
/// `recovery` iff a simulated crash interrupted the run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    pub report: RunReport,
    pub check: Option<CheckReport>,
    pub probe: Option<RunProbe>,
    pub recovery: Option<RecoveryOutcome>,
}

/// A read-only snapshot of an [`Experiment`]'s statically-checkable
/// configuration (see [`Experiment::static_inputs`]).
pub struct StaticInputs<'a> {
    pub platform: &'a Platform,
    pub cfg: &'a SimConfig,
    /// [`IoStrategy::name`] of the configured strategy.
    pub strategy: &'static str,
    pub faults: Option<Arc<FaultPlan>>,
    pub retry: RetryPolicy,
    pub cycles: u32,
    pub dump_every: Option<u32>,
}

/// One configurable experiment run. See the module docs for the shape;
/// [`Experiment::run`] executes init → refine → `cycles` evolve steps →
/// timed checkpoint write → timed restart read → verification (one such
/// dump per generation under [`Experiment::dump_every`]), with the
/// requested extras attached.
pub struct Experiment<'a> {
    platform: &'a Platform,
    cfg: &'a SimConfig,
    strategy: &'a dyn IoStrategy,
    cycles: u32,
    check: Option<CheckMode>,
    probe: bool,
    faults: Option<Arc<FaultPlan>>,
    retry: Option<RetryPolicy>,
    advisory: Option<Advisory>,
    dump_every: Option<NonZeroU32>,
}

impl<'a> Experiment<'a> {
    pub fn new(
        platform: &'a Platform,
        cfg: &'a SimConfig,
        strategy: &'a dyn IoStrategy,
    ) -> Experiment<'a> {
        Experiment {
            platform,
            cfg,
            strategy,
            cycles: 1,
            check: None,
            probe: false,
            faults: None,
            retry: None,
            advisory: None,
            dump_every: None,
        }
    }

    /// Number of evolve steps between init and the checkpoint (default 1).
    pub fn cycles(mut self, n: u32) -> Self {
        self.cycles = n;
        self
    }

    /// Attach an `amrio-check` correctness checker: every collective is
    /// cross-checked, the file system is traced, and the outcome carries
    /// a [`CheckReport`] (under [`CheckMode::Strict`] the run panics on
    /// the first violation).
    pub fn check(mut self, mode: CheckMode) -> Self {
        self.check = Some(mode);
        self
    }

    /// Capture a [`RunProbe`] for plan↔trace conformance. Implies
    /// [`CheckMode::Log`] when no check mode was set (the probe needs
    /// the checker's collective log and file-system trace).
    pub fn probe(mut self) -> Self {
        self.probe = true;
        self
    }

    /// Inject faults from `plan`: the file system, network and
    /// per-rank clocks consult it, and the run's [`ResilienceReport`]
    /// summarizes the recovery actions taken.
    pub fn faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Override the MPI-IO retry/backoff/failover policy (default:
    /// [`RetryPolicy::default`]).
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Install a statically derived tuning advisory (see `amrio-tune`):
    /// its hints, write-behind capacity and application stripe become
    /// the defaults for every file the run opens. Timing-only — the
    /// checkpoint bytes (`image_digest`) are unchanged.
    pub fn advisory(mut self, advisory: Advisory) -> Self {
        self.advisory = Some(advisory);
        self
    }

    /// Dump (and atomically commit) a checkpoint generation every `k`
    /// cycles instead of one dump at the end. Each dump is committed by
    /// a self-checksummed manifest written in a single request, and the
    /// in-memory state is replaced by the dump's own restart read — so
    /// a crashed run can resume from the newest committed generation on
    /// a bit-identical state trajectory.
    /// A zero interval is unrepresentable here; the data-driven path
    /// reports it as `SpecError::ZeroDumpEvery` at validation time.
    pub fn dump_every(mut self, k: NonZeroU32) -> Self {
        self.dump_every = Some(k);
        self
    }

    /// Everything a static analyzer needs to verify this experiment
    /// without running it: the platform, problem, strategy name, and
    /// the fault/retry/commit configuration in force. `amrio-verify`'s
    /// `VerifyStatic` extension trait consumes this — the accessor
    /// lives here because the experiment's fields are private by
    /// design.
    pub fn static_inputs(&self) -> StaticInputs<'a> {
        StaticInputs {
            platform: self.platform,
            cfg: self.cfg,
            strategy: self.strategy.name(),
            faults: self.faults.clone(),
            retry: self.retry.unwrap_or_default(),
            cycles: self.cycles,
            dump_every: self.dump_every.map(NonZeroU32::get),
        }
    }

    /// Execute the run: one timed checkpoint dump and restart read per
    /// generation, a generation every [`Experiment::dump_every`] cycles
    /// (without it, one generation of all `cycles`).
    ///
    /// A generation is committed through its manifest iff `dump_every`
    /// is set or the fault plan arms a crash. Without either, the run is
    /// the paper's single dump: no manifest is written, and its timings
    /// and checkpoint bytes are the golden ones. An armed [`Crashed`]
    /// fault triggers restart-from-latest recovery: when the crash cuts
    /// the world short, the file-system image is salvaged and scanned
    /// for the newest committed generation, and the run restarts from
    /// it until it completes.
    pub fn run(self) -> RunOutcome {
        let Experiment {
            platform,
            cfg,
            strategy,
            cycles,
            check,
            probe,
            faults,
            retry,
            advisory,
            dump_every,
        } = self;
        assert_endpoints(platform, cfg);
        let mode = match (check, probe) {
            (Some(m), _) => Some(m),
            (None, true) => Some(CheckMode::Log),
            (None, false) => None,
        };
        let crash_armed = faults.as_ref().is_some_and(|p| p.crash_at().is_some());
        let commit = dump_every.is_some() || crash_armed;
        let k = dump_every.map_or(cycles, NonZeroU32::get).max(1) as u64;
        if crash_armed {
            // Crashes unwind rank threads by design; keep the default
            // panic hook from reporting the expected payloads.
            amrio_fault::silence_crash_panics();
        }

        let mut crashes = 0u64;
        let mut torn = 0u64;
        let mut resume: Option<Manifest> = None;
        let mut salvaged: Option<Arc<Mutex<Pfs>>> = None;
        let mut prior_violations: Vec<Violation> = Vec::new();

        let (report, io, checker) = loop {
            let checker = mode.map(|m| Arc::new(Checker::new(m, cfg.nranks)));
            let mut world = World::new(cfg.nranks, platform.net.clone());
            let mut io = match salvaged.take() {
                Some(fs) => MpiIo::from_fs(fs),
                None => MpiIo::new(platform.fs.clone()),
            };
            if let Some(policy) = retry {
                io.set_retry_policy(policy);
            }
            if let Some(adv) = advisory {
                io.set_advisory(adv);
            }
            // Faults apply to the first incarnation only: by the time a
            // restart runs, the armed crash has already fired, and the
            // recovered incarnation must not re-fire it.
            if crashes == 0 {
                if let Some(plan) = &faults {
                    world = world.with_faults(Arc::clone(plan));
                    io.attach_faults(Arc::clone(plan));
                }
            }
            if let Some(ck) = &checker {
                if probe {
                    ck.record_collectives();
                }
                world = world.with_checker(Arc::clone(ck));
                io.attach_checker(ck);
            }

            let resume_man = resume.clone();
            let next_gen = resume_man.as_ref().map(|m| m.generation + 1).unwrap_or(0);
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                world.run(|comm| {
                    let (resume_verified, mut st) = match &resume_man {
                        // Resume exactly like the dump's own read-back:
                        // same reader, same generation, same state.
                        Some(man) => {
                            let st = strategy.read_checkpoint(comm, &io, cfg, man.generation);
                            (global_digest(comm, &st) == man.state_digest, st)
                        }
                        None => {
                            let mut st = SimState::init(comm, cfg.clone());
                            rebuild_refinement(comm, &mut st);
                            (true, st)
                        }
                    };
                    let mut gen = next_gen;
                    // A crash that lands after the final generation had
                    // already committed leaves nothing to compute: do
                    // not write a generation the crash-free run never
                    // wrote. Re-read the committed image as the timed
                    // verification pass and finish byte-identical.
                    if st.cycle >= cycles as u64 && next_gen > 0 {
                        let d0 = global_digest(comm, &st);
                        let (read_time, (read_epochs, st2)) = timed(comm, || {
                            let e0 = comm.coll_epoch();
                            let st2 = strategy.read_checkpoint(comm, &io, cfg, next_gen - 1);
                            ((e0, comm.coll_epoch()), st2)
                        });
                        let e = comm.coll_epoch();
                        return RankResult {
                            write_time: SimDur::ZERO,
                            read_time,
                            verified: d0 == global_digest(comm, &st2),
                            hierarchy: st2.hierarchy,
                            time: st2.time,
                            cycle: st2.cycle,
                            write_epochs: (e, e),
                            read_epochs,
                            resume_verified,
                        };
                    }
                    loop {
                        let todo = (cycles as u64).saturating_sub(st.cycle).min(k);
                        for _ in 0..todo {
                            evolve_step(comm, &mut st, 1.0);
                        }
                        rebuild_refinement(comm, &mut st);
                        let (write_time, write_epochs) = timed(comm, || {
                            let e0 = comm.coll_epoch();
                            strategy.write_checkpoint(comm, &io, &st, gen);
                            (e0, comm.coll_epoch())
                        });
                        let d0 = global_digest(comm, &st);
                        if commit {
                            commit_generation(comm, &io, gen, &st, d0);
                        }
                        let (read_time, (read_epochs, st2)) = timed(comm, || {
                            let e0 = comm.coll_epoch();
                            let st2 = strategy.read_checkpoint(comm, &io, cfg, gen);
                            ((e0, comm.coll_epoch()), st2)
                        });
                        let verified = d0 == global_digest(comm, &st2);
                        if st2.cycle >= cycles as u64 {
                            break RankResult {
                                write_time,
                                read_time,
                                verified,
                                hierarchy: st.hierarchy,
                                time: st.time,
                                cycle: st.cycle,
                                write_epochs,
                                read_epochs,
                                resume_verified,
                            };
                        }
                        // Read-back replacement: continue from the bytes
                        // on disk, so a later crash-resume of this
                        // generation retraces the identical trajectory.
                        st = st2;
                        gen += 1;
                    }
                })
            }));
            match attempt {
                Ok(report) => {
                    if let Some(plan) = &faults {
                        for _ in 0..crashes {
                            plan.note_recovery();
                        }
                    }
                    break (report, io, checker);
                }
                Err(payload) => {
                    if payload.downcast_ref::<Crashed>().is_none() {
                        resume_unwind(payload);
                    }
                    crashes += 1;
                    assert!(crashes <= 8, "crash-restart loop did not converge");
                    if let Some(plan) = &faults {
                        plan.note_crash();
                    }
                    // The crashed incarnation's checker: keep real
                    // findings, forgive the traffic the crash cut
                    // mid-flight.
                    if let Some(ck) = &checker {
                        prior_violations.extend(ck.finalize_truncated().violations);
                    }
                    // Salvage the file-system image the dead world left
                    // behind (the Pfs mutex tolerates poisoning), detach
                    // the spent fault plan, and drop the crashed
                    // incarnation's trace — conflict analysis across
                    // incarnations would be meaningless.
                    let mut fs = io.fs().lock().clone();
                    fs.clear_faults();
                    fs.trace.events.clear();
                    let scan = amrio_recover::scan(&fs);
                    torn += scan.damaged();
                    if let Some(plan) = &faults {
                        plan.note_torn_generations(scan.damaged());
                    }
                    resume = scan.latest_committed().and_then(|g| g.manifest.clone());
                    salvaged = Some(Arc::new(Mutex::new(fs)));
                }
            }
        };

        let makespan = report.makespan;
        let ordered_ops = report.ordered_ops;
        let sched = report.sched;
        let rank0 = report
            .results
            .into_iter()
            .next()
            .expect("at least one rank");
        let (stats, files, events, image_digest) = {
            let fs = io.fs();
            let fs = fs.lock();
            let (files, events) = fs.trace_snapshot();
            (fs.stats, files, events, fs.image_digest())
        };
        let resilience = faults
            .as_ref()
            .map(|p| p.report(makespan))
            .unwrap_or_default();
        let mut check = checker.as_ref().map(|ck| ck.finalize());
        if let Some(report) = &mut check {
            if !prior_violations.is_empty() {
                prior_violations.append(&mut report.violations);
                report.violations = prior_violations;
            }
        }
        let recovery = (crashes > 0).then(|| RecoveryOutcome {
            crashes,
            resumed_generation: resume.as_ref().map(|m| m.generation),
            resumed_cycle: resume.as_ref().map(|m| m.cycle).unwrap_or(0),
            torn_generations: torn,
            resume_verified: rank0.resume_verified,
        });
        let report = RunReport {
            platform: platform.name,
            strategy: strategy.name(),
            problem: cfg.problem.label(),
            nranks: cfg.nranks,
            write_time: rank0.write_time.as_secs_f64(),
            read_time: rank0.read_time.as_secs_f64(),
            bytes_written: stats.bytes_written,
            bytes_read: stats.bytes_read,
            grids: rank0.hierarchy.grids.len(),
            max_level: rank0.hierarchy.max_level(),
            verified: rank0.verified,
            makespan: makespan.as_secs_f64(),
            image_digest,
            resilience,
            ordered_ops,
            sched,
        };
        let probe = probe.then(|| RunProbe {
            nranks: cfg.nranks,
            write_epochs: rank0.write_epochs,
            read_epochs: rank0.read_epochs,
            collectives: checker
                .as_ref()
                .map(|ck| ck.collective_log())
                .unwrap_or_default(),
            files,
            events,
            hierarchy: rank0.hierarchy,
            time: rank0.time,
            cycle: rank0.cycle,
        });
        RunOutcome {
            report,
            check,
            probe,
            recovery,
        }
    }
}

/// What each rank of the final incarnation reports: the last
/// generation's timed dump and read-back, and the dumped state.
struct RankResult {
    write_time: SimDur,
    read_time: SimDur,
    /// The read-back reproduced the dumped state's digest.
    verified: bool,
    hierarchy: Hierarchy,
    time: f64,
    cycle: u64,
    write_epochs: (u64, u64),
    read_epochs: (u64, u64),
    resume_verified: bool,
}

/// Compute endpoints precede any I/O server endpoints in the platform's
/// network; the rank count must account for exactly the rest.
fn assert_endpoints(platform: &Platform, cfg: &SimConfig) {
    let eps = platform.net.node_of.len();
    let servers = platform
        .fs
        .server_endpoints
        .as_ref()
        .map(|v| v.len())
        .unwrap_or(0);
    assert_eq!(cfg.nranks, eps - servers);
}

/// Atomically publish generation `gen`: rank 0 captures a manifest of
/// every `DD{gen:04}.*` data file (host-side and cost-free — the dump's
/// writes have all completed by the preceding collective) and writes it
/// in one request. The write is crash-cuttable: a torn manifest fails
/// its self-checksum, leaving the generation uncommitted — a generation
/// is visible to recovery either fully verified or not at all.
fn commit_generation(comm: &Comm, io: &MpiIo, gen: u32, st: &SimState, state_digest: u64) {
    if comm.rank() == 0 {
        let bytes = {
            let fs = io.fs();
            let fs = fs.lock();
            Manifest::capture(&fs, gen, st.cycle, st.time, state_digest).encode()
        };
        let file = io.open_single(comm, &manifest_path(gen), Mode::Create);
        file.write_at(0, &bytes);
    }
    comm.barrier();
}
