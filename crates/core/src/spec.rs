//! `ExperimentSpec` — the plain-data, serializable, canonically
//! digestable description of one experiment run.
//!
//! The [`Experiment`] builder is an imperative Rust API: it borrows a
//! [`Platform`], a [`SimConfig`] and a strategy object, so the only way
//! to describe a run used to be Rust code. A spec is the same
//! configuration as *data*: platform and strategy by name, problem
//! size, rank count, cycles, checker mode, fault schedule, retry
//! policy, tuning advisory and dump cadence — everything
//! [`Experiment`] accepts, in a form that can cross a process boundary
//! (the `amrio-serve` wire format), be stored in a file, or key a
//! result cache.
//!
//! Three properties make the spec the cache key for deterministic runs:
//!
//! 1. **Validation is typed.** [`ExperimentSpec::validate`] rejects
//!    every configuration the imperative builder would panic on
//!    (zero ranks, zero dump interval, a processor mesh wider than the
//!    root grid, malformed fault schedules, …) with a [`SpecError`],
//!    so a service front-end can turn bad input into an HTTP 400
//!    instead of a crashed worker.
//! 2. **The canonical encoding is total and order-free.**
//!    [`ExperimentSpec::canonical_string`] writes every field — nested
//!    fault entries, hints, retry knobs — in one fixed order, so two
//!    specs have equal encodings iff they describe the same run, no
//!    matter how they were built or which order a JSON document listed
//!    the fields in.
//! 3. **The digest is the cache key.**
//!    [`ExperimentSpec::canonical_digest`] is FNV-1a over the canonical
//!    encoding. Runs are deterministic (see `tests/determinism.rs`),
//!    so equal digests imply byte-identical outcomes — the memoization
//!    soundness argument of DESIGN.md §5l.
//!
//! [`Experiment::from_spec`] turns a validated spec into a
//! [`SpecExperiment`], an owned bundle (platform, config, strategy)
//! whose [`SpecExperiment::run`] executes exactly what the equivalent
//! imperative builder chain would.

use crate::driver::{Experiment, RunOutcome};
use crate::io::{
    Hdf4Serial, Hdf5Parallel, IoStrategy, MdmsAdvised, MpiIoAppStriped, MpiIoMultiFile, MpiIoNaive,
    MpiIoOptimized, MpiIoWriteBehind,
};
use crate::platform::Platform;
use crate::problem::{ProblemSize, SimConfig};
use amrio_amr::factor3;
use amrio_check::CheckMode;
use amrio_disk::{FaultPlan, RetryPolicy};
use amrio_fault::{FaultError, Window};
use amrio_mpiio::{Advisory, Hints};
use amrio_simt::digest::fnv1a_once;
use amrio_simt::{SimDur, SimTime};
use std::fmt;
use std::fmt::Write as _;
use std::num::NonZeroU32;
use std::sync::Arc;

/// The four platform models, by name (see [`Platform`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PlatformId {
    /// SGI Origin2000 at NCSA with XFS (`"origin2000"`).
    Origin2000,
    /// IBM SP-2 at SDSC with GPFS (`"ibm-sp2"`).
    IbmSp2,
    /// Chiba City Linux cluster with PVFS (`"chiba-pvfs"`).
    ChibaPvfs,
    /// Chiba City using node-local disks via PVFS (`"chiba-local"`).
    ChibaLocal,
}

impl PlatformId {
    pub const ALL: [PlatformId; 4] = [
        PlatformId::Origin2000,
        PlatformId::IbmSp2,
        PlatformId::ChibaPvfs,
        PlatformId::ChibaLocal,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            PlatformId::Origin2000 => "origin2000",
            PlatformId::IbmSp2 => "ibm-sp2",
            PlatformId::ChibaPvfs => "chiba-pvfs",
            PlatformId::ChibaLocal => "chiba-local",
        }
    }

    pub fn parse(s: &str) -> Result<PlatformId, SpecError> {
        PlatformId::ALL
            .into_iter()
            .find(|p| p.as_str() == s)
            .ok_or_else(|| SpecError::UnknownPlatform(s.to_string()))
    }

    /// Instantiate the platform model for `nranks` compute ranks.
    pub fn build(self, nranks: usize) -> Platform {
        match self {
            PlatformId::Origin2000 => Platform::origin2000(nranks),
            PlatformId::IbmSp2 => Platform::ibm_sp2(nranks),
            PlatformId::ChibaPvfs => Platform::chiba_pvfs(nranks),
            PlatformId::ChibaLocal => Platform::chiba_local(nranks),
        }
    }
}

impl fmt::Display for PlatformId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The checkpoint I/O strategies, by name (see [`IoStrategy`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StrategyId {
    /// Original serial HDF4 design (`"hdf4-serial"`).
    Hdf4Serial,
    /// Optimized two-phase MPI-IO design (`"mpiio-optimized"`).
    MpiIoOptimized,
    /// Parallel HDF5 design (`"hdf5-parallel"`).
    Hdf5Parallel,
    /// Pattern-blind independent MPI-IO reader (`"mpiio-naive"`).
    MpiIoNaive,
    /// MDMS metadata-advised reader (`"mdms-advised"`).
    MdmsAdvised,
    /// Shared-file top grid, one file per subgrid (`"mpiio-multifile"`).
    MpiIoMultiFile,
    /// Write-behind staging variant (`"mpiio-writebehind"`).
    MpiIoWriteBehind,
    /// Application-specific striping variant (`"mpiio-appstripe"`).
    MpiIoAppStriped,
}

impl StrategyId {
    pub const ALL: [StrategyId; 8] = [
        StrategyId::Hdf4Serial,
        StrategyId::MpiIoOptimized,
        StrategyId::Hdf5Parallel,
        StrategyId::MpiIoNaive,
        StrategyId::MdmsAdvised,
        StrategyId::MpiIoMultiFile,
        StrategyId::MpiIoWriteBehind,
        StrategyId::MpiIoAppStriped,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            StrategyId::Hdf4Serial => "hdf4-serial",
            StrategyId::MpiIoOptimized => "mpiio-optimized",
            StrategyId::Hdf5Parallel => "hdf5-parallel",
            StrategyId::MpiIoNaive => "mpiio-naive",
            StrategyId::MdmsAdvised => "mdms-advised",
            StrategyId::MpiIoMultiFile => "mpiio-multifile",
            StrategyId::MpiIoWriteBehind => "mpiio-writebehind",
            StrategyId::MpiIoAppStriped => "mpiio-appstripe",
        }
    }

    pub fn parse(s: &str) -> Result<StrategyId, SpecError> {
        StrategyId::ALL
            .into_iter()
            .find(|p| p.as_str() == s)
            .ok_or_else(|| SpecError::UnknownStrategy(s.to_string()))
    }

    /// Instantiate the strategy object (default models for HDF5).
    pub fn build(self) -> Box<dyn IoStrategy> {
        match self {
            StrategyId::Hdf4Serial => Box::new(Hdf4Serial),
            StrategyId::MpiIoOptimized => Box::new(MpiIoOptimized),
            StrategyId::Hdf5Parallel => Box::new(Hdf5Parallel::default()),
            StrategyId::MpiIoNaive => Box::new(MpiIoNaive),
            StrategyId::MdmsAdvised => Box::new(MdmsAdvised),
            StrategyId::MpiIoMultiFile => Box::new(MpiIoMultiFile),
            StrategyId::MpiIoWriteBehind => Box::new(MpiIoWriteBehind),
            StrategyId::MpiIoAppStriped => Box::new(MpiIoAppStriped),
        }
    }
}

impl fmt::Display for StrategyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One declarative fault in a [`FaultSpec`] — the serializable mirror
/// of the [`FaultPlan`] builders, with all times in virtual
/// nanoseconds.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultEntry {
    /// Whole-machine crash at `at_ns`.
    Crash { at_ns: u64 },
    /// PFS server serves `factor`× slower inside the window.
    ServerSlowdown {
        server: usize,
        from_ns: u64,
        until_ns: u64,
        factor: f64,
    },
    /// PFS server accepts no work inside the window.
    ServerStall {
        server: usize,
        from_ns: u64,
        until_ns: u64,
    },
    /// Up to `budget` transient request failures inside the window.
    TransientErrors {
        server: usize,
        from_ns: u64,
        until_ns: u64,
        budget: u64,
    },
    /// Permanent server failure at `at_ns`.
    ServerFailure { server: usize, at_ns: u64 },
    /// Drop up to `budget` matching messages; each retransmitted after
    /// `retransmit_ns`. `None` endpoints match anything.
    MessageDrops {
        src: Option<usize>,
        dst: Option<usize>,
        from_ns: u64,
        until_ns: u64,
        retransmit_ns: u64,
        budget: u64,
    },
    /// Delay up to `budget` matching messages by `extra_ns`.
    MessageDelays {
        src: Option<usize>,
        dst: Option<usize>,
        from_ns: u64,
        until_ns: u64,
        extra_ns: u64,
        budget: u64,
    },
    /// Rank computes `factor`× slower inside the window.
    Straggler {
        rank: usize,
        from_ns: u64,
        until_ns: u64,
        factor: f64,
    },
}

impl FaultEntry {
    /// Canonical one-line fragment (fixed shape, feeds the digest).
    fn canonical(&self, out: &mut String) {
        match self {
            FaultEntry::Crash { at_ns } => {
                let _ = write!(out, "crash@{at_ns}");
            }
            FaultEntry::ServerSlowdown {
                server,
                from_ns,
                until_ns,
                factor,
            } => {
                let _ = write!(out, "slow({server},{from_ns}..{until_ns},x{factor:?})");
            }
            FaultEntry::ServerStall {
                server,
                from_ns,
                until_ns,
            } => {
                let _ = write!(out, "stall({server},{from_ns}..{until_ns})");
            }
            FaultEntry::TransientErrors {
                server,
                from_ns,
                until_ns,
                budget,
            } => {
                let _ = write!(out, "eio({server},{from_ns}..{until_ns},n{budget})");
            }
            FaultEntry::ServerFailure { server, at_ns } => {
                let _ = write!(out, "fail({server}@{at_ns})");
            }
            FaultEntry::MessageDrops {
                src,
                dst,
                from_ns,
                until_ns,
                retransmit_ns,
                budget,
            } => {
                let _ = write!(
                    out,
                    "drop({}->{},{from_ns}..{until_ns},rt{retransmit_ns},n{budget})",
                    endpoint(*src),
                    endpoint(*dst)
                );
            }
            FaultEntry::MessageDelays {
                src,
                dst,
                from_ns,
                until_ns,
                extra_ns,
                budget,
            } => {
                let _ = write!(
                    out,
                    "delay({}->{},{from_ns}..{until_ns},+{extra_ns},n{budget})",
                    endpoint(*src),
                    endpoint(*dst)
                );
            }
            FaultEntry::Straggler {
                rank,
                from_ns,
                until_ns,
                factor,
            } => {
                let _ = write!(out, "straggler({rank},{from_ns}..{until_ns},x{factor:?})");
            }
        }
    }
}

fn endpoint(e: Option<usize>) -> String {
    e.map(|v| v.to_string()).unwrap_or_else(|| "*".to_string())
}

/// Serializable fault schedule: an entry list plus an optional explicit
/// server-count bound (defaults to the platform's server count at build
/// time, so out-of-range server indices are typed errors, not silent
/// no-ops).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSpec {
    pub server_count: Option<usize>,
    pub entries: Vec<FaultEntry>,
}

impl FaultSpec {
    /// Build the runtime [`FaultPlan`]. `platform_servers` bounds
    /// server indices when the spec does not carry its own bound.
    pub fn to_plan(&self, platform_servers: usize) -> Result<FaultPlan, FaultError> {
        let mut plan =
            FaultPlan::new().with_server_count(self.server_count.unwrap_or(platform_servers));
        for e in &self.entries {
            plan = match *e {
                FaultEntry::Crash { at_ns } => plan.with_crash(SimTime(at_ns)),
                FaultEntry::ServerSlowdown {
                    server,
                    from_ns,
                    until_ns,
                    factor,
                } => plan.try_with_server_slowdown(server, window(from_ns, until_ns)?, factor)?,
                FaultEntry::ServerStall {
                    server,
                    from_ns,
                    until_ns,
                } => plan.try_with_server_stall(server, window(from_ns, until_ns)?)?,
                FaultEntry::TransientErrors {
                    server,
                    from_ns,
                    until_ns,
                    budget,
                } => plan.try_with_transient_errors(server, window(from_ns, until_ns)?, budget)?,
                FaultEntry::ServerFailure { server, at_ns } => {
                    plan.try_with_server_failure(server, SimTime(at_ns))?
                }
                FaultEntry::MessageDrops {
                    src,
                    dst,
                    from_ns,
                    until_ns,
                    retransmit_ns,
                    budget,
                } => plan.with_message_drops(
                    src,
                    dst,
                    window(from_ns, until_ns)?,
                    SimDur(retransmit_ns),
                    budget,
                ),
                FaultEntry::MessageDelays {
                    src,
                    dst,
                    from_ns,
                    until_ns,
                    extra_ns,
                    budget,
                } => plan.with_message_delays(
                    src,
                    dst,
                    window(from_ns, until_ns)?,
                    SimDur(extra_ns),
                    budget,
                ),
                FaultEntry::Straggler {
                    rank,
                    from_ns,
                    until_ns,
                    factor,
                } => plan.try_with_straggler(rank, window(from_ns, until_ns)?, factor)?,
            };
        }
        Ok(plan)
    }

    fn canonical(&self, out: &mut String) {
        match self.server_count {
            Some(n) => {
                let _ = write!(out, "servers:{n};");
            }
            None => out.push_str("servers:-;"),
        }
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(';');
            }
            e.canonical(out);
        }
    }
}

fn window(from_ns: u64, until_ns: u64) -> Result<Window, FaultError> {
    Window::try_new(SimTime(from_ns), SimTime(until_ns))
}

/// Serializable mirror of [`RetryPolicy`] (times in virtual ns).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetrySpec {
    pub max_retries: u32,
    pub backoff_ns: u64,
    pub op_timeout_ns: Option<u64>,
    pub failover: bool,
}

impl RetrySpec {
    pub fn to_policy(self) -> RetryPolicy {
        RetryPolicy {
            max_retries: self.max_retries,
            backoff: SimDur(self.backoff_ns),
            op_timeout: self.op_timeout_ns.map(SimDur),
            failover: self.failover,
        }
    }

    fn canonical(&self, out: &mut String) {
        let _ = write!(
            out,
            "retries:{},backoff:{},timeout:{},failover:{}",
            self.max_retries,
            self.backoff_ns,
            self.op_timeout_ns
                .map(|v| v.to_string())
                .unwrap_or_else(|| "-".to_string()),
            self.failover
        );
    }
}

/// A configuration the typed validation pass rejected — each variant is
/// a config the imperative builder path would have panicked on (or run
/// degenerately). The serve layer maps these to HTTP 400.
#[derive(Clone, Debug, PartialEq)]
pub enum SpecError {
    UnknownPlatform(String),
    UnknownStrategy(String),
    /// `nranks == 0`: no rank to run on (the driver expects at least
    /// one per-rank result).
    ZeroRanks,
    /// `dump_every == Some(0)`: the generational path asserts a
    /// positive dump interval.
    ZeroDumpEvery,
    /// `root_n == 0`: an empty root grid has no cells to decompose.
    EmptyRootGrid,
    /// The processor mesh `factor3(nranks)` has an axis wider than the
    /// root grid, so some ranks would own empty slabs.
    DecompWiderThanGrid {
        root_n: u64,
        nranks: usize,
    },
    /// `particle_fraction` outside `[0, 1]` or not finite.
    BadParticleFraction {
        fraction: f64,
    },
    /// `refine_threshold` not finite or not positive.
    BadRefineThreshold {
        threshold: f32,
    },
    /// `max_level` beyond the supported refinement depth.
    MaxLevelTooDeep {
        max_level: u8,
        limit: u8,
    },
    /// The fault schedule was rejected by the `FaultPlan` builders.
    Fault(FaultError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownPlatform(s) => write!(f, "unknown platform {s:?}"),
            SpecError::UnknownStrategy(s) => write!(f, "unknown strategy {s:?}"),
            SpecError::ZeroRanks => write!(f, "nranks must be positive"),
            SpecError::ZeroDumpEvery => write!(f, "dump_every must be positive when set"),
            SpecError::EmptyRootGrid => write!(f, "root_n must be positive"),
            SpecError::DecompWiderThanGrid { root_n, nranks } => write!(
                f,
                "processor mesh {:?} for {nranks} ranks is wider than the {root_n}^3 root grid",
                factor3(*nranks)
            ),
            SpecError::BadParticleFraction { fraction } => {
                write!(f, "particle_fraction must be in [0, 1]: {fraction}")
            }
            SpecError::BadRefineThreshold { threshold } => {
                write!(
                    f,
                    "refine_threshold must be finite and positive: {threshold}"
                )
            }
            SpecError::MaxLevelTooDeep { max_level, limit } => {
                write!(
                    f,
                    "max_level {max_level} exceeds the supported depth {limit}"
                )
            }
            SpecError::Fault(e) => write!(f, "fault schedule: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<FaultError> for SpecError {
    fn from(e: FaultError) -> SpecError {
        SpecError::Fault(e)
    }
}

impl SpecError {
    /// Stable machine-readable variant name (wire `error_kind`).
    pub fn kind(&self) -> &'static str {
        match self {
            SpecError::UnknownPlatform(_) => "unknown-platform",
            SpecError::UnknownStrategy(_) => "unknown-strategy",
            SpecError::ZeroRanks => "zero-ranks",
            SpecError::ZeroDumpEvery => "zero-dump-every",
            SpecError::EmptyRootGrid => "empty-root-grid",
            SpecError::DecompWiderThanGrid { .. } => "decomp-wider-than-grid",
            SpecError::BadParticleFraction { .. } => "bad-particle-fraction",
            SpecError::BadRefineThreshold { .. } => "bad-refine-threshold",
            SpecError::MaxLevelTooDeep { .. } => "max-level-too-deep",
            SpecError::Fault(_) => "fault-schedule",
        }
    }
}

/// Deepest refinement level the spec accepts. The hierarchy machinery
/// is recursive; this bound keeps a hostile spec from requesting an
/// absurd refinement depth through the wire.
pub const MAX_LEVEL_LIMIT: u8 = 8;

/// The plain-data description of one experiment run. See the module
/// docs; field defaults (from [`ExperimentSpec::new`]) match
/// [`SimConfig::new`] plus one evolve cycle.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentSpec {
    pub platform: PlatformId,
    pub strategy: StrategyId,
    /// Cubic root-grid edge length (64/128/256 select the paper's
    /// problem sizes; anything else is a custom size).
    pub root_n: u64,
    pub nranks: usize,
    /// Evolve cycles between init and the (final) checkpoint.
    pub cycles: u32,
    pub max_level: u8,
    pub refine_threshold: f32,
    pub seed: u64,
    pub particle_fraction: f64,
    pub check: CheckMode,
    pub probe: bool,
    /// Dump (and atomically commit) a generation every `k` cycles.
    pub dump_every: Option<u32>,
    pub faults: Option<FaultSpec>,
    pub retry: Option<RetrySpec>,
    pub advisory: Option<Advisory>,
}

impl ExperimentSpec {
    /// A spec with the same defaults the imperative path uses:
    /// [`SimConfig::new`]'s tuning plus one evolve cycle, checker off.
    pub fn new(platform: PlatformId, strategy: StrategyId, root_n: u64, nranks: usize) -> Self {
        let d = SimConfig::new(ProblemSize::Custom(root_n), nranks);
        ExperimentSpec {
            platform,
            strategy,
            root_n,
            nranks,
            cycles: 1,
            max_level: d.max_level,
            refine_threshold: d.refine_threshold,
            seed: d.seed,
            particle_fraction: d.particle_fraction,
            check: CheckMode::Off,
            probe: false,
            dump_every: None,
            faults: None,
            retry: None,
            advisory: None,
        }
    }

    /// Map `root_n` onto the paper's named problem sizes where they
    /// exist, so spec-built runs report the same labels as the
    /// imperative benches.
    pub fn problem(&self) -> ProblemSize {
        match self.root_n {
            64 => ProblemSize::Amr64,
            128 => ProblemSize::Amr128,
            256 => ProblemSize::Amr256,
            n => ProblemSize::Custom(n),
        }
    }

    /// The [`SimConfig`] this spec describes.
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::new(self.problem(), self.nranks);
        cfg.max_level = self.max_level;
        cfg.refine_threshold = self.refine_threshold;
        cfg.seed = self.seed;
        cfg.particle_fraction = self.particle_fraction;
        cfg
    }

    /// Typed validation of every constraint the imperative builder path
    /// would panic on (or run degenerately). Returns the first
    /// violation in a fixed field order.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.nranks == 0 {
            return Err(SpecError::ZeroRanks);
        }
        if self.root_n == 0 {
            return Err(SpecError::EmptyRootGrid);
        }
        let mesh = factor3(self.nranks);
        if mesh.iter().any(|&m| m > self.root_n) {
            return Err(SpecError::DecompWiderThanGrid {
                root_n: self.root_n,
                nranks: self.nranks,
            });
        }
        if self.dump_every == Some(0) {
            return Err(SpecError::ZeroDumpEvery);
        }
        if !self.particle_fraction.is_finite() || !(0.0..=1.0).contains(&self.particle_fraction) {
            return Err(SpecError::BadParticleFraction {
                fraction: self.particle_fraction,
            });
        }
        if !self.refine_threshold.is_finite() || self.refine_threshold <= 0.0 {
            return Err(SpecError::BadRefineThreshold {
                threshold: self.refine_threshold,
            });
        }
        if self.max_level > MAX_LEVEL_LIMIT {
            return Err(SpecError::MaxLevelTooDeep {
                max_level: self.max_level,
                limit: MAX_LEVEL_LIMIT,
            });
        }
        if let Some(faults) = &self.faults {
            let platform = self.platform.build(self.nranks);
            faults.to_plan(platform.fs.nservers)?;
        }
        Ok(())
    }

    /// The canonical encoding: every field (and every nested fault,
    /// retry and advisory knob) as one `key=value` line in a fixed
    /// order. Equal encodings ⇔ identical specs; the encoding is
    /// independent of how the spec was constructed or decoded.
    pub fn canonical_string(&self) -> String {
        let mut s = String::with_capacity(256);
        let _ = writeln!(s, "amrio-spec=1");
        let _ = writeln!(s, "platform={}", self.platform);
        let _ = writeln!(s, "strategy={}", self.strategy);
        let _ = writeln!(s, "root_n={}", self.root_n);
        let _ = writeln!(s, "nranks={}", self.nranks);
        let _ = writeln!(s, "cycles={}", self.cycles);
        let _ = writeln!(s, "max_level={}", self.max_level);
        let _ = writeln!(s, "refine_threshold={:?}", self.refine_threshold);
        let _ = writeln!(s, "seed={}", self.seed);
        let _ = writeln!(s, "particle_fraction={:?}", self.particle_fraction);
        let _ = writeln!(s, "check={}", check_mode_str(self.check));
        let _ = writeln!(s, "probe={}", self.probe);
        match self.dump_every {
            Some(k) => {
                let _ = writeln!(s, "dump_every={k}");
            }
            None => {
                let _ = writeln!(s, "dump_every=-");
            }
        }
        s.push_str("retry=");
        match &self.retry {
            Some(r) => r.canonical(&mut s),
            None => s.push('-'),
        }
        s.push('\n');
        s.push_str("advisory=");
        match &self.advisory {
            Some(a) => canonical_advisory(a, &mut s),
            None => s.push('-'),
        }
        s.push('\n');
        s.push_str("faults=");
        match &self.faults {
            Some(f) => f.canonical(&mut s),
            None => s.push('-'),
        }
        s.push('\n');
        s
    }

    /// FNV-1a over [`canonical_string`](Self::canonical_string) — the
    /// memoizing run cache's key. Because runs are deterministic, equal
    /// digests imply byte-identical `image_digest`s.
    pub fn canonical_digest(&self) -> u64 {
        fnv1a_once(self.canonical_string().as_bytes())
    }
}

/// Canonical wire/digest token for a [`CheckMode`].
pub fn check_mode_str(m: CheckMode) -> &'static str {
    match m {
        CheckMode::Off => "off",
        CheckMode::Log => "log",
        CheckMode::Strict => "strict",
    }
}

fn canonical_advisory(a: &Advisory, out: &mut String) {
    out.push_str("hints:");
    match &a.hints {
        Some(h) => canonical_hints(h, out),
        None => out.push('-'),
    }
    let _ = write!(
        out,
        ",wb:{},stripe:{}",
        a.write_behind
            .map(|v| v.to_string())
            .unwrap_or_else(|| "-".to_string()),
        a.app_stripe
            .map(|v| v.to_string())
            .unwrap_or_else(|| "-".to_string()),
    );
}

fn canonical_hints(h: &Hints, out: &mut String) {
    let _ = write!(
        out,
        "{{cb_nodes:{},cb_buf:{},ds_read:{},ds_write:{},sieve:{},align:{},cb_write:{},cb_read:{}}}",
        h.cb_nodes
            .map(|v| v.to_string())
            .unwrap_or_else(|| "-".to_string()),
        h.cb_buffer_size,
        h.ds_read,
        h.ds_write,
        h.sieve_buffer_size,
        h.align_file_domains,
        h.cb_write,
        h.cb_read
    );
}

/// An owned, validated, runnable experiment built from an
/// [`ExperimentSpec`] — the spec plus the platform, config and strategy
/// objects it names. One source of truth for the CLI benches, the
/// integration tests and the `amrio-serve` wire.
pub struct SpecExperiment {
    spec: ExperimentSpec,
    platform: Platform,
    cfg: SimConfig,
    strategy: Box<dyn IoStrategy>,
}

impl SpecExperiment {
    pub fn spec(&self) -> &ExperimentSpec {
        &self.spec
    }

    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    pub fn cfg(&self) -> &SimConfig {
        &self.cfg
    }

    /// Execute one run. Fault plans are rebuilt per call, so repeated
    /// runs of the same `SpecExperiment` start from zero resilience
    /// counters and stay bit-identical.
    pub fn run(&self) -> RunOutcome {
        let mut e =
            Experiment::new(&self.platform, &self.cfg, &*self.strategy).cycles(self.spec.cycles);
        if self.spec.check != CheckMode::Off {
            e = e.check(self.spec.check);
        }
        if self.spec.probe {
            e = e.probe();
        }
        let plan = self.spec.faults.as_ref().map(|f| {
            Arc::new(
                f.to_plan(self.platform.fs.nservers)
                    .expect("validated at from_spec time"),
            )
        });
        if let Some(p) = plan {
            e = e.faults(p);
        }
        if let Some(r) = self.spec.retry {
            e = e.retry_policy(r.to_policy());
        }
        if let Some(a) = self.spec.advisory {
            e = e.advisory(a);
        }
        if let Some(k) = self.spec.dump_every {
            e = e.dump_every(NonZeroU32::new(k).expect("validated at from_spec time"));
        }
        e.run()
    }
}

impl Experiment<'_> {
    /// Validate `spec` and build the owned, runnable experiment it
    /// describes. This is the data-driven entry point; the borrowing
    /// builder remains for imperative callers that hold their own
    /// platform/config/strategy.
    pub fn from_spec(spec: &ExperimentSpec) -> Result<SpecExperiment, SpecError> {
        spec.validate()?;
        Ok(SpecExperiment {
            platform: spec.platform.build(spec.nranks),
            cfg: spec.sim_config(),
            strategy: spec.strategy.build(),
            spec: spec.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentSpec {
        let mut s = ExperimentSpec::new(PlatformId::Origin2000, StrategyId::MpiIoOptimized, 16, 4);
        s.particle_fraction = 0.5;
        s
    }

    #[test]
    fn ids_round_trip_by_name() {
        for p in PlatformId::ALL {
            assert_eq!(PlatformId::parse(p.as_str()).unwrap(), p);
        }
        for s in StrategyId::ALL {
            assert_eq!(StrategyId::parse(s.as_str()).unwrap(), s);
        }
        assert!(matches!(
            PlatformId::parse("cray-t3e"),
            Err(SpecError::UnknownPlatform(_))
        ));
        assert!(matches!(
            StrategyId::parse("netcdf"),
            Err(SpecError::UnknownStrategy(_))
        ));
    }

    #[test]
    fn rejects_zero_ranks() {
        let mut s = tiny();
        s.nranks = 0;
        assert_eq!(s.validate(), Err(SpecError::ZeroRanks));
    }

    #[test]
    fn rejects_zero_dump_every() {
        let mut s = tiny();
        s.dump_every = Some(0);
        assert_eq!(s.validate(), Err(SpecError::ZeroDumpEvery));
    }

    #[test]
    fn rejects_empty_root_grid() {
        let mut s = tiny();
        s.root_n = 0;
        assert_eq!(s.validate(), Err(SpecError::EmptyRootGrid));
    }

    #[test]
    fn rejects_decomposition_wider_than_grid() {
        let mut s = tiny();
        s.root_n = 2;
        s.nranks = 27; // factor3(27) = [3,3,3] > 2 on every axis
        assert_eq!(
            s.validate(),
            Err(SpecError::DecompWiderThanGrid {
                root_n: 2,
                nranks: 27
            })
        );
    }

    #[test]
    fn rejects_bad_particle_fraction() {
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let mut s = tiny();
            s.particle_fraction = bad;
            assert!(
                matches!(s.validate(), Err(SpecError::BadParticleFraction { .. })),
                "fraction {bad} must be rejected"
            );
        }
    }

    #[test]
    fn rejects_bad_refine_threshold() {
        for bad in [0.0f32, -1.0, f32::NAN] {
            let mut s = tiny();
            s.refine_threshold = bad;
            assert!(matches!(
                s.validate(),
                Err(SpecError::BadRefineThreshold { .. })
            ));
        }
    }

    #[test]
    fn rejects_too_deep_refinement() {
        let mut s = tiny();
        s.max_level = MAX_LEVEL_LIMIT + 1;
        assert!(matches!(
            s.validate(),
            Err(SpecError::MaxLevelTooDeep { .. })
        ));
    }

    #[test]
    fn rejects_fault_server_out_of_range() {
        let mut s = tiny();
        // origin2000's XFS model has a bounded server count; index 999
        // is out of range on every platform.
        s.faults = Some(FaultSpec {
            server_count: None,
            entries: vec![FaultEntry::ServerFailure {
                server: 999,
                at_ns: 10,
            }],
        });
        assert!(matches!(
            s.validate(),
            Err(SpecError::Fault(FaultError::ServerOutOfRange { .. }))
        ));
    }

    #[test]
    fn rejects_inverted_fault_window() {
        let mut s = tiny();
        s.faults = Some(FaultSpec {
            server_count: None,
            entries: vec![FaultEntry::ServerStall {
                server: 0,
                from_ns: 10,
                until_ns: 5,
            }],
        });
        assert!(matches!(
            s.validate(),
            Err(SpecError::Fault(FaultError::InvertedWindow { .. }))
        ));
    }

    #[test]
    fn canonical_digest_is_stable_and_field_sensitive() {
        let base = tiny();
        assert_eq!(base.canonical_digest(), tiny().canonical_digest());
        // Every top-level perturbation must move the digest.
        let mut variants: Vec<ExperimentSpec> = Vec::new();
        let mut v = base.clone();
        v.platform = PlatformId::IbmSp2;
        variants.push(v);
        let mut v = base.clone();
        v.strategy = StrategyId::Hdf4Serial;
        variants.push(v);
        let mut v = base.clone();
        v.root_n = 32;
        variants.push(v);
        let mut v = base.clone();
        v.nranks = 8;
        variants.push(v);
        let mut v = base.clone();
        v.cycles = 2;
        variants.push(v);
        let mut v = base.clone();
        v.seed = 1;
        variants.push(v);
        let mut v = base.clone();
        v.check = CheckMode::Strict;
        variants.push(v);
        let mut v = base.clone();
        v.dump_every = Some(1);
        variants.push(v);
        let d0 = base.canonical_digest();
        for v in variants {
            assert_ne!(v.canonical_digest(), d0, "digest blind to {v:?}");
        }
    }

    #[test]
    fn from_spec_builds_matching_config() {
        let s = tiny();
        let e = Experiment::from_spec(&s).unwrap();
        assert_eq!(e.cfg().nranks, 4);
        assert_eq!(e.cfg().root_n(), 16);
        assert_eq!(e.cfg().particle_fraction, 0.5);
        assert_eq!(e.platform().name, "SGI-Origin2000/XFS");
    }

    #[test]
    fn named_problem_sizes_round_trip() {
        let mut s = tiny();
        s.root_n = 64;
        assert_eq!(s.problem(), ProblemSize::Amr64);
        assert_eq!(s.problem().label(), "AMR64");
        s.root_n = 48;
        assert_eq!(s.problem(), ProblemSize::Custom(48));
    }
}
