//! `amrio-bench` — the experiment harness that regenerates every table
//! and figure of the paper. Each `src/bin/*` binary prints one
//! table/figure; `cargo run -p amrio-bench --bin all` runs everything.

#![forbid(unsafe_code)]

use amrio_enzo::spec::{ExperimentSpec, PlatformId, StrategyId};
use amrio_enzo::{Experiment, IoStrategy, Platform, ProblemSize, RunReport, SimConfig};
use amrio_serve::json::Json;
use amrio_serve::wire::report_to_json;

/// Evolution cycles before the timed dump (enough to grow a refinement
/// hierarchy and scatter particles irregularly).
pub const EVOLVE_CYCLES: u32 = 2;

pub fn default_cfg(problem: ProblemSize, nranks: usize) -> SimConfig {
    SimConfig::new(problem, nranks)
}

/// The spec for one bench cell: platform x problem x strategy with the
/// harness's standard cycle count. This is the same document a client
/// would `POST /run` to reproduce the cell through `amrio-serve`.
pub fn cell_spec(
    platform: PlatformId,
    problem: ProblemSize,
    nranks: usize,
    strategy: StrategyId,
) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(platform, strategy, problem.root_n(), nranks);
    spec.cycles = EVOLVE_CYCLES;
    spec
}

/// Run one experiment cell by spec — the one construction path shared
/// with the serve layer and the integration tests.
pub fn run_cell(
    platform: PlatformId,
    problem: ProblemSize,
    nranks: usize,
    strategy: StrategyId,
) -> RunReport {
    Experiment::from_spec(&cell_spec(platform, problem, nranks, strategy))
        .expect("bench cell spec must validate")
        .run()
        .report
}

/// Run a cell whose platform or strategy cannot be named by a spec —
/// ablations with hand-built `OverheadModel`s or mutated platform
/// parameters (stripe sweeps). Everything nameable goes through
/// [`run_cell`].
pub fn run_cell_custom(
    platform: &Platform,
    problem: ProblemSize,
    nranks: usize,
    strategy: &dyn IoStrategy,
) -> RunReport {
    let cfg = default_cfg(problem, nranks);
    Experiment::new(platform, &cfg, strategy)
        .cycles(EVOLVE_CYCLES)
        .run()
        .report
}

/// Pretty-print a block of reports as a figure-style table.
pub fn print_reports(title: &str, reports: &[RunReport]) {
    println!("\n== {title} ==");
    println!(
        "{:<24} {:>8} {:>6} {:>14} {:>12} {:>12} {:>10} {:>10} {:>6}",
        "platform",
        "problem",
        "procs",
        "strategy",
        "write[s]",
        "read[s]",
        "MB-write",
        "MB-read",
        "ok"
    );
    for r in reports {
        println!(
            "{:<24} {:>8} {:>6} {:>14} {:>12.3} {:>12.3} {:>10.1} {:>10.1} {:>6}",
            r.platform,
            r.problem,
            r.nranks,
            r.strategy,
            r.write_time,
            r.read_time,
            r.bytes_written as f64 / 1e6,
            r.bytes_read as f64 / 1e6,
            if r.verified { "yes" } else { "NO" }
        );
    }
}

/// Write reports as CSV rows to `results/<name>.csv` (creating the dir).
pub fn write_csv(name: &str, reports: &[RunReport]) {
    use std::io::Write;
    std::fs::create_dir_all("results").ok();
    let path = format!("results/{name}.csv");
    let mut f = std::fs::File::create(&path).expect("create results csv");
    writeln!(
        f,
        "platform,problem,procs,strategy,write_s,read_s,bytes_written,bytes_read,grids,verified"
    )
    .unwrap();
    for r in reports {
        writeln!(
            f,
            "{},{},{},{},{:.6},{:.6},{},{},{},{}",
            r.platform,
            r.problem,
            r.nranks,
            r.strategy,
            r.write_time,
            r.read_time,
            r.bytes_written,
            r.bytes_read,
            r.grids,
            r.verified
        )
        .unwrap();
    }
    println!("(wrote {path})");
}

/// Write reports as a JSON array to `results/<name>.json` — the same
/// per-report shape (`amrio_serve::wire::report_to_json`) the serve
/// layer returns, so figures, tests and the service speak one format.
pub fn write_json(name: &str, reports: &[RunReport]) {
    std::fs::create_dir_all("results").ok();
    let path = format!("results/{name}.json");
    let doc = Json::Arr(reports.iter().map(report_to_json).collect());
    std::fs::write(&path, doc.pretty()).expect("write results json");
    println!("(wrote {path})");
}

// ---------------------------------------------------------------------------
// Crash-point sweep (crash-consistency fuzzing)

/// One cell of the crash-point sweep: a deterministic crash armed at
/// `crash_ns` of virtual time during a generational (dump-every-cycle)
/// run under the strict checker, with the recovery outcome.
#[derive(Debug, Clone)]
pub struct CrashCell {
    pub crash_ns: u64,
    /// Position of the crash inside the clean run's makespan, in [0, 1].
    pub frac: f64,
    /// Whether the crash actually fired — a crash armed after the last
    /// file-system submission never triggers.
    pub fired: bool,
    pub crashes: u64,
    pub resumed_generation: Option<u32>,
    pub resumed_cycle: u64,
    pub torn_generations: u64,
    pub resume_verified: bool,
    pub verified: bool,
    pub check_clean: bool,
    /// Final image digest equals the clean generational run's.
    pub image_match: bool,
    pub makespan: f64,
}

/// splitmix64 — the sweeps' only entropy source, fully seeded so the
/// committed CSVs reproduce bit for bit.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Sweep seeded crash points across a generational run's makespan: one
/// jittered crash time per sub-interval, each applied to a fresh
/// strict-checked run. Returns the clean generational report (the
/// byte-identity baseline) and one [`CrashCell`] per point.
pub fn crash_sweep(
    platform: &Platform,
    cfg: &SimConfig,
    strategy: &dyn IoStrategy,
    points: usize,
    seed: u64,
) -> (RunReport, Vec<CrashCell>) {
    use amrio_check::CheckMode;
    use amrio_fault::FaultPlan;
    use amrio_simt::SimTime;
    use std::num::NonZeroU32;
    use std::sync::Arc;

    let clean = Experiment::new(platform, cfg, strategy)
        .cycles(EVOLVE_CYCLES)
        .dump_every(NonZeroU32::new(1).unwrap())
        .check(CheckMode::Strict)
        .run();
    assert!(clean.report.verified, "clean generational run must verify");
    let span = (clean.report.makespan * 1.0e9) as u64;

    let mut rng = seed;
    let mut cells = Vec::with_capacity(points);
    for i in 0..points {
        let lo = span * i as u64 / points as u64;
        let hi = span * (i as u64 + 1) / points as u64;
        let t = SimTime((lo + splitmix64(&mut rng) % (hi - lo).max(1)).max(1));

        let plan = Arc::new(FaultPlan::new().with_crash(t));
        let out = Experiment::new(platform, cfg, strategy)
            .cycles(EVOLVE_CYCLES)
            .dump_every(NonZeroU32::new(1).unwrap())
            .check(CheckMode::Strict)
            .faults(plan)
            .run();
        let rec = out.recovery.as_ref();
        cells.push(CrashCell {
            crash_ns: t.0,
            frac: t.0 as f64 / span.max(1) as f64,
            fired: rec.is_some(),
            crashes: rec.map_or(0, |r| r.crashes),
            resumed_generation: rec.and_then(|r| r.resumed_generation),
            resumed_cycle: rec.map_or(0, |r| r.resumed_cycle),
            torn_generations: rec.map_or(0, |r| r.torn_generations),
            resume_verified: rec.is_none_or(|r| r.resume_verified),
            verified: out.report.verified,
            check_clean: out.check.as_ref().is_some_and(|c| c.is_clean()),
            image_match: out.report.image_digest == clean.report.image_digest,
            makespan: out.report.makespan,
        });
    }
    (clean.report, cells)
}
