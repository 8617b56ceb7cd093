//! Crash-point fuzzing: arm a deterministic whole-machine crash at
//! seeded points across a generational run's makespan and require the
//! atomic-commit + restart-from-latest protocol to hold at every one —
//! the recovery scanner picks a committed generation (or restarts from
//! scratch when nothing committed), the restarted run completes under
//! the strict checker, and the final image is byte-identical to the
//! crash-free generational run.
//!
//! The sweep covers all three I/O strategies and writes
//! `results/crash.csv`; CI runs it and requires the committed CSV to
//! regenerate byte-identically.

use amrio_bench::{crash_sweep, CrashCell};
use amrio_enzo::{
    Hdf4Serial, Hdf5Parallel, IoStrategy, MpiIoOptimized, Platform, ProblemSize, RunReport,
    SimConfig,
};

const NRANKS: usize = 4;
const ROOT_N: u64 = 16;
const POINTS: usize = 16;
const SEED: u64 = 0x0c0a_57a1_c0de_cafe;

struct Sweep {
    clean: RunReport,
    cells: Vec<CrashCell>,
}

fn run_sweeps() -> Vec<Sweep> {
    let platform = Platform::ibm_sp2(NRANKS);
    let cfg = SimConfig::new(ProblemSize::Custom(ROOT_N), NRANKS);
    let hdf5 = Hdf5Parallel::default();
    let strategies: [&dyn IoStrategy; 3] = [&Hdf4Serial, &MpiIoOptimized, &hdf5];
    strategies
        .into_iter()
        .map(|s| {
            let (clean, cells) = crash_sweep(&platform, &cfg, s, POINTS, SEED);
            Sweep { clean, cells }
        })
        .collect()
}

fn print_sweeps(sweeps: &[Sweep]) {
    println!(
        "\n== Crash-point sweep on {} ({} points/strategy) ==",
        sweeps[0].clean.platform,
        sweeps[0].cells.len()
    );
    println!(
        "{:<14} {:>6} {:>12} {:>6} {:>7} {:>7} {:>5} {:>7} {:>9} {:>6} {:>6}",
        "strategy",
        "frac",
        "crash[ns]",
        "fired",
        "resume",
        "cycle",
        "torn",
        "rverify",
        "makespan",
        "ok",
        "image"
    );
    for s in sweeps {
        for c in &s.cells {
            println!(
                "{:<14} {:>6.3} {:>12} {:>6} {:>7} {:>7} {:>5} {:>7} {:>9.3} {:>6} {:>6}",
                s.clean.strategy,
                c.frac,
                c.crash_ns,
                if c.fired { "yes" } else { "no" },
                c.resumed_generation
                    .map_or_else(|| "-".into(), |g| g.to_string()),
                c.resumed_cycle,
                c.torn_generations,
                if c.resume_verified { "yes" } else { "NO" },
                c.makespan,
                if c.verified && c.check_clean {
                    "yes"
                } else {
                    "NO"
                },
                if c.image_match { "yes" } else { "NO" }
            );
        }
    }
}

fn write_csv(sweeps: &[Sweep]) {
    use std::io::Write;
    std::fs::create_dir_all("results").ok();
    let path = "results/crash.csv";
    let mut f = std::fs::File::create(path).expect("create results csv");
    writeln!(
        f,
        "platform,problem,procs,strategy,crash_ns,crash_frac,fired,crashes,\
         resumed_generation,resumed_cycle,torn_generations,resume_verified,\
         verified,check_clean,image_match,makespan_s,clean_makespan_s"
    )
    .unwrap();
    for s in sweeps {
        for c in &s.cells {
            writeln!(
                f,
                "{},{},{},{},{},{:.6},{},{},{},{},{},{},{},{},{},{:.6},{:.6}",
                s.clean.platform,
                s.clean.problem,
                s.clean.nranks,
                s.clean.strategy,
                c.crash_ns,
                c.frac,
                c.fired,
                c.crashes,
                c.resumed_generation.map_or(-1, |g| g as i64),
                c.resumed_cycle,
                c.torn_generations,
                c.resume_verified,
                c.verified,
                c.check_clean,
                c.image_match,
                c.makespan,
                s.clean.makespan
            )
            .unwrap();
        }
    }
    println!("(wrote {path})");
}

fn main() {
    let sweeps = run_sweeps();
    print_sweeps(&sweeps);
    write_csv(&sweeps);

    // Gate: every cell must verify bit-for-bit under the strict
    // checker; every fired crash must resume from a manifest-verified
    // state; and the sweep must actually exercise both a firing crash
    // and a restart from a committed generation.
    let mut failed = false;
    let all: Vec<&CrashCell> = sweeps.iter().flat_map(|s| &s.cells).collect();
    for (s, c) in sweeps
        .iter()
        .flat_map(|s| s.cells.iter().map(move |c| (s, c)))
    {
        let strategy = s.clean.strategy;
        if !c.verified || !c.check_clean || !c.image_match {
            eprintln!(
                "FAIL: {strategy} crash@{}ns verified={} check_clean={} image_match={}",
                c.crash_ns, c.verified, c.check_clean, c.image_match
            );
            failed = true;
        }
        if c.fired && !c.resume_verified {
            eprintln!(
                "FAIL: {strategy} crash@{}ns resumed state did not match its manifest",
                c.crash_ns
            );
            failed = true;
        }
    }
    if !all.iter().any(|c| c.fired) {
        eprintln!("FAIL: no crash point fired — the sweep tested nothing");
        failed = true;
    }
    if !all.iter().any(|c| c.resumed_generation.is_some()) {
        eprintln!("FAIL: no crash recovered from a committed generation");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("crash: OK");
}
