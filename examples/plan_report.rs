//! `amrio-plan` in action: for each I/O backend, extract the static
//! access plan from an experiment configuration, prove exact-once
//! coverage and (with `amrio-verify`'s vector clocks) collective
//! lockstep, diff the plan against a strict-mode checked run
//! (plan↔trace conformance), and print the layout-quality metrics.
//!
//! Exits non-zero if any proof or conformance check fails — the CI gate
//! (`scripts/ci.sh`) runs this as the planner's self-verification.
//!
//! ```sh
//! cargo run --release --example plan_report
//! ```

use amrio::check::CheckMode;
use amrio::enzo::{
    Experiment, Hdf4Serial, Hdf5Parallel, IoStrategy, MpiIoOptimized, Platform, ProblemSize,
    SimConfig,
};
use amrio::hdf5::OverheadModel;
use amrio::plan::{check_conformance, layout_metrics, plan, verify_exact_once, Backend, PlanInput};
use amrio::verify::clock;

fn cfg(problem: ProblemSize, nranks: usize) -> SimConfig {
    let mut c = SimConfig::new(problem, nranks);
    c.particle_fraction = 0.5;
    c.refine_threshold = 3.0;
    c
}

fn backends() -> [(&'static str, Backend); 3] {
    [
        ("Hdf4Serial", Backend::Hdf4),
        ("MpiIoOptimized", Backend::MpiIo),
        ("Hdf5Parallel", Backend::Hdf5(OverheadModel::default())),
    ]
}

fn strategy_for(name: &str) -> Box<dyn IoStrategy> {
    match name {
        "Hdf4Serial" => Box::new(Hdf4Serial),
        "MpiIoOptimized" => Box::new(MpiIoOptimized),
        _ => Box::new(Hdf5Parallel::default()),
    }
}

/// One config cell: probe a strict checked run per backend, then prove
/// the static plan and diff it against the observed trace.
fn report(problem: ProblemSize, nranks: usize) -> bool {
    let platform = Platform::origin2000(nranks);
    let cfg = cfg(problem, nranks);
    println!("\n-- {} x {nranks} ranks --", problem.label());
    let mut ok = true;
    for (name, backend) in backends() {
        let strategy = strategy_for(name);
        let out = Experiment::new(&platform, &cfg, strategy.as_ref())
            .cycles(1)
            .check(CheckMode::Strict)
            .probe()
            .run();
        let (check, probe) = (
            out.check.expect("checker was attached"),
            out.probe.expect("probe was requested"),
        );
        if !check.is_clean() {
            println!("  {name}: CHECKER VIOLATIONS\n{check}");
            ok = false;
            continue;
        }
        let input = PlanInput::from_probe(&probe, &platform.fs);
        let p = plan(&input, backend);
        let cov = verify_exact_once(&p);
        let lock = clock::analyze(&p).diagnostics;
        let conf = check_conformance(&p, &probe);
        let proven = cov.is_proven() && lock.is_empty() && conf.is_empty();
        println!(
            "  {:<14} exact-once={} ({} datasets, {} B covered)  lockstep={}  conformance={}",
            p.backend,
            if cov.is_proven() { "proven" } else { "FAILED" },
            cov.datasets,
            cov.covered_bytes,
            if lock.is_empty() { "ok" } else { "BROKEN" },
            if conf.is_empty() {
                "0 divergences".to_string()
            } else {
                format!("{} DIVERGENCES", conf.len())
            },
        );
        println!("  {:<14} {}", "", layout_metrics(&input, &p));
        for d in cov.diagnostics.iter().chain(&lock).chain(&conf) {
            println!("    !! {d}");
        }
        ok &= proven;
    }
    ok
}

fn main() {
    let mut ok = true;
    ok &= report(ProblemSize::Custom(16), 4);
    ok &= report(ProblemSize::Custom(32), 8);
    ok &= report(ProblemSize::Custom(16), 1);
    if ok {
        println!("\nplan_report: all plans proven, all traces conform");
    } else {
        println!("\nplan_report: FAILURES (see above)");
        std::process::exit(1);
    }
}
