//! `amrio-verify` differential gate: the static happens-before verdict
//! against the strict runtime checker, on every shipped platform ×
//! backend preset and on the full seeded mutation corpus.
//!
//! Three gates, all enforced with a non-zero exit:
//!
//! 1. **Preset gate** — every shipped platform × backend plan must
//!    verify `Safe`, its replay through the real runtime checker must
//!    be clean, and the strict-checked experiment itself must run
//!    clean. One static false positive on shipped code fails the gate
//!    (typed `Unknown` is the only admissible "can't prove it").
//! 2. **Corpus gate** — every seeded mutation must be flagged
//!    statically with the expected kind, and every plan-level mutation
//!    must also reproduce under the replayed runtime checker with all
//!    of its runtime violation kinds covered by the static report:
//!    **zero false negatives** at kind granularity.
//! 3. **Cost gate** — the cumulative static analysis wall-clock must be
//!    at least 10x cheaper than the cumulative strict simulation
//!    wall-clock over the same cells.
//!
//! Verdicts are written to `results/verify.csv`, which reproduces byte
//! for byte; the host wall-clock times behind the cost gate go to
//! stdout only.
//!
//! ```sh
//! cargo run --release -p amrio-bench --bin verify
//! ```

use amrio_bench::EVOLVE_CYCLES;
use amrio_check::CheckMode;
use amrio_enzo::{
    Experiment, Hdf4Serial, Hdf5Parallel, IoStrategy, MpiIoOptimized, Platform, ProblemSize,
    RunProbe, SimConfig,
};
use amrio_hdf5::OverheadModel;
use amrio_plan::{plan, Backend, PlanInput};
use amrio_verify::mutate::corpus;
use amrio_verify::{replay, runtime_kind, verify, Verdict, VerifyInput};
use std::io::Write as _;
use std::time::Instant;

const NRANKS: usize = 4;
const PROBLEM: ProblemSize = ProblemSize::Custom(16);

fn probe_cell(platform: &Platform) -> RunProbe {
    let cfg = SimConfig::new(PROBLEM, NRANKS);
    Experiment::new(platform, &cfg, &MpiIoOptimized)
        .cycles(EVOLVE_CYCLES)
        .probe()
        .run()
        .probe
        .expect("probe requested")
}

struct Row {
    cell: String,
    verdict: String,
    detail: String,
    ok: bool,
}

/// Preset gate over one platform: each backend's plan must verify Safe,
/// replay clean, and run clean under the strict checker.
fn preset_cells(platform: &Platform, rows: &mut Vec<Row>) -> (bool, f64, f64) {
    let backends: [(Backend, &dyn IoStrategy); 3] = [
        (Backend::Hdf4, &Hdf4Serial),
        (Backend::MpiIo, &MpiIoOptimized),
        (
            Backend::Hdf5(OverheadModel::default()),
            &Hdf5Parallel::default(),
        ),
    ];
    let probe = probe_cell(platform);
    let input = PlanInput::from_probe(&probe, &platform.fs);
    let cfg = SimConfig::new(PROBLEM, NRANKS);

    let mut ok = true;
    let mut static_s = 0.0f64;
    let mut sim_s = 0.0f64;
    for (backend, strategy) in backends {
        let p = plan(&input, backend);

        let t0 = Instant::now();
        let report = verify(&VerifyInput::plain(&p, &input.hints, &platform.fs));
        let static_wall = t0.elapsed().as_secs_f64();
        static_s += static_wall;

        let runtime = replay(&p, &input.hints, &platform.fs, CheckMode::Log);

        let t1 = Instant::now();
        let strict = Experiment::new(platform, &cfg, strategy)
            .cycles(EVOLVE_CYCLES)
            .check(CheckMode::Strict)
            .run();
        let sim_wall = t1.elapsed().as_secs_f64();
        sim_s += sim_wall;

        let safe = report.verdict() == Verdict::Safe;
        let replay_clean = runtime.is_clean();
        let strict_clean = strict.check.as_ref().map(|c| c.is_clean()).unwrap_or(false);
        let cell_ok = safe && replay_clean && strict_clean && strict.report.verified;
        println!(
            "  {:<24} {:<8} static {:<9} replay {:<6} strict {:<6} ({:>7.1} µs static vs {:>8.1} ms sim)",
            platform.name,
            p.backend,
            report.verdict().to_string(),
            if replay_clean { "clean" } else { "DIRTY" },
            if strict_clean { "clean" } else { "DIRTY" },
            static_wall * 1e6,
            sim_wall * 1e3,
        );
        if !safe {
            print!("{report}");
        }
        rows.push(Row {
            cell: format!("{}/{}", platform.name, p.backend),
            verdict: report.verdict().to_string(),
            detail: format!(
                "pairs={}o/{}d/{}r barriers={}w/{}r",
                report.pairs.ordered,
                report.pairs.disjoint,
                report.pairs.racing,
                report.barriers.0,
                report.barriers.1
            ),
            ok: cell_ok,
        });
        ok &= cell_ok;
    }
    (ok, static_s, sim_s)
}

/// Corpus gate: every mutation statically flagged with the expected
/// kinds, and every plan-level mutation's runtime violation
/// kinds covered by the static report (zero false negatives).
fn corpus_gate(platform: &Platform, seeds: &[u64], rows: &mut Vec<Row>) -> (bool, f64) {
    let probe = probe_cell(platform);
    let input = PlanInput::from_probe(&probe, &platform.fs);
    let mut ok = true;
    let mut static_s = 0.0f64;
    for &seed in seeds {
        for case in corpus(&input, seed) {
            let t0 = Instant::now();
            let report = verify(&VerifyInput {
                plan: &case.plan,
                hints: &case.hints,
                fs: &platform.fs,
                faults: case.faults.as_ref(),
                retry: case.retry,
                commit: case.commit,
            });
            let static_wall = t0.elapsed().as_secs_f64();
            static_s += static_wall;

            let verdict_ok = report.verdict() == case.expect_verdict;
            let kinds = report.kinds();
            let kinds_ok = case.expect.iter().all(|k| kinds.contains(k));

            // Differential half: the runtime checker must agree, and
            // nothing it reports may be missing from the static report.
            let mut no_false_negatives = true;
            let mut runtime_kinds = String::from("-");
            if case.replay_flags {
                let runtime = replay(&case.plan, &case.hints, &platform.fs, CheckMode::Log);
                no_false_negatives = !runtime.is_clean();
                let mut seen = std::collections::BTreeSet::new();
                for v in &runtime.violations {
                    match runtime_kind(v) {
                        Some(k) => {
                            seen.insert(k);
                            no_false_negatives &= kinds.contains(&k);
                        }
                        None => no_false_negatives = false,
                    }
                }
                runtime_kinds = seen
                    .iter()
                    .map(|k| k.to_string())
                    .collect::<Vec<_>>()
                    .join("+");
            }

            let case_ok = verdict_ok && kinds_ok && no_false_negatives;
            println!(
                "  seed {seed:>10} {:<24} static {:<9} runtime {:<24} {} ({:>7.1} µs static)",
                case.name,
                report.verdict().to_string(),
                runtime_kinds,
                if case_ok { "ok" } else { "FAIL" },
                static_wall * 1e6,
            );
            if !case_ok {
                println!("    expected {:?} {:?}", case.expect_verdict, case.expect);
                print!("{report}");
            }
            rows.push(Row {
                cell: format!("corpus/{}/{seed}", case.name),
                verdict: report.verdict().to_string(),
                detail: runtime_kinds,
                ok: case_ok,
            });
            ok &= case_ok;
        }
    }
    (ok, static_s)
}

fn write_csv(rows: &[Row]) {
    std::fs::create_dir_all("results").ok();
    let path = "results/verify.csv";
    let mut f = std::fs::File::create(path).expect("create results/verify.csv");
    writeln!(f, "cell,verdict,detail,ok").unwrap();
    for r in rows {
        writeln!(f, "{},{},{},{}", r.cell, r.verdict, r.detail, r.ok).unwrap();
    }
    println!("(wrote {path})");
}

fn main() {
    let platforms = [
        Platform::origin2000(NRANKS),
        Platform::ibm_sp2(NRANKS),
        Platform::chiba_pvfs(NRANKS),
        Platform::chiba_local(NRANKS),
    ];

    let mut rows = Vec::new();
    let mut ok = true;
    let mut static_s = 0.0f64;
    let mut sim_s = 0.0f64;

    println!(
        "== verify: shipped presets ({} x {NRANKS}) ==",
        PROBLEM.label()
    );
    for platform in &platforms {
        let (p_ok, p_static, p_sim) = preset_cells(platform, &mut rows);
        ok &= p_ok;
        static_s += p_static;
        sim_s += p_sim;
    }

    println!("\n== verify: seeded mutation corpus ==");
    let (c_ok, c_static) = corpus_gate(&platforms[0], &[1, 42, 0xC0FFEE], &mut rows);
    ok &= c_ok;
    static_s += c_static;

    // Cost gate: the static analysis must be at least 10x cheaper than
    // the strict simulation over the preset cells it replaces.
    let speedup = sim_s / static_s.max(1e-12);
    let cost_ok = speedup >= 10.0;
    println!(
        "\nverify: static {:.2} ms vs strict simulation {:.1} ms over {} preset cells -> {:.0}x {}",
        static_s * 1e3,
        sim_s * 1e3,
        platforms.len() * 3,
        speedup,
        if cost_ok {
            "(>=10x ok)"
        } else {
            "(GATE FAIL: <10x)"
        }
    );
    ok &= cost_ok;

    write_csv(&rows);
    if ok {
        println!("\nverify: all presets Safe, zero false negatives on the corpus, static {speedup:.0}x cheaper");
    } else {
        println!("\nverify: GATE FAILURES (see above)");
        std::process::exit(1);
    }
}
