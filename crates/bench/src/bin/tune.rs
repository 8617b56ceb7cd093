//! `amrio-tune` validation: lint every shipped preset, then prove the
//! statically searched advisory out-tunes every hand-written MPI-IO
//! strategy preset on virtual time, byte-for-byte.
//!
//! Two gates, both enforced with a non-zero exit:
//!
//! 1. **Lint gate** — the static lint pass over every shipped
//!    backend × platform plan must report zero `Error`-severity
//!    diagnostics.
//! 2. **Tuning gate** — per matrix cell, the best advisory found by the
//!    static cost-model search must not lose (write+read virtual time)
//!    to any hand-written MPI-IO strategy preset, and the tuned image
//!    digest must equal the untuned `MPI-IO` baseline digest.
//!
//! `results/tune.csv` regenerates byte-identically; CI diffs it.
//!
//! ```sh
//! cargo run --release -p amrio-bench --bin tune
//! ```

use amrio_bench::EVOLVE_CYCLES;
use amrio_enzo::{
    Experiment, IoStrategy, MdmsAdvised, MpiIoAppStriped, MpiIoMultiFile, MpiIoNaive,
    MpiIoOptimized, MpiIoWriteBehind, Platform, ProblemSize, RunProbe, RunReport, SimConfig,
};
use amrio_hdf5::OverheadModel;
use amrio_plan::{plan, Backend, PlanInput};
use amrio_serve::json::Json;
use amrio_serve::wire::tune_config_to_json;
use amrio_tune::{lint, search_verified, Severity, TuneConfig};
use std::io::Write as _;

fn cfg(problem: ProblemSize, nranks: usize) -> SimConfig {
    SimConfig::new(problem, nranks)
}

/// Probe one evolved run to recover the dump-time hierarchy.
fn probe_cell(platform: &Platform, problem: ProblemSize, nranks: usize) -> RunProbe {
    Experiment::new(platform, &cfg(problem, nranks), &MpiIoOptimized)
        .cycles(EVOLVE_CYCLES)
        .probe()
        .run()
        .probe
        .expect("probe requested")
}

/// Lint gate: every shipped backend plan on every platform preset must
/// be free of Error-severity diagnostics.
fn lint_presets(problem: ProblemSize, nranks: usize) -> bool {
    let platforms = [
        Platform::origin2000(nranks),
        Platform::ibm_sp2(nranks),
        Platform::chiba_pvfs(nranks),
        Platform::chiba_local(nranks),
    ];
    let backends = [
        Backend::Hdf4,
        Backend::MpiIo,
        Backend::Hdf5(OverheadModel::default()),
    ];
    println!(
        "== lint: shipped presets ({} x {nranks}) ==",
        problem.label()
    );
    let mut clean = true;
    for platform in &platforms {
        let probe = probe_cell(platform, problem, nranks);
        let input = PlanInput::from_probe(&probe, &platform.fs);
        for backend in backends {
            let p = plan(&input, backend);
            let diags = lint(&input, &p);
            let errors = diags
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .count();
            println!(
                "  {:<24} {:<8} {} diagnostics, {} errors",
                platform.name,
                p.backend,
                diags.len(),
                errors
            );
            for d in diags.iter().filter(|d| d.severity == Severity::Error) {
                println!("    !! {d}");
            }
            clean &= errors == 0;
        }
    }
    clean
}

/// One CSV row of the tuned-vs-preset table.
struct Row {
    platform: &'static str,
    problem: String,
    procs: usize,
    config: String,
    predicted_s: Option<f64>,
    report: RunReport,
    digest_ok: bool,
}

fn total(r: &RunReport) -> f64 {
    r.write_time + r.read_time
}

/// Run one matrix cell: search the hint space statically, execute the
/// winning advisory, and race it against every hand-written MPI-IO
/// strategy preset.
fn tune_cell(
    platform: &Platform,
    problem: ProblemSize,
    nranks: usize,
    rows: &mut Vec<Row>,
    winners: &mut Vec<Json>,
) -> bool {
    let probe = probe_cell(platform, problem, nranks);
    let input = PlanInput::from_probe(&probe, &platform.fs);
    let p = plan(&input, Backend::MpiIo);
    let verified = search_verified(&p, &platform.fs, &platform.net);
    let outcome = &verified.outcome;
    let best = outcome.best();

    let presets: Vec<(&dyn IoStrategy, &'static str)> = vec![
        (&MpiIoOptimized, "MPI-IO"),
        (&MpiIoNaive, "MPI-IO-naive"),
        (&MpiIoWriteBehind, "MPI-IO+wb"),
        (&MpiIoAppStriped, "MPI-IO-appstripe"),
        (&MpiIoMultiFile, "MPI-IO-multifile"),
        (&MdmsAdvised, "MPI-IO+MDMS"),
    ];

    let c = cfg(problem, nranks);
    let tuned = Experiment::new(platform, &c, &MpiIoOptimized)
        .cycles(EVOLVE_CYCLES)
        .advisory(best.cfg.advisory())
        .run()
        .report;

    println!(
        "\n== tune: {} · {} x {nranks} ==",
        platform.name,
        problem.label()
    );
    println!(
        "  searched {} candidates ({} statically pruned); best = {} (predicted {:.4}s)",
        outcome.candidates.len(),
        verified.pruned.len(),
        best.cfg.label,
        best.cost.total_s()
    );
    for p in &verified.pruned {
        let kinds: Vec<String> = p.kinds.iter().map(|k| k.to_string()).collect();
        println!("    pruned {:<12} [{}]", p.cfg.label, kinds.join(", "));
    }

    let mut ok = true;
    let mut baseline_digest = None;
    for (strategy, name) in presets {
        let report = Experiment::new(platform, &c, strategy)
            .cycles(EVOLVE_CYCLES)
            .run()
            .report;
        if name == "MPI-IO" {
            baseline_digest = Some(report.image_digest);
        }
        let beaten = total(&tuned) <= total(&report) + 1e-12;
        println!(
            "  {:<18} write {:>9.4}s read {:>9.4}s total {:>9.4}s  tuned {}",
            name,
            report.write_time,
            report.read_time,
            total(&report),
            if beaten { "wins" } else { "LOSES" }
        );
        ok &= beaten;
        // Preset-equivalent candidates carry their static prediction.
        let predicted = match name {
            "MPI-IO" => Some(TuneConfig::defaults()),
            "MPI-IO+wb" => Some(TuneConfig {
                label: "wb".into(),
                write_behind: Some(4 << 20),
                ..TuneConfig::defaults()
            }),
            _ => None,
        }
        .and_then(|cfg| {
            outcome
                .candidates
                .iter()
                .find(|c| {
                    c.cfg.hints == cfg.hints
                        && c.cfg.app_stripe == cfg.app_stripe
                        && c.cfg.write_behind.is_some() == cfg.write_behind.is_some()
                })
                .map(|c| c.cost.total_s())
        });
        rows.push(Row {
            platform: platform.name,
            problem: problem.label(),
            procs: nranks,
            config: name.to_string(),
            predicted_s: predicted,
            report,
            digest_ok: true,
        });
    }

    winners.push(Json::Obj(vec![
        ("platform".into(), Json::str(platform.name)),
        ("problem".into(), Json::Str(problem.label())),
        ("procs".into(), Json::U64(nranks as u64)),
        ("predicted_s".into(), Json::F64(best.cost.total_s())),
        ("config".into(), tune_config_to_json(&best.cfg)),
    ]));

    let digest_ok = baseline_digest == Some(tuned.image_digest);
    println!(
        "  {:<18} write {:>9.4}s read {:>9.4}s total {:>9.4}s  digest {}",
        format!("tuned({})", best.cfg.label),
        tuned.write_time,
        tuned.read_time,
        total(&tuned),
        if digest_ok { "identical" } else { "DIVERGED" }
    );
    ok &= digest_ok;
    rows.push(Row {
        platform: platform.name,
        problem: problem.label(),
        procs: nranks,
        config: format!("tuned({})", best.cfg.label),
        predicted_s: Some(best.cost.total_s()),
        report: tuned,
        digest_ok,
    });
    ok
}

fn write_csv(rows: &[Row]) {
    std::fs::create_dir_all("results").ok();
    let path = "results/tune.csv";
    let mut f = std::fs::File::create(path).expect("create results/tune.csv");
    writeln!(
        f,
        "platform,problem,procs,config,predicted_s,write_s,read_s,total_s,digest_ok"
    )
    .unwrap();
    for r in rows {
        writeln!(
            f,
            "{},{},{},{},{},{:.6},{:.6},{:.6},{}",
            r.platform,
            r.problem,
            r.procs,
            r.config,
            r.predicted_s.map(|p| format!("{p:.6}")).unwrap_or_default(),
            r.report.write_time,
            r.report.read_time,
            total(&r.report),
            r.digest_ok
        )
        .unwrap();
    }
    println!("\n(wrote {path})");
}

fn main() {
    let mut ok = lint_presets(ProblemSize::Custom(16), 4);

    let mut rows = Vec::new();
    let mut winners = Vec::new();
    let cells = [
        (Platform::origin2000(4), ProblemSize::Custom(16), 4),
        (Platform::origin2000(8), ProblemSize::Custom(32), 8),
        (Platform::ibm_sp2(8), ProblemSize::Custom(32), 8),
        (Platform::chiba_pvfs(8), ProblemSize::Custom(32), 8),
    ];
    for (platform, size, nranks) in &cells {
        ok &= tune_cell(platform, *size, *nranks, &mut rows, &mut winners);
    }
    write_csv(&rows);
    // The winning advisories in the shared serve-format shape (label +
    // full hint set), one object per matrix cell.
    std::fs::create_dir_all("results").ok();
    std::fs::write("results/tune_winners.json", Json::Arr(winners).pretty())
        .expect("write results/tune_winners.json");
    println!("(wrote results/tune_winners.json)");

    if ok {
        println!("\ntune: advisory beats every hand-written preset; digests identical");
    } else {
        println!("\ntune: GATE FAILURES (see above)");
        std::process::exit(1);
    }
}
