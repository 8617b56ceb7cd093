//! `amrio-tune` end-to-end guarantees: the static cost model ranks
//! decisively separated hint configurations the same way execution
//! does, and shipping any advisory never changes a byte of the
//! checkpoint image.

use amrio::enzo::{Experiment, MpiIoOptimized, Platform, ProblemSize, RunReport, SimConfig};
use amrio::mpiio::Hints;
use amrio::plan::{plan, Backend, PlanInput};
use amrio::tune::{predict, search, TuneConfig};

fn cell() -> (Platform, SimConfig) {
    let nranks = 4;
    (
        Platform::origin2000(nranks),
        SimConfig::new(ProblemSize::Custom(16), nranks),
    )
}

fn executed(platform: &Platform, cfg: &SimConfig, tune: &TuneConfig) -> RunReport {
    Experiment::new(platform, cfg, &MpiIoOptimized)
        .cycles(2)
        .advisory(tune.advisory())
        .run()
        .report
}

fn the_plan(platform: &Platform, cfg: &SimConfig) -> amrio::plan::AccessPlan {
    let probe = Experiment::new(platform, cfg, &MpiIoOptimized)
        .cycles(2)
        .probe()
        .run()
        .probe
        .expect("probe requested");
    plan(&PlanInput::from_probe(&probe, &platform.fs), Backend::MpiIo)
}

/// Three configurations whose executed costs are far apart (unaligned
/// file domains thrash the lock manager; unsieved independent reads
/// degenerate to per-region requests). The static ranking must agree
/// with the executed ranking.
#[test]
fn predicted_ranking_matches_executed_ranking() {
    let (platform, cfg) = cell();
    let p = the_plan(&platform, &cfg);

    let configs = [
        TuneConfig::defaults(),
        TuneConfig {
            label: "noalign".into(),
            hints: Hints {
                align_file_domains: false,
                ..Hints::default()
            },
            app_stripe: None,
            write_behind: None,
        },
        TuneConfig {
            label: "indr-nods".into(),
            hints: Hints {
                cb_read: false,
                ds_read: false,
                ..Hints::default()
            },
            app_stripe: None,
            write_behind: None,
        },
    ];

    let mut rows: Vec<(String, f64, f64)> = configs
        .iter()
        .map(|c| {
            let pred = predict(&p, &platform.fs, &platform.net, c).total_s();
            let r = executed(&platform, &cfg, c);
            (c.label.clone(), pred, r.write_time + r.read_time)
        })
        .collect();

    // Decisive separation: each executed pair differs by >20%.
    let mut by_exec = rows.clone();
    by_exec.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap());
    for w in by_exec.windows(2) {
        assert!(
            w[1].2 > w[0].2 * 1.2,
            "test configs are not decisively separated: {w:?}"
        );
    }

    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    let by_pred: Vec<&str> = rows.iter().map(|r| r.0.as_str()).collect();
    let by_exec: Vec<&str> = by_exec.iter().map(|r| r.0.as_str()).collect();
    assert_eq!(
        by_pred, by_exec,
        "static ranking disagrees with executed ranking: {rows:?}"
    );
}

/// Advisories are timing-only: the searched winner and a spread of
/// aggressive hand-picked configurations must all produce the same
/// checkpoint image digest as the untuned baseline — and the winner
/// must not execute worse than the baseline.
#[test]
fn advisories_keep_checkpoint_bytes_identical() {
    let (platform, cfg) = cell();
    let p = the_plan(&platform, &cfg);
    let best = search(&p, &platform.fs, &platform.net).best().cfg.clone();

    let baseline = executed(&platform, &cfg, &TuneConfig::defaults());
    let golden = baseline.image_digest;

    let aggressive = [
        best.clone(),
        TuneConfig {
            label: "wb".into(),
            write_behind: Some(4 << 20),
            ..TuneConfig::defaults()
        },
        TuneConfig {
            label: "cb1,stripe64K".into(),
            hints: Hints {
                cb_nodes: Some(1),
                ..Hints::default()
            },
            app_stripe: Some(64 << 10),
            write_behind: None,
        },
    ];
    for c in &aggressive {
        let r = executed(&platform, &cfg, c);
        assert_eq!(
            r.image_digest, golden,
            "advisory {} changed the checkpoint bytes",
            c.label
        );
        assert!(r.verified, "advisory {} broke restart", c.label);
        if c.label == best.label {
            assert!(
                r.write_time + r.read_time <= baseline.write_time + baseline.read_time + 1e-12,
                "searched winner {} executed worse than the baseline",
                c.label
            );
        }
    }
}

/// The advisory's write-behind capacity is the one the dump stages with:
/// a 64 KiB buffer flushes more often than a 4 MiB one, so it issues
/// more write requests (same bytes either way).
#[test]
fn advisory_write_behind_capacity_is_honoured() {
    let (platform, cfg) = cell();
    let writes = |cap: usize| {
        let tune = TuneConfig {
            label: format!("wb{cap}"),
            hints: Hints::default(),
            app_stripe: None,
            write_behind: Some(cap),
        };
        let out = Experiment::new(&platform, &cfg, &MpiIoOptimized)
            .cycles(2)
            .advisory(tune.advisory())
            .probe()
            .run();
        let probe = out.probe.expect("probe requested");
        let n = probe.events.iter().filter(|e| e.write).count();
        (n, out.report.image_digest)
    };
    let (small, small_digest) = writes(64 << 10);
    let (large, large_digest) = writes(4 << 20);
    assert_eq!(small_digest, large_digest, "capacity never changes bytes");
    assert!(small > large, "64 KiB: {small} writes, 4 MiB: {large}");
}
