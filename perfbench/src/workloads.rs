//! The four workloads. Each runs in one process: a measured set-up,
//! then a closed loop with one operation in flight (`nproc` client
//! connections for `serve_zipf`) for the run's seconds, checking every
//! operation's output. A traced run splits its seconds into an untraced
//! half and a traced half and reports per-layer metrics instead.

use crate::gen::{self, PassOrder, Rng, Zipf};
use crate::metrics::{Layers, Metric, END_TO_END};
use crate::sim::{self, host_us_per_ordered_op, Fingerprint, Phases};
use crate::stats::{median, tail};
use crate::sys::{self, Clock};
use crate::trace::Tracer;
use amrio_check::CheckMode;
use amrio_enzo::{Experiment, ExperimentSpec, RunOutcome};
use amrio_serve::cache::{Outcome, RunCache};
use amrio_serve::json::{self, Json};
use amrio_serve::wire::{hex_digest, outcome_to_json, spec_from_json, spec_to_json};
use amrio_serve::{serve, ServeConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = ["paper_sweep", "rank_cliff", "crash_recover", "serve_zipf"];

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A finished run: counts, metrics, diagnostics and (traced) spans.
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Extra `"key": value` JSON members for the diagnostics line.
    pub diag: Vec<(String, String)>,
    pub tracer: Option<Tracer>,
}

pub fn run(name: &str, args: &Args) -> Run {
    match name {
        "paper_sweep" => sweep(args, gen::paper_sweep_specs, 1000),
        "rank_cliff" => sweep(args, |seed| vec![gen::rank_cliff_spec(seed)], 3),
        "crash_recover" => crash_recover(args),
        "serve_zipf" => serve_zipf(args),
        _ => unreachable!("workload names are checked by the caller"),
    }
}

/// Samples that a run must hold so that its tail has ten beyond it.
const MIN_OPS: usize = 11;

/// Median wall seconds of `reps` repetitions of a set-up; returns the
/// last repetition's product.
fn measure_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        last = Some(std::hint::black_box(f()));
        times.push(t.elapsed().as_secs_f64());
    }
    (
        median(&times),
        last.expect("at least one set-up repetition"),
    )
}

/// One closed-loop phase: operation latencies, phase wall and CPU time,
/// and the peak resident set read as the phase ends (before the
/// benchmark's own statistics allocate).
struct Timed {
    lat_ms: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
    failed: u64,
    rss_mb: f64,
}

/// Run `op` back to back until `seconds` have passed, at least
/// `min_ops` operations completed, and the count is a whole number of
/// `pass` operations, so that a stream cycling over `pass` distinct
/// inputs ends with each of them equally often. `op` returns whether
/// its output checked out.
fn closed_loop(
    seconds: f64,
    min_ops: usize,
    pass: usize,
    mut op: impl FnMut(usize) -> bool,
) -> Timed {
    let clock = Clock::start();
    let mut lat_ms = Vec::new();
    let mut failed = 0;
    while lat_ms.len() < min_ops || clock.wall_s() < seconds || lat_ms.len() % pass != 0 {
        let t = Instant::now();
        let ok = op(lat_ms.len());
        lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        failed += u64::from(!ok);
    }
    let (wall_s, cpu_s) = clock.stop();
    Timed {
        lat_ms,
        wall_s,
        cpu_s,
        failed,
        rss_mb: sys::peak_rss_mb(),
    }
}

fn end_to_end(
    setup_s: f64,
    t: &Timed,
    virt: (f64, f64),
    diag: &mut Vec<(String, String)>,
) -> Vec<Metric> {
    let n = t.lat_ms.len() as f64;
    let (tail_ms, tail_pct) = tail(&t.lat_ms).expect("closed_loop keeps MIN_OPS samples");
    diag.push(("op_ms_tail_percentile".into(), format!("{tail_pct}")));
    let values = [
        setup_s,
        n / t.wall_s,
        median(&t.lat_ms),
        tail_ms,
        t.cpu_s * 1e3 / n,
        t.rss_mb,
        virt.0,
        virt.1,
        (n - t.failed as f64) / n,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_string(),
            value,
            unit,
        })
        .collect()
}

fn timed_diag(diag: &mut Vec<(String, String)>, label: &str, t: &Timed) {
    diag.push((format!("{label}_ops"), t.lat_ms.len().to_string()));
    diag.push((format!("{label}_wall_s"), format!("{:.3}", t.wall_s)));
    diag.push((format!("{label}_cpu_s"), format!("{:.2}", t.cpu_s)));
}

/// Whether an untraced operation reproduced its spec's fingerprint; the
/// first run of a spec records it.
fn check_run(out: Result<RunOutcome, String>, oracle: &mut Option<Fingerprint>) -> bool {
    let Ok(out) = out else { return false };
    let fp = Fingerprint::of(&out);
    out.report.verified && *oracle.get_or_insert(fp) == fp
}

// ---------------------------------------------------------------------------
// paper_sweep and rank_cliff: streams of single-dump runs

/// A stream of `Experiment::run`s over `specs`, visited in seeded
/// passes. With one spec (`rank_cliff`) the set-up is the oracle run
/// that every later operation must match; with many (`paper_sweep`) it
/// is generating and validating the specs, and each spec's first run is
/// the oracle for its repeats.
fn sweep(args: &Args, generate: fn(u64) -> Vec<ExperimentSpec>, setup_reps: usize) -> Run {
    let (setup_s, (specs, mut oracle)) = measure_setup(setup_reps, || {
        let specs = generate(args.seed);
        for s in &specs {
            Experiment::from_spec(s).expect("generated specs validate");
        }
        let oracle = if let [spec] = &specs[..] {
            let out = sim::run(spec).expect("oracle run");
            assert!(out.report.verified, "oracle run must verify");
            vec![Some(Fingerprint::of(&out))]
        } else {
            vec![None; specs.len()]
        };
        (specs, oracle)
    });
    let n = specs.len();
    let mut diag = vec![
        ("distinct_specs".to_string(), n.to_string()),
        ("setup_reps".to_string(), setup_reps.to_string()),
    ];

    let mut order = PassOrder::new(args.seed, n);
    let mut per_spec_ms = vec![Vec::new(); n];
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let min_ops = if args.trace { n } else { MIN_OPS.max(n) };
    let timed = closed_loop(seconds, min_ops, n, |_| {
        let i = order.next().expect("endless order");
        let t = Instant::now();
        let ok = check_run(sim::run(&specs[i]), &mut oracle[i]);
        per_spec_ms[i].push(t.elapsed().as_secs_f64() * 1e3);
        ok
    });
    timed_diag(&mut diag, "timed", &timed);
    // A spec whose every run failed has no fingerprint; the failures
    // already fail the run.
    let fps = oracle.iter().flatten();
    let virt = (
        fps.clone().map(Fingerprint::write_s).sum(),
        fps.map(Fingerprint::read_s).sum(),
    );
    if !args.trace {
        return Run {
            attempted: timed.lat_ms.len() as u64,
            failed: timed.failed,
            metrics: end_to_end(setup_s, &timed, virt, &mut diag),
            diag,
            tracer: None,
        };
    }

    // Traced half: the phase-split driver over whole passes.
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let mut traced_ms = vec![Vec::new(); n];
    let mut order = PassOrder::new(args.seed, n);
    let traced = closed_loop(seconds, n, n, |op| {
        let i = order.next().expect("endless order");
        let p = sim::traced(&specs[i], &mut tracer, op as u64);
        traced_ms[i].push(p.op_ms);
        add_phases(&mut layers, &specs[i], &p);
        p.verified && Some(p.fingerprint) == oracle[i]
    });
    timed_diag(&mut diag, "traced", &traced);
    let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    let overhead: f64 = (0..n)
        .map(|i| mean(&traced_ms[i]) - mean(&per_spec_ms[i]))
        .sum::<f64>()
        / n as f64;
    layers.set("trace.ops", traced.lat_ms.len() as f64);
    layers.set("trace.overhead_ms", overhead);
    finish_traced(
        timed.lat_ms.len() + traced.lat_ms.len(),
        timed.failed + traced.failed,
        layers,
        tracer,
        diag,
    )
}

/// Fold one traced operation into the per-layer means.
fn add_phases(l: &mut Layers, spec: &ExperimentSpec, p: &Phases) {
    let s = spec.strategy.as_str();
    let fp = p.fingerprint;
    let samples = [
        ("simt.ordered_ops", p.ordered_ops as f64),
        ("simt.wakeups", p.wakeups as f64),
        ("simt.handoffs", p.handoffs as f64),
        ("simt.lock_acquisitions", p.lock_acquisitions as f64),
        ("simt.index_updates", p.index_updates as f64),
        (
            "simt.host_us_per_ordered_op",
            host_us_per_ordered_op(p.world_ms, p.ordered_ops),
        ),
        ("simt.copied_bytes", p.copied_bytes as f64),
        ("mpi.sends", p.sends as f64),
        ("mpi.p2p_bytes", p.p2p_bytes as f64),
        ("mpi.collectives", p.collectives as f64),
        ("net.messages", p.net_messages as f64),
        ("net.inter_node_bytes", p.net_inter_node_bytes as f64),
        ("core.init_ms", p.init_ms),
        ("core.evolve_ms", p.evolve_ms),
        ("core.digest_ms", p.digest_ms),
        ("amr.grids", p.grids as f64),
        ("amr.max_level", p.max_level as f64),
        ("disk.writes", p.fs_writes as f64),
        ("disk.reads", p.fs_reads as f64),
        ("disk.bytes_written", p.fs_bytes_written as f64),
        ("disk.bytes_read", p.fs_bytes_read as f64),
        ("disk.server_requests", p.fs_server_requests as f64),
        ("disk.token_steals", p.fs_token_steals as f64),
        ("disk.meta_ops", p.fs_meta_ops as f64),
        ("disk.image_digest_ms", p.image_digest_ms),
    ];
    for (name, v) in samples {
        l.add(name, v);
    }
    l.add(&format!("io.write_ms.{s}"), p.write_ms);
    l.add(&format!("io.read_ms.{s}"), p.read_ms);
    l.add(&format!("io.virt_write_s.{s}"), fp.write_s());
    l.add(&format!("io.virt_read_s.{s}"), fp.read_s());
}

fn finish_traced(
    attempted: usize,
    failed: u64,
    layers: Layers,
    tracer: Tracer,
    mut diag: Vec<(String, String)>,
) -> Run {
    let (metrics, unobserved) = layers.finish();
    let list: Vec<String> = unobserved.iter().map(|n| format!("\"{n}\"")).collect();
    diag.push(("unobserved".into(), format!("[{}]", list.join(", "))));
    Run {
        attempted: attempted as u64,
        failed,
        metrics,
        diag,
        tracer: Some(tracer),
    }
}

// ---------------------------------------------------------------------------
// crash_recover: generational runs with one seeded crash each

/// What a clean generational run of one strategy establishes.
#[derive(Clone, Copy)]
struct CleanRun {
    image_digest: u64,
    makespan_ns: u64,
    write_s: f64,
    read_s: f64,
}

fn crash_ok(out: &Result<RunOutcome, String>, clean: &CleanRun) -> bool {
    let Ok(out) = out else { return false };
    out.report.verified
        && out.report.image_digest == clean.image_digest
        && out.check.as_ref().is_some_and(|c| c.is_clean())
        && out.recovery.as_ref().is_none_or(|r| r.resume_verified)
}

/// Set-up repetitions of `crash_recover` (one clean run per spec each).
const CRASH_SETUP_REPS: usize = 5;

fn crash_recover(args: &Args) -> Run {
    let specs = gen::crash_clean_specs(args.seed);
    let mut diag = Vec::new();
    let (setup_s, clean) = measure_setup(CRASH_SETUP_REPS, || {
        gen::crash_clean_specs(args.seed)
            .iter()
            .map(|s| {
                let out = sim::run(s).expect("clean generational run");
                assert!(
                    out.report.verified && out.check.as_ref().is_some_and(|c| c.is_clean()),
                    "clean generational run must verify under the strict checker"
                );
                CleanRun {
                    image_digest: out.report.image_digest,
                    makespan_ns: (out.report.makespan * 1e9) as u64,
                    write_s: out.report.write_time,
                    read_s: out.report.read_time,
                }
            })
            .collect::<Vec<_>>()
    });
    diag.push(("setup_reps".into(), CRASH_SETUP_REPS.to_string()));
    let virt = (
        clean.iter().map(|c| c.write_s).sum(),
        clean.iter().map(|c| c.read_s).sum(),
    );
    // Operation i: clean spec (i + rot) mod n, which rotates over the
    // strategies, with a crash at a seeded virtual time inside that
    // spec's clean makespan.
    let mut rng = Rng::derive(args.seed, 6);
    let rot = rng.below(specs.len() as u64) as usize;
    let mut draw = |i: usize| {
        let k = (rot + i) % specs.len();
        (k, 1 + rng.below(clean[k].makespan_ns.max(2) - 1))
    };

    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut fired = 0u64;
    let timed = closed_loop(seconds, MIN_OPS, specs.len(), |i| {
        let (k, at) = draw(i);
        let out = sim::run(&gen::with_crash(&specs[k], at));
        fired += u64::from(out.as_ref().is_ok_and(|o| o.recovery.is_some()));
        crash_ok(&out, &clean[k])
    });
    timed_diag(&mut diag, "timed", &timed);
    diag.push(("timed_crashes_fired".into(), fired.to_string()));
    if !args.trace {
        return Run {
            attempted: timed.lat_ms.len() as u64,
            failed: timed.failed,
            metrics: end_to_end(setup_s, &timed, virt, &mut diag),
            diag,
            tracer: None,
        };
    }

    // Traced half: each operation runs under the strict checker (the
    // workload's own operation) and again with the checker off, and its
    // counters come from the RunOutcome.
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let mut strict_ms = Vec::new();
    let mut overhead = Vec::new();
    let (mut fired, mut from_commit, mut resume_ok) = (0u64, 0u64, 0u64);
    let traced = closed_loop(seconds, 3, 1, |i| {
        let (k, at) = draw(timed.lat_ms.len() + i);
        let spec = gen::with_crash(&specs[k], at);
        let copied0 = amrio_simt::copied_bytes();
        let t0 = Instant::now();
        let out = sim::run(&spec);
        let t1 = Instant::now();
        layers.add(
            "simt.copied_bytes",
            (amrio_simt::copied_bytes() - copied0) as f64,
        );
        let mut off_spec = spec.clone();
        off_spec.check = CheckMode::Off;
        let off = sim::run(&off_spec);
        let t2 = Instant::now();
        let root = tracer.record("op", i as u64, None, (t0, t2), None);
        tracer.record(
            format!("run.strict.{}", spec.strategy),
            i as u64,
            Some(root),
            (t0, t1),
            None,
        );
        tracer.record(
            format!("run.check_off.{}", spec.strategy),
            i as u64,
            Some(root),
            (t1, t2),
            None,
        );
        let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
        strict_ms.push(ms(t0, t1));
        overhead.push(ms(t0, t1) - ms(t1, t2));
        let ok = crash_ok(&out, &clean[k])
            && off
                .as_ref()
                .is_ok_and(|o| o.report.image_digest == clean[k].image_digest);
        if let Ok(o) = &out {
            add_outcome(&mut layers, &spec, o);
            if let Some(r) = &o.recovery {
                fired += 1;
                from_commit += u64::from(r.resumed_generation.is_some());
                resume_ok += u64::from(r.resume_verified);
            }
        }
        ok
    });
    timed_diag(&mut diag, "traced", &traced);
    let ratio = |a: u64| {
        if fired == 0 {
            0.0
        } else {
            a as f64 / fired as f64
        }
    };
    layers.set("recover.resumed_from_commit_ratio", ratio(from_commit));
    layers.set("recover.resume_verified_ratio", ratio(resume_ok));
    layers.set("check.strict_overhead_ms", median(&overhead));
    layers.set("trace.ops", traced.lat_ms.len() as f64);
    layers.set(
        "trace.overhead_ms",
        median(&strict_ms) - median(&timed.lat_ms),
    );
    finish_traced(
        timed.lat_ms.len() + traced.lat_ms.len(),
        timed.failed + traced.failed,
        layers,
        tracer,
        diag,
    )
}

/// Per-layer counters a generational run reports about itself.
fn add_outcome(l: &mut Layers, spec: &ExperimentSpec, o: &RunOutcome) {
    let r = &o.report;
    let s = spec.strategy.as_str();
    let rec = o.recovery.as_ref();
    let samples = [
        ("simt.ordered_ops", r.ordered_ops as f64),
        ("simt.wakeups", r.sched.wakeups as f64),
        ("simt.handoffs", r.sched.handoffs as f64),
        ("simt.lock_acquisitions", r.sched.lock_acquisitions as f64),
        ("simt.index_updates", r.sched.index_updates as f64),
        ("amr.grids", r.grids as f64),
        ("amr.max_level", r.max_level as f64),
        ("disk.bytes_written", r.bytes_written as f64),
        ("disk.bytes_read", r.bytes_read as f64),
        ("fault.crashes_fired", rec.map_or(0, |r| r.crashes) as f64),
        (
            "fault.torn_generations",
            rec.map_or(0, |r| r.torn_generations) as f64,
        ),
        ("fault.retries", r.resilience.retries as f64),
        (
            "check.violations",
            o.check.as_ref().map_or(0, |c| c.len()) as f64,
        ),
    ];
    for (name, v) in samples {
        l.add(name, v);
    }
    l.add(&format!("io.virt_write_s.{s}"), r.write_time);
    l.add(&format!("io.virt_read_s.{s}"), r.read_time);
}

// ---------------------------------------------------------------------------
// serve_zipf: cache hits through the HTTP service

/// Specs the service holds warm.
const SERVE_SPECS: usize = 16;

/// Zipf exponent of the request mix.
const ZIPF_S: f64 = 1.1;

/// One prepared request: body plus what the in-process oracle run
/// produced.
struct Prepared {
    body: String,
    digest: String,
    outcome: Json,
    write_s: f64,
    read_s: f64,
}

/// `POST /run` on a fresh connection; returns the status and the
/// response body.
fn post(addr: SocketAddr, body: &str) -> std::io::Result<(u16, String)> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    let req = format!(
        "POST /run HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    conn.write_all(req.as_bytes())?;
    let mut raw = String::new();
    conn.read_to_string(&mut raw)?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let at = raw.find("\r\n\r\n").map_or(raw.len(), |i| i + 4);
    Ok((status, raw.split_off(at)))
}

/// The top-level `image_digest` of a `POST /run` response (it precedes
/// the nested outcome).
fn response_digest(body: &str) -> Option<&str> {
    let key = "\"image_digest\":\"";
    let at = body.find(key)? + key.len();
    body[at..].split('"').next()
}

fn get_stats(addr: SocketAddr) -> Json {
    let mut conn = TcpStream::connect(addr).expect("connect for /stats");
    conn.write_all(b"GET /stats HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n")
        .expect("write /stats request");
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read /stats");
    let at = raw.find("\r\n\r\n").map_or(raw.len(), |i| i + 4);
    json::parse(&raw[at..]).expect("/stats is JSON")
}

fn stat(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_u64).expect("stats counter") as f64
}

/// Start a server, run every spec in-process as its oracle, and warm
/// the cache with one `POST /run` each (each must match its oracle).
fn serve_setup(seed: u64) -> (ServerHandle, Vec<Prepared>) {
    let server = serve("127.0.0.1:0", ServeConfig::default()).expect("bind loopback server");
    let prepared: Vec<Prepared> = gen::serve_specs(seed, SERVE_SPECS)
        .iter()
        .map(|s| {
            let out = sim::run(s).expect("oracle run");
            Prepared {
                body: spec_to_json(s).encode(),
                digest: hex_digest(out.report.image_digest),
                outcome: outcome_to_json(&out),
                write_s: out.report.write_time,
                read_s: out.report.read_time,
            }
        })
        .collect();
    for p in &prepared {
        let (status, body) = post(server.addr(), &p.body).expect("warm-up request");
        assert!(
            status == 200 && response_digest(&body) == Some(p.digest.as_str()),
            "warm-up response must match its oracle (status {status})"
        );
    }
    (server, prepared)
}

/// Client-side latencies (ms) and failures of one timed phase.
struct Clients {
    timed: Timed,
    /// Per request when tracing: `(client, start, end)`, for spans.
    requests: Vec<(usize, Instant, Instant)>,
}

/// Request spans a traced client keeps (the first ones of its phase),
/// so a run's span file stays small.
const REQUEST_SPANS: usize = 4096;

/// What one client thread records: latencies as `f32` ms, so that the
/// samples of a long run add little to the peak resident set, and the
/// request intervals only when tracing.
type ClientLog = (Vec<f32>, Vec<(Instant, Instant)>, u64);

/// `clients` closed-loop clients drawing Zipf requests until `seconds`
/// pass. A request fails on any status but 200, an I/O error, or an
/// `image_digest` that differs from the oracle's.
fn drive(
    addr: SocketAddr,
    prepared: &[Prepared],
    (seed, tag): (u64, u64),
    clients: usize,
    seconds: f64,
    trace: bool,
) -> Clients {
    let zipf = Zipf::new(prepared.len(), ZIPF_S);
    let clock = Clock::start();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let zipf = &zipf;
                let clock = &clock;
                s.spawn(move || {
                    let mut rng = Rng::derive(seed, tag + c as u64);
                    let (mut lat, mut spans, mut failed) = (Vec::new(), Vec::new(), 0);
                    while clock.wall_s() < seconds {
                        let p = &prepared[zipf.sample(&mut rng)];
                        let t0 = Instant::now();
                        let ok = match post(addr, &p.body) {
                            Ok((200, body)) => response_digest(&body) == Some(p.digest.as_str()),
                            _ => false,
                        };
                        let t1 = Instant::now();
                        lat.push((t1.duration_since(t0).as_secs_f64() * 1e3) as f32);
                        if trace && spans.len() < REQUEST_SPANS {
                            spans.push((t0, t1));
                        }
                        failed += u64::from(!ok);
                    }
                    (lat, spans, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let (wall_s, cpu_s) = clock.stop();
    let rss_mb = sys::peak_rss_mb();
    let mut timed = Timed {
        lat_ms: Vec::new(),
        wall_s,
        cpu_s,
        failed: 0,
        rss_mb,
    };
    let mut requests = Vec::new();
    for (c, (lat, spans, failed)) in logs.into_iter().enumerate() {
        timed.failed += failed;
        timed.lat_ms.extend(lat.into_iter().map(f64::from));
        requests.extend(spans.into_iter().map(|(a, b)| (c, a, b)));
    }
    Clients { timed, requests }
}

fn serve_zipf(args: &Args) -> Run {
    let mut diag = Vec::new();
    // Each repetition's server is stopped, outside the timed set-up,
    // before the next starts; the last one serves the timed phases.
    let reps = 5;
    let mut times = Vec::with_capacity(reps);
    let mut kept: Option<(ServerHandle, Vec<Prepared>)> = None;
    for _ in 0..reps {
        if let Some((server, _)) = kept.take() {
            server.stop();
        }
        let t = Instant::now();
        kept = Some(serve_setup(args.seed));
        times.push(t.elapsed().as_secs_f64());
    }
    let setup_s = median(&times);
    let (server, prepared) = kept.expect("at least one set-up repetition");
    diag.push(("setup_reps".into(), reps.to_string()));
    let clients = sys::nproc();
    diag.push(("clients".into(), clients.to_string()));
    let addr = server.addr();
    let virt = (
        prepared.iter().map(|p| p.write_s).sum(),
        prepared.iter().map(|p| p.read_s).sum(),
    );

    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let before = get_stats(addr);
    let untraced = drive(addr, &prepared, (args.seed, 100), clients, seconds, false);
    timed_diag(&mut diag, "timed", &untraced.timed);
    if !args.trace {
        server.stop();
        return Run {
            attempted: untraced.timed.lat_ms.len() as u64,
            failed: untraced.timed.failed,
            metrics: end_to_end(setup_s, &untraced.timed, virt, &mut diag),
            diag,
            tracer: None,
        };
    }

    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let traced = drive(addr, &prepared, (args.seed, 200), clients, seconds, true);
    timed_diag(&mut diag, "traced", &traced.timed);
    for (i, (c, a, b)) in traced.requests.iter().enumerate() {
        tracer.record(
            format!("serve.request.client{c}"),
            i as u64,
            None,
            (*a, *b),
            None,
        );
    }
    let after = get_stats(addr);
    server.stop();
    let delta = |k: &str| stat(&after, k) - stat(&before, k);
    let (hits, misses, coalesced) = (delta("hits"), delta("misses"), delta("coalesced"));
    layers.set("serve.hits", hits);
    layers.set("serve.misses", misses);
    layers.set("serve.coalesced", coalesced);
    layers.set("serve.rejected", delta("rejected"));
    layers.set(
        "serve.hit_ratio",
        hits / (hits + misses + coalesced).max(1.0),
    );
    layers.set("serve.client_rtt_us", median(&traced.timed.lat_ms) * 1e3);
    let hit_latency = after.get("hit_latency").expect("hit latency histogram");
    layers.set("serve.server_us", stat(hit_latency, "p50_us"));
    layers.set("trace.ops", traced.timed.lat_ms.len() as f64);
    layers.set(
        "trace.overhead_ms",
        median(&traced.timed.lat_ms) - median(&untraced.timed.lat_ms),
    );
    let pieces_ok = hit_path_pieces(&prepared, args.seed, &mut layers, &mut tracer);
    finish_traced(
        untraced.timed.lat_ms.len() + traced.timed.lat_ms.len() + 1,
        untraced.timed.failed + traced.timed.failed + u64::from(!pieces_ok),
        layers,
        tracer,
        diag,
    )
}

/// Requests timed piece by piece through the hit path's public calls.
const PIECE_REQUESTS: usize = 4000;

/// Time the pieces of a cache hit in-process, on the same request
/// bodies and Zipf mix: JSON parse, spec decode + validation, canonical
/// string + digest, a warm `RunCache::get_or_run`, and the clone +
/// encode of the cached outcome into the response. Returns whether
/// every piece reproduced what the server returns.
fn hit_path_pieces(
    prepared: &[Prepared],
    seed: u64,
    layers: &mut Layers,
    tracer: &mut Tracer,
) -> bool {
    let cache: RunCache<Json> = RunCache::new(ServeConfig::default().shards);
    for p in prepared {
        let spec =
            spec_from_json(&json::parse(&p.body).expect("body parses")).expect("body decodes");
        let (r, _) = cache.get_or_run(spec.canonical_digest(), &spec.canonical_string(), || {
            Ok(p.outcome.clone())
        });
        r.expect("cache warm-up");
    }
    let zipf = Zipf::new(prepared.len(), ZIPF_S);
    let mut rng = Rng::derive(seed, 300);
    let mut us = [const { Vec::new() }; 5];
    let mut ok = true;
    for i in 0..PIECE_REQUESTS {
        let p = &prepared[zipf.sample(&mut rng)];
        let t0 = Instant::now();
        let doc = json::parse(&p.body).expect("body parses");
        let t1 = Instant::now();
        let spec = spec_from_json(&doc).expect("body decodes");
        spec.validate().expect("spec validates");
        let t2 = Instant::now();
        let canonical = spec.canonical_string();
        let digest = spec.canonical_digest();
        let t3 = Instant::now();
        let (cached, outcome) = cache.get_or_run(digest, &canonical, || Err("cold".into()));
        let t4 = Instant::now();
        let cached = cached.expect("warm cache");
        let body = Json::Obj(vec![
            ("spec_digest".into(), Json::Str(hex_digest(digest))),
            ("image_digest".into(), Json::Str(p.digest.clone())),
            ("cached".into(), Json::Bool(true)),
            ("coalesced".into(), Json::Bool(false)),
            ("outcome".into(), cached.value.clone()),
        ])
        .encode();
        let t5 = Instant::now();
        ok &= outcome == Outcome::Hit && response_digest(&body) == Some(p.digest.as_str());
        let marks = [t0, t1, t2, t3, t4, t5];
        for (k, w) in marks.windows(2).enumerate() {
            us[k].push(w[1].duration_since(w[0]).as_secs_f64() * 1e6);
        }
        if i < 64 {
            let root = tracer.record("serve.hit_path", i as u64, None, (t0, t5), None);
            for (k, name) in [
                "serve.parse",
                "serve.spec",
                "serve.digest",
                "serve.cache",
                "serve.encode",
            ]
            .iter()
            .enumerate()
            {
                tracer.record(*name, i as u64, Some(root), (marks[k], marks[k + 1]), None);
            }
        }
    }
    for (k, name) in [
        "serve.parse_us",
        "serve.spec_us",
        "serve.digest_us",
        "serve.cache_us",
        "serve.encode_us",
    ]
    .iter()
    .enumerate()
    {
        layers.set(name, median(&us[k]));
    }
    ok
}
