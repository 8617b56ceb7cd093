//! Simulation operations: the untraced `Experiment::run` path, and the
//! phase-split driver of the traced run, which repeats `run`'s
//! single-dump sequence through public calls so each layer can be timed
//! from outside.

use crate::trace::Tracer;
use amrio_enzo::driver::timed;
use amrio_enzo::evolve::{evolve_step, rebuild_refinement};
use amrio_enzo::{global_digest, Experiment, ExperimentSpec, RunOutcome, SimState};
use amrio_mpi::World;
use amrio_mpiio::MpiIo;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What two runs of one spec must agree on: the checkpoint image and
/// the paper's two virtual times, bit for bit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fingerprint {
    pub image_digest: u64,
    pub write_bits: u64,
    pub read_bits: u64,
}

impl Fingerprint {
    pub fn of(out: &RunOutcome) -> Fingerprint {
        Fingerprint {
            image_digest: out.report.image_digest,
            write_bits: out.report.write_time.to_bits(),
            read_bits: out.report.read_time.to_bits(),
        }
    }

    pub fn write_s(&self) -> f64 {
        f64::from_bits(self.write_bits)
    }

    pub fn read_s(&self) -> f64 {
        f64::from_bits(self.read_bits)
    }
}

/// One `Experiment::from_spec(spec).run()`; a panic becomes an error so
/// it counts as a failed operation.
pub fn run(spec: &ExperimentSpec) -> Result<RunOutcome, String> {
    let exp = Experiment::from_spec(spec).map_err(|e| e.to_string())?;
    catch_unwind(AssertUnwindSafe(|| exp.run())).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "run panicked".to_string())
    })
}

/// Everything the phase-split driver measured for one operation.
#[derive(Clone, Debug)]
pub struct Phases {
    pub fingerprint: Fingerprint,
    pub verified: bool,
    /// Host wall time of the whole traced operation.
    pub op_ms: f64,
    /// Host wall time of `World::run`.
    pub world_ms: f64,
    pub init_ms: f64,
    pub evolve_ms: f64,
    pub write_ms: f64,
    pub read_ms: f64,
    pub digest_ms: f64,
    pub image_digest_ms: f64,
    pub grids: u64,
    pub max_level: u64,
    pub ordered_ops: u64,
    pub wakeups: u64,
    pub handoffs: u64,
    pub index_updates: u64,
    pub lock_acquisitions: u64,
    pub copied_bytes: u64,
    pub sends: u64,
    pub p2p_bytes: u64,
    pub collectives: u64,
    pub net_messages: u64,
    pub net_inter_node_bytes: u64,
    pub fs_writes: u64,
    pub fs_reads: u64,
    pub fs_bytes_written: u64,
    pub fs_bytes_read: u64,
    pub fs_server_requests: u64,
    pub fs_token_steals: u64,
    pub fs_meta_ops: u64,
}

/// Rank 0's marks at phase boundaries: host instant and virtual ns.
type Mark = (Instant, u64);

/// Run `spec` (a checker-off, fault-free single-dump spec) through the
/// same calls as `Experiment::run`, recording rank 0's host and virtual
/// spans at the barriers the sequence already has, then read every
/// layer's counters. Adds no barrier and no collective, so the image
/// and virtual times must equal the untraced run's.
pub fn traced(spec: &ExperimentSpec, tracer: &mut Tracer, op: u64) -> Phases {
    assert!(
        spec.faults.is_none() && spec.dump_every.is_none() && !spec.probe,
        "the phase-split driver covers the single-dump path only"
    );
    let exp = Experiment::from_spec(spec).expect("benchmark specs validate");
    let platform = exp.platform();
    let cfg = exp.cfg();
    let strategy = spec.strategy.build();
    let copied0 = amrio_simt::copied_bytes();
    let t_op = Instant::now();
    let world = World::new(cfg.nranks, platform.net.clone());
    let io = MpiIo::new(platform.fs.clone());

    let t_world = Instant::now();
    let report = world.run(|comm| {
        let rank0 = comm.rank() == 0;
        let mut marks: Vec<Mark> = Vec::with_capacity(7);
        let mark = |marks: &mut Vec<Mark>| {
            if rank0 {
                marks.push((Instant::now(), comm.now().0));
            }
        };
        mark(&mut marks);
        let mut st = SimState::init(comm, cfg.clone());
        mark(&mut marks);
        rebuild_refinement(comm, &mut st);
        for _ in 0..spec.cycles {
            evolve_step(comm, &mut st, 1.0);
        }
        rebuild_refinement(comm, &mut st);
        let (wt, ()) = timed(comm, || {
            mark(&mut marks);
            strategy.write_checkpoint(comm, &io, &st, 0);
        });
        mark(&mut marks);
        let d0 = global_digest(comm, &st);
        let (rt, st2) = timed(comm, || {
            mark(&mut marks);
            strategy.read_checkpoint(comm, &io, &st.cfg, 0)
        });
        mark(&mut marks);
        let d1 = global_digest(comm, &st2);
        mark(&mut marks);
        (
            wt,
            rt,
            d0 == d1,
            st.hierarchy.grids.len() as u64,
            st.hierarchy.max_level() as u64,
            marks,
        )
    });
    let world_end = Instant::now();
    let (wt, rt, verified, grids, max_level, marks) = report
        .results
        .into_iter()
        .next()
        .expect("at least one rank");

    let t_img = Instant::now();
    let (image_digest, fs_stats) = {
        let fs = io.fs();
        let fs = fs.lock();
        (fs.image_digest(), fs.stats)
    };
    let img_end = Instant::now();
    let mpi = world.stats();

    // Spans: op > {core.init, core.evolve, io.write.<s>, core.digest,
    // io.read.<s>, core.digest, disk.image_digest}.
    let s = spec.strategy.as_str();
    let root = tracer.record("op", op, None, (t_op, img_end), None);
    let names = [
        "core.init".to_string(),
        "core.evolve".to_string(),
        format!("io.write.{s}"),
        "core.digest".to_string(),
        format!("io.read.{s}"),
        "core.digest".to_string(),
    ];
    let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
    let mut phase_ms = [0.0; 6];
    for (i, name) in names.iter().enumerate() {
        let (h0, v0) = marks[i];
        let (h1, v1) = marks[i + 1];
        tracer.record(name.clone(), op, Some(root), (h0, h1), Some((v0, v1)));
        phase_ms[i] = ms(h0, h1);
    }
    tracer.record("disk.image_digest", op, Some(root), (t_img, img_end), None);

    Phases {
        fingerprint: Fingerprint {
            image_digest,
            write_bits: wt.as_secs_f64().to_bits(),
            read_bits: rt.as_secs_f64().to_bits(),
        },
        verified,
        op_ms: ms(t_op, img_end),
        world_ms: ms(t_world, world_end),
        init_ms: phase_ms[0],
        evolve_ms: phase_ms[1],
        write_ms: phase_ms[2],
        digest_ms: phase_ms[3] + phase_ms[5],
        read_ms: phase_ms[4],
        image_digest_ms: ms(t_img, img_end),
        grids,
        max_level,
        ordered_ops: report.ordered_ops,
        wakeups: report.sched.wakeups,
        handoffs: report.sched.handoffs,
        index_updates: report.sched.index_updates,
        lock_acquisitions: report.sched.lock_acquisitions,
        copied_bytes: amrio_simt::copied_bytes().saturating_sub(copied0),
        sends: mpi.sends,
        p2p_bytes: mpi.p2p_bytes,
        collectives: mpi.collectives,
        net_messages: world.net_messages(),
        net_inter_node_bytes: world.net_inter_node_bytes(),
        fs_writes: fs_stats.writes,
        fs_reads: fs_stats.reads,
        fs_bytes_written: fs_stats.bytes_written,
        fs_bytes_read: fs_stats.bytes_read,
        fs_server_requests: fs_stats.server_requests,
        fs_token_steals: fs_stats.token_steals,
        fs_meta_ops: fs_stats.meta_ops,
    }
}

/// Host microseconds per engine ordered section: the world's wall time
/// spread over its serial ordered sections.
pub fn host_us_per_ordered_op(world_ms: f64, ordered_ops: u64) -> f64 {
    if ordered_ops == 0 {
        0.0
    } else {
        world_ms * 1e3 / ordered_ops as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn host_us_per_ordered_op_derivation() {
        assert_eq!(host_us_per_ordered_op(1426.0, 28_520), 50.0);
        assert_eq!(host_us_per_ordered_op(3.0, 0), 0.0);
    }

    #[test]
    fn phase_split_reproduces_experiment_run() {
        for spec in gen::serve_specs(9, 1).into_iter().chain(
            gen::paper_sweep_specs(9)
                .into_iter()
                .filter(|s| s.nranks == 4)
                .take(3),
        ) {
            let oracle = Fingerprint::of(&run(&spec).unwrap());
            let mut tracer = Tracer::new();
            let p = traced(&spec, &mut tracer, 0);
            assert!(p.verified);
            assert_eq!(p.fingerprint, oracle, "{}", spec.canonical_string());
            assert!(p.ordered_ops > 0 && p.fs_bytes_written > 0 && p.collectives > 0);
            assert_eq!(tracer.spans.len(), 8);
        }
    }
}
