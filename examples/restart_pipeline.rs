//! A full production-style pipeline: evolve, periodically dump
//! checkpoints, kill the run, restart from the last dump, and continue —
//! verifying that the restarted trajectory is bit-identical to an
//! uninterrupted one.
//!
//! ```sh
//! cargo run --release --example restart_pipeline
//! ```

use amrio::enzo::evolve::{evolve_step, rebuild_refinement};
use amrio::enzo::{
    global_digest, IoStrategy, MpiIoOptimized, Platform, ProblemSize, SimConfig, SimState,
};
use amrio_mpi::World;
use amrio_mpiio::MpiIo;

/// Evolution cycles before the checkpoint, and again after the restart.
const CYCLES_PER_DUMP: u64 = 2;

fn main() {
    let nranks = 4;
    let platform = Platform::origin2000(nranks);
    let cfg = SimConfig::new(ProblemSize::Custom(32), nranks);

    // --- Run A: 4 cycles straight through. ---
    let world = World::new(nranks, platform.net.clone());
    let io = MpiIo::new(platform.fs.clone());
    let run_a = world.run(|c| {
        let mut st = SimState::init(c, cfg.clone());
        rebuild_refinement(c, &mut st);
        for _ in 0..2 * CYCLES_PER_DUMP {
            evolve_step(c, &mut st, 1.0);
        }
        global_digest(c, &st)
    });

    // --- Run B: 2 cycles, checkpoint, "crash", restart, 2 more. ---
    let world = World::new(nranks, platform.net.clone());
    let io2 = MpiIo::new(platform.fs.clone());
    let strategy = MpiIoOptimized;
    let run_b = world.run(|c| {
        {
            let mut st = SimState::init(c, cfg.clone());
            rebuild_refinement(c, &mut st);
            for _ in 0..CYCLES_PER_DUMP {
                evolve_step(c, &mut st, 1.0);
            }
            strategy.write_checkpoint(c, &io2, &st, 1);
            // st dropped: the "crash".
        }
        let mut st = strategy.read_checkpoint(c, &io2, &cfg, 1);
        assert_eq!(
            st.cycle, CYCLES_PER_DUMP,
            "restart resumes at the dumped cycle"
        );
        for _ in 0..CYCLES_PER_DUMP {
            evolve_step(c, &mut st, 1.0);
        }
        global_digest(c, &st)
    });
    let _ = io;

    println!("digest straight-through : {:016x}", run_a.results[0]);
    println!("digest crash+restart    : {:016x}", run_b.results[0]);
    assert_eq!(
        run_a.results[0], run_b.results[0],
        "restarted trajectory must match the uninterrupted one"
    );
    println!("restart pipeline verified: trajectories are identical");
}
