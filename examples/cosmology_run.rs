//! A longer cosmology-style run: watch structure form (particles fall
//! into the proto-clusters), the AMR hierarchy adapt, and periodic data
//! dumps go out — the workload of paper Fig. 2.
//!
//! ```sh
//! cargo run --release --example cosmology_run
//! ```

use amrio::enzo::evolve::{evolve_step, rebuild_refinement};
use amrio::enzo::{IoStrategy, MpiIoOptimized, Platform, ProblemSize, SimConfig, SimState};
use amrio_mpi::World;
use amrio_mpiio::MpiIo;
use amrio_simt::SimTime;

/// Evolution cycles between data dumps.
const CYCLES_PER_DUMP: u64 = 3;

fn main() {
    let nranks = 8;
    let platform = Platform::origin2000(nranks);
    let cfg = SimConfig::new(ProblemSize::Custom(32), nranks);

    let world = World::new(nranks, platform.net.clone());
    let io = MpiIo::new(platform.fs.clone());
    let strategy = MpiIoOptimized;

    let report = world.run(|c| {
        let mut st = SimState::init(c, cfg.clone());
        rebuild_refinement(c, &mut st);
        let mut rows = Vec::new();
        let mut dump_id = 0u32;
        for cycle in 1..=9u64 {
            evolve_step(c, &mut st, 1.0);
            if cycle % CYCLES_PER_DUMP == 0 {
                rebuild_refinement(c, &mut st);
                let t0 = c.now();
                strategy.write_checkpoint(c, &io, &st, dump_id);
                c.barrier();
                let dt = c.now() - t0;
                if c.rank() == 0 {
                    let l1: u64 = st.hierarchy.at_level(1).map(|g| g.bbox.cells()).sum();
                    let l2: u64 = st.hierarchy.at_level(2).map(|g| g.bbox.cells()).sum();
                    rows.push((
                        cycle,
                        dump_id,
                        st.hierarchy.grids.len(),
                        l1,
                        l2,
                        dt.as_secs_f64(),
                    ));
                }
                dump_id += 1;
            }
        }
        (rows, c.now())
    });

    println!(
        "{:>6} {:>6} {:>7} {:>10} {:>10} {:>10}",
        "cycle", "dump", "grids", "L1 cells", "L2 cells", "dump[s]"
    );
    for (cycle, dump, grids, l1, l2, dt) in &report.results[0].0 {
        println!(
            "{:>6} {:>6} {:>7} {:>10} {:>10} {:>10.3}",
            cycle, dump, grids, l1, l2, dt
        );
    }
    let end: SimTime = report.results.iter().map(|(_, t)| *t).max().unwrap();
    println!(
        "\nsimulated wall time of the whole run: {:.2}s",
        end.as_secs_f64()
    );
    println!(
        "(the refined region tracks the clustering matter — compare L1/L2 cells across dumps)"
    );
}
