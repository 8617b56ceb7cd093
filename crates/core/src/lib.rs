//! `amrio-enzo` — the ENZO-like AMR cosmology application with the three
//! I/O strategies the paper compares (serial HDF4, optimized MPI-IO,
//! parallel HDF5), plus the experiment driver behind every figure.
//!
//! ```no_run
//! use amrio_enzo::{driver::Experiment, io::MpiIoOptimized, Platform, ProblemSize, SimConfig};
//!
//! let platform = Platform::origin2000(8);
//! let cfg = SimConfig::new(ProblemSize::Amr64, 8);
//! let report = Experiment::new(&platform, &cfg, &MpiIoOptimized)
//!     .cycles(2)
//!     .run()
//!     .report;
//! println!("write {:.3}s read {:.3}s", report.write_time, report.read_time);
//! ```

#![forbid(unsafe_code)]

pub mod driver;
pub mod evolve;
pub mod ic;
pub mod io;
pub mod platform;
pub mod problem;
pub mod sort;
pub mod spec;
pub mod state;
pub mod wire;

pub use driver::{Experiment, RecoveryOutcome, RunOutcome, RunProbe, RunReport, StaticInputs};
pub use io::{
    Hdf4Serial, Hdf5Parallel, IoStrategy, MdmsAdvised, MpiIoAppStriped, MpiIoMultiFile, MpiIoNaive,
    MpiIoOptimized, MpiIoWriteBehind,
};
pub use platform::Platform;
pub use problem::{ProblemSize, SimConfig};
pub use spec::{
    ExperimentSpec, FaultEntry, FaultSpec, PlatformId, RetrySpec, SpecError, SpecExperiment,
    StrategyId,
};
pub use state::{global_digest, SimState, TOP_GRID};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evolve::{evolve_step, rebuild_refinement};
    use amrio_mpi::World;
    use amrio_mpiio::MpiIo;
    use std::num::NonZeroU32;

    fn tiny_cfg(nranks: usize) -> SimConfig {
        let mut c = SimConfig::new(ProblemSize::Custom(16), nranks);
        c.particle_fraction = 0.5;
        c.refine_threshold = 3.0;
        c
    }

    fn roundtrip(strategy: &dyn IoStrategy, nranks: usize) -> bool {
        let platform = Platform::origin2000(nranks);
        let world = World::new(nranks, platform.net.clone());
        let io = MpiIo::new(platform.fs.clone());
        let r = world.run(|c| {
            let mut st = SimState::init(c, tiny_cfg(nranks));
            rebuild_refinement(c, &mut st);
            evolve_step(c, &mut st, 1.0);
            strategy.write_checkpoint(c, &io, &st, 0);
            let d0 = global_digest(c, &st);
            let st2 = strategy.read_checkpoint(c, &io, &st.cfg, 0);
            let d1 = global_digest(c, &st2);
            // Scalars must also survive.
            d0 == d1
                && st2.time == st.time
                && st2.cycle == st.cycle
                && st2.hierarchy.grids.len() == st.hierarchy.grids.len()
        });
        r.results.iter().all(|x| *x)
    }

    #[test]
    fn hdf4_roundtrip_preserves_state() {
        assert!(roundtrip(&Hdf4Serial, 4));
    }

    #[test]
    fn mpiio_roundtrip_preserves_state() {
        assert!(roundtrip(&MpiIoOptimized, 4));
    }

    #[test]
    fn hdf5_roundtrip_preserves_state() {
        assert!(roundtrip(&Hdf5Parallel::default(), 4));
    }

    #[test]
    fn all_strategies_produce_identical_digests() {
        // The three strategies must dump/restore the *same* simulation.
        let digest_of = |strategy: &dyn IoStrategy| {
            let platform = Platform::origin2000(4);
            let world = World::new(4, platform.net.clone());
            let io = MpiIo::new(platform.fs.clone());
            let r = world.run(|c| {
                let mut st = SimState::init(c, tiny_cfg(4));
                rebuild_refinement(c, &mut st);
                strategy.write_checkpoint(c, &io, &st, 0);
                let st2 = strategy.read_checkpoint(c, &io, &st.cfg, 0);
                global_digest(c, &st2)
            });
            r.results[0]
        };
        let a = digest_of(&Hdf4Serial);
        let b = digest_of(&MpiIoOptimized);
        let c = digest_of(&Hdf5Parallel::default());
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn zero_dump_interval_is_a_typed_error_not_a_panic() {
        use crate::spec::{ExperimentSpec, PlatformId, SpecError, StrategyId};
        let mut spec =
            ExperimentSpec::new(PlatformId::Origin2000, StrategyId::MpiIoOptimized, 16, 4);
        spec.dump_every = Some(0);
        let built = std::panic::catch_unwind(|| Experiment::from_spec(&spec).map(|_| ()));
        assert_eq!(built.expect("no panic"), Err(SpecError::ZeroDumpEvery));
        // A positive interval still selects the generational path.
        spec.dump_every = Some(1);
        let out = Experiment::from_spec(&spec).expect("valid spec").run();
        assert!(out.report.verified);
    }

    #[test]
    fn generational_dumps_commit_and_verify() {
        let cfg = tiny_cfg(4);
        let platform = Platform::origin2000(4);
        let out = Experiment::new(&platform, &cfg, &MpiIoOptimized)
            .cycles(2)
            .dump_every(NonZeroU32::new(1).unwrap())
            .run();
        assert!(out.report.verified, "every generation must round-trip");
        assert!(out.recovery.is_none(), "no crash was armed");
        // Two cycles at one dump per cycle → generations 0 and 1, each
        // committed by a manifest the recovery scanner accepts.
        let rep = out.report;
        assert!(rep.bytes_written > 0 && rep.bytes_read > 0);
    }

    #[test]
    fn run_experiment_reports_sane_numbers() {
        let cfg = tiny_cfg(4);
        let platform = Platform::origin2000(4);
        let rep = Experiment::new(&platform, &cfg, &MpiIoOptimized)
            .cycles(1)
            .run()
            .report;
        assert!(rep.verified, "restart must verify");
        assert!(rep.write_time > 0.0);
        assert!(rep.read_time > 0.0);
        assert!(rep.bytes_written > 0);
        assert!(rep.grids >= 1);
        assert_eq!(rep.nranks, 4);
        assert!(rep.resilience.is_quiet(), "no faults were injected");
    }
}

#[cfg(test)]
mod mdms_tests {
    use super::*;
    use crate::evolve::rebuild_refinement;
    use amrio_mpi::World;
    use amrio_mpiio::MpiIo;

    fn tiny(nranks: usize) -> SimConfig {
        let mut c = SimConfig::new(ProblemSize::Custom(16), nranks);
        c.particle_fraction = 0.5;
        c.refine_threshold = 3.0;
        c
    }

    #[test]
    fn mdms_advised_roundtrip_preserves_state() {
        let platform = Platform::origin2000(4);
        let world = World::new(4, platform.net.clone());
        let io = MpiIo::new(platform.fs.clone());
        let strategy = MdmsAdvised;
        let ok = world.run(|c| {
            let mut st = SimState::init(c, tiny(4));
            rebuild_refinement(c, &mut st);
            strategy.write_checkpoint(c, &io, &st, 0);
            let d0 = global_digest(c, &st);
            let st2 = strategy.read_checkpoint(c, &io, &st.cfg, 0);
            d0 == global_digest(c, &st2)
        });
        assert!(ok.results.iter().all(|x| *x));
    }

    #[test]
    fn naive_reader_roundtrips_but_slower_than_advised() {
        let time_of = |advised: bool| {
            let platform = Platform::origin2000(8);
            let world = World::new(8, platform.net.clone());
            let io = MpiIo::new(platform.fs.clone());
            let r = world.run(move |c| {
                let mut st = SimState::init(c, tiny(8));
                rebuild_refinement(c, &mut st);
                let d0 = global_digest(c, &st);
                let (rt, d1) = if advised {
                    MdmsAdvised.write_checkpoint(c, &io, &st, 0);
                    let (rt, st2) =
                        driver::timed(c, || MdmsAdvised.read_checkpoint(c, &io, &st.cfg, 0));
                    (rt, global_digest(c, &st2))
                } else {
                    MpiIoNaive.write_checkpoint(c, &io, &st, 0);
                    let (rt, st2) =
                        driver::timed(c, || MpiIoNaive.read_checkpoint(c, &io, &st.cfg, 0));
                    (rt, global_digest(c, &st2))
                };
                assert_eq!(d0, d1, "roundtrip must verify");
                rt
            });
            r.results[0]
        };
        let advised = time_of(true);
        let naive = time_of(false);
        assert!(
            advised < naive,
            "advised {advised:?} must beat naive {naive:?}"
        );
    }
}
