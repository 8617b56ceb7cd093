//! Admission control for [`Experiment`]s: verify statically before
//! (or instead of) running.
//!
//! The extension trait lives here rather than in `amrio-enzo` because
//! the analysis needs `amrio-plan`, which itself depends on
//! `amrio-enzo` — the trait is the dependency-respecting way to hang
//! `.verify_static()` off an experiment.
//!
//! The plan's hierarchy is obtained from a cheap *I/O-free* world run
//! (init → refine → `cycles` evolve steps → refine), the same state
//! evolution the experiment itself would perform before its first
//! dump — no checkpoint is written, no file system is simulated, and
//! no checker runs, which is where the ≥10x analysis-vs-simulation
//! advantage comes from.

use crate::commit::CommitSpec;
use crate::{verify, VerifyInput, VerifyReport};
use amrio_enzo::evolve::{evolve_step, rebuild_refinement};
use amrio_enzo::state::SimState;
use amrio_enzo::{Experiment, StaticInputs};
use amrio_mpi::World;
use amrio_plan::{plan, Backend, Diagnostic, Kind, PlanInput, Span};

/// Map a strategy name onto its symbolic plan backend. Strategies the
/// plan extractor does not model (write-behind, multi-file, naive
/// independent I/O, MDMS) verify as `Unknown(UnmodeledBackend)`.
pub fn backend_of(strategy: &str) -> Option<Backend> {
    match strategy {
        "HDF4-serial" => Some(Backend::Hdf4),
        "MPI-IO" => Some(Backend::MpiIo),
        "HDF5-parallel" => Some(Backend::Hdf5(Default::default())),
        _ => None,
    }
}

/// Derive the [`PlanInput`] an experiment's first dump would see: the
/// dump-time hierarchy from an I/O-free state evolution.
pub fn plan_input_of(inputs: &StaticInputs<'_>) -> PlanInput {
    let cfg = inputs.cfg.clone();
    let cycles = inputs.dump_every.unwrap_or(inputs.cycles);
    let mut world = World::new(cfg.nranks, inputs.platform.net.clone());
    if let Some(f) = &inputs.faults {
        world = world.with_faults(f.clone());
    }
    let r = world.run(move |comm| {
        let mut st = SimState::init(comm, cfg.clone());
        rebuild_refinement(comm, &mut st);
        for _ in 0..cycles {
            evolve_step(comm, &mut st, 1.0);
        }
        rebuild_refinement(comm, &mut st);
        if comm.rank() == 0 {
            Some((st.hierarchy.clone(), st.time, st.cycle))
        } else {
            None
        }
    });
    let (hierarchy, time, cycle) = r
        .results
        .into_iter()
        .flatten()
        .next()
        .expect("rank 0 returns the hierarchy");
    PlanInput::new(
        hierarchy,
        time,
        cycle,
        inputs.cfg.nranks,
        &inputs.platform.fs,
    )
}

/// Static admission control for experiments.
pub trait VerifyStatic {
    /// Verify every statically-checkable property of this experiment
    /// without executing it: schedule lockstep, footprint races, the
    /// commit protocol, and the armed fault plan. Strategies without a
    /// symbolic plan backend return `Unknown(UnmodeledBackend)`.
    fn verify_static(&self) -> VerifyReport;
}

impl VerifyStatic for Experiment<'_> {
    fn verify_static(&self) -> VerifyReport {
        let inputs = self.static_inputs();
        let Some(backend) = backend_of(inputs.strategy) else {
            return VerifyReport {
                diagnostics: vec![Diagnostic::new(
                    Kind::UnmodeledBackend,
                    Span::new(inputs.strategy),
                    format!(
                        "unprovable: strategy {:?} has no symbolic plan backend",
                        inputs.strategy
                    ),
                )],
                ..VerifyReport::default()
            };
        };
        let input = plan_input_of(&inputs);
        let access = plan(&input, backend);
        verify(&VerifyInput {
            plan: &access,
            hints: &input.hints,
            fs: &inputs.platform.fs,
            faults: inputs.faults.as_deref(),
            retry: inputs.retry,
            commit: CommitSpec::default(),
        })
    }
}
