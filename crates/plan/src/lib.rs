//! `amrio-plan` — static I/O access-plan extraction, plus the one
//! finding type every static analysis in the workspace reports.
//!
//! Every checkpoint strategy in `amrio-enzo` is deterministic given the
//! replicated grid hierarchy, the rank count, and the backend: which
//! collectives each rank enters, in which order, and which file bytes
//! each dataset write or restart read touches are all decidable *without
//! running the simulator*. This crate extracts that complete per-rank
//! access plan symbolically ([`plan`]) and analyzes it:
//!
//! 1. **Exact-once coverage** ([`verify_exact_once`]): every byte of
//!    every baryon-field and particle dataset is written by exactly one
//!    rank — no gaps, no overlap — and metadata never lands on payload.
//! 2. **Layout quality** ([`layout_metrics`]): file-system-block
//!    straddles, two-phase aggregator balance, and contiguity
//!    statistics per backend — the static half of the paper's Table 1
//!    analysis.
//! 3. **Plan↔trace conformance** ([`check_conformance`], built on the
//!    pure diffs in [`conform`]): a checked run records its `Pfs` trace
//!    and collective log ([`amrio_enzo::RunProbe`]), and any divergence
//!    from the static plan is reported as a hard error.
//!
//! Collective lockstep, races, the commit protocol and fault folding
//! are proved by `amrio-verify` over the same plan; performance lints
//! live in `amrio-tune`. All of them — and the two passes above —
//! report [`Diagnostic`]s: a [`Kind`] whose `Display` is the stable
//! code, a [`Severity`], a message, a suggested fix and a [`Span`].

#![forbid(unsafe_code)]

use amrio_amr::{BlockDecomp, CellBox, Hierarchy};
use amrio_disk::FsConfig;
use amrio_enzo::{wire, RunProbe, TOP_GRID};
use amrio_hdf5::OverheadModel;
use amrio_mpiio::Hints;

pub mod conform;
mod conformance;
pub mod diag;
mod footprint;
mod metrics;
mod schedule;
mod verify;

use amrio_mpiio::Region;
use conform::CollExpect;
pub use conformance::check_conformance;
pub use diag::{sort_diagnostics, Diagnostic, Kind, Severity, Span};
pub use metrics::{layout_metrics, LayoutMetrics};
pub use verify::{verify_exact_once, Verification};

/// Which I/O strategy family the plan models.
#[derive(Clone, Copy, Debug)]
pub enum Backend {
    /// Serial HDF4 through processor 0, subgrids in per-grid files.
    Hdf4,
    /// Optimized MPI-IO: one shared file, two-phase collective fields,
    /// sorted block-wise particle writes.
    MpiIo,
    /// Parallel HDF5 over the MPI-IO driver, with the 2002 overhead
    /// model the plan must mirror (barrier placement and allocator
    /// alignment both depend on it).
    Hdf5(OverheadModel),
}

impl Backend {
    /// Matches `IoStrategy::name()` of the strategy the plan models.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Hdf4 => "HDF4-serial",
            Backend::MpiIo => "MPI-IO",
            Backend::Hdf5(_) => "HDF5-parallel",
        }
    }
}

/// Everything the planner needs about one experiment configuration.
/// Derivable from a [`SimConfig`]-driven run via [`PlanInput::from_probe`]
/// or assembled by hand for degenerate-case analysis.
///
/// [`SimConfig`]: amrio_enzo::SimConfig
#[derive(Clone, Debug)]
pub struct PlanInput {
    /// Replicated grid hierarchy at dump time (owners included).
    pub hierarchy: Hierarchy,
    pub time: f64,
    pub cycle: u64,
    pub nranks: usize,
    /// Dump number (names the checkpoint files).
    pub dump: u32,
    /// File system stripe (drives HDF5 data alignment and aggregator
    /// file-domain alignment).
    pub stripe: u64,
    /// Lock-block granularity; `None` means locks are stripe-sized.
    pub lock_block: Option<u64>,
    /// MPI-IO hints in force (aggregator count, file-domain alignment).
    pub hints: Hints,
}

impl PlanInput {
    pub fn new(
        hierarchy: Hierarchy,
        time: f64,
        cycle: u64,
        nranks: usize,
        fs: &FsConfig,
    ) -> PlanInput {
        assert!(nranks > 0, "plan needs at least one rank");
        PlanInput {
            hierarchy,
            time,
            cycle,
            nranks,
            dump: 0,
            stripe: fs.stripe,
            lock_block: fs.lock_block,
            hints: Hints::default(),
        }
    }

    /// Build the input from a probed run's dump-time state, so the plan
    /// describes exactly the checkpoint that run wrote.
    pub fn from_probe(probe: &RunProbe, fs: &FsConfig) -> PlanInput {
        PlanInput::new(
            probe.hierarchy.clone(),
            probe.time,
            probe.cycle,
            probe.nranks,
            fs,
        )
    }

    /// Top-grid edge length in cells (the top grid is always a cube).
    pub(crate) fn root_n(&self) -> u64 {
        let top = self.hierarchy.find(TOP_GRID).expect("no top grid");
        top.bbox.size()[0]
    }

    /// The block decomposition of the top grid across the world.
    pub(crate) fn decomp(&self) -> BlockDecomp {
        BlockDecomp::new(CellBox::cube(self.root_n()), self.nranks)
    }

    /// Exact byte length of the serialized hierarchy metadata.
    pub(crate) fn meta_len(&self) -> u64 {
        wire::encode_hierarchy(&self.hierarchy, self.time, self.cycle).len() as u64
    }
}

/// Who writes a dataset's bytes.
#[derive(Clone, Debug)]
pub enum Writers {
    /// Statically known: each listed rank writes exactly its regions
    /// (absolute file offsets). Ranks with no regions are omitted.
    Ranks(Vec<RankRegions>),
    /// A contiguous partition of the full extent across ranks whose
    /// boundaries are data-dependent (the post-sort particle block
    /// bounds). The partition covers the extent exactly once by
    /// construction; only the cut points vary with the data.
    Partition,
}

/// The byte regions one rank writes into a dataset.
#[derive(Clone, Debug)]
pub struct RankRegions {
    pub rank: usize,
    /// Absolute `(offset, len)` file regions.
    pub regions: Vec<Region>,
}

/// One dataset's extent in a checkpoint file and its writer set.
#[derive(Clone, Debug)]
pub struct DatasetPlan {
    pub name: String,
    /// Absolute file offset of the payload.
    pub start: u64,
    pub len: u64,
    /// Written through collective (two-phase) I/O.
    pub collective: bool,
    pub writers: Writers,
}

impl DatasetPlan {
    /// `(start, len)` extent of the payload.
    pub fn extent(&self) -> Region {
        (self.start, self.len)
    }
}

/// The complete static footprint of one checkpoint file.
#[derive(Clone, Debug)]
pub struct FilePlan {
    pub path: String,
    pub datasets: Vec<DatasetPlan>,
    /// `(rank, offset, len)` of every metadata write (headers,
    /// superblocks, catalogs, attributes). Metadata regions may
    /// legitimately be rewritten (e.g. a superblock is written at
    /// create and again at close) but must never overlap a dataset
    /// payload.
    pub meta_writes: Vec<(usize, u64, u64)>,
    /// Byte regions the restart read must fetch from this file.
    pub reads: Vec<Region>,
}

impl FilePlan {
    /// Union of everything the plan says gets written to this file —
    /// dataset payloads plus metadata (unnormalized).
    pub fn planned_write_regions(&self) -> Vec<Region> {
        let mut out: Vec<Region> = self
            .meta_writes
            .iter()
            .map(|&(_, off, len)| (off, len))
            .collect();
        for ds in &self.datasets {
            match &ds.writers {
                Writers::Ranks(rs) => {
                    for rr in rs {
                        out.extend_from_slice(&rr.regions);
                    }
                }
                Writers::Partition => out.push(ds.extent()),
            }
        }
        out
    }
}

/// The full statically derived access plan of one checkpoint dump +
/// restart for one backend: per-rank collective schedules and per-file
/// byte footprints.
#[derive(Clone, Debug)]
pub struct AccessPlan {
    /// Strategy name (matches `IoStrategy::name()`).
    pub backend: &'static str,
    pub nranks: usize,
    /// `write_schedule[r]` = the collectives rank `r` enters during
    /// `write_checkpoint`, in order.
    pub write_schedule: Vec<Vec<CollExpect>>,
    /// Same for `read_checkpoint`.
    pub read_schedule: Vec<Vec<CollExpect>>,
    pub files: Vec<FilePlan>,
}

impl AccessPlan {
    /// Total dataset payload bytes across all files.
    pub fn data_bytes(&self) -> u64 {
        self.files
            .iter()
            .flat_map(|f| f.datasets.iter())
            .map(|d| d.len)
            .sum()
    }

    /// Total dataset count across all files.
    pub fn dataset_count(&self) -> usize {
        self.files.iter().map(|f| f.datasets.len()).sum()
    }
}

/// Extract the complete access plan for one configuration and backend.
pub fn plan(input: &PlanInput, backend: Backend) -> AccessPlan {
    let fp = footprint::build(input, backend);
    let (write_schedule, read_schedule) = schedule::build(input, backend, fp.h5_catalog_len);
    AccessPlan {
        backend: backend.name(),
        nranks: input.nranks,
        write_schedule,
        read_schedule,
        files: fp.files,
    }
}

#[cfg(test)]
mod tests;
