//! `amrio-disk` — simulated storage: block devices, sparse file contents,
//! and striped parallel file systems with the contention mechanisms of the
//! paper's three platforms (XFS, GPFS, PVFS + node-local disks).
//!
//! File *contents* are real bytes (checkpoints genuinely round-trip);
//! file *timing* comes from the device, striping, locking and queueing
//! models. All methods that touch shared state must be called from
//! `amrio-simt` ordered sections.

#![forbid(unsafe_code)]

pub mod dev;
pub mod fs;
pub mod presets;
pub mod store;
pub mod trace;

pub use dev::{BlockDev, DiskParams};
pub use fs::{FileId, FsConfig, FsStats, IoCompletion, IoOp, Pfs, Piece, Placement};
pub use store::ExtentStore;
pub use trace::{IoEvent, IoTrace, TraceReport};

// The fault vocabulary of the fallible request path, re-exported so
// layers above can speak it without a direct `amrio-fault` dependency.
pub use amrio_fault::{
    window_secs, Crashed, FaultError, FaultPlan, IoError, IoResult, ResilienceReport,
    ResilienceStats, RetryPolicy, Window,
};
