//! Static lint rules over [`AccessPlan`]s.
//!
//! Each rule inspects only the statically derived plan (plus, for the
//! fault rules, the platform and fault configuration) — nothing runs.
//! This module owns only the performance and configuration-sanity
//! lints; every happens-before, fault and crash-floor finding comes
//! from `amrio-verify`'s own rules, so the lint and the verifier can
//! never disagree. The CI gate requires zero [`Severity::Error`]
//! findings on shipped presets.
//!
//! [`Severity::Error`]: amrio_plan::Severity::Error

use amrio_disk::{FaultPlan, FsConfig, Placement, RetryPolicy};
use amrio_mpiio::collective::file_domains;
use amrio_plan::{
    sort_diagnostics, AccessPlan, DatasetPlan, Diagnostic, FilePlan, Kind, PlanInput, Span, Writers,
};
use amrio_verify::accesses::partition_split;
use amrio_verify::{clock, commit, faults, races};

/// Payload writes smaller than this count as "small" for the
/// small-write frequency hazard (paper §2.3: ENZO's unoptimized dumps
/// were dominated by requests well under a stripe).
pub const SMALL_WRITE: u64 = 4096;

/// Minimum region count before the frequency lints fire — a handful of
/// tiny header/metadata writes is not a hazard.
const MIN_REGIONS: u64 = 8;

/// Lint a plan against its input: the performance lints, plus
/// `amrio-verify`'s lockstep and race refutations under the input's
/// hints. Returns findings sorted worst-first.
pub fn lint(input: &PlanInput, plan: &AccessPlan) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &plan.files {
        let span = Span::new(plan.backend).file(&file.path);
        small_writes(plan, file, &span, &mut out);
        stripe_straddles(input, plan, file, &span, &mut out);
        for ds in &file.datasets {
            aggregator_imbalance(input, plan, ds, &span, &mut out);
        }
    }
    let sched = clock::analyze(plan);
    out.extend(races::classify(plan, &input.hints, &sched).diagnostics);
    out.extend(sched.diagnostics);
    sort_diagnostics(&mut out);
    out
}

/// Lint a fault plan and retry policy against the access plan: faults
/// that target hardware the plan never touches, plus `amrio-verify`'s
/// fault folding (failures with no failover, transient budgets the
/// retry policy cannot absorb) and its crash-before-first-commit floor.
pub fn lint_faults(
    plan: &AccessPlan,
    fs: &FsConfig,
    faults: &FaultPlan,
    retry: &RetryPolicy,
) -> Vec<Diagnostic> {
    let mut out = faults::fold(plan.backend, faults, retry);
    out.extend(commit::crash_floor(plan, fs, faults));
    let touched = touched_servers(plan, fs);
    let span = Span::new(plan.backend);

    for s in faults.server_targets() {
        if s >= fs.nservers {
            out.push(
                Diagnostic::new(
                    Kind::FaultBadServer,
                    span.clone(),
                    format!(
                        "fault plan targets server {s} but platform '{}' has only {} servers",
                        fs.label, fs.nservers
                    ),
                )
                .suggest(format!("target a server in 0..{}", fs.nservers)),
            );
        } else if !touched.contains(&s) {
            out.push(
                Diagnostic::new(
                    Kind::FaultUntouchedServer,
                    span.clone(),
                    format!(
                        "fault plan targets server {s}, which the access plan never touches \
                         (placement routes no bytes there)"
                    ),
                )
                .suggest(format!("retarget one of the touched servers {touched:?}")),
            );
        }
    }

    for r in faults.straggler_ranks() {
        if r >= plan.nranks {
            out.push(
                Diagnostic::new(
                    Kind::FaultBadRank,
                    span.clone(),
                    format!(
                        "straggler injection names rank {r} but the plan runs {} ranks",
                        plan.nranks
                    ),
                )
                .suggest(format!("use a rank in 0..{}", plan.nranks)),
            );
        }
    }

    sort_diagnostics(&mut out);
    out
}

/// Every payload write region of a file as `(rank, offset, len)`.
/// Partition datasets contribute `amrio-verify`'s canonical even split
/// — the real cut points are data-dependent, but the region *count*
/// and rough sizes are what the frequency lints care about.
fn write_regions(file: &FilePlan, nranks: usize) -> Vec<(usize, u64, u64)> {
    let mut out = Vec::new();
    for ds in &file.datasets {
        match &ds.writers {
            Writers::Ranks(rs) => {
                for rr in rs {
                    for &(o, l) in &rr.regions {
                        out.push((rr.rank, o, l));
                    }
                }
            }
            Writers::Partition => out.extend(partition_split(ds.start, ds.len, nranks)),
        }
    }
    out
}

fn small_writes(plan: &AccessPlan, file: &FilePlan, span: &Span, out: &mut Vec<Diagnostic>) {
    let regions = write_regions(file, plan.nranks);
    let total = regions.len() as u64;
    let small = regions.iter().filter(|&&(_, _, l)| l < SMALL_WRITE).count() as u64;
    if total >= MIN_REGIONS && small * 2 > total {
        out.push(
            Diagnostic::new(
                Kind::SmallWrites,
                span.clone(),
                format!(
                    "{small} of {total} payload writes are under {SMALL_WRITE} B — \
                     per-request overhead will dominate the transfer time"
                ),
            )
            .suggest(
                "gather adjacent arrays into one request per grid, or enable write-behind \
                 staging to coalesce them",
            ),
        );
    }
}

fn stripe_straddles(
    input: &PlanInput,
    plan: &AccessPlan,
    file: &FilePlan,
    span: &Span,
    out: &mut Vec<Diagnostic>,
) {
    // Lock granularity: explicit lock blocks when the platform has them,
    // otherwise the stripe (GPFS-style whole-stripe tokens).
    let block = input.lock_block.unwrap_or(input.stripe).max(1);
    let regions = write_regions(file, plan.nranks);
    let total = regions.len() as u64;
    let straddling = regions
        .iter()
        .filter(|&&(_, o, l)| l > 0 && o / block != (o + l - 1) / block)
        .count() as u64;
    if total >= MIN_REGIONS && straddling * 4 > total {
        out.push(
            Diagnostic::new(
                Kind::StripeStraddle,
                span.clone(),
                format!(
                    "{straddling} of {total} writes straddle a {block}-byte lock block \
                     boundary — each one serializes on shared lock tokens"
                ),
            )
            .suggest(
                "install an application stripe matched to the aggregator file domains \
                 (Advisory::app_stripe), or align file domains",
            ),
        );
    }
}

fn aggregator_imbalance(
    input: &PlanInput,
    plan: &AccessPlan,
    ds: &DatasetPlan,
    span: &Span,
    out: &mut Vec<Diagnostic>,
) {
    if !ds.collective || ds.len == 0 {
        return;
    }
    let naggs = input
        .hints
        .cb_nodes
        .unwrap_or(plan.nranks)
        .clamp(1, plan.nranks);
    if naggs <= 1 {
        return;
    }
    let align = if input.hints.align_file_domains {
        input.stripe
    } else {
        1
    };
    let domains = file_domains(ds.start, ds.start + ds.len, naggs, align);
    let max = domains.iter().map(|&(lo, hi)| hi - lo).max().unwrap_or(0);
    // Perfect balance gives max == len/naggs; flag when the busiest
    // aggregator carries > 1.5x its fair share (alignment rounding on
    // small extents strands aggregators with empty domains).
    if max * naggs as u64 * 2 > ds.len * 3 {
        out.push(
            Diagnostic::new(
                Kind::AggImbalance,
                span.clone().dataset(&ds.name).bytes(ds.extent()),
                format!(
                    "busiest of {naggs} aggregators carries {max} B of a {} B extent \
                     (fair share {}) — two-phase exchange waits on it",
                    ds.len,
                    ds.len / naggs as u64
                ),
            )
            .suggest("reduce cb_nodes or disable file-domain alignment for small extents"),
        );
    }
}

/// The set of PFS servers the plan's writes actually land on, replicating
/// the file system's placement math ([`amrio_disk::Pfs::map_pieces`]).
fn touched_servers(plan: &AccessPlan, fs: &FsConfig) -> std::collections::BTreeSet<usize> {
    let mut servers = std::collections::BTreeSet::new();
    let n = fs.nservers.max(1);
    let stripe = fs.stripe.max(1);
    for (fid, file) in plan.files.iter().enumerate() {
        let fid = fid as u64;
        let mut regions = write_regions(file, plan.nranks);
        for &(rank, off, len) in &file.meta_writes {
            regions.push((rank, off, len));
        }
        for (rank, off, len) in regions {
            if len == 0 {
                continue;
            }
            match fs.placement {
                Placement::ClientLocal => {
                    servers.insert(rank % n);
                }
                Placement::Striped => {
                    let first = off / stripe;
                    let last = (off + len - 1) / stripe;
                    for block in first..=last {
                        servers.insert(((block + fid) % n as u64) as usize);
                        if servers.len() == n {
                            return servers;
                        }
                    }
                }
            }
        }
    }
    servers
}
