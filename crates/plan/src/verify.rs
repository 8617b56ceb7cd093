//! Exact-once dataset coverage over an [`AccessPlan`]. An empty
//! diagnostic list is a proof that the property holds for the planned
//! configuration. (Collective lockstep is proved by `amrio-verify`'s
//! vector-clock walk.)

use crate::diag::{Diagnostic, Kind, Span};
use crate::{AccessPlan, Writers};

/// Outcome of the exact-once coverage pass.
#[derive(Clone, Debug)]
pub struct Verification {
    /// Violations found; empty = the property is proven.
    pub diagnostics: Vec<Diagnostic>,
    /// Datasets checked.
    pub datasets: usize,
    /// Total payload bytes proven covered exactly once.
    pub covered_bytes: u64,
}

impl Verification {
    pub fn is_proven(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Prove that every byte of every dataset is written by exactly one
/// rank: every writer region lies inside the dataset extent, and the
/// regions (clipped to the extent) tile it with no gap and no overlap,
/// within or across ranks. Additionally: dataset extents are pairwise
/// disjoint within a file, and no metadata write lands on a dataset
/// payload. Each broken dataset reports its first gap and first
/// overlap as the witness span.
pub fn verify_exact_once(plan: &AccessPlan) -> Verification {
    let mut out = Vec::new();
    let mut datasets = 0usize;
    let mut covered = 0u64;

    for file in &plan.files {
        let in_file = Span::new(plan.backend).file(&file.path);
        for ds in &file.datasets {
            datasets += 1;
            // A contiguous block partition of the extent covers it
            // exactly once by construction; only the data-dependent cut
            // points are unknown.
            let Writers::Ranks(ranks) = &ds.writers else {
                covered += ds.len;
                continue;
            };
            let span = in_file.clone().dataset(&ds.name);
            let before = out.len();
            let end = ds.start + ds.len;
            let mut regions = Vec::new();
            for rr in ranks {
                for &(off, len) in &rr.regions {
                    if off < ds.start || off + len > end {
                        out.push(Diagnostic::new(
                            Kind::RegionEscapesExtent,
                            span.clone().ranks(rr.rank, rr.rank).bytes((off, len)),
                            format!(
                                "rank {} region ({off},{len}) escapes extent ({},{})",
                                rr.rank, ds.start, ds.len
                            ),
                        ));
                    }
                    let (lo, hi) = (off.max(ds.start), (off + len).min(end));
                    if lo < hi {
                        regions.push((lo, hi, rr.rank));
                    }
                }
            }
            // Sweep the clipped regions in offset order against the
            // covered frontier `reach` (and the rank that set it).
            regions.sort_unstable();
            let (mut gap, mut overlap) = (None, None);
            let mut reach = (ds.start, usize::MAX);
            for &(lo, hi, rank) in &regions {
                if lo > reach.0 && gap.is_none() {
                    gap = Some((reach.0, lo - reach.0));
                }
                if lo < reach.0 && overlap.is_none() {
                    overlap = Some(((lo, hi.min(reach.0) - lo), reach.1, rank));
                }
                if hi > reach.0 {
                    reach = (hi, rank);
                }
            }
            if reach.0 < end && gap.is_none() {
                gap = Some((reach.0, end - reach.0));
            }
            if let Some(g) = gap {
                out.push(Diagnostic::new(
                    Kind::CoverageGap,
                    span.clone().bytes(g),
                    format!(
                        "bytes ({},{}) of extent ({},{}) have no writer",
                        g.0, g.1, ds.start, ds.len
                    ),
                ));
            }
            if let Some((o, a, b)) = overlap {
                out.push(Diagnostic::new(
                    Kind::OverlappingWriters,
                    span.clone().ranks(a, b).bytes(o),
                    format!("ranks {a} and {b} both write bytes ({},{})", o.0, o.1),
                ));
            }
            if out.len() == before {
                covered += ds.len;
            }
        }

        // Dataset extents must be pairwise disjoint.
        let mut extents: Vec<(u64, u64, &str)> = file
            .datasets
            .iter()
            .filter(|d| d.len > 0)
            .map(|d| (d.start, d.len, d.name.as_str()))
            .collect();
        extents.sort_unstable();
        for w in extents.windows(2) {
            let ((s0, l0, a), (s1, l1, b)) = (w[0], w[1]);
            if s0 + l0 > s1 {
                out.push(Diagnostic::new(
                    Kind::DatasetOverlap,
                    in_file
                        .clone()
                        .dataset(b)
                        .bytes((s1, (s0 + l0).min(s1 + l1) - s1)),
                    format!("datasets {a} and {b} overlap"),
                ));
            }
        }

        // Metadata may be rewritten, but never on top of payload.
        for &(rank, off, len) in &file.meta_writes {
            for &(s, l, name) in &extents {
                if len > 0 && off < s + l && off + len > s {
                    out.push(Diagnostic::new(
                        Kind::MetaOnPayload,
                        in_file
                            .clone()
                            .dataset(name)
                            .ranks(rank, rank)
                            .bytes((off, len)),
                        format!(
                            "rank {rank} metadata write ({off},{len}) overlaps dataset {name} \
                             ({s},{l})"
                        ),
                    ));
                }
            }
        }
    }

    Verification {
        diagnostics: out,
        datasets,
        covered_bytes: covered,
    }
}
