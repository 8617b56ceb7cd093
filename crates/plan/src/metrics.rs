//! Static layout-quality metrics over an access plan: how contiguous
//! the writes are, how often they straddle file-system lock blocks, and
//! how evenly the two-phase file domains split the collective extents —
//! the paper's Table 1 analysis, derived without running anything.

use crate::{AccessPlan, PlanInput, Writers};
use amrio_mpiio::collective::file_domains;

/// Layout quality of one backend's checkpoint, statically derived.
#[derive(Clone, Debug)]
pub struct LayoutMetrics {
    pub backend: &'static str,
    pub files: usize,
    pub datasets: usize,
    /// Total dataset payload bytes.
    pub data_bytes: u64,
    /// Total metadata bytes written (headers, catalogs, attributes),
    /// after merging rewrites of the same region.
    pub meta_bytes: u64,
    /// Statically known payload write regions (a data-dependent
    /// partition counts as one region per dataset).
    pub write_regions: u64,
    /// Mean payload bytes per write region.
    pub mean_region_bytes: f64,
    /// Payload regions crossing at least one lock-block boundary.
    pub block_straddles: u64,
    /// Fraction of payload regions starting on a lock-block boundary.
    pub aligned_region_frac: f64,
    /// Worst-case aggregator imbalance over the collective datasets:
    /// `max_domain_bytes * naggs / extent_bytes` (1.0 = perfectly
    /// balanced, 0.0 = no collective datasets).
    pub aggregator_imbalance: f64,
}

/// Enumerate the payload regions of one dataset for metric purposes.
fn regions_of(ds: &crate::DatasetPlan) -> Vec<(u64, u64)> {
    match &ds.writers {
        Writers::Ranks(ranks) => ranks
            .iter()
            .flat_map(|rr| rr.regions.iter().copied())
            .collect(),
        // Cut points are data-dependent; the span itself is not.
        Writers::Partition => {
            if ds.len > 0 {
                vec![ds.extent()]
            } else {
                Vec::new()
            }
        }
    }
}

pub fn layout_metrics(input: &PlanInput, plan: &AccessPlan) -> LayoutMetrics {
    // Lock granularity: explicit lock blocks if the platform has them,
    // otherwise the stripe (GPFS-style whole-stripe tokens).
    let block = input.lock_block.unwrap_or(input.stripe).max(1);

    let mut regions = 0u64;
    let mut region_bytes = 0u64;
    let mut straddles = 0u64;
    let mut aligned = 0u64;
    let mut meta_bytes = 0u64;
    let mut worst_imbalance = 0.0f64;

    for file in &plan.files {
        let mut meta: Vec<(u64, u64)> = file
            .meta_writes
            .iter()
            .map(|&(_, off, len)| (off, len))
            .collect();
        meta.retain(|(_, l)| *l > 0);
        amrio_mpiio::normalize(&mut meta);
        meta_bytes += meta.iter().map(|(_, l)| l).sum::<u64>();

        for ds in &file.datasets {
            for (off, len) in regions_of(ds) {
                if len == 0 {
                    continue;
                }
                regions += 1;
                region_bytes += len;
                if off / block != (off + len - 1) / block {
                    straddles += 1;
                }
                if off % block == 0 {
                    aligned += 1;
                }
            }
            if ds.collective && ds.len > 0 {
                let naggs = input
                    .hints
                    .cb_nodes
                    .unwrap_or(input.nranks)
                    .clamp(1, input.nranks);
                let align = if input.hints.align_file_domains {
                    input.stripe
                } else {
                    1
                };
                let domains = file_domains(ds.start, ds.start + ds.len, naggs, align);
                let max_domain = domains.iter().map(|&(s, e)| e - s).max().unwrap_or(0);
                let imbalance = max_domain as f64 * naggs as f64 / ds.len as f64;
                worst_imbalance = worst_imbalance.max(imbalance);
            }
        }
    }

    LayoutMetrics {
        backend: plan.backend,
        files: plan.files.len(),
        datasets: plan.dataset_count(),
        data_bytes: plan.data_bytes(),
        meta_bytes,
        write_regions: regions,
        mean_region_bytes: if regions > 0 {
            region_bytes as f64 / regions as f64
        } else {
            0.0
        },
        block_straddles: straddles,
        aligned_region_frac: if regions > 0 {
            aligned as f64 / regions as f64
        } else {
            0.0
        },
        aggregator_imbalance: worst_imbalance,
    }
}

impl std::fmt::Display for LayoutMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<14} files {:>4}  datasets {:>5}  data {:>12} B  meta {:>8} B  \
             regions {:>6} (mean {:>10.0} B)  straddles {:>5}  aligned {:>5.1}%  \
             agg-imbalance {:.2}",
            self.backend,
            self.files,
            self.datasets,
            self.data_bytes,
            self.meta_bytes,
            self.write_regions,
            self.mean_region_bytes,
            self.block_straddles,
            self.aligned_region_frac * 100.0,
            self.aggregator_imbalance,
        )
    }
}
