//! Plan↔trace conformance: diff a statically derived [`AccessPlan`]
//! against what a probed run actually did ([`RunProbe`]) — the
//! collective log windowed to the checkpoint phases, and the raw `Pfs`
//! trace grouped per file. Zero diagnostics means the run behaved exactly as
//! the static plan predicted.

use crate::conform::{diff_collectives, diff_read_cover, diff_write_union};
use crate::diag::{Diagnostic, Kind, Span};
use crate::AccessPlan;
use amrio_check::CollDesc;
use amrio_enzo::RunProbe;
use amrio_mpiio::Region;
use std::collections::BTreeMap;

/// Observed rank-0 collective descriptors inside an epoch window.
fn window(probe: &RunProbe, epochs: (u64, u64)) -> Vec<CollDesc> {
    probe
        .collectives
        .iter()
        .filter(|(e, _)| *e >= epochs.0 && *e < epochs.1)
        .map(|(_, d)| d.clone())
        .collect()
}

/// Diff the plan against the probe. Checks, in order:
///
/// 1. the collective sequence of the write and read phases against the
///    plan's rank-0 schedules (the checker logs rank-0 descriptors);
/// 2. per file, that the union of observed write regions equals the
///    planned union exactly (dataset payloads + metadata);
/// 3. per file, that every planned read byte was actually read (the
///    run may over-read: data sieving, format header scans);
/// 4. that the run touched no file the plan does not know.
pub fn check_conformance(plan: &AccessPlan, probe: &RunProbe) -> Vec<Diagnostic> {
    let mut issues = Vec::new();
    let span = Span::new(plan.backend);

    if let (Some(w0), Some(r0)) = (plan.write_schedule.first(), plan.read_schedule.first()) {
        issues.extend(diff_collectives(
            &span,
            "write",
            w0,
            &window(probe, probe.write_epochs),
        ));
        issues.extend(diff_collectives(
            &span,
            "read",
            r0,
            &window(probe, probe.read_epochs),
        ));
    }

    // Group the trace per file path, splitting writes from reads.
    let mut writes: BTreeMap<&str, Vec<Region>> = BTreeMap::new();
    let mut reads: BTreeMap<&str, Vec<Region>> = BTreeMap::new();
    for ev in &probe.events {
        if ev.len == 0 {
            continue;
        }
        let Some((path, _)) = probe.files.iter().find(|(_, id)| *id == ev.file) else {
            continue;
        };
        let map = if ev.write { &mut writes } else { &mut reads };
        map.entry(path.as_str())
            .or_default()
            .push((ev.offset, ev.len));
    }

    for fp in &plan.files {
        let file = span.clone().file(&fp.path);
        let observed_w = writes.remove(fp.path.as_str()).unwrap_or_default();
        issues.extend(diff_write_union(
            &file,
            fp.planned_write_regions(),
            observed_w,
        ));
        let observed_r = reads.remove(fp.path.as_str()).unwrap_or_default();
        issues.extend(diff_read_cover(&file, fp.reads.clone(), observed_r));
    }

    // Whatever traffic remains hit files outside the plan.
    let mut stray: Vec<&str> = writes.keys().chain(reads.keys()).copied().collect();
    stray.sort_unstable();
    stray.dedup();
    for file in stray {
        issues.push(Diagnostic::new(
            Kind::UnplannedFile,
            span.clone().file(file),
            format!("unplanned file accessed: {file}"),
        ));
    }
    issues
}
