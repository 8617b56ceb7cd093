//! Pure plan↔trace conformance primitives: the backend-agnostic diff
//! machinery that compares a plan's collective schedule and byte
//! footprints against what a checked run actually recorded — the
//! [`Checker`] collective log and the `amrio-disk` I/O trace. Every
//! function is pure over plain data, so the diffs are unit-testable in
//! isolation.
//!
//! [`Checker`]: amrio_check::Checker

use crate::diag::{Diagnostic, Kind, Span};
use amrio_check::{CollDesc, CollKind};
use amrio_mpiio::{normalize, Region};
use std::fmt;

/// What the plan expects of one collective step. `bytes` is `Some` only
/// when the payload is data-independent (reductions, fixed-size
/// broadcasts); `None` steps match any byte count, since v-collective
/// payloads legitimately depend on evolved data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CollExpect {
    pub kind: CollKind,
    pub root: Option<usize>,
    pub op: Option<&'static str>,
    /// Expected payload bytes of the rank whose log is diffed (rank 0),
    /// when statically known.
    pub bytes: Option<u64>,
    /// Whether all ranks must agree on the byte count.
    pub uniform: bool,
    /// Human-readable origin of the step, e.g. `"field density: two-phase
    /// exchange"`.
    pub label: &'static str,
}

impl CollExpect {
    pub fn matches(&self, d: &CollDesc) -> bool {
        self.kind == d.kind
            && self.root == d.root
            && self.op == d.op
            && self.bytes.map(|b| b == d.bytes).unwrap_or(true)
    }
}

impl fmt::Display for CollExpect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(root={:?}, op={:?}", self.kind, self.root, self.op)?;
        match self.bytes {
            Some(b) => write!(f, ", {b}B)")?,
            None => write!(f, ", *B)")?,
        }
        write!(f, " [{}]", self.label)
    }
}

/// Set difference `a \ b` of two normalized region lists.
pub fn subtract_regions(a: &[Region], b: &[Region]) -> Vec<Region> {
    let mut out = Vec::new();
    let mut bi = 0;
    for &(off, len) in a {
        let mut cur = off;
        let end = off + len;
        while bi > 0 && b[bi - 1].0 + b[bi - 1].1 > cur {
            bi -= 1;
        }
        while cur < end {
            // Skip b-regions entirely before `cur`.
            while bi < b.len() && b[bi].0 + b[bi].1 <= cur {
                bi += 1;
            }
            match b.get(bi) {
                Some(&(bo, bl)) if bo < end => {
                    if bo > cur {
                        out.push((cur, bo - cur));
                    }
                    cur = (bo + bl).min(end).max(cur);
                    if bo + bl >= end {
                        break;
                    }
                }
                _ => {
                    out.push((cur, end - cur));
                    break;
                }
            }
        }
    }
    out
}

/// Diff a planned collective schedule against an observed descriptor
/// sequence (in epoch order). Mismatched steps are reported
/// individually; a length mismatch is reported once.
pub fn diff_collectives(
    span: &Span,
    phase: &'static str,
    expected: &[CollExpect],
    observed: &[CollDesc],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if expected.len() != observed.len() {
        out.push(Diagnostic::new(
            Kind::CollectiveCount,
            span.clone(),
            format!(
                "{phase} phase: planned {} collectives, observed {}",
                expected.len(),
                observed.len()
            ),
        ));
    }
    for (step, (e, o)) in expected.iter().zip(observed).enumerate() {
        if !e.matches(o) {
            out.push(Diagnostic::new(
                Kind::CollectiveStep,
                span.clone(),
                format!(
                    "{phase} phase, collective #{step}: planned {e}, observed {}(root={:?}, \
                     op={:?}, {}B)",
                    o.kind, o.root, o.op, o.bytes
                ),
            ));
            if out.len() >= 32 {
                break;
            }
        }
    }
    out
}

/// One diagnostic for a non-empty set of divergent regions, anchored at
/// the first of them.
fn regions_issue(kind: Kind, span: &Span, what: &str, regions: Vec<Region>) -> Option<Diagnostic> {
    let first = *regions.first()?;
    Some(Diagnostic::new(
        kind,
        span.clone().bytes(first),
        format!("{what}: {regions:?}"),
    ))
}

/// Require the observed write union to equal the planned one exactly.
/// Both inputs may be unnormalized; `span` names the file.
pub fn diff_write_union(
    span: &Span,
    mut planned: Vec<Region>,
    mut observed: Vec<Region>,
) -> Vec<Diagnostic> {
    for regions in [&mut planned, &mut observed] {
        regions.retain(|(_, l)| *l > 0);
        normalize(regions);
    }
    let missing = subtract_regions(&planned, &observed);
    let extra = subtract_regions(&observed, &planned);
    [
        regions_issue(Kind::WriteGap, span, "planned bytes never written", missing),
        regions_issue(Kind::WriteExtra, span, "unplanned bytes written", extra),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// Require every planned read byte to have been observed read (the run
/// may legitimately over-read: data sieving, format header probing).
pub fn diff_read_cover(
    span: &Span,
    mut planned: Vec<Region>,
    mut observed: Vec<Region>,
) -> Vec<Diagnostic> {
    for regions in [&mut planned, &mut observed] {
        regions.retain(|(_, l)| *l > 0);
        normalize(regions);
    }
    let missing = subtract_regions(&planned, &observed);
    regions_issue(Kind::ReadMissing, span, "planned bytes never read", missing)
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subtract_carves_holes() {
        assert_eq!(
            subtract_regions(&[(0, 100)], &[(10, 10), (50, 10)]),
            vec![(0, 10), (20, 30), (60, 40)]
        );
        assert_eq!(subtract_regions(&[(0, 10)], &[(0, 10)]), vec![]);
        assert_eq!(subtract_regions(&[(5, 10)], &[]), vec![(5, 10)]);
        assert_eq!(subtract_regions(&[], &[(0, 10)]), vec![]);
        // b covering past the end of a.
        assert_eq!(subtract_regions(&[(10, 10)], &[(0, 100)]), vec![]);
    }

    #[test]
    fn write_union_equality() {
        // Same union spelled differently: clean.
        let f = Span::new("t").file("f");
        assert!(diff_write_union(&f, vec![(0, 64), (64, 64)], vec![(0, 128)]).is_empty());
        let issues = diff_write_union(&f, vec![(0, 128)], vec![(0, 64), (100, 64)]);
        assert_eq!(issues.len(), 2, "{issues:?}");
        assert_eq!(issues[0].kind, Kind::WriteGap);
        assert_eq!(issues[0].span.bytes, Some((64, 36)));
        assert_eq!(issues[1].kind, Kind::WriteExtra);
        assert_eq!(issues[1].span.bytes, Some((128, 36)));
        assert_eq!(issues[1].span.file.as_deref(), Some("f"));
    }

    #[test]
    fn read_cover_allows_overread() {
        let f = Span::new("t").file("f");
        assert!(diff_read_cover(&f, vec![(10, 10)], vec![(0, 512)]).is_empty());
        let issues = diff_read_cover(&f, vec![(10, 10)], vec![(0, 5)]);
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].kind, Kind::ReadMissing);
    }

    #[test]
    fn collective_diff_matches_and_flags() {
        let exp = CollExpect {
            kind: CollKind::Allreduce,
            root: None,
            op: Some("min"),
            bytes: Some(8),
            uniform: true,
            label: "t",
        };
        let ok = CollDesc {
            kind: CollKind::Allreduce,
            root: None,
            op: Some("min"),
            bytes: 8,
            uniform_bytes: true,
        };
        let t = Span::new("t");
        assert!(diff_collectives(
            &t,
            "write",
            std::slice::from_ref(&exp),
            std::slice::from_ref(&ok)
        )
        .is_empty());
        let bad = CollDesc {
            op: Some("max"),
            ..ok.clone()
        };
        let issues = diff_collectives(&t, "write", std::slice::from_ref(&exp), &[bad]);
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert_eq!(issues[0].kind, Kind::CollectiveStep);
        // Data-dependent bytes are not compared.
        let anyb = CollExpect { bytes: None, ..exp };
        let other = CollDesc {
            bytes: 999,
            ..ok.clone()
        };
        assert!(diff_collectives(&t, "write", &[anyb], &[other]).is_empty());
        // Length mismatch reported once.
        let issues = diff_collectives(&t, "read", &[], std::slice::from_ref(&ok));
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert_eq!(issues[0].kind, Kind::CollectiveCount);
    }
}
