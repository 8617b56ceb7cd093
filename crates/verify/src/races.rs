//! Happens-before classification of every byte-range footprint pair.
//!
//! Within the write phase there is no barrier the static model can rely
//! on to separate two datasets' payloads (and the runtime checker
//! analyzes a whole sync epoch at once), so any two same-file accesses
//! of the write phase are *concurrent* unless performed by the same
//! rank. That yields a three-way classification:
//!
//! * **ordered** — a write-phase access vs. a read-phase access when
//!   the schedule analysis proved the phases are separated by a barrier
//!   every rank reaches (clock domination, [`crate::clock`]);
//! * **disjoint** — concurrent accesses whose byte ranges do not
//!   overlap (the healthy case: the plans are exact-once by
//!   construction);
//! * **race** — concurrent overlapping accesses by different ranks:
//!   write/write, read-vs-write when unordered, or a data-sieving RMW
//!   window covering foreign bytes.
//!
//! Reported witnesses are capped (like the runtime checker's cap) but
//! the [`PairStats`] count everything.

use crate::accesses::{self, AccessKind, ReadAccess, WriteAccess};
use crate::clock::ScheduleAnalysis;
use crate::PairStats;
use amrio_mpiio::Hints;
use amrio_plan::{AccessPlan, Diagnostic, Kind, Span};

/// Cap on reported race witnesses (counts are not capped).
const MAX_REPORTED: usize = 64;

#[derive(Clone, Debug)]
pub struct RaceAnalysis {
    /// `WriteWriteRace` / `UnsyncedRead` / `SievingRmw` witnesses.
    pub diagnostics: Vec<Diagnostic>,
    pub pairs: PairStats,
}

/// Classify all footprint pairs of `plan` under `hints`, given the
/// schedule analysis `sched` (which proves or fails write→read
/// ordering).
pub fn classify(plan: &AccessPlan, hints: &Hints, sched: &ScheduleAnalysis) -> RaceAnalysis {
    let (writes, reads) = accesses::effective(plan, hints);
    let mut diagnostics = Vec::new();
    let span = Span::new(plan.backend);
    let mut pairs = PairStats::default();

    for fi in 0..plan.files.len() {
        let mut fw: Vec<&WriteAccess> = writes.iter().filter(|w| w.file == fi).collect();
        let fr: Vec<&ReadAccess> = reads.iter().filter(|r| r.file == fi).collect();
        let in_file = span.clone().file(&plan.files[fi].path);
        fw.sort_by_key(|w| (w.offset, w.rank, w.len));

        // --- write/write within the write phase (one concurrency class).
        let n = fw.len() as u64;
        let mut same_rank = std::collections::BTreeMap::<usize, u64>::new();
        for w in &fw {
            *same_rank.entry(w.rank).or_insert(0) += 1;
        }
        let total_cross: u64 = n * n.saturating_sub(1) / 2
            - same_rank
                .values()
                .map(|&c| c * c.saturating_sub(1) / 2)
                .sum::<u64>();
        let mut racing_ww = 0u64;
        for i in 0..fw.len() {
            for j in (i + 1)..fw.len() {
                if fw[j].offset >= fw[i].offset + fw[i].len {
                    break;
                }
                let (a, b) = (fw[i], fw[j]);
                if a.rank == b.rank {
                    continue;
                }
                racing_ww += 1;
                if diagnostics.len() >= MAX_REPORTED {
                    continue;
                }
                let pair = in_file.clone().ranks(a.rank, b.rank);
                // Attribute to data sieving when either side is an RMW
                // window — the same attribution the runtime scan makes.
                diagnostics.push(
                    if a.kind == AccessKind::RmwWindow || b.kind == AccessKind::RmwWindow {
                        let (win, other) = if a.kind == AccessKind::RmwWindow {
                            (a, b)
                        } else {
                            (b, a)
                        };
                        Diagnostic::new(
                            Kind::SievingRmw,
                            pair.bytes((win.offset, win.len)),
                            format!(
                                "rank {}'s RMW window [{}, +{}) covers rank {}'s bytes [{}, +{})",
                                win.rank, win.offset, win.len, other.rank, other.offset, other.len
                            ),
                        )
                        .suggest(
                            "disable ds_write, or route this dataset through collective \
                             two-phase I/O (cb_write)",
                        )
                    } else {
                        Diagnostic::new(
                            Kind::WriteWriteRace,
                            pair.bytes((b.offset, b.len)),
                            format!(
                                "rank {} [{}, +{}) overlaps rank {} [{}, +{})",
                                a.rank, a.offset, a.len, b.rank, b.offset, b.len
                            ),
                        )
                    },
                );
            }
        }
        pairs.racing += racing_ww;
        pairs.disjoint += total_cross - racing_ww;

        // --- read vs. write across the phases.
        let starts: Vec<u64> = fw.iter().map(|w| w.offset).collect();
        let mut ends: Vec<u64> = fw.iter().map(|w| w.offset + w.len).collect();
        ends.sort_unstable();
        for r in &fr {
            // Writes overlapping this read: start < read_end && end > read_start.
            let olap = (starts.partition_point(|&s| s < r.offset + r.len)
                - ends.partition_point(|&e| e <= r.offset)) as u64;
            if sched.write_read_ordered {
                pairs.ordered += olap;
                continue;
            }
            // Unordered: every cross-rank overlap is a race.
            for w in &fw {
                if w.offset >= r.offset + r.len {
                    break;
                }
                if !accesses::overlap(r.offset, r.len, w.offset, w.len) || w.rank == r.rank {
                    continue;
                }
                pairs.racing += 1;
                if diagnostics.len() < MAX_REPORTED {
                    diagnostics.push(Diagnostic::new(
                        Kind::UnsyncedRead,
                        in_file
                            .clone()
                            .ranks(w.rank, w.rank)
                            .bytes((r.offset, r.len)),
                        format!(
                            "restart read [{}, +{}) overlaps rank {}'s write [{}, +{}) with no \
                             barrier between them",
                            r.offset, r.len, w.rank, w.offset, w.len
                        ),
                    ));
                }
            }
        }
    }

    RaceAnalysis { diagnostics, pairs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ScheduleAnalysis;
    use amrio_plan::{DatasetPlan, FilePlan, RankRegions, Writers};

    fn sched(ordered: bool) -> ScheduleAnalysis {
        ScheduleAnalysis {
            diagnostics: Vec::new(),
            write_read_ordered: ordered,
            steps: (0, 0),
            barriers: (0, 0),
        }
    }

    fn plan_with(datasets: Vec<DatasetPlan>, reads: Vec<(u64, u64)>) -> AccessPlan {
        AccessPlan {
            backend: "test",
            nranks: 2,
            write_schedule: vec![Vec::new(), Vec::new()],
            read_schedule: vec![Vec::new(), Vec::new()],
            files: vec![FilePlan {
                path: "f".into(),
                datasets,
                meta_writes: Vec::new(),
                reads,
            }],
        }
    }

    fn ds(regions: Vec<(usize, Vec<(u64, u64)>)>, collective: bool) -> DatasetPlan {
        DatasetPlan {
            name: "d".into(),
            start: 0,
            len: 100,
            collective,
            writers: Writers::Ranks(
                regions
                    .into_iter()
                    .map(|(rank, regions)| RankRegions { rank, regions })
                    .collect(),
            ),
        }
    }

    #[test]
    fn disjoint_writes_are_clean() {
        let plan = plan_with(
            vec![ds(vec![(0, vec![(0, 50)]), (1, vec![(50, 50)])], true)],
            vec![(0, 100)],
        );
        let r = classify(&plan, &Hints::default(), &sched(true));
        assert!(r.diagnostics.is_empty());
        assert_eq!(r.pairs.disjoint, 1);
        assert!(r.pairs.ordered >= 1, "read-back overlaps are ordered");
    }

    #[test]
    fn overlapping_writes_race() {
        let plan = plan_with(
            vec![ds(vec![(0, vec![(0, 60)]), (1, vec![(50, 50)])], true)],
            Vec::new(),
        );
        let r = classify(&plan, &Hints::default(), &sched(true));
        assert_eq!(r.diagnostics[0].kind, Kind::WriteWriteRace);
        assert_eq!(r.diagnostics[0].span.ranks, Some((0, 1)));
        assert_eq!(r.pairs.racing, 1);
    }

    #[test]
    fn unordered_read_races() {
        let plan = plan_with(
            vec![ds(vec![(0, vec![(0, 50)]), (1, vec![(50, 50)])], true)],
            vec![(0, 100)],
        );
        let r = classify(&plan, &Hints::default(), &sched(false));
        assert!(r.diagnostics.iter().any(|d| d.kind == Kind::UnsyncedRead));
    }

    #[test]
    fn sieve_window_races() {
        // Rank 0 writes two interleaved pieces independently with
        // ds_write on: its RMW window [0, 40) covers rank 1's [10, 20).
        let hints = Hints {
            ds_write: true,
            cb_write: false,
            ..Hints::default()
        };
        let plan = plan_with(
            vec![ds(
                vec![(0, vec![(0, 10), (30, 10)]), (1, vec![(10, 20)])],
                false,
            )],
            Vec::new(),
        );
        let r = classify(&plan, &hints, &sched(true));
        let d = &r.diagnostics[0];
        assert_eq!(d.kind, Kind::SievingRmw);
        assert_eq!(d.span.bytes, Some((0, 40)), "span is the RMW window");
        assert!(d.message.starts_with("rank 0's RMW window"), "{d}");
    }
}
