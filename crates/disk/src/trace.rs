//! I/O event tracing and characterization — the Pablo-style analysis the
//! paper's reference [20] ("Analysis of I/O Activity of the ENZO Code")
//! performed to discover the access patterns in the first place.
//!
//! When enabled on a [`crate::Pfs`], every read/write is recorded with
//! its client, file, offset, length and (virtual) start/end times. The
//! [`TraceReport`] then computes the §3.1-style characterization:
//! request-size histogram, sequentiality, per-client volume and
//! concurrency, and read/write phase structure.

use amrio_simt::SimTime;

/// One recorded file system request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IoEvent {
    pub client: usize,
    pub file: usize,
    pub offset: u64,
    pub len: u64,
    pub write: bool,
    pub start: SimTime,
    pub end: SimTime,
}

/// An append-only trace of I/O events.
#[derive(Clone, Debug, Default)]
pub struct IoTrace {
    pub events: Vec<IoEvent>,
    enabled: bool,
}

impl IoTrace {
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    pub(crate) fn record(&mut self, e: IoEvent) {
        if self.enabled {
            self.events.push(e);
        }
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Build the characterization report.
    pub fn report(&self) -> TraceReport {
        TraceReport::from_events(&self.events)
    }

    /// Dump the raw trace as CSV (one row per request).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("client,file,offset,len,kind,start_s,end_s\n");
        for e in &self.events {
            out.push_str(&format!(
                "{},{},{},{},{},{:.9},{:.9}\n",
                e.client,
                e.file,
                e.offset,
                e.len,
                if e.write { "W" } else { "R" },
                e.start.as_secs_f64(),
                e.end.as_secs_f64()
            ));
        }
        out
    }
}

/// Power-of-two request-size histogram buckets: `[..1K, 1K..4K, 4K..64K,
/// 64K..1M, 1M..)`.
pub const SIZE_BUCKETS: [(&str, u64); 5] = [
    ("<1KiB", 1 << 10),
    ("1-4KiB", 4 << 10),
    ("4-64KiB", 64 << 10),
    ("64KiB-1MiB", 1 << 20),
    (">=1MiB", u64::MAX),
];

/// Aggregate characterization of a trace.
#[derive(Clone, Debug, Default)]
pub struct TraceReport {
    pub requests: u64,
    pub reads: u64,
    pub writes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    /// Requests per size bucket (see [`SIZE_BUCKETS`]).
    pub size_histogram: [u64; 5],
    /// Fraction of requests whose offset continues the client's previous
    /// request on the same file (the "fixed order" §3.1 observes).
    pub sequential_fraction: f64,
    /// Distinct clients that issued at least one request.
    pub active_clients: usize,
    /// Largest number of clients with overlapping in-flight requests.
    pub peak_concurrency: usize,
    /// Virtual time from first start to last end.
    pub span_seconds: f64,
}

impl TraceReport {
    pub fn from_events(events: &[IoEvent]) -> TraceReport {
        let mut r = TraceReport {
            requests: events.len() as u64,
            ..Default::default()
        };
        if events.is_empty() {
            return r;
        }
        use std::collections::BTreeMap;
        let mut last_end: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        let mut sequential = 0u64;
        let mut clients: std::collections::BTreeSet<usize> = Default::default();
        for e in events {
            clients.insert(e.client);
            if e.write {
                r.writes += 1;
                r.bytes_written += e.len;
            } else {
                r.reads += 1;
                r.bytes_read += e.len;
            }
            let b = SIZE_BUCKETS
                .iter()
                .position(|(_, cap)| e.len < *cap)
                .unwrap_or(SIZE_BUCKETS.len() - 1);
            r.size_histogram[b] += 1;
            match last_end.insert((e.client, e.file), e.offset + e.len) {
                Some(prev) if prev == e.offset => sequential += 1,
                _ => {}
            }
        }
        r.sequential_fraction = sequential as f64 / events.len() as f64;
        r.active_clients = clients.len();

        // Peak concurrency via a sweep over start/end points.
        let mut points: Vec<(SimTime, i32)> = Vec::with_capacity(events.len() * 2);
        for e in events {
            points.push((e.start, 1));
            points.push((e.end, -1));
        }
        points.sort_by_key(|(t, d)| (*t, *d)); // ends before starts at ties
        let mut cur = 0i32;
        let mut peak = 0i32;
        for (_, d) in points {
            cur += d;
            peak = peak.max(cur);
        }
        r.peak_concurrency = peak.max(0) as usize;

        let first = events.iter().map(|e| e.start).min().unwrap();
        let last = events.iter().map(|e| e.end).max().unwrap();
        r.span_seconds = (last - first).as_secs_f64();
        r
    }

    /// Render a compact human-readable characterization table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "requests: {} ({} reads / {} writes), {:.1} MB read, {:.1} MB written\n",
            self.requests,
            self.reads,
            self.writes,
            self.bytes_read as f64 / 1e6,
            self.bytes_written as f64 / 1e6,
        ));
        s.push_str("request sizes: ");
        for (i, (label, _)) in SIZE_BUCKETS.iter().enumerate() {
            s.push_str(&format!("{label}:{} ", self.size_histogram[i]));
        }
        s.push('\n');
        s.push_str(&format!(
            "sequential fraction: {:.1}%, active clients: {}, peak concurrency: {}, span: {:.3}s\n",
            self.sequential_fraction * 100.0,
            self.active_clients,
            self.peak_concurrency,
            self.span_seconds
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(client: usize, off: u64, len: u64, write: bool, t0: u64, t1: u64) -> IoEvent {
        IoEvent {
            client,
            file: 0,
            offset: off,
            len,
            write,
            start: SimTime(t0),
            end: SimTime(t1),
        }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = IoTrace::default();
        t.record(ev(0, 0, 10, true, 0, 1));
        assert!(t.is_empty());
        t.enable();
        t.record(ev(0, 0, 10, true, 0, 1));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn report_counts_and_buckets() {
        let events = vec![
            ev(0, 0, 100, true, 0, 10),             // <1K
            ev(0, 100, 2048, true, 10, 20),         // 1-4K, sequential
            ev(1, 0, 100_000, false, 5, 25),        // 64K-1M
            ev(1, 100_000, 2 << 20, false, 25, 50), // >=1M, sequential
        ];
        let r = TraceReport::from_events(&events);
        assert_eq!(r.requests, 4);
        assert_eq!(r.reads, 2);
        assert_eq!(r.writes, 2);
        assert_eq!(r.bytes_written, 2148);
        assert_eq!(r.size_histogram, [1, 1, 0, 1, 1]);
        assert_eq!(r.sequential_fraction, 0.5);
        assert_eq!(r.active_clients, 2);
        assert_eq!(r.span_seconds, 50e-9);
    }

    #[test]
    fn concurrency_sweep() {
        let events = vec![
            ev(0, 0, 1, true, 0, 10),
            ev(1, 0, 1, true, 2, 8),
            ev(2, 0, 1, true, 3, 5),
            ev(3, 0, 1, true, 20, 30),
        ];
        let r = TraceReport::from_events(&events);
        assert_eq!(r.peak_concurrency, 3);
    }

    #[test]
    fn csv_has_one_row_per_event() {
        let mut t = IoTrace::default();
        t.enable();
        t.record(ev(0, 5, 10, true, 0, 1));
        t.record(ev(1, 0, 3, false, 1, 2));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains("0,0,5,10,W"));
        assert!(csv.contains("1,0,0,3,R"));
    }

    #[test]
    fn empty_report_is_zeroed() {
        let r = TraceReport::from_events(&[]);
        assert_eq!(r.requests, 0);
        assert_eq!(r.sequential_fraction, 0.0);
        assert_eq!(r.render().lines().count(), 3);
    }
}
