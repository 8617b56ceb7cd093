//! In-memory spans for the traced run: name, host start/end, virtual
//! start/end where the layer runs on the simulator's clock, parent span
//! and operation id. Spans are written out once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub op: u64,
    pub parent: Option<usize>,
    /// Host nanoseconds since the tracer started.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Virtual nanoseconds (rank 0's clock), when the span is simulated.
    pub virt: Option<(u64, u64)>,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a completed span; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        op: u64,
        parent: Option<usize>,
        host: (Instant, Instant),
        virt: Option<(u64, u64)>,
    ) -> usize {
        let span = Span {
            name: name.into(),
            op,
            parent,
            start_ns: self.ns(host.0),
            end_ns: self.ns(host.1),
            virt,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for c in &self.spans {
            if let Some(p) = c.parent {
                let s = &self.spans[p];
                covered[p] += c
                    .end_ns
                    .min(s.end_ns)
                    .saturating_sub(c.start_ns.max(s.start_ns));
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// One JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let self_ns = self.self_ns();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}",
                s.name,
                s.op,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
                self_ns[i]
            );
            if let Some((a, b)) = s.virt {
                let _ = write!(out, ",\"virt_start_ns\":{a},\"virt_end_ns\":{b}");
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let e = t.epoch;
        let at = |ms| e + Duration::from_millis(ms);
        let root = t.record("op", 0, None, (at(0), at(100)), None);
        t.record("a", 0, Some(root), (at(10), at(40)), Some((0, 5)));
        t.record("b", 0, Some(root), (at(50), at(90)), None);
        assert_eq!(t.self_ns()[root], 30_000_000);
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("\"virt_start_ns\":0,\"virt_end_ns\":5"));
        assert!(text.starts_with("{\"id\":0,\"name\":\"op\",\"op\":0,\"parent\":null"));
    }
}
