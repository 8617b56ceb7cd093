//! A single simulated block device (one I/O server's disk).

use amrio_simt::{SimDur, SimTime};

/// Timing parameters of a disk / storage server.
#[derive(Clone, Copy, Debug)]
pub struct DiskParams {
    /// Fixed software/controller cost charged per request.
    pub per_request: SimDur,
    /// Positioning cost charged when a read is not sequential with the
    /// previous request (cold cache: the head really moves).
    pub seek: SimDur,
    /// Positioning cost for non-sequential writes. Much smaller than the
    /// read seek: the server's write-back cache coalesces and schedules
    /// writes, amortizing head movement.
    pub write_seek: SimDur,
    /// Sustained transfer rate, bytes per second.
    pub bandwidth: f64,
}

impl DiskParams {
    pub fn new(per_request_us: u64, seek_ms: u64, bandwidth_mb_s: f64) -> DiskParams {
        DiskParams {
            per_request: SimDur::from_micros(per_request_us),
            seek: SimDur::from_millis(seek_ms),
            write_seek: SimDur::from_micros(seek_ms * 1000 / 8),
            bandwidth: bandwidth_mb_s * 1.0e6,
        }
    }
}

/// One disk: a FIFO server with seek/sequentiality modeling.
///
/// Requests must be submitted in nondecreasing time order (guaranteed when
/// called from `amrio-simt` ordered sections), and queue on `next_free`.
#[derive(Clone, Debug)]
pub struct BlockDev {
    params: DiskParams,
    next_free: SimTime,
    /// One past the last byte touched, for sequentiality detection.
    head: u64,
}

impl BlockDev {
    pub fn new(params: DiskParams) -> BlockDev {
        BlockDev {
            params,
            next_free: SimTime::ZERO,
            head: u64::MAX, // first access always seeks
        }
    }

    /// Service a request for `len` bytes at device offset `off`, arriving at
    /// `t`. Returns the completion time. `write` requests pay the (much
    /// smaller) write-back seek on non-sequential access.
    pub fn access(&mut self, off: u64, len: u64, t: SimTime, write: bool) -> SimTime {
        self.access_scaled(off, len, t, write, 1.0)
    }

    /// [`BlockDev::access`] with a service-time multiplier (fault
    /// injection: a degraded server runs `scale`× slower). `scale == 1.0`
    /// is bit-identical to the unscaled path.
    pub fn access_scaled(
        &mut self,
        off: u64,
        len: u64,
        t: SimTime,
        write: bool,
        scale: f64,
    ) -> SimTime {
        let start = t.max(self.next_free);
        let sequential = off == self.head;
        let mut cost = self.params.per_request;
        if !sequential {
            cost += if write {
                self.params.write_seek
            } else {
                self.params.seek
            };
        }
        cost += SimDur::transfer(len, self.params.bandwidth);
        if scale != 1.0 {
            assert!(scale > 0.0, "service-time scale must be positive");
            cost = SimDur(((cost.0 as f64) * scale).round() as u64);
        }
        self.next_free = start + cost;
        self.head = off + len;
        self.next_free
    }

    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    pub fn params(&self) -> DiskParams {
        self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> BlockDev {
        BlockDev::new(DiskParams::new(100, 5, 50.0))
    }

    #[test]
    fn first_access_pays_seek() {
        let mut d = dev();
        let done = d.access(0, 5_000_000, SimTime::ZERO, false);
        // 100us + 5ms + 0.1s
        let want = 0.0001 + 0.005 + 0.1;
        assert!((done.as_secs_f64() - want).abs() < 1e-6, "{done:?}");
    }

    #[test]
    fn sequential_access_skips_seek() {
        let mut d = dev();
        let t1 = d.access(0, 1_000_000, SimTime::ZERO, false);
        let t2 = d.access(1_000_000, 1_000_000, t1, false);
        let gap = (t2 - t1).as_secs_f64();
        assert!((gap - (0.0001 + 0.02)).abs() < 1e-6, "gap {gap}");
    }

    #[test]
    fn requests_queue_fifo() {
        let mut d = dev();
        let t1 = d.access(0, 1_000_000, SimTime::ZERO, false);
        // Second request arrives earlier than the first completes.
        let t2 = d.access(0, 1_000_000, SimTime(1), false);
        assert!(t2 > t1);
        assert!(t2 >= t1 + SimDur::from_millis(5));
    }

    #[test]
    fn idle_gap_resets_nothing_but_head_matters() {
        let mut d = dev();
        let t1 = d.access(0, 1000, SimTime::ZERO, false);
        // Later non-adjacent request seeks again.
        let t2 = d.access(10_000, 1000, t1 + SimDur::from_millis(100), false);
        assert!((t2 - (t1 + SimDur::from_millis(100))).0 >= SimDur::from_millis(5).0);
    }
}
