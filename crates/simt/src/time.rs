//! Virtual time for the discrete-event engine.
//!
//! Time is kept in integer nanoseconds so that arithmetic is exact and runs
//! are bit-reproducible; floating-point seconds are only used at the
//! boundaries (cost models, reports).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// An absolute instant of simulated time, in nanoseconds since the start of
/// the run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDur(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`; zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDur {
        SimDur(self.0.saturating_sub(earlier.0))
    }

    /// `self + d`, clamped to the end of virtual time instead of
    /// overflowing. Use wherever `d` can be adversarially large (e.g.
    /// saturated retry backoffs).
    pub fn saturating_add(self, d: SimDur) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDur {
    pub const ZERO: SimDur = SimDur(0);

    pub fn from_secs_f64(s: f64) -> SimDur {
        assert!(
            s >= 0.0 && s.is_finite(),
            "duration must be finite and non-negative: {s}"
        );
        SimDur((s * 1e9).round() as u64)
    }

    pub fn from_micros(us: u64) -> SimDur {
        SimDur(us * 1_000)
    }

    pub fn from_millis(ms: u64) -> SimDur {
        SimDur(ms * 1_000_000)
    }

    pub fn from_nanos(ns: u64) -> SimDur {
        SimDur(ns)
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time to move `bytes` at `bytes_per_sec`, rounded up to whole ns.
    pub fn transfer(bytes: u64, bytes_per_sec: f64) -> SimDur {
        assert!(bytes_per_sec > 0.0, "bandwidth must be positive");
        if bytes == 0 {
            // What the division gives for any positive bandwidth, minus
            // the float work: most pairs of a large exchange are empty.
            return SimDur::ZERO;
        }
        SimDur(((bytes as f64 / bytes_per_sec) * 1e9).ceil() as u64)
    }
}

impl Add<SimDur> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDur) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDur> for SimTime {
    fn add_assign(&mut self, d: SimDur) {
        self.0 += d.0;
    }
}

impl Add for SimDur {
    type Output = SimDur;
    fn add(self, o: SimDur) -> SimDur {
        SimDur(self.0 + o.0)
    }
}

impl AddAssign for SimDur {
    fn add_assign(&mut self, o: SimDur) {
        self.0 += o.0;
    }
}

impl Sub for SimTime {
    type Output = SimDur;
    fn sub(self, o: SimTime) -> SimDur {
        SimDur(
            self.0
                .checked_sub(o.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl Sum for SimDur {
    fn sum<I: Iterator<Item = SimDur>>(iter: I) -> SimDur {
        SimDur(iter.map(|d| d.0).sum())
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_compare() {
        let t = SimTime::ZERO + SimDur::from_micros(3);
        assert_eq!(t, SimTime(3_000));
        assert!(t > SimTime::ZERO);
        assert_eq!(t - SimTime::ZERO, SimDur(3_000));
    }

    #[test]
    fn transfer_rounds_up() {
        // 10 bytes at 3 B/s = 3.333..s -> ceil to ns
        let d = SimDur::transfer(10, 3.0);
        assert!(d.as_secs_f64() >= 10.0 / 3.0);
        assert!(d.as_secs_f64() < 10.0 / 3.0 + 1e-6);
    }

    #[test]
    fn zero_byte_transfer_matches_the_division() {
        for bw in [1e-3, 3.0, 11.5e6, 400e6, f64::MAX, f64::INFINITY] {
            let div = SimDur(((0u64 as f64 / bw) * 1e9).ceil() as u64);
            assert_eq!(SimDur::transfer(0, bw), div, "{bw}");
        }
    }

    #[test]
    fn from_secs_roundtrip() {
        let d = SimDur::from_secs_f64(1.5);
        assert_eq!(d.0, 1_500_000_000);
        assert_eq!(d.as_secs_f64(), 1.5);
    }

    #[test]
    fn saturating_since() {
        let a = SimTime(5);
        let b = SimTime(9);
        assert_eq!(b.saturating_since(a), SimDur(4));
        assert_eq!(a.saturating_since(b), SimDur::ZERO);
    }

    #[test]
    fn saturating_add_clamps() {
        assert_eq!(SimTime(5).saturating_add(SimDur(4)), SimTime(9));
        assert_eq!(
            SimTime(2).saturating_add(SimDur(u64::MAX)),
            SimTime(u64::MAX)
        );
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime(1) - SimTime(2);
    }
}
