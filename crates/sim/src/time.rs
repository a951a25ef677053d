//! Virtual time, frequency and bandwidth arithmetic.
//!
//! All simulated timestamps are picoseconds held in a `u64`, which covers
//! about 213 simulated days — far beyond any experiment in this workspace.
//! Picosecond resolution matters because the KV processor clock in the paper
//! is 180 MHz, whose period (5555.5... ps) is not a whole number of
//! nanoseconds.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) simulated time, in picoseconds.
///
/// `SimTime` doubles as both an instant and a duration, mirroring how
/// hardware models accumulate delays. Arithmetic is saturating-free: the
/// simulations in this workspace never approach `u64::MAX` picoseconds, and
/// an overflow would indicate a bug, so plain checked-in-debug arithmetic is
/// used.
///
/// # Examples
///
/// ```
/// use kvd_sim::SimTime;
///
/// let t = SimTime::from_ns(800) + SimTime::from_ns(250);
/// assert_eq!(t.as_ns(), 1050.0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The zero instant (simulation epoch).
    pub const ZERO: SimTime = SimTime(0);

    /// The far-future instant; an unbounded step horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from whole picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from whole nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates a time from whole microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates a time from whole milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Creates a time from fractional nanoseconds, rounding to the nearest
    /// picosecond.
    pub fn from_ns_f64(ns: f64) -> Self {
        debug_assert!(ns >= 0.0, "negative duration");
        SimTime((ns * 1_000.0).round() as u64)
    }

    /// Returns the raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Returns the time in (fractional) nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the time in (fractional) microseconds.
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns the time in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction: returns zero instead of underflowing.
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0ns")
        } else if ps < 1_000_000 {
            write!(f, "{:.3}ns", self.as_ns())
        } else if ps < 1_000_000_000 {
            write!(f, "{:.3}us", self.as_us())
        } else if ps < 1_000_000_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e9)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

/// A clock frequency, used to convert between cycles and time.
///
/// The KV processor in the paper runs at 180 MHz fully pipelined (one
/// operation per cycle), which bounds single-NIC throughput at 180 Mops.
///
/// # Examples
///
/// ```
/// use kvd_sim::Freq;
///
/// let clk = Freq::from_mhz(180);
/// assert_eq!(clk.cycle().as_ps(), 5556); // 5.5555..ns rounded
/// assert_eq!(clk.ops_per_sec(), 180_000_000.0);
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Freq {
    hz: f64,
}

impl Freq {
    /// Creates a frequency from hertz.
    pub fn from_hz(hz: f64) -> Self {
        assert!(hz > 0.0, "frequency must be positive");
        Freq { hz }
    }

    /// Creates a frequency from megahertz.
    pub fn from_mhz(mhz: u64) -> Self {
        Freq::from_hz(mhz as f64 * 1e6)
    }

    /// The duration of one clock cycle, rounded to the nearest picosecond.
    pub fn cycle(self) -> SimTime {
        SimTime((1e12 / self.hz).round() as u64)
    }

    /// Operations per second for a fully pipelined unit (one op per cycle).
    pub fn ops_per_sec(self) -> f64 {
        self.hz
    }
}

/// A data-transfer rate, used for serialization-delay arithmetic.
///
/// # Examples
///
/// ```
/// use kvd_sim::Bandwidth;
///
/// // PCIe Gen3 x8 usable data bandwidth from the paper: 7.87 GB/s.
/// let bw = Bandwidth::from_gbytes_per_sec(7.87);
/// // Serializing a 90-byte TLP takes ~11.4ns.
/// let t = bw.transfer_time(90);
/// assert!((t.as_ns() - 11.44).abs() < 0.05);
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Bandwidth {
    bytes_per_sec: f64,
}

impl Bandwidth {
    /// Creates a bandwidth from bytes per second.
    pub fn from_bytes_per_sec(bps: f64) -> Self {
        assert!(bps > 0.0, "bandwidth must be positive");
        Bandwidth { bytes_per_sec: bps }
    }

    /// Creates a bandwidth from gigabytes (1e9 bytes) per second.
    pub fn from_gbytes_per_sec(gbps: f64) -> Self {
        Bandwidth::from_bytes_per_sec(gbps * 1e9)
    }

    /// Creates a bandwidth from gigabits per second (network convention).
    pub fn from_gbits_per_sec(gbit: f64) -> Self {
        Bandwidth::from_bytes_per_sec(gbit * 1e9 / 8.0)
    }

    /// Returns bytes per second.
    pub fn bytes_per_sec(self) -> f64 {
        self.bytes_per_sec
    }

    /// The time to serialize `bytes` onto this link.
    pub fn transfer_time(self, bytes: u64) -> SimTime {
        SimTime::from_ns_f64(bytes as f64 / self.bytes_per_sec * 1e9)
    }

    /// How many fixed-size transfers per second this link sustains.
    pub fn transfers_per_sec(self, bytes_per_transfer: u64) -> f64 {
        self.bytes_per_sec / bytes_per_transfer as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_constructors_agree() {
        assert_eq!(SimTime::from_ns(1), SimTime::from_ps(1_000));
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1_000));
        assert_eq!(SimTime::from_ms(1), SimTime::from_us(1_000));
    }

    #[test]
    fn simtime_arithmetic() {
        let a = SimTime::from_ns(100);
        let b = SimTime::from_ns(30);
        assert_eq!((a + b).as_ns(), 130.0);
        assert_eq!((a - b).as_ns(), 70.0);
        assert_eq!((a * 3).as_ns(), 300.0);
        assert_eq!((a / 4).as_ns(), 25.0);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn simtime_from_fractional_ns_rounds() {
        assert_eq!(SimTime::from_ns_f64(1.2345).as_ps(), 1235);
        assert_eq!(SimTime::from_ns_f64(0.0).as_ps(), 0);
    }

    #[test]
    fn simtime_sum() {
        let total: SimTime = (1..=4).map(SimTime::from_ns).sum();
        assert_eq!(total, SimTime::from_ns(10));
    }

    #[test]
    fn simtime_display_units() {
        assert_eq!(format!("{}", SimTime::ZERO), "0ns");
        assert_eq!(format!("{}", SimTime::from_ns(500)), "500.000ns");
        assert_eq!(format!("{}", SimTime::from_us(3)), "3.000us");
        assert_eq!(format!("{}", SimTime::from_ms(7)), "7.000ms");
        assert_eq!(format!("{}", SimTime::from_ms(2_000)), "2.000s");
    }

    #[test]
    fn freq_cycle_time() {
        // The paper's 180MHz clock: 5.5555..ns per cycle.
        let clk = Freq::from_mhz(180);
        assert_eq!(clk.cycle().as_ps(), 5556);
    }

    #[test]
    fn bandwidth_transfer_time() {
        let bw = Bandwidth::from_gbytes_per_sec(1.0);
        assert_eq!(bw.transfer_time(1000).as_ns(), 1000.0);
        let net = Bandwidth::from_gbits_per_sec(40.0);
        assert_eq!(net.bytes_per_sec(), 5e9);
        assert_eq!(net.transfers_per_sec(64), 5e9 / 64.0);
    }
}
