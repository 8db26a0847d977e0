//! Calibrated host time.
//!
//! The benchmark's host lends it cores that other tenants share. For
//! seconds to minutes at a time the same code runs up to twice as slow:
//! a loop of independent integer adds slows by the same factor as the
//! simulator, while a dependent multiply chain barely slows, so it is the
//! core's throughput that is shared, not its clock. Host time alone then
//! measures the neighbours. So the harness runs a fixed calibration loop
//! between every two measured segments and counts each segment in
//! *calibrated* nanoseconds: its host time scaled by [`REFERENCE_NS`]
//! over the mean of the loop's time just before and just after it. When
//! the core is shared the calibrated time stays put while host time
//! doubles.

use std::time::Instant;

/// The unit of calibrated time: one run of [`calibration_ns`]'s loop
/// counts as this many ns. It is close to the loop's host time on an
/// uncontended core of the reference host (2-vCPU KVM guest, Xeon
/// Sapphire Rapids at 2.0 GHz), where it measured 49.6–55.8 µs.
pub const REFERENCE_NS: f64 = 50_000.0;

/// Runs the calibration loop once and returns its host time in ns. The
/// loop is a fixed amount of work: 20,000 rounds of eight independent
/// 64-bit adds, which keep the core's integer ports busy and touch no
/// memory beyond the stack.
#[inline(never)]
#[must_use]
pub fn calibration_ns() -> f64 {
    let start = Instant::now();
    let mut lanes = [0u64, 1, 2, 3, 4, 5, 6, 7];
    for i in 0..20_000u64 {
        for (j, lane) in (0u64..).zip(lanes.iter_mut()) {
            *lane = lane.wrapping_add(i ^ j);
        }
        lanes = std::hint::black_box(lanes);
    }
    std::hint::black_box(lanes);
    start.elapsed().as_nanos() as f64
}

/// Consecutive segments of host time on one thread, each counted in
/// calibrated ns. The calibration loop runs between two segments, in
/// neither of them.
#[derive(Debug)]
pub struct Laps {
    /// The calibration loop's time just before the open segment.
    before_ns: f64,
    /// When the open segment started.
    start: Instant,
    /// Calibrated time of every kept segment, in ns.
    laps: Vec<u64>,
    /// Host time of the kept segments, summed, in ns.
    host_ns: u64,
}

impl Laps {
    /// Calibrates, then opens the first segment.
    #[must_use]
    pub fn start() -> Self {
        let before_ns = calibration_ns();
        Laps { before_ns, start: Instant::now(), laps: Vec::new(), host_ns: 0 }
    }

    /// Closes the open segment, keeps it, and opens the next.
    pub fn lap(&mut self) {
        let (host, calibrated) = self.close();
        self.host_ns += host;
        self.laps.push(calibrated);
    }

    /// Closes the open segment without keeping it, and opens the next.
    pub fn skip(&mut self) {
        self.close();
    }

    /// Removes and returns the kept segments: each one's calibrated
    /// time, in order, and their host time summed, both in ns.
    pub fn take(&mut self) -> (Vec<u64>, u64) {
        (std::mem::take(&mut self.laps), std::mem::take(&mut self.host_ns))
    }

    /// Ends the open segment: its host and calibrated time.
    fn close(&mut self) -> (u64, u64) {
        let host = self.start.elapsed().as_nanos() as f64;
        let after_ns = calibration_ns();
        let calibrated = host * REFERENCE_NS / ((self.before_ns + after_ns) / 2.0);
        self.before_ns = after_ns;
        self.start = Instant::now();
        (host as u64, calibrated as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_keep_what_they_are_told_to() {
        let mut laps = Laps::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        laps.lap();
        laps.skip();
        laps.lap();
        let (kept, host_ns) = laps.take();
        assert_eq!(kept.len(), 2);
        assert!(host_ns >= 2_000_000);
        assert!(kept[0] > kept[1]);
        assert_eq!(laps.take(), (Vec::new(), 0));
    }
}
