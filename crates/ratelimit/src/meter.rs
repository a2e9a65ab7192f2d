//! Windowed throughput measurement in constant space.

use crate::clock::{Nanos, NANOS_PER_SEC};

/// Time slots that together cover one window.
const SLOTS: u64 = 16;
/// Slots kept: a window that starts inside one slot ends inside the
/// 17th, so one spare keeps every window fully covered.
const RING: u64 = SLOTS + 1;

/// Measures throughput over a sliding time window.
///
/// The engine keeps one meter per link direction; its readings feed
/// (1) the periodic `UpThroughput`/`DownThroughput` reports delivered to
/// the algorithm and the observer, and (2) the failure detector's *"long
/// consecutive periods of traffic inactivity, detected by throughput
/// measurements"*.
///
/// # Layout
///
/// A meter is a flat record of about 190 bytes whatever the traffic: a
/// ring of 17 byte sums, the number of the newest slot written, and the
/// running totals. Slot `n` covers `[n * width, (n + 1) * width)` with
/// `width = ceil(window / 16)`; slot numbers are absolute time divided by
/// the width, so the same samples always land in the same slots and a
/// replay reads bit-identical rates. Recording touches one slot; moving
/// on after an idle gap clears at most 17 slots however long the gap.
///
/// # Readings
///
/// A reading at `now` is the integer sum of the slots that lie wholly at
/// or after the horizon `now - window`, plus the share of the one slot
/// the horizon cuts through, pro-rated by the part of it inside the
/// window (rounded down). Hence:
///
/// * while `now <= window` nothing has left the window and the reading
///   is exact;
/// * afterwards it differs from the exact sliding-window sum by at most
///   the bytes recorded in that one straddling slot — for a steady
///   stream, at most one message;
/// * reading is a pure function of `&self`: it never recycles a slot.
///
/// # Clocks that disagree
///
/// The engine thread reads with its own `now` while a socket thread
/// records, so either may be behind the other. Only a sample *later*
/// than the newest slot recycles slots. A sample stamped earlier is
/// added to its own slot if the ring still holds it (otherwise it counts
/// in the totals only), and a reading stamped earlier just places its
/// horizon earlier — neither clears anything.
///
/// # Example
///
/// ```
/// use ioverlay_ratelimit::ThroughputMeter;
///
/// let mut meter = ThroughputMeter::new(1_000_000_000); // 1 s window
/// meter.record(512, 0);
/// meter.record(512, 500_000_000);
/// let bps = meter.rate_bytes_per_sec(1_000_000_000);
/// assert!((bps - 1024.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone)]
#[repr(C)] // fields stay in this order: what every sample touches, then the slots
pub struct ThroughputMeter {
    width: Nanos,
    /// Number (`t / width`) of the newest slot written; the ring holds
    /// slots `newest - 16 ..= newest`, slot `n` at index `n % 17`.
    newest: u64,
    total_bytes: u64,
    total_msgs: u64,
    last_activity: Option<Nanos>,
    window: Nanos,
    slots: [u64; RING as usize],
}

impl ThroughputMeter {
    /// Creates a meter with the given averaging window in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: Nanos) -> Self {
        assert!(window > 0, "measurement window must be non-zero");
        Self {
            width: window.div_ceil(SLOTS),
            newest: 0,
            total_bytes: 0,
            total_msgs: 0,
            last_activity: None,
            window,
            slots: [0; RING as usize],
        }
    }

    /// Records a transfer of `bytes` at time `now`.
    pub fn record(&mut self, bytes: u64, now: Nanos) {
        self.record_batch(bytes, 1, now);
    }

    /// Records `msgs` messages totalling `bytes` at time `now` as one
    /// sample — what a batched socket thread calls once per batch while
    /// keeping the message count accurate.
    pub fn record_batch(&mut self, bytes: u64, msgs: u64, now: Nanos) {
        let slot = now / self.width;
        if slot > self.newest {
            // Slots between the old newest and this one saw no traffic;
            // past a whole ring that is every slot.
            let stale = (slot - self.newest).min(RING);
            for n in slot + 1 - stale..=slot {
                self.slots[(n % RING) as usize] = 0;
            }
            self.newest = slot;
        }
        // `slot <= newest` here; older than the ring holds: totals only.
        if self.newest - slot < RING {
            self.slots[(slot % RING) as usize] += bytes;
        }
        self.total_bytes += bytes;
        self.total_msgs += msgs;
        self.last_activity = Some(self.last_activity.map_or(now, |t| t.max(now)));
    }

    /// Bytes in the window ending at `now` (see the type's "Readings").
    fn window_bytes(&self, now: Nanos) -> u64 {
        let horizon = now.saturating_sub(self.window);
        let oldest = self.newest.saturating_sub(SLOTS);
        (oldest..=self.newest)
            .map(|n| {
                let bytes = self.slots[(n % RING) as usize];
                let start = n * self.width;
                if start >= horizon {
                    bytes
                } else if bytes > 0 && horizon - start < self.width {
                    let inside = self.width - (horizon - start);
                    (u128::from(bytes) * u128::from(inside) / u128::from(self.width)) as u64
                } else {
                    0
                }
            })
            .sum()
    }

    /// Average throughput over the window ending at `now`, in bytes/sec.
    pub fn rate_bytes_per_sec(&self, now: Nanos) -> f64 {
        self.window_bytes(now) as f64 * NANOS_PER_SEC as f64 / self.window as f64
    }

    /// Average throughput over the window, in (1024-byte) KBps — the unit
    /// the paper's figures use.
    pub fn rate_kbps(&self, now: Nanos) -> f64 {
        self.rate_bytes_per_sec(now) / 1024.0
    }

    /// Total bytes ever recorded.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total messages ever recorded.
    pub fn total_msgs(&self) -> u64 {
        self.total_msgs
    }

    /// Time since the last recorded activity, or `None` if nothing has
    /// ever been recorded. Drives the inactivity failure detector.
    pub fn idle_for(&self, now: Nanos) -> Option<Nanos> {
        self.last_activity.map(|t| now.saturating_sub(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: Nanos = NANOS_PER_SEC;

    #[test]
    fn empty_meter_reads_zero() {
        let m = ThroughputMeter::new(SEC);
        assert_eq!(m.rate_bytes_per_sec(0), 0.0);
        assert_eq!(m.idle_for(100), None);
    }

    #[test]
    fn steady_stream_measures_its_rate() {
        let mut m = ThroughputMeter::new(SEC);
        // 100 B every 10 ms = 10 KB/s.
        for i in 0..200 {
            m.record(100, i * SEC / 100);
        }
        let now = 199 * SEC / 100;
        let rate = m.rate_bytes_per_sec(now);
        assert!((rate - 10_000.0).abs() <= 100.0, "rate {rate}");
    }

    #[test]
    fn old_samples_age_out() {
        let mut m = ThroughputMeter::new(SEC);
        m.record(1_000_000, 0);
        assert!(m.rate_bytes_per_sec(SEC / 2) > 0.0);
        assert_eq!(m.rate_bytes_per_sec(3 * SEC), 0.0);
        assert_eq!(m.total_bytes(), 1_000_000, "totals never age out");
    }

    #[test]
    fn idle_time_tracks_last_activity() {
        let mut m = ThroughputMeter::new(SEC);
        m.record(10, 5 * SEC);
        assert_eq!(m.idle_for(5 * SEC), Some(0));
        assert_eq!(m.idle_for(9 * SEC), Some(4 * SEC));
    }

    #[test]
    fn counts_messages_and_bytes() {
        let mut m = ThroughputMeter::new(SEC);
        m.record(10, 0);
        m.record(20, 1);
        assert_eq!(m.total_msgs(), 2);
        assert_eq!(m.total_bytes(), 30);
    }

    #[test]
    fn kbps_conversion() {
        let mut m = ThroughputMeter::new(SEC);
        m.record(2048, 0);
        let kbps = m.rate_kbps(0);
        assert!((kbps - 2.0).abs() < 0.01);
    }

    #[test]
    fn a_meter_is_a_small_flat_record() {
        assert!(std::mem::size_of::<ThroughputMeter>() <= 256);
    }

    #[test]
    fn the_straddling_slot_is_pro_rated() {
        // 16 s window: 1 s slots. 1000 B in slot 0, 160 B in slot 5.
        let mut m = ThroughputMeter::new(16 * SEC);
        m.record(1000, SEC / 2);
        m.record(160, 5 * SEC);
        let bytes = |now| (m.rate_bytes_per_sec(now) * 16.0).round() as u64;
        assert_eq!(bytes(16 * SEC), 1160, "horizon on slot 0's start: whole");
        assert_eq!(bytes(16 * SEC + SEC / 4), 750 + 160, "three quarters of slot 0");
        assert_eq!(bytes(17 * SEC), 160, "slot 0 wholly outside");
        assert_eq!(bytes(21 * SEC), 160, "horizon on slot 5's start");
        assert_eq!(bytes(21 * SEC + 1), 159, "rounded down");
        assert_eq!(bytes(22 * SEC), 0);
    }

    #[test]
    fn an_earlier_reading_or_sample_clears_nothing() {
        let mut m = ThroughputMeter::new(SEC);
        for i in 0..40 {
            m.record(100, i * SEC / 10); // up to 3.9 s
        }
        let newest = 39 * SEC / 10;
        let at_newest = m.rate_bytes_per_sec(newest);
        // Readings behind the recorder: a pure function, so the later
        // reading is unchanged, and for fixed contents a reading never
        // grows as its instant moves forward.
        let mut last = f64::INFINITY;
        for now in (0..=50).map(|i| i * SEC / 10) {
            let rate = m.rate_bytes_per_sec(now);
            assert!(rate <= last, "at {now}: {rate} after {last}");
            last = rate;
        }
        assert_eq!(m.rate_bytes_per_sec(newest), at_newest);
        // A sample behind the newest slot joins its own slot...
        m.record(50, newest - SEC / 2);
        assert_eq!(m.rate_bytes_per_sec(newest), at_newest + 50.0);
        // ...and one older than the ring holds counts in the totals only.
        m.record(7, 0);
        assert_eq!(m.rate_bytes_per_sec(newest), at_newest + 50.0);
        assert_eq!(m.total_bytes(), 40 * 100 + 50 + 7);
        assert_eq!(m.idle_for(newest), Some(0), "activity never moves back");
    }

    #[test]
    fn a_long_gap_costs_what_a_short_one_does() {
        // The same traffic around a gap of one window and of a million
        // windows leaves the same slots: a gap clears each slot once,
        // not once per elapsed slot width.
        let after_gap = |gap: Nanos| {
            let mut m = ThroughputMeter::new(SEC);
            for i in 0..32 {
                m.record(10, i * SEC / 16);
            }
            let resume = 2 * SEC + gap;
            m.record(5, resume);
            m.record(6, resume + SEC / 2);
            (m.rate_bytes_per_sec(resume + SEC / 2), m.slots.iter().sum::<u64>())
        };
        assert_eq!(after_gap(SEC), (11.0, 11));
        assert_eq!(after_gap(1_000_000 * SEC), (11.0, 11));
    }

    #[test]
    fn recycling_slots_leaves_totals_and_idle_time_alone() {
        let mut m = ThroughputMeter::new(SEC);
        for i in 0..100 {
            m.record_batch(64, 2, i * SEC); // every sample recycles the ring
        }
        assert_eq!(m.total_bytes(), 6400);
        assert_eq!(m.total_msgs(), 200);
        assert_eq!(m.idle_for(100 * SEC), Some(SEC));
        assert_eq!(m.rate_bytes_per_sec(99 * SEC + SEC / 2), 64.0);
    }

    #[test]
    fn slot_sums_hold_two_gigabytes_a_second() {
        // One-hour window: 225 s slots of 4.5e11 B each at 2 GB/s, whose
        // pro-rating product (bytes x nanoseconds) needs more than 64 bits.
        let hour = 3600 * SEC;
        let mut m = ThroughputMeter::new(hour);
        let per_sec = 2_000_000_000u64;
        for s in 0..2 * 3600 {
            m.record_batch(per_sec, 1_000_000, s * SEC);
        }
        // The horizon cuts slot 15 (4.5e11 B) a third of a second before
        // its end.
        let rate = m.rate_bytes_per_sec(2 * hour - SEC + SEC / 3);
        assert!((rate / per_sec as f64 - 1.0).abs() < 0.001, "rate {rate}");
    }
}
