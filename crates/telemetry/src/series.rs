//! Windowed time-series ring: the health plane's history.
//!
//! Point-in-time snapshots ([`crate::TelemetrySnapshot`]) answer "what
//! are the totals now"; deriving *rates* from them requires the scraper
//! to keep state. This module keeps that state on the node instead: on
//! every measure tick (engine monotonic clock or simnet virtual clock)
//! the registry closes the current window, stores the per-window
//! *deltas* of the hot counters plus the queue high-water marks, and
//! retains a fixed number of recent windows in a drop-oldest ring.
//!
//! Consumers:
//! * `GET /series` on node and observer ports serves the retained
//!   windows directly.
//! * `StatusReport.series` piggybacks windows newer than a per-node
//!   watermark to the observer (same scheme as span batches), where the
//!   health evaluator derives Healthy/Degraded/Stalled states from
//!   consecutive windows.
//! * The flight recorder dumps the retained windows, so a crash leaves
//!   the last minutes of rate history behind.
//!
//! Window indices are assigned monotonically per ring; deltas are
//! computed against the previous sample inside the ring's single lock,
//! so a window is internally consistent without any cross-atomic
//! ordering requirements.
//!
//! The ring stores each window as sixteen LEB128 varints rather than a
//! 144-byte struct: one retained window per node per simulated second
//! otherwise dominates a large simulation's memory.

use std::collections::{vec_deque, VecDeque};
use std::iter::Copied;

use serde::{Deserialize, Serialize};

use crate::sync::{classes, Mutex};
use crate::Nanos;

/// Default number of windows retained per node (at the default 1 s
/// measure interval: a bit over two minutes of history).
pub const DEFAULT_SERIES_CAPACITY: usize = 128;

/// One closed measurement window of counter deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SeriesWindow {
    /// Monotonic window index (per node, assigned at sample time).
    pub idx: u64,
    /// Window start on the sampling clock, nanoseconds.
    pub start: Nanos,
    /// Window end (the sample instant), nanoseconds.
    pub end: Nanos,
    /// Messages moved by the switch loop during the window.
    pub msgs_switched: u64,
    /// Messages written to downstream links during the window.
    pub msgs_sent: u64,
    /// Wire bytes written during the window.
    pub bytes_sent: u64,
    /// Messages decoded off upstream links during the window.
    pub msgs_received: u64,
    /// Wire bytes read during the window.
    pub bytes_received: u64,
    /// Forwards that found a full send buffer during the window.
    pub sends_blocked: u64,
    /// High-water mark of aggregate receive-queue depth in the window.
    pub recv_queue_hwm: u64,
    /// High-water mark of aggregate send-buffer depth in the window.
    pub send_queue_hwm: u64,
    /// Token-bucket wait imposed during the window, nanoseconds.
    pub bucket_wait_nanos: u64,
    /// Systematic coded packets accepted on the free passthrough path.
    pub coding_systematic_hits: u64,
    /// Repair packets pushed through Gaussian elimination (real repair
    /// pressure, distinguishing a lossy coded stream from a framing
    /// stall).
    pub coding_repair_decodes: u64,
    /// Reactor partial writes (`WOULDBLOCK` with bytes staged).
    pub partial_writes: u64,
    /// Queue poison recoveries observed during the window.
    pub poison_recoveries: u64,
    /// Telemetry events evicted unread during the window.
    pub event_drops: u64,
    /// Trace spans evicted unread during the window.
    pub span_drops: u64,
}

/// Cumulative totals read at a sample instant. The ring differences
/// consecutive totals into a [`SeriesWindow`]; callers never compute
/// deltas themselves.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeriesTotals {
    /// Total messages switched since start.
    pub msgs_switched: u64,
    /// Total messages sent since start.
    pub msgs_sent: u64,
    /// Total wire bytes sent since start.
    pub bytes_sent: u64,
    /// Total messages received since start.
    pub msgs_received: u64,
    /// Total wire bytes received since start.
    pub bytes_received: u64,
    /// Total blocked forwards since start.
    pub sends_blocked: u64,
    /// Total token-bucket wait nanoseconds since start.
    pub bucket_wait_nanos: u64,
    /// Total systematic passthrough accepts since start.
    pub coding_systematic_hits: u64,
    /// Total repair-packet eliminations since start.
    pub coding_repair_decodes: u64,
    /// Total reactor partial writes since start.
    pub partial_writes: u64,
    /// Total queue poison recoveries since start.
    pub poison_recoveries: u64,
    /// Total telemetry events dropped since start.
    pub event_drops: u64,
    /// Total trace spans dropped since start.
    pub span_drops: u64,
}

/// A batch of series windows piggybacked on a `StatusReport`, filtered
/// to windows the observer has not yet seen (watermark scheme shared
/// with span batches).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeriesBatch {
    /// Windows in ascending `idx` order.
    pub windows: Vec<SeriesWindow>,
}

/// Per-sample bookkeeping guarded by the ring's single lock.
#[derive(Debug, Default)]
struct SeriesState {
    /// Retained windows, oldest first, each packed as LEB128 varints of
    /// `end - start` followed by the fifteen counter fields in
    /// declaration order. `idx` and `start` are implied: indices are
    /// contiguous up to `next_idx`, and each window starts where the
    /// previous one ended.
    packed: VecDeque<u8>,
    /// Number of windows in `packed`.
    retained: usize,
    /// `start` of the oldest retained window.
    first_start: Nanos,
    next_idx: u64,
    last: SeriesTotals,
    window_open: Nanos,
}

impl SeriesState {
    /// Decodes the retained windows, oldest first.
    fn windows(&self) -> Unpack<'_> {
        Unpack {
            bytes: self.packed.iter().copied(),
            idx: self.next_idx - self.retained as u64,
            start: self.first_start,
            left: self.retained,
        }
    }

    /// Appends `window` (which must start where the newest retained
    /// window ended).
    fn push(&mut self, window: &SeriesWindow) {
        let SeriesWindow {
            idx: _,
            start,
            end,
            msgs_switched,
            msgs_sent,
            bytes_sent,
            msgs_received,
            bytes_received,
            sends_blocked,
            recv_queue_hwm,
            send_queue_hwm,
            bucket_wait_nanos,
            coding_systematic_hits,
            coding_repair_decodes,
            partial_writes,
            poison_recoveries,
            event_drops,
            span_drops,
        } = *window;
        let fields = [
            end.wrapping_sub(start),
            msgs_switched,
            msgs_sent,
            bytes_sent,
            msgs_received,
            bytes_received,
            sends_blocked,
            recv_queue_hwm,
            send_queue_hwm,
            bucket_wait_nanos,
            coding_systematic_hits,
            coding_repair_decodes,
            partial_writes,
            poison_recoveries,
            event_drops,
            span_drops,
        ];
        for mut value in fields {
            while value >= 0x80 {
                self.packed.push_back(value as u8 | 0x80);
                value >>= 7;
            }
            self.packed.push_back(value as u8);
        }
        self.retained += 1;
    }

    /// Drops the oldest retained window; the next one now starts the
    /// ring.
    fn evict_oldest(&mut self) {
        let mut windows = self.windows();
        let Some(oldest) = windows.next() else {
            return;
        };
        let used = self.packed.len() - windows.bytes.len();
        self.packed.drain(..used);
        self.first_start = oldest.end;
        self.retained -= 1;
    }
}

/// Iterator decoding a [`SeriesState`]'s packed windows.
struct Unpack<'a> {
    bytes: Copied<vec_deque::Iter<'a, u8>>,
    idx: u64,
    start: Nanos,
    left: usize,
}

impl Unpack<'_> {
    /// Reads one LEB128 varint.
    fn varint(&mut self) -> u64 {
        let mut value = 0u64;
        let mut shift = 0;
        for byte in self.bytes.by_ref() {
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                break;
            }
            shift += 7;
        }
        value
    }
}

impl Iterator for Unpack<'_> {
    type Item = SeriesWindow;

    fn next(&mut self) -> Option<SeriesWindow> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        // Struct fields evaluate in the order written: `push`'s order.
        let window = SeriesWindow {
            idx: self.idx,
            start: self.start,
            end: self.start.wrapping_add(self.varint()),
            msgs_switched: self.varint(),
            msgs_sent: self.varint(),
            bytes_sent: self.varint(),
            msgs_received: self.varint(),
            bytes_received: self.varint(),
            sends_blocked: self.varint(),
            recv_queue_hwm: self.varint(),
            send_queue_hwm: self.varint(),
            bucket_wait_nanos: self.varint(),
            coding_systematic_hits: self.varint(),
            coding_repair_decodes: self.varint(),
            partial_writes: self.varint(),
            poison_recoveries: self.varint(),
            event_drops: self.varint(),
            span_drops: self.varint(),
        };
        self.idx += 1;
        self.start = window.end;
        Some(window)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

/// Fixed-capacity drop-oldest ring of closed [`SeriesWindow`]s.
#[derive(Debug)]
pub struct SeriesRing {
    capacity: usize,
    state: Mutex<SeriesState>,
}

impl SeriesRing {
    /// Creates a ring retaining the most recent `capacity` windows
    /// (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            state: Mutex::new(&classes::TELEMETRY_SERIES, SeriesState::default()),
        }
    }

    /// Closes the current window at `now`: stores the deltas between
    /// `totals` and the previous sample plus the window-local high-water
    /// marks, evicting the oldest window when full.
    pub fn sample(&self, now: Nanos, totals: SeriesTotals, recv_hwm: u64, send_hwm: u64) {
        let mut state = self.state.lock();
        let idx = state.next_idx;
        state.next_idx += 1;
        let last = state.last;
        let window = SeriesWindow {
            idx,
            start: state.window_open,
            end: now,
            msgs_switched: totals.msgs_switched.wrapping_sub(last.msgs_switched),
            msgs_sent: totals.msgs_sent.wrapping_sub(last.msgs_sent),
            bytes_sent: totals.bytes_sent.wrapping_sub(last.bytes_sent),
            msgs_received: totals.msgs_received.wrapping_sub(last.msgs_received),
            bytes_received: totals.bytes_received.wrapping_sub(last.bytes_received),
            sends_blocked: totals.sends_blocked.wrapping_sub(last.sends_blocked),
            recv_queue_hwm: recv_hwm,
            send_queue_hwm: send_hwm,
            bucket_wait_nanos: totals
                .bucket_wait_nanos
                .wrapping_sub(last.bucket_wait_nanos),
            coding_systematic_hits: totals
                .coding_systematic_hits
                .wrapping_sub(last.coding_systematic_hits),
            coding_repair_decodes: totals
                .coding_repair_decodes
                .wrapping_sub(last.coding_repair_decodes),
            partial_writes: totals.partial_writes.wrapping_sub(last.partial_writes),
            poison_recoveries: totals
                .poison_recoveries
                .wrapping_sub(last.poison_recoveries),
            event_drops: totals.event_drops.wrapping_sub(last.event_drops),
            span_drops: totals.span_drops.wrapping_sub(last.span_drops),
        };
        state.last = totals;
        state.window_open = now;
        if state.retained == self.capacity {
            state.evict_oldest();
        }
        state.push(&window);
    }

    /// Copies of all retained windows, oldest first (the `/series`
    /// endpoint body and the flight-recorder dump).
    pub fn snapshot(&self) -> Vec<SeriesWindow> {
        self.state.lock().windows().collect()
    }

    /// Retained windows with `idx >= watermark`, oldest first (the
    /// `StatusReport` piggyback; the caller advances its watermark past
    /// the last returned index).
    pub fn windows_since(&self, watermark: u64) -> Vec<SeriesWindow> {
        let state = self.state.lock();
        let first_idx = state.next_idx - state.retained as u64;
        let skip = watermark.saturating_sub(first_idx);
        if skip >= state.retained as u64 {
            return Vec::new();
        }
        state.windows().skip(skip as usize).collect()
    }

    /// Number of windows closed so far (retained or evicted).
    pub fn closed(&self) -> u64 {
        self.state.lock().next_idx
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;

    fn totals(n: u64) -> SeriesTotals {
        SeriesTotals {
            msgs_switched: 10 * n,
            msgs_sent: 9 * n,
            bytes_sent: 1000 * n,
            msgs_received: 8 * n,
            bytes_received: 900 * n,
            sends_blocked: n,
            bucket_wait_nanos: 50 * n,
            coding_systematic_hits: 16 * n,
            coding_repair_decodes: 3 * n,
            partial_writes: 2 * n,
            poison_recoveries: 0,
            event_drops: n / 2,
            span_drops: 0,
        }
    }

    #[test]
    fn windows_hold_deltas_not_totals() {
        let ring = SeriesRing::new(8);
        ring.sample(100, totals(1), 5, 7);
        ring.sample(200, totals(3), 2, 1);
        let windows = ring.snapshot();
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].idx, 0);
        assert_eq!(windows[0].start, 0);
        assert_eq!(windows[0].end, 100);
        assert_eq!(windows[0].msgs_switched, 10);
        assert_eq!(windows[0].recv_queue_hwm, 5);
        assert_eq!(windows[1].idx, 1);
        assert_eq!(windows[1].start, 100);
        assert_eq!(windows[1].end, 200);
        assert_eq!(windows[1].msgs_switched, 20);
        assert_eq!(windows[1].bytes_sent, 2000);
        assert_eq!(windows[1].send_queue_hwm, 1);
        assert_eq!(windows[0].coding_systematic_hits, 16);
        assert_eq!(windows[1].coding_systematic_hits, 32);
        assert_eq!(windows[1].coding_repair_decodes, 6);
    }

    #[test]
    fn ring_drops_oldest_and_keeps_indices() {
        let ring = SeriesRing::new(3);
        for n in 1..=5 {
            ring.sample(100 * n, totals(n), 0, 0);
        }
        let windows = ring.snapshot();
        assert_eq!(windows.len(), 3);
        assert_eq!(
            windows.iter().map(|w| w.idx).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(ring.closed(), 5);
    }

    #[test]
    fn windows_since_respects_watermark() {
        let ring = SeriesRing::new(8);
        for n in 1..=4 {
            ring.sample(100 * n, totals(n), 0, 0);
        }
        let fresh = ring.windows_since(2);
        assert_eq!(fresh.iter().map(|w| w.idx).collect::<Vec<_>>(), vec![2, 3]);
        assert!(ring.windows_since(4).is_empty());
    }

    #[test]
    fn packed_windows_cost_at_most_32_bytes() {
        // Shaped like a `sim_tree` node's windows: 1 s long, a few
        // hundred messages and a few hundred KB each, nothing else.
        let ring = SeriesRing::new(DEFAULT_SERIES_CAPACITY);
        let mut t = SeriesTotals::default();
        for n in 1..=1_000u64 {
            let msgs = 200 + n % 300;
            t.msgs_switched += msgs;
            t.msgs_sent += msgs;
            t.msgs_received += msgs;
            t.bytes_sent += msgs * 1_064;
            t.bytes_received += msgs * 1_064;
            ring.sample(n * 1_000_000_000, t, 0, 0);
        }
        let state = ring.state.lock();
        assert_eq!(state.retained, DEFAULT_SERIES_CAPACITY);
        assert!(
            state.packed.len() <= 32 * DEFAULT_SERIES_CAPACITY,
            "{} bytes for {} windows",
            state.packed.len(),
            state.retained
        );
    }
}
