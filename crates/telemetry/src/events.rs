//! Bounded per-node structured event ring.
//!
//! Rare-but-diagnostic control-plane transitions (connects, buffer-full
//! stalls, SendSpace wakeups, partial-forward retries, domino
//! teardowns) are pushed as typed records with nanosecond timestamps.
//! The ring is bounded: when full, the oldest record is evicted and a
//! dropped counter advances, so sustained congestion can never grow
//! memory without bound. Events are off the per-message fast path —
//! they fire on state transitions, not per datum — so a short mutexed
//! critical section (one `VecDeque` push) is acceptable here where it
//! would not be in the metric counters.
//!
//! # Memory-ordering argument
//!
//! The ring has two pieces of state written by `push`: the mutexed
//! `records` deque and the `dropped` eviction counter. The loom models
//! in `tests/loom.rs` pin down exactly which orderings each reader
//! needs:
//!
//! * **Readers holding the `records` lock** need nothing extra: a mutex
//!   release synchronizes-with the next acquire, so every `dropped`
//!   increment performed inside an earlier critical section is visible
//!   — even a `Relaxed` one would be.
//! * **The lock-free `dropped()` accessor** (Prometheus scrape path)
//!   pairs an `Acquire` load with the `Release` increment in `push`.
//!   A scraper that observes eviction N therefore also observes
//!   everything that happened-before that eviction (in particular the
//!   pushes that caused it). With `Relaxed` on both sides the counter
//!   value itself would still be eventually exact — RMWs never lose
//!   updates — but it would be temporally untethered from every other
//!   observation the scraper makes.
//! * **The `(records, dropped)` pair must be read under one lock
//!   acquisition** ([`EventRing::consistent_view`]). Reading
//!   `to_vec()` and then `dropped()` as two steps tears the pair:
//!   evictions that land between the two reads inflate `dropped`
//!   relative to the copied records, so `dropped + newest_seq`-style
//!   accounting overcounts. The loom model
//!   `torn_snapshot_overcounts_dropped` demonstrates that failure
//!   against the torn pattern; `NodeTelemetry::snapshot` uses
//!   `consistent_view` for exactly this reason.

use std::collections::VecDeque;

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{self, Mutex};
use ioverlay_message::NodeId;
use serde::{Deserialize, Serialize};

/// Default number of records an [`EventRing`] retains.
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// A structured engine event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TelemetryEvent {
    /// A link to `peer` was established (`outbound` = we dialed).
    Connected {
        /// The remote endpoint of the new link.
        peer: NodeId,
        /// True when this node initiated the connection.
        outbound: bool,
    },
    /// An outbound dial to `peer` failed.
    ConnectFailed {
        /// The endpoint that could not be reached.
        peer: NodeId,
    },
    /// A link to `peer` was torn down (close, failure, or shutdown).
    Disconnected {
        /// The remote endpoint of the removed link.
        peer: NodeId,
    },
    /// A forward to `dest` found its send buffer full and was parked.
    BufferFull {
        /// The destination whose send buffer was full.
        dest: NodeId,
    },
    /// A sender thread drained a full buffer and woke the switch.
    SendSpaceWakeup,
    /// A switch round retried messages parked for `upstream`.
    PartialForwardRetry {
        /// The upstream whose parked messages were retried.
        upstream: NodeId,
        /// How many parked messages the retry moved.
        msgs: u64,
    },
    /// The last source of application `app` vanished and downstream
    /// state was torn down (paper §: domino effect).
    DominoTeardown {
        /// The overlay application id being torn down.
        app: u32,
    },
    /// A queue lock was found poisoned (a holder panicked) and was
    /// recovered instead of propagating the panic.
    QueuePoisonRecovered {
        /// How many new recoveries this event covers.
        count: u64,
    },
}

/// One timestamped event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Nanosecond timestamp (engine monotonic clock, or virtual time
    /// under the deterministic simulator).
    pub at: u64,
    /// The event itself.
    pub event: TelemetryEvent,
}

/// Bounded drop-oldest ring of [`EventRecord`]s.
#[derive(Debug)]
pub struct EventRing {
    capacity: usize,
    dropped: AtomicU64,
    records: Mutex<VecDeque<EventRecord>>,
}

impl EventRing {
    /// Creates a ring retaining at most `capacity` records (min 1).
    ///
    /// The ring starts without storage and grows as records arrive, up
    /// to `capacity`: most nodes of a large simulation never come near
    /// it, and reserving it up front cost every node the full ring.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
            records: Mutex::new(&sync::classes::TELEMETRY_EVENTS, VecDeque::new()),
        }
    }

    /// Appends a record, evicting the oldest when full.
    pub fn push(&self, at: u64, event: TelemetryEvent) {
        let mut records = self.records.lock();
        if records.len() == self.capacity {
            records.pop_front();
            // Release: pairs with the Acquire in `dropped()` so a
            // lock-free scraper that sees this eviction also sees the
            // pushes that caused it (see module comment).
            self.dropped.fetch_add(1, Ordering::Release);
        }
        records.push_back(EventRecord { at, event });
    }

    /// Number of records evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Acquire)
    }

    /// Maximum number of retained records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies out the retained records, oldest first.
    pub fn to_vec(&self) -> Vec<EventRecord> {
        self.records.lock().iter().cloned().collect()
    }

    /// Copies out the retained records together with the eviction count
    /// observed under the *same* lock acquisition, so the pair is
    /// mutually consistent: every event pushed before the snapshot is
    /// either in the returned records or counted in `dropped`, and
    /// `dropped` includes no eviction that the records do not reflect.
    /// Snapshots must use this instead of `to_vec()` + `dropped()`,
    /// which can tear (see module comment).
    pub fn consistent_view(&self) -> (Vec<EventRecord>, u64) {
        let records = self.records.lock();
        let dropped = self.dropped.load(Ordering::Acquire);
        (records.iter().cloned().collect(), dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_and_counts() {
        let ring = EventRing::new(2);
        for app in 0..5u32 {
            ring.push(app as u64, TelemetryEvent::DominoTeardown { app });
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 3);
        let records = ring.to_vec();
        assert_eq!(records[0].at, 3);
        assert_eq!(records[1].at, 4);
    }

    #[test]
    fn capacity_is_a_bound_not_a_reservation() {
        let ring = EventRing::new(3);
        assert_eq!(ring.capacity(), 3, "known before anything is pushed");
        assert!(ring.is_empty());
        for app in 0..10u32 {
            ring.push(u64::from(app), TelemetryEvent::DominoTeardown { app });
            assert!(ring.len() <= 3);
        }
        assert_eq!(ring.capacity(), 3);
        let kept: Vec<u64> = ring.to_vec().iter().map(|r| r.at).collect();
        assert_eq!(kept, vec![7, 8, 9], "the oldest go first");
        assert_eq!(ring.dropped(), 7);
        assert_eq!(EventRing::new(0).capacity(), 1, "a ring holds at least one");
    }

    #[test]
    fn event_roundtrips_through_serde() {
        let record = EventRecord {
            at: 42,
            event: TelemetryEvent::PartialForwardRetry {
                upstream: NodeId::loopback(9000),
                msgs: 17,
            },
        };
        let value = serde_json::to_value(&record);
        let back: EventRecord = serde_json::from_value(&value).expect("deserialize");
        assert_eq!(back, record);
    }
}
