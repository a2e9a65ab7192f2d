//! Bandwidth emulation and throughput measurement.
//!
//! iOverlay *"explicitly supports the emulation of bandwidth availability
//! in three categories: (1) per-node total bandwidth ... (2) per-link
//! bandwidth ... and (3) per-node incoming and outgoing bandwidth"*
//! (§2.2). The paper implements this by wrapping the socket `send` and
//! `recv` calls *"to include multiple timers in order to precisely
//! control the bandwidth used per interval"*; this crate provides the
//! equivalent machinery as deficit-style token buckets:
//!
//! * [`TokenBucket`] — a single rate limiter; reservations may overdraw
//!   and return the delay until the deficit clears, which composes
//!   naturally with both real `thread::sleep` (the engine) and virtual
//!   event scheduling (the simulator);
//! * [`BucketChain`] — several buckets applied to one transmission (for
//!   example per-link *and* per-node-uplink *and* per-node-total);
//! * [`BucketSet`] — the same chains for a single-threaded owner (the
//!   simulator): buckets in one `Vec`, chains of indices, no locks;
//! * [`NodeBandwidth`] — a node's emulated profile (total / up / down),
//!   settable at start-up or retuned at runtime from the observer;
//! * [`ThroughputMeter`] — windowed throughput measurement, used both
//!   for the QoS reports and for the inactivity-based failure detector.
//!   A fixed ring of 17 time slots, 16 of them spanning the window: about
//!   190 bytes per meter whatever the message rate, O(1) to record,
//!   read through `&self`, exact until the first window has elapsed and
//!   within the bytes of one slot (a sixteenth of the window)
//!   afterwards; a sample or reading stamped behind the newest slot
//!   recycles nothing;
//! * [`Clock`], [`SystemClock`], [`VirtualClock`] — pluggable time
//!   sources so identical shaping logic runs in real time and simulated
//!   time.
//!
//! # Example
//!
//! ```
//! use ioverlay_ratelimit::{Rate, TokenBucket, VirtualClock, Clock};
//!
//! let clock = VirtualClock::new();
//! // Burst allowance of one 5 KB message, paced at 100 KBps after that.
//! let mut bucket = TokenBucket::with_burst(Rate::kbps(100), 5 * 1024, clock.now());
//! // The first message goes immediately (burst allowance)...
//! assert_eq!(bucket.reserve(5 * 1024, clock.now()), 0);
//! // ...the next must wait for tokens to accumulate at 100 KB/s.
//! let delay = bucket.reserve(5 * 1024, clock.now());
//! assert!(delay > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bucket;
mod clock;
mod meter;
mod profile;

pub use bucket::{BucketChain, BucketId, BucketSet, Rate, SharedBucket, TokenBucket};
pub use clock::{Clock, Nanos, SystemClock, VirtualClock, NANOS_PER_SEC};
pub use meter::ThroughputMeter;
pub use profile::NodeBandwidth;
