//! A deterministic discrete-event simulated overlay network.
//!
//! The paper evaluates its case-study algorithms on PlanetLab, with all
//! relevant resource constraints **emulated** by iOverlay itself: every
//! wide-area node gets an artificial bandwidth profile (for example the
//! 81-node experiment of Fig. 11 draws per-node bandwidth uniformly from
//! 50–200 KBps). Since the physical testbed contributes nothing to those
//! experiments except nondeterminism, this reproduction substitutes a
//! deterministic simulator that models exactly the pieces of iOverlay the
//! emulation exercises:
//!
//! * per-node virtual switches with **bounded receive and send buffers**
//!   serviced in weighted round-robin order, including the "remaining
//!   senders" partial-forwarding stall that produces the paper's *back
//!   pressure* effect (Fig. 6 vs Fig. 7);
//! * links with **token-bucket bandwidth** (per-link, per-node up/down,
//!   per-node total — the three emulation categories of §2.2),
//!   propagation latency, and a TCP-like in-flight window;
//! * **failure injection** with automatic link teardown, loss
//!   accounting, and `NeighborFailed`/`BrokenSource` delivery (the
//!   "Domino Effect");
//! * **QoS measurement** — per-link windowed throughput and periodic
//!   `UpThroughput`/`DownThroughput` reports to algorithms;
//! * **control-overhead accounting** by message type, which regenerates
//!   the sFlow overhead figures (Fig. 15–18).
//!
//! Algorithms run unmodified against [`ioverlay_api::Algorithm`]; the
//! same implementations also run on the real TCP engine
//! (`ioverlay-engine`).
//!
//! # Inside
//!
//! Nodes, directed links and token buckets live in arenas addressed by
//! dense indices; a `NodeId` is translated once, where it enters (a
//! public call, a destination an algorithm names for the first time,
//! the creation of a link), never per event. A link is one record per
//! ordered node pair holding the sender's and the receiver's half; each
//! node lists its links sorted by the peer's `NodeId`, because
//! round-robin ties, retry rotation and every report walk neighbours in
//! address order. Events carry indices only, and the events scheduled
//! for the current instant — two of every three — bypass the heap
//! through a FIFO without changing the `(time, sequence)` order. The
//! same scenario replays the same events in the same order, bit for
//! bit; `tests/sim_golden.rs` at the repository root pins six scenarios
//! to digests recorded before this layout existed.
//!
//! On a 4096-node forwarding tree one hop message (one message across
//! one link) costs about 0.9 µs of host time and a built node about
//! 3.2 kB; the per-link and per-application throughput meters add
//! 16 bytes per message inside their window on top (`BENCH_simnet.json`
//! has the figures from 64 to 65 536 nodes). DESIGN.md §14 describes the
//! layout and its ordering rules.
//!
//! # Example
//!
//! ```
//! use ioverlay_api::{Algorithm, Context, Msg, MsgType, NodeId};
//! use ioverlay_simnet::{SimBuilder, NodeBandwidth, Rate};
//!
//! /// Forwards every data message to a fixed downstream.
//! struct Relay { next: Option<NodeId> }
//! impl Algorithm for Relay {
//!     fn on_message(&mut self, ctx: &mut dyn Context, msg: Msg) {
//!         if msg.ty() == MsgType::Data {
//!             if let Some(next) = self.next {
//!                 ctx.send(msg, next);
//!             }
//!         }
//!     }
//! }
//!
//! let a = NodeId::loopback(1);
//! let b = NodeId::loopback(2);
//! let mut sim = SimBuilder::new(7).build();
//! sim.add_node(a, NodeBandwidth::unlimited(), Box::new(Relay { next: Some(b) }));
//! sim.add_node(b, NodeBandwidth::unlimited(), Box::new(Relay { next: None }));
//! sim.inject(0, a, Msg::data(a, 1, 0, vec![0u8; 1024]));
//! sim.run_for(1_000_000_000);
//! assert_eq!(sim.metrics().received_bytes(b, 1), 1024);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod index;
mod link;
mod metrics;
mod node;
mod sim;

pub use ioverlay_ratelimit::{NodeBandwidth, Rate};

pub use metrics::Metrics;
pub use sim::{Sim, SimBuilder, SimConfig};
