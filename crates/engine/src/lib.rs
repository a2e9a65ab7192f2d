//! The iOverlay message switching engine — real sockets, real threads.
//!
//! This crate is the Rust rendition of §2.2 of the paper: *"an
//! application-layer message switch"* deployed on every overlay node,
//! built from
//!
//! * a **thread-per-receiver / thread-per-sender** architecture with
//!   blocking socket I/O on **persistent connections**;
//! * **thread-safe circular queues** (from `ioverlay-queue`) as the
//!   shared buffers between socket threads and the engine thread;
//! * a single **engine thread** that polls the publicized control port,
//!   dispatches control messages to `Engine::process` or
//!   `Algorithm::process`, and switches data messages from receiver
//!   buffers to sender buffers in weighted round-robin order;
//! * **zero message copying** — payloads are reference-counted
//!   [`bytes::Bytes`] passed from the incoming socket to the outgoing
//!   sockets;
//! * transparent **failure detection** (socket errors, EOF, traffic
//!   inactivity) with graceful link teardown and the `BrokenSource`
//!   domino;
//! * **bandwidth emulation** wrapping the socket send/recv path with
//!   token buckets (per-link, per-node up/down/total), retunable at
//!   runtime;
//! * per-link **QoS measurement** reported periodically to the algorithm
//!   and the observer.
//!
//! Nodes are *virtualized*: any number of [`EngineNode`]s can run in one
//! process, each with its own port and bandwidth profile, which is how
//! the paper runs 32-node chains on a single dual-CPU server (Fig. 5).
//!
//! # Example
//!
//! ```no_run
//! use ioverlay_api::{Algorithm, Context, Msg, MsgType};
//! use ioverlay_engine::{EngineConfig, EngineNode};
//!
//! struct Sink;
//! impl Algorithm for Sink {
//!     fn on_message(&mut self, _ctx: &mut dyn Context, msg: Msg) {
//!         if msg.ty() == MsgType::Data {
//!             println!("got {} bytes", msg.payload().len());
//!         }
//!     }
//! }
//!
//! # fn main() -> std::io::Result<()> {
//! let node = EngineNode::spawn(EngineConfig::default(), Box::new(Sink))?;
//! println!("listening as {}", node.id());
//! node.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod ctx;
mod engine;
mod flight;
mod handle;
mod link;
mod peer;
mod shard;
mod sync;

pub use config::{EngineConfig, IoBackend};
pub use handle::EngineNode;
