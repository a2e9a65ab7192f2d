//! The interface between iOverlay and algorithms.
//!
//! Section 2.3 of the paper describes a deliberately minimal contract
//! between the middleware and application-specific algorithms:
//!
//! * the algorithm is *"completely message driven"* — it passively
//!   processes messages as they arrive or are produced by the engine;
//! * the algorithm needs to know exactly **one** engine function:
//!   `send` (here [`Context::send`]);
//! * the algorithm runs in a **single thread** and never needs
//!   thread-safe data structures;
//! * all *"message destructions are the responsibility of the engine"* —
//!   in Rust this rule becomes ownership: the algorithm receives each
//!   [`Msg`] by value, and dropping it is "consuming" it.
//!
//! The paper's three processing outcomes map onto plain Rust:
//!
//! | paper                       | here                                   |
//! |-----------------------------|----------------------------------------|
//! | consume the message         | let the `Msg` drop                     |
//! | forward to downstreams      | call [`Context::send`] (zero-copy)     |
//! | `hold` for n-to-m coding    | store the `Msg` in the algorithm state |
//!
//! Both runtimes — the real multi-threaded TCP engine
//! (`ioverlay-engine`) and the deterministic simulator
//! (`ioverlay-simnet`) — drive implementations of [`Algorithm`] through
//! [`Context`], so a protocol written once runs unchanged on localhost
//! sockets and in simulated wide-area experiments. What the two do
//! around each callback — the per-application route table behind the
//! `BrokenSource` domino, the staged effects, the origin trace sampler —
//! is written once here ([`AppRoutes`], [`StagedEffects`],
//! [`TraceSampler`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
mod events;
mod switch;

pub use algorithm::{Algorithm, Context, TimerToken};
pub use events::{
    BandwidthScope, BootReplyPayload, LinkDirection, SetBandwidthPayload, StatusReport,
    StatusRequestPayload, ThroughputPayload,
};
pub use switch::{AppRoute, AppRoutes, RecordingCtx, StagedEffects, TraceSampler};

pub use ioverlay_message::{ControlParams, Msg, MsgType, NodeId, TraceContext};
pub use ioverlay_telemetry::{
    EventRecord, HistogramSnapshot, NodeTelemetry, SpanBatch, SpanEvent, SpanStage,
    TelemetryEvent, TelemetrySnapshot,
};

/// The node-local telemetry crate, re-exported so algorithms can depend
/// on `ioverlay-api` alone.
pub use ioverlay_telemetry as telemetry;

/// Application (session) identifier, as carried in every message header.
pub type AppId = u32;

/// Time in nanoseconds since the runtime's epoch (re-exported convention
/// shared with `ioverlay-ratelimit`).
pub type Nanos = u64;
