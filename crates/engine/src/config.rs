//! Engine node configuration.

use ioverlay_api::{Nanos, NodeId};
use ioverlay_ratelimit::NodeBandwidth;

/// Which I/O architecture carries this node's persistent links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoBackend {
    /// The paper's thread-per-link design: one blocking receiver thread
    /// per upstream and one blocking sender thread per downstream.
    /// Default, so Fig. 5–7 repro numbers stay directly comparable.
    #[default]
    Blocking,
    /// The sharded readiness core: links are hashed onto a small pool
    /// of shard workers, each multiplexing its sockets through one
    /// epoll/kqueue reactor with non-blocking vectored writes. Thread
    /// count is O(shards), not O(links).
    Reactor,
}

/// Configuration for one [`crate::EngineNode`].
///
/// The defaults mirror the paper's experimental setup: 10-message
/// buffers, one-second measurement intervals, and no emulated bandwidth
/// limits.
///
/// How a link batches, paces and serializes its traffic is not
/// configurable: both backends run the one pipeline of `link.rs` with
/// fixed batch sizes. [`EngineConfig::io_backend`] is the only choice
/// between two data paths.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Port to listen on; 0 lets the OS choose (*"the port number may be
    /// explicitly specified at start-up time; otherwise, the engine
    /// chooses one of the available ports"*).
    pub port: u16,
    /// Capacity of each receiver and sender buffer, in messages.
    pub buffer_msgs: usize,
    /// Emulated bandwidth profile for this node.
    pub bandwidth: NodeBandwidth,
    /// Interval between QoS measurement reports.
    pub measure_interval: Nanos,
    /// Averaging window for throughput meters.
    pub measure_window: Nanos,
    /// If set, a data link idle for longer than this is declared failed
    /// (the paper's *"long consecutive periods of traffic inactivity"*
    /// detector). `None` disables inactivity detection.
    pub inactivity_timeout: Option<Nanos>,
    /// Observer to bootstrap against, if any.
    pub observer: Option<NodeId>,
    /// RNG seed for the algorithm-visible randomness.
    pub seed: u64,
    /// When `true` (default), the node records metrics and events into
    /// its [`ioverlay_telemetry::NodeTelemetry`] registry. `false`
    /// reduces every recording site to one predictable branch — the
    /// `repro switch` overhead baseline.
    pub telemetry: bool,
    /// Distributed-tracing sample rate: every `trace_sample`-th locally
    /// originated `Data` message is traced hop by hop (its header grows
    /// by the trace extension and every hop records pipeline spans).
    /// `0` (default) disables tracing entirely.
    pub trace_sample: u32,
    /// I/O architecture for persistent links (see [`IoBackend`]).
    pub io_backend: IoBackend,
    /// Shard-worker count for [`IoBackend::Reactor`]; ignored by the
    /// blocking backend. Floors at one.
    pub reactor_shards: usize,
    /// When `true` (default), the node maintains the health plane on
    /// top of base telemetry: per-window series sampling on the measure
    /// tick and top-k flow accounting on the switch path. `false` keeps
    /// base telemetry but skips both — the `repro switch`
    /// `health_overhead_pct` baseline. Moot when `telemetry` is off.
    pub health: bool,
    /// If set, caps each persistent data link's kernel socket buffers
    /// (`SO_SNDBUF`/`SO_RCVBUF`) at this many bytes, on both the dialing
    /// and the accepting side, disabling receive autotuning for the
    /// connection. `None` (default) keeps the OS autotuned sizes.
    ///
    /// Protocols that correlate messages across two paths (a coding
    /// node pairing packets from a direct stream with packets routed
    /// through a helper) hold state proportional to the buffering
    /// between those paths; on loopback, autotuning grows that to tens
    /// of thousands of in-flight messages. A cap of a few hundred
    /// kilobytes keeps batching intact while the hold maps stay small
    /// enough to be cache-resident.
    pub socket_buf_bytes: Option<usize>,
    /// Directory for flight-recorder dumps. When set (directly or via
    /// the `IOVERLAY_FLIGHT_DIR` environment variable at spawn), the
    /// node installs a process-wide panic hook and SIGUSR1 handler that
    /// dump retained telemetry as JSONL black boxes into this
    /// directory. `None` (default) disables the recorder.
    pub flight_dir: Option<std::path::PathBuf>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            port: 0,
            buffer_msgs: 10,
            bandwidth: NodeBandwidth::unlimited(),
            measure_interval: 1_000_000_000,
            measure_window: 4_000_000_000,
            inactivity_timeout: None,
            observer: None,
            seed: 0,
            telemetry: true,
            trace_sample: 0,
            io_backend: IoBackend::Blocking,
            reactor_shards: default_reactor_shards(),
            health: true,
            socket_buf_bytes: None,
            flight_dir: None,
        }
    }
}

/// Default shard count: one worker per available core, capped at four —
/// a single-core host gets one shard (every extra shard there is pure
/// cross-thread handoff overhead), larger hosts spread links over up to
/// four.
fn default_reactor_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 4)
}

impl EngineConfig {
    /// Starts from defaults with an explicit port.
    pub fn on_port(port: u16) -> Self {
        Self {
            port,
            ..Self::default()
        }
    }

    /// Sets the buffer capacity (builder style).
    pub fn with_buffer_msgs(mut self, cap: usize) -> Self {
        self.buffer_msgs = cap;
        self
    }

    /// Sets the emulated bandwidth profile (builder style).
    pub fn with_bandwidth(mut self, bandwidth: NodeBandwidth) -> Self {
        self.bandwidth = bandwidth;
        self
    }

    /// Sets the observer address (builder style).
    pub fn with_observer(mut self, observer: NodeId) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Sets the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables or disables telemetry recording (builder style).
    pub fn with_telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// Sets the tracing sample rate (builder style): every `n`-th
    /// locally originated data message is traced; `0` disables tracing.
    pub fn with_trace_sample(mut self, n: u32) -> Self {
        self.trace_sample = n;
        self
    }

    /// Selects the I/O backend (builder style).
    pub fn with_io_backend(mut self, backend: IoBackend) -> Self {
        self.io_backend = backend;
        self
    }

    /// Sets the reactor shard-worker count (builder style); floors at
    /// one, ignored by the blocking backend.
    pub fn with_reactor_shards(mut self, shards: usize) -> Self {
        self.reactor_shards = shards.max(1);
        self
    }

    /// Enables or disables the health plane (series sampling and flow
    /// accounting) on top of base telemetry (builder style).
    pub fn with_health(mut self, enabled: bool) -> Self {
        self.health = enabled;
        self
    }

    /// Sets the measure-tick interval (builder style); floors at 1 ms
    /// so a zero interval cannot spin the engine loop. Tests shorten
    /// this to close series windows quickly.
    pub fn with_measure_interval(mut self, interval: Nanos) -> Self {
        self.measure_interval = interval.max(1_000_000);
        self
    }

    /// Caps each data link's kernel socket buffers (builder style);
    /// floors at 4 KiB. See [`EngineConfig::socket_buf_bytes`].
    pub fn with_socket_buf_bytes(mut self, bytes: usize) -> Self {
        self.socket_buf_bytes = Some(bytes.max(4096));
        self
    }

    /// Sets the flight-recorder dump directory (builder style).
    pub fn with_flight_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.flight_dir = Some(dir.into());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioverlay_ratelimit::Rate;

    #[test]
    fn builder_style_composition() {
        let cfg = EngineConfig::on_port(7777)
            .with_buffer_msgs(5)
            .with_bandwidth(NodeBandwidth::total_only(Rate::kbps(400)))
            .with_observer(NodeId::loopback(9000))
            .with_seed(7);
        assert_eq!(cfg.port, 7777);
        assert_eq!(cfg.buffer_msgs, 5);
        assert_eq!(cfg.bandwidth.total(), Some(Rate::kbps(400)));
        assert_eq!(cfg.observer, Some(NodeId::loopback(9000)));
        assert_eq!(cfg.seed, 7);
    }

    #[test]
    fn defaults_are_paperlike() {
        let cfg = EngineConfig::default();
        assert_eq!(cfg.port, 0);
        assert_eq!(cfg.buffer_msgs, 10);
        assert!(cfg.bandwidth.is_unlimited());
        assert!(cfg.inactivity_timeout.is_none());
        assert!(cfg.telemetry, "telemetry records by default");
        assert_eq!(cfg.trace_sample, 0, "tracing is opt-in");
        assert_eq!(
            cfg.io_backend,
            IoBackend::Blocking,
            "blocking stays the default so repro numbers are comparable"
        );
        assert!(cfg.reactor_shards >= 1);
    }

    #[test]
    fn reactor_builders() {
        let cfg = EngineConfig::default()
            .with_io_backend(IoBackend::Reactor)
            .with_reactor_shards(0);
        assert_eq!(cfg.io_backend, IoBackend::Reactor);
        assert_eq!(cfg.reactor_shards, 1, "shard count floors at one");
    }

    #[test]
    fn telemetry_builder() {
        let cfg = EngineConfig::default().with_telemetry(false);
        assert!(!cfg.telemetry);
    }

    #[test]
    fn trace_sample_builder() {
        let cfg = EngineConfig::default().with_trace_sample(8);
        assert_eq!(cfg.trace_sample, 8);
    }

    #[test]
    fn socket_buf_builder() {
        let cfg = EngineConfig::default();
        assert!(cfg.socket_buf_bytes.is_none(), "autotuned by default");
        let cfg = cfg.with_socket_buf_bytes(0);
        assert_eq!(cfg.socket_buf_bytes, Some(4096), "cap floors at 4 KiB");
        let cfg = cfg.with_socket_buf_bytes(256 * 1024);
        assert_eq!(cfg.socket_buf_bytes, Some(256 * 1024));
    }

    #[test]
    fn health_plane_builders() {
        let cfg = EngineConfig::default();
        assert!(cfg.health, "health plane records by default");
        assert!(cfg.flight_dir.is_none(), "flight recorder is opt-in");
        let cfg = cfg
            .with_health(false)
            .with_measure_interval(0)
            .with_flight_dir("/tmp/flight");
        assert!(!cfg.health);
        assert_eq!(cfg.measure_interval, 1_000_000, "interval floors at 1ms");
        assert_eq!(
            cfg.flight_dir.as_deref(),
            Some(std::path::Path::new("/tmp/flight"))
        );
    }
}
