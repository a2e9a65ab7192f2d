//! The public handle to a running engine node.

use std::io;
use std::net::TcpListener;
use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::{Arc, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crossbeam_channel::{bounded, unbounded, Sender};
use ioverlay_api::{Algorithm, Msg, NodeId, StatusReport};
use ioverlay_ratelimit::BucketChain;

use crate::config::EngineConfig;
use crate::engine::{run_engine, run_listener, EngineState};
use crate::peer::ControlEvent;

/// Freed heap each malloc arena may keep before trimming, set once per
/// process by the first node spawned. A relay's sender frees a batch of
/// payloads (up to `SEND_BATCH_MAX` x the message size) that its
/// receiver allocates again at once; at glibc's default of 128 KiB
/// every such swing is returned to the kernel and faulted back in —
/// 1.3 M page faults in 12 s of 16 KiB messages, 14 k at 16 MiB, with a
/// sixth more goodput. It costs up to this much resident memory per
/// arena after a burst, never a higher peak.
const HEAP_TRIM_THRESHOLD: usize = 16 << 20;

/// A running overlay node: engine thread, listener thread, and the
/// per-link socket threads they spawn.
///
/// Any number of `EngineNode`s can coexist in one process — this is the
/// paper's node *virtualization* (*"each physical node ... may easily
/// accommodate from one to up to dozens of iOverlay nodes"*).
///
/// Dropping the handle shuts the node down.
pub struct EngineNode {
    id: NodeId,
    events_tx: Sender<ControlEvent>,
    running: Arc<AtomicBool>,
    engine_thread: Option<JoinHandle<()>>,
    listener_thread: Option<JoinHandle<()>>,
}

impl EngineNode {
    /// Binds the node's port, starts its threads, bootstraps against the
    /// observer (if configured), and runs `algorithm` on the engine
    /// thread.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from binding the listen socket.
    pub fn spawn(config: EngineConfig, algorithm: Box<dyn Algorithm>) -> io::Result<EngineNode> {
        static HEAP_TUNED: OnceLock<bool> = OnceLock::new();
        HEAP_TUNED.get_or_init(|| reactor::rlimit::set_malloc_trim_threshold(HEAP_TRIM_THRESHOLD));
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let port = listener.local_addr()?.port();
        let id = NodeId::loopback(port);
        let (events_tx, events_rx) = unbounded();
        let mut state = EngineState::new(id, config.clone(), algorithm, events_tx.clone());
        state.init_io_backend();
        let running = Arc::new(AtomicBool::new(true));
        let listener_thread = {
            let env = state.link_env();
            let config = Arc::new(config);
            let running = running.clone();
            let mut down_chain = BucketChain::new();
            down_chain.push(state.down_bucket.clone());
            down_chain.push(state.total_bucket.clone());
            let pool = state.pool.clone();
            thread::Builder::new()
                .name(format!("lsn-{id}"))
                .spawn(move || run_listener(env, listener, config, down_chain, running, pool))?
        };
        let engine_thread = thread::Builder::new()
            .name(format!("eng-{id}"))
            .spawn(move || run_engine(state, events_rx))?;
        Ok(EngineNode {
            id,
            events_tx,
            running,
            engine_thread: Some(engine_thread),
            listener_thread: Some(listener_thread),
        })
    }

    /// The node's identity (loopback IP + bound port).
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Injects a control message as if it came from the observer over
    /// the publicized port.
    pub fn send_control(&self, msg: Msg) {
        let _ = self.events_tx.send(ControlEvent::Incoming(msg));
    }

    /// Fetches the node's status report: buffer lengths, neighbor lists,
    /// per-link throughput, and the algorithm's own status.
    ///
    /// Returns `None` if the engine is shutting down or unresponsive.
    pub fn status(&self) -> Option<StatusReport> {
        let (tx, rx) = bounded(1);
        self.events_tx.send(ControlEvent::StatusRequest(tx)).ok()?;
        rx.recv_timeout(Duration::from_secs(2)).ok()
    }

    /// Requests a graceful shutdown and waits for the threads to exit.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        crate::sync::check_blocking("engine shutdown (self-connect wake + thread join)");
        self.running.store(false, Ordering::Release);
        let _ = self.events_tx.send(ControlEvent::Shutdown);
        // The listener blocks in accept (no poll interval); a
        // self-connection wakes it so it can observe `running == false`.
        let _ = std::net::TcpStream::connect_timeout(
            &self.id.to_socket_addr(),
            Duration::from_millis(200),
        );
        if let Some(t) = self.engine_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.listener_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for EngineNode {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for EngineNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineNode").field("id", &self.id).finish()
    }
}
