//! A real-time streaming application with receiver-side quality
//! metrics.
//!
//! The paper closes its related-work section with *"our recent
//! experiences of successfully and rapidly deploying a Windows-based
//! MPEG-4 real-time streaming multicast application on iOverlay"*. This
//! module is the synthetic equivalent: a CBR media source that stamps
//! each frame with its production time and sequence number, and a
//! receiver that measures delivery delay, inter-arrival jitter, gaps
//! (lost frames), and late arrivals against a playout deadline — the
//! QoS vocabulary of a streaming client.

use ioverlay_api::{Algorithm, AppId, Context, Msg, MsgType, Nanos, NodeId};

use crate::base::IAlgorithmBase;

const FRAME_TIMER: u64 = 30;

/// A constant-frame-rate media source.
///
/// Frames carry `[produced_at: u64][padding]`; the sequence number in
/// the header identifies the frame.
#[derive(Debug)]
pub struct MediaSource {
    base: IAlgorithmBase,
    app: AppId,
    dests: Vec<NodeId>,
    frame_bytes: usize,
    frame_interval: Nanos,
    seq: u32,
    active: bool,
}

impl MediaSource {
    /// Creates a deployed source emitting `frame_bytes` frames every
    /// `frame_interval` nanoseconds to `dests`.
    pub fn new(app: AppId, dests: Vec<NodeId>, frame_bytes: usize, frame_interval: Nanos) -> Self {
        Self {
            base: IAlgorithmBase::new(),
            app,
            dests,
            frame_bytes: frame_bytes.max(8),
            frame_interval,
            seq: 0,
            active: true,
        }
    }

    fn emit(&mut self, ctx: &mut dyn Context) {
        let mut payload = vec![0u8; self.frame_bytes];
        payload[..8].copy_from_slice(&ctx.now().to_be_bytes());
        let msg = Msg::data(ctx.local_id(), self.app, self.seq, payload);
        self.seq = self.seq.wrapping_add(1);
        for d in self.dests.clone() {
            ctx.send(msg.clone(), d);
        }
        ctx.set_timer(self.frame_interval, FRAME_TIMER);
    }
}

impl Algorithm for MediaSource {
    fn name(&self) -> &'static str {
        "media-source"
    }
    fn on_start(&mut self, ctx: &mut dyn Context) {
        if self.active {
            self.emit(ctx);
        }
    }
    fn on_timer(&mut self, ctx: &mut dyn Context, token: u64) {
        if token == FRAME_TIMER && self.active {
            self.emit(ctx);
        }
    }
    fn on_message(&mut self, ctx: &mut dyn Context, msg: Msg) {
        if msg.ty() == MsgType::STerminate {
            self.active = false;
        } else {
            self.base.handle_default(ctx, &msg);
        }
    }
}

/// Aggregated receiver-side stream quality.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamQuality {
    /// Frames received.
    pub frames: u64,
    /// Frames skipped (sequence gaps).
    pub gaps: u64,
    /// Frames that arrived after their playout deadline.
    pub late: u64,
    /// Mean source-to-receiver delay in nanoseconds.
    pub mean_delay: f64,
    /// Mean absolute inter-arrival jitter in nanoseconds (RFC 3550
    /// style smoothed estimate).
    pub jitter: f64,
}

/// A streaming receiver measuring playback quality.
#[derive(Debug)]
pub struct MediaSink {
    base: IAlgorithmBase,
    app: AppId,
    /// Playout deadline: a frame older than this on arrival counts late.
    deadline: Nanos,
    next_seq: Option<u32>,
    frames: u64,
    gaps: u64,
    late: u64,
    delay_sum: f64,
    jitter: f64,
    last_transit: Option<f64>,
}

impl MediaSink {
    /// Creates a sink with the given playout deadline.
    pub fn new(app: AppId, deadline: Nanos) -> Self {
        Self {
            base: IAlgorithmBase::new(),
            app,
            deadline,
            next_seq: None,
            frames: 0,
            gaps: 0,
            late: 0,
            delay_sum: 0.0,
            jitter: 0.0,
            last_transit: None,
        }
    }

    /// Current aggregated quality.
    pub fn quality(&self) -> StreamQuality {
        StreamQuality {
            frames: self.frames,
            gaps: self.gaps,
            late: self.late,
            mean_delay: if self.frames == 0 {
                0.0
            } else {
                self.delay_sum / self.frames as f64
            },
            jitter: self.jitter,
        }
    }
}

impl Algorithm for MediaSink {
    fn name(&self) -> &'static str {
        "media-sink"
    }

    fn on_message(&mut self, ctx: &mut dyn Context, msg: Msg) {
        if msg.ty() != MsgType::Data || msg.app() != self.app {
            self.base.handle_default(ctx, &msg);
            return;
        }
        let payload = msg.payload();
        if payload.len() < 8 {
            return;
        }
        let produced_at = u64::from_be_bytes(payload[..8].try_into().expect("checked length"));
        let transit = ctx.now().saturating_sub(produced_at) as f64;
        self.frames += 1;
        self.delay_sum += transit;
        if transit as u64 > self.deadline {
            self.late += 1;
        }
        if let Some(last) = self.last_transit {
            let d = (transit - last).abs();
            // RFC 3550 smoothed jitter: J += (|D| - J) / 16.
            self.jitter += (d - self.jitter) / 16.0;
        }
        self.last_transit = Some(transit);
        match self.next_seq {
            Some(expect) if msg.seq() > expect => {
                self.gaps += u64::from(msg.seq() - expect);
            }
            _ => {}
        }
        self.next_seq = Some(msg.seq().wrapping_add(1));
    }

    fn status(&self) -> serde_json::Value {
        let q = self.quality();
        serde_json::json!({
            "algorithm": "media-sink",
            "frames": q.frames,
            "gaps": q.gaps,
            "late": q.late,
            "mean_delay_ms": q.mean_delay / 1e6,
            "jitter_ms": q.jitter / 1e6,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioverlay_api::RecordingCtx;

    fn frame(seq: u32, produced_at: Nanos) -> Msg {
        let mut payload = vec![0u8; 64];
        payload[..8].copy_from_slice(&produced_at.to_be_bytes());
        Msg::data(NodeId::loopback(9), 1, seq, payload)
    }

    #[test]
    fn source_emits_stamped_frames_at_cbr() {
        let mut src = MediaSource::new(1, vec![NodeId::loopback(2)], 256, 33_000_000);
        let mut ctx = RecordingCtx {
            now: 1_000,
            ..RecordingCtx::default()
        };
        src.on_start(&mut ctx);
        src.on_timer(&mut ctx, FRAME_TIMER);
        assert_eq!(ctx.staged.sends.len(), 2);
        assert_eq!(ctx.staged.timers.len(), 2);
        let stamp = u64::from_be_bytes(ctx.staged.sends[0].0.payload()[..8].try_into().unwrap());
        assert_eq!(stamp, 1_000);
        assert_eq!(ctx.staged.sends[0].0.seq(), 0);
        assert_eq!(ctx.staged.sends[1].0.seq(), 1);
    }

    #[test]
    fn sink_measures_delay_and_lateness() {
        let mut sink = MediaSink::new(1, 50_000_000); // 50 ms deadline
        let mut ctx = RecordingCtx {
            now: 10_000_000,
            ..RecordingCtx::default()
        };
        sink.on_message(&mut ctx, frame(0, 0)); // 10 ms transit: on time
        ctx.now = 100_000_000;
        sink.on_message(&mut ctx, frame(1, 0)); // 100 ms transit: late
        let q = sink.quality();
        assert_eq!(q.frames, 2);
        assert_eq!(q.late, 1);
        assert!((q.mean_delay - 55e6).abs() < 1.0);
    }

    #[test]
    fn sink_counts_sequence_gaps() {
        let mut sink = MediaSink::new(1, u64::MAX);
        let mut ctx = RecordingCtx::default();
        sink.on_message(&mut ctx, frame(0, 0));
        sink.on_message(&mut ctx, frame(1, 0));
        sink.on_message(&mut ctx, frame(4, 0)); // frames 2, 3 lost
        let q = sink.quality();
        assert_eq!(q.gaps, 2);
        assert_eq!(q.frames, 3);
    }

    #[test]
    fn jitter_is_zero_for_perfectly_even_arrivals() {
        let mut sink = MediaSink::new(1, u64::MAX);
        let mut ctx = RecordingCtx::default();
        for i in 0..20u32 {
            ctx.now = u64::from(i) * 33_000_000 + 5_000_000; // constant transit
            sink.on_message(&mut ctx, frame(i, u64::from(i) * 33_000_000));
        }
        assert!(sink.quality().jitter < 1.0);
        // Now a spike: transit doubles.
        ctx.now += 33_000_000 + 40_000_000;
        sink.on_message(&mut ctx, frame(20, 20 * 33_000_000));
        assert!(sink.quality().jitter > 1_000_000.0);
    }

    #[test]
    fn terminate_stops_the_source() {
        let mut src = MediaSource::new(1, vec![NodeId::loopback(2)], 64, 1_000);
        let mut ctx = RecordingCtx::default();
        src.on_start(&mut ctx);
        src.on_message(
            &mut ctx,
            Msg::control(MsgType::STerminate, NodeId::loopback(9), 1),
        );
        let before = ctx.staged.sends.len();
        src.on_timer(&mut ctx, FRAME_TIMER);
        assert_eq!(ctx.staged.sends.len(), before);
    }
}
