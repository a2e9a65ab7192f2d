//! `coding_lossfree` and `coding_lossy`: systematic RLNC generations
//! through `Encoder` → (seeded loss) → `Decoder` on one thread.
//!
//! One unit of work is a source packet decoded byte-exact; goodput
//! counts source payload bytes only, never coefficients or repairs.

use std::time::Instant;

use ioverlay_gf256::{CodedPacket, Decoder, Encoder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::clock::{self, Window};
use crate::plan::Plan;
use crate::procfs;
use crate::report::Outcome;
use crate::stats::LatencyHist;
use crate::trace::{Recorder, TraceFile};
use crate::Opts;

/// Packets per generation and bytes per packet.
const K: usize = 32;
const BLOCK: usize = 1024;
/// Pre-built encoders cycled through, so the timed loop never
/// allocates source blocks: 16 × 32 KiB of distinct seeded data.
const POOL: usize = 16;
const WARMUP_S: f64 = 0.5;
const SETUPS: usize = 21;

/// Everything a run needs before its first generation.
struct Rig {
    pool: Vec<Encoder>,
    decoder: Decoder,
    packets: Vec<CodedPacket>,
    repair: CodedPacket,
    rng: StdRng,
}

fn build_rig(seed: u64) -> Rig {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = (0..POOL)
        .map(|_| {
            let blocks = (0..K)
                .map(|_| {
                    let mut b = vec![0u8; BLOCK];
                    rng.fill(&mut b[..]);
                    b
                })
                .collect();
            Encoder::new(blocks).expect("equal-length, non-empty blocks")
        })
        .collect();
    Rig {
        pool,
        decoder: Decoder::new(K),
        packets: vec![CodedPacket::default(); K],
        repair: CodedPacket::default(),
        rng,
    }
}

/// Counts over the generations coded so far.
#[derive(Default, Clone, Copy)]
struct Tally {
    generations: u64,
    /// Generations whose decoded blocks differ from the source.
    bad: u64,
    systematic_pushed: u64,
    repairs: u64,
    elimination_rows: u64,
}

impl Rig {
    /// Codes one generation end to end and checks it byte for byte.
    fn generation(&mut self, index: u64, loss: f64, rec: &mut Recorder, tally: &mut Tally) {
        let enc = &self.pool[(index % POOL as u64) as usize];
        self.decoder.reset(K);
        let t = rec.begin("gf256.encode_systematic");
        for (i, pkt) in self.packets.iter_mut().enumerate() {
            enc.systematic_into(i, pkt);
        }
        rec.end(t);
        // The channel: each systematic packet is lost with probability
        // `loss`, decided by the seeded generator.
        let mut delivered = [true; K];
        if loss > 0.0 {
            for d in &mut delivered {
                *d = self.rng.gen::<f64>() >= loss;
            }
        }
        let t = rec.begin("gf256.push_systematic");
        for (i, pkt) in self.packets.iter().enumerate() {
            if delivered[i] {
                self.decoder.push_systematic(i, pkt.data());
                tally.systematic_pushed += 1;
            }
        }
        rec.end(t);
        while !self.decoder.is_complete() {
            let t = rec.begin("gf256.encode_repair");
            enc.random_packet_into(&mut self.rng, &mut self.repair);
            rec.end(t);
            // The call that brings the rank to K runs the deferred
            // blocked solve; it is timed apart from plain inserts.
            let completing = self.decoder.rank() + 1 == K;
            let t = rec.begin(if completing {
                "gf256.solve"
            } else {
                "gf256.push_repair"
            });
            self.decoder
                .push_parts(self.repair.coeffs(), self.repair.data());
            rec.end(t);
            tally.repairs += 1;
        }
        tally.elimination_rows += self.decoder.elimination_rows();
        tally.generations += 1;
        tally.bad += u64::from(!decoded_exactly(&self.decoder, enc));
    }
}

/// The output check: every decoded block equals its source block.
fn decoded_exactly(decoder: &Decoder, source: &Encoder) -> bool {
    (0..K).all(|i| decoder.payload(i) == Some(source.source_payload(i)))
}

pub fn run(name: &'static str, loss: f64, opts: &Opts, file: &mut TraceFile) -> Outcome {
    let epoch = Instant::now();
    let mut rec = Recorder::new("main", epoch, false);
    let mut tally = Tally::default();

    // Set-up, several times: seeded source blocks, encoders, decoder,
    // and the first generation through.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut rig = loop {
        let (rig, nominal_s) = clock::timed_setup(|| {
            let mut rig = build_rig(opts.seed);
            rig.generation(0, loss, &mut rec, &mut tally);
            rig
        });
        setups.push(nominal_s);
        if setups.len() == SETUPS {
            break rig;
        }
    };

    let warm_until = Instant::now() + std::time::Duration::from_secs_f64(WARMUP_S);
    while Instant::now() < warm_until {
        rig.generation(tally.generations, loss, &mut rec, &mut tally);
    }

    let plan = Plan::new(opts);
    let mut latency = vec![LatencyHist::default(); plan.windows];
    let mut windows = Vec::with_capacity(plan.windows);
    let mut traced_tally = Tally::default();
    for (i, hist) in latency.iter_mut().enumerate() {
        rec.set_enabled(plan.traced(i));
        let (started, before, cpu_s) = (Instant::now(), tally, procfs::cpu_s());
        let timed = clock::repeat_for(plan.window_len, hist, || {
            rig.generation(tally.generations, loss, &mut rec, &mut tally);
        });
        windows.push(Window {
            timed,
            units: (tally.generations - before.generations) * K as u64,
            cpu_s: procfs::cpu_s() - cpu_s,
            elapsed_s: started.elapsed().as_secs_f64(),
        });
        if plan.traced(i) {
            traced_tally.generations += tally.generations - before.generations;
            traced_tally.systematic_pushed += tally.systematic_pushed - before.systematic_pushed;
        }
    }
    rec.set_enabled(false);
    let peak_rss_mb = procfs::status().vm_hwm_kb as f64 / 1024.0;

    let mut out = Outcome {
        attempted: tally.generations,
        failed: tally.bad,
        ..Outcome::default()
    };
    let msgs = plan.of_windows(&windows, false, Window::rate);
    out.set_goodput(msgs.clone(), BLOCK);
    out.set_windows(
        "cpu_us_per_msg",
        plan.of_windows(&windows, false, Window::cpu_us_per_unit),
    );
    let hists: Vec<&LatencyHist> = plan.indices(false).map(|i| &latency[i]).collect();
    out.set_latency(&hists, "generations");
    out.set("peak_rss_mb", peak_rss_mb);
    out.set_setup(&setups);

    if opts.trace {
        let traced = plan.of_windows(&windows, true, Window::rate);
        out.set(
            "telemetry.trace_overhead_frac",
            1.0 - traced.median() / msgs.median().max(1.0),
        );
        let gens = traced_tally.generations.max(1) as f64;
        let sys = rec.agg("gf256.encode_systematic");
        out.set(
            "gf256.encode_systematic_ns_per_pkt",
            sys.total_ns as f64 / (gens * K as f64),
        );
        out.set(
            "gf256.push_systematic_ns_per_pkt",
            rec.agg("gf256.push_systematic").total_ns as f64
                / traced_tally.systematic_pushed.max(1) as f64,
        );
        out.set(
            "gf256.encode_repair_ns_per_pkt",
            rec.agg("gf256.encode_repair").mean_ns(),
        );
        out.set(
            "gf256.push_repair_ns_per_pkt",
            rec.agg("gf256.push_repair").mean_ns(),
        );
        out.set(
            "gf256.solve_us_per_gen",
            rec.agg("gf256.solve").total_ns as f64 / gens / 1e3,
        );
        let all = tally.generations.max(1) as f64;
        out.set(
            "gf256.elimination_rows_per_gen",
            tally.elimination_rows as f64 / all,
        );
        out.set(
            "gf256.repair_overhead_frac",
            tally.repairs as f64 / (all * K as f64),
        );
    }
    file.absorb(rec);
    println!(
        "{name:<16} generations of {K} x {BLOCK} B, {:.0} % systematic loss, one thread; {} generations, {} repairs",
        loss * 100.0,
        tally.generations,
        tally.repairs
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code(loss: f64, generations: u64) -> Tally {
        let mut rig = build_rig(11);
        let mut rec = Recorder::new("t", Instant::now(), false);
        let mut tally = Tally::default();
        for g in 0..generations {
            rig.generation(g, loss, &mut rec, &mut tally);
        }
        tally
    }

    #[test]
    fn lossfree_needs_no_repairs_and_decodes_exactly() {
        let t = code(0.0, 40);
        assert_eq!((t.generations, t.bad, t.repairs), (40, 0, 0));
        assert_eq!(t.systematic_pushed, 40 * K as u64);
    }

    #[test]
    fn lossy_repairs_what_was_dropped_and_decodes_exactly() {
        let t = code(0.10, 200);
        assert_eq!(t.bad, 0);
        let dropped = 200 * K as u64 - t.systematic_pushed;
        assert!(
            dropped > 0 && t.repairs >= dropped,
            "{dropped} dropped, {} repairs",
            t.repairs
        );
        assert!(t.elimination_rows > 0);
    }

    #[test]
    fn a_wrong_block_is_a_failed_generation() {
        let mut rig = build_rig(11);
        let mut rec = Recorder::new("t", Instant::now(), false);
        let mut tally = Tally::default();
        rig.generation(0, 0.0, &mut rec, &mut tally);
        assert!(decoded_exactly(&rig.decoder, &rig.pool[0]));
        assert!(
            !decoded_exactly(&rig.decoder, &rig.pool[1]),
            "another generation's source"
        );
        rig.decoder.reset(K);
        assert!(
            !decoded_exactly(&rig.decoder, &rig.pool[0]),
            "nothing decoded yet"
        );
    }
}
