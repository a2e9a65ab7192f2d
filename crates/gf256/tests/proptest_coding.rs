//! Property tests for systematic RLNC loss recovery.
//!
//! The decoder must recover every generation byte-exactly for *any*
//! loss pattern within the repair budget — isolated drops, bursts, and
//! the degenerate all-repair delivery where no systematic packet
//! survives — while its rank climbs by exactly one per accepted packet
//! and never moves otherwise.

use ioverlay_gf256::{CodedPacket, Decoder, Encoder, Gf256, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sources(gen: usize, len: usize, salt: u8) -> Vec<Vec<u8>> {
    (0..gen)
        .map(|i| {
            (0..len)
                .map(|j| (i as u8).wrapping_mul(37) ^ (j as u8).wrapping_mul(11) ^ salt)
                .collect()
        })
        .collect()
}

/// Drives one generation through loss: surviving systematic packets are
/// delivered first (in index order), then random repair packets until
/// the decoder completes. Asserts byte-exact recovery and strict rank
/// monotonicity throughout.
fn check_recovery(
    gen: usize,
    len: usize,
    salt: u8,
    lost: &[bool],
    seed: u64,
) -> Result<(), TestCaseError> {
    let payloads = sources(gen, len, salt);
    let enc = Encoder::new(payloads.clone()).expect("well-formed generation");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dec = Decoder::new(gen);
    let mut rank = 0;
    for (i, &is_lost) in lost.iter().enumerate().take(gen) {
        if is_lost {
            continue;
        }
        let innovative = dec.push_systematic(i, enc.source_payload(i));
        prop_assert!(innovative, "fresh systematic index {} must be innovative", i);
        prop_assert_eq!(dec.rank(), rank + 1, "rank must rise by one per accept");
        rank = dec.rank();
        // A duplicate must not move the rank.
        prop_assert!(!dec.push_systematic(i, enc.source_payload(i)));
        prop_assert_eq!(dec.rank(), rank);
    }
    let mut budget = 16 * gen; // random coefficients can collide; bounded retries
    while !dec.is_complete() {
        let before = dec.rank();
        let innovative = dec.push(enc.random_packet(&mut rng));
        prop_assert_eq!(
            dec.rank(),
            before + usize::from(innovative),
            "rank moved without an innovative packet"
        );
        budget -= 1;
        prop_assert!(budget > 0, "repair delivery failed to converge");
    }
    let m = lost.iter().filter(|&&l| l).count();
    prop_assert_eq!(dec.repair_rows(), m, "repairs accepted must equal losses");
    prop_assert_eq!(dec.systematic_hits(), gen - m);
    if m == 0 {
        prop_assert_eq!(dec.elimination_rows(), 0, "loss-free decode must be free");
    }
    let decoded = dec.decoded_payloads().expect("complete");
    prop_assert_eq!(decoded, payloads, "recovery must be byte-exact");
    Ok(())
}

/// Rank of `rows` by dense Gaussian elimination — the oracle the
/// decoder's bitmap-plus-mirror bookkeeping is compared against.
fn dense_rank(rows: &[Vec<Gf256>]) -> usize {
    if rows.is_empty() {
        return 0;
    }
    let refs: Vec<&[Gf256]> = rows.iter().map(Vec::as_slice).collect();
    Matrix::from_rows(&refs).rank()
}

/// Feeds one decoder a random interleaving of every packet shape it
/// can meet — systematic, scaled unit, dense and sparse repair, exact
/// duplicate, linear combination of what it already holds — until it
/// completes, and checks each verdict and the rank against the dense
/// oracle. Sparse repairs matter: two of them over the same two columns
/// determine both sources, the case where an empty slot does *not*
/// make its systematic packet innovative.
fn check_against_dense_oracle(gen: usize, len: usize, seed: u64) -> Result<(), TestCaseError> {
    let payloads = sources(gen, len, seed as u8);
    let enc = Encoder::new(payloads.clone()).expect("well-formed generation");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dec = Decoder::new(gen);
    let mut accepted: Vec<Vec<Gf256>> = Vec::new();
    let mut seen: Vec<CodedPacket> = Vec::new();
    let mut budget = 60 * gen + 200;
    while !dec.is_complete() {
        budget -= 1;
        prop_assert!(budget > 0, "interleaving failed to complete the generation");
        let index = rng.gen_range(0..gen);
        let mut unit = vec![Gf256::ZERO; gen];
        let packet = match rng.gen_range(0..6u32) {
            0 => {
                unit[index] = Gf256::ONE;
                enc.systematic(index)
            }
            1 => {
                unit[index] = Gf256::new(rng.gen_range(2..=255u8));
                enc.packet_with(&unit).expect("generation-sized")
            }
            2 => enc.random_packet(&mut rng),
            3 => {
                for _ in 0..rng.gen_range(2..=3usize) {
                    unit[rng.gen_range(0..gen)] = Gf256::new(rng.gen_range(1..=255u8));
                }
                enc.packet_with(&unit).expect("generation-sized")
            }
            4 if !seen.is_empty() => seen[rng.gen_range(0..seen.len())].clone(),
            5 if !seen.is_empty() => {
                let picks: Vec<(Gf256, &CodedPacket)> = (0..rng.gen_range(1..=3usize))
                    .map(|_| (Gf256::new(rng.gen()), &seen[rng.gen_range(0..seen.len())]))
                    .collect();
                CodedPacket::combine(&picks).expect("same shape")
            }
            _ => continue,
        };
        let mut with = accepted.clone();
        with.push(packet.coeffs().to_vec());
        let innovative = dense_rank(&with) > accepted.len();
        // A true systematic packet goes through the index entry point
        // half the time, the coefficient-vector one otherwise.
        let is_plain_unit = packet.coeffs() == enc.systematic(index).coeffs();
        let verdict = if is_plain_unit && rng.gen() {
            dec.push_systematic(index, packet.data())
        } else {
            dec.push(packet.clone())
        };
        prop_assert_eq!(
            verdict,
            innovative,
            "packet {:?} against {} accepted rows",
            packet.coeffs(),
            accepted.len()
        );
        if innovative {
            accepted = with;
            if is_plain_unit {
                prop_assert_eq!(dec.payload(index), Some(&payloads[index][..]));
            }
        }
        prop_assert_eq!(dec.rank(), accepted.len());
        prop_assert_eq!(dec.rank(), dec.systematic_hits() + dec.repair_rows());
        seen.push(packet);
    }
    prop_assert_eq!(dec.decoded_payloads().expect("complete"), payloads);
    Ok(())
}

proptest! {
    /// The decoder accepts exactly the packets a dense rank computation
    /// calls innovative, whatever the order and mix of shapes.
    #[test]
    fn verdicts_and_rank_match_a_dense_oracle(
        gen in 1usize..=24,
        len in 1usize..80,
        seed in any::<u64>(),
    ) {
        check_against_dense_oracle(gen, len, seed)?;
    }

    /// Any loss subset within the repair budget (each source lost or
    /// not, independently) recovers exactly.
    #[test]
    fn arbitrary_loss_subsets_recover(
        gen in 2usize..24,
        len in 1usize..200,
        salt in any::<u8>(),
        mask in any::<u32>(),
        seed in any::<u64>(),
    ) {
        let lost: Vec<bool> = (0..gen).map(|i| mask >> i & 1 == 1).collect();
        check_recovery(gen, len, salt, &lost, seed)?;
    }

    /// Contiguous burst losses (the pattern tail-drop links produce).
    #[test]
    fn burst_losses_recover(
        gen in 2usize..24,
        len in 1usize..200,
        salt in any::<u8>(),
        start in 0usize..24,
        span in 1usize..24,
        seed in any::<u64>(),
    ) {
        let start = start % gen;
        let lost: Vec<bool> = (0..gen)
            .map(|i| i >= start && i < (start + span).min(gen))
            .collect();
        check_recovery(gen, len, salt, &lost, seed)?;
    }

    /// All-repair delivery: every systematic packet lost, the decoder
    /// works purely from random rows.
    #[test]
    fn all_repair_delivery_recovers(
        gen in 2usize..16,
        len in 1usize..160,
        salt in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let lost = vec![true; gen];
        check_recovery(gen, len, salt, &lost, seed)?;
    }

    /// Reusing one decoder across generations via `reset` behaves
    /// identically to a freshly constructed decoder.
    #[test]
    fn reset_decoder_matches_fresh_decoder(
        gen in 2usize..12,
        len in 1usize..96,
        salt in any::<u8>(),
        mask in any::<u16>(),
        seed in any::<u64>(),
    ) {
        // Warm the workspace with a throwaway generation, then reset.
        let warm = sources(gen, len, !salt);
        let warm_enc = Encoder::new(warm).expect("well-formed");
        let mut dec = Decoder::new(gen);
        for i in 0..gen {
            dec.push_systematic(i, warm_enc.source_payload(i));
        }
        prop_assert!(dec.is_complete());
        dec.reset(gen);
        prop_assert_eq!(dec.rank(), 0);

        let payloads = sources(gen, len, salt);
        let enc = Encoder::new(payloads.clone()).expect("well-formed");
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..gen {
            if mask >> i & 1 == 0 {
                dec.push_systematic(i, enc.source_payload(i));
            }
        }
        let mut budget = 16 * gen;
        while !dec.is_complete() {
            dec.push(enc.random_packet(&mut rng));
            budget -= 1;
            prop_assert!(budget > 0, "repair delivery failed to converge");
        }
        prop_assert_eq!(dec.decoded_payloads().expect("complete"), payloads);
    }
}
