//! Property-based equivalence: every bulk-kernel tier must be
//! bit-identical to the scalar per-byte reference (`kernels::scalar`).
//!
//! The scalar reference is a direct transcription of the log/antilog
//! math, so these tests are the proof obligation that lets hot code —
//! and the single unsafe SIMD module — run the fast tiers everywhere.
//! Coverage axes:
//!
//! * lengths on both sides of every vector and register-block edge of
//!   every tier, from empty to multi-KiB;
//! * *unaligned* sub-slices (offsets 1..3) so the SIMD tiers prove they
//!   never rely on pointer alignment;
//! * all 256 coefficients, exhaustively, including zero and one;
//! * every SIMD tier the host supports, by name, not only the widest;
//! * row sets of 0..255 rows for the fused kernel, with zero and unit
//!   coefficients mixed in and sources that alias each other.

use ioverlay_gf256::kernels::{
    self, mul_slice, mul_slice_baseline, mulacc_rows, mulacc_slice, mulacc_slice_baseline,
    xor_slice,
};
use ioverlay_gf256::Gf256;
use proptest::prelude::*;

/// Lengths on both sides of every chunking edge of every tier: 8-byte
/// words and 64-byte blocks for the baseline; 16/32/64-byte vectors and
/// 128/256/512-byte register blocks for the SIMD tiers; plus an MTU and
/// multi-block sizes.
const LENGTHS: [usize; 28] = [
    0,
    1,
    7,
    8,
    9,
    15,
    16,
    17,
    31,
    32,
    33,
    63,
    64,
    65,
    127,
    128,
    129,
    255,
    256,
    257,
    511,
    512,
    513,
    1024,
    1500,
    4096,
    4097,
    4096 + 511,
];

/// All 256 coefficients — under Miri, which interprets every byte of
/// the safe tiers, a sample that keeps zero, one, the reduction
/// constant and both ends.
fn coefficients() -> impl Iterator<Item = Gf256> {
    (0..=255u8)
        .filter(|c| !cfg!(miri) || [0, 1, 2, 0x1D, 0x53, 0x80, 0xFF].contains(c))
        .map(Gf256::new)
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(167).wrapping_add(salt))
        .collect()
}

/// Exhaustive (not sampled): all 256 coefficients × all length classes
/// × unaligned offsets, for both mul and mulacc, dispatched and
/// baseline tiers.
#[test]
fn all_coefficients_all_lengths_match_scalar() {
    for len in LENGTHS {
        for offset in [0usize, 1, 3] {
            let src_buf = pattern(len + offset, 0x11);
            let dst_buf = pattern(len + offset, 0x77);
            let src = &src_buf[offset..];
            let init = &dst_buf[offset..];
            for c in coefficients() {
                let mut want = init.to_vec();
                kernels::scalar::mulacc_slice(c, src, &mut want);
                let mut got = init.to_vec();
                mulacc_slice(c, src, &mut got);
                assert_eq!(got, want, "mulacc c={c} len={len} offset={offset}");
                let mut got = init.to_vec();
                assert_eq!(mulacc_rows([(c, src)], &mut got), usize::from(!c.is_zero()));
                assert_eq!(got, want, "mulacc_rows n=1 c={c} len={len} offset={offset}");
                let mut got = init.to_vec();
                mulacc_slice_baseline(c, src, &mut got);
                assert_eq!(got, want, "mulacc baseline c={c} len={len} offset={offset}");

                let mut want = init.to_vec();
                kernels::scalar::mul_slice(c, src, &mut want);
                let mut got = init.to_vec();
                mul_slice(c, src, &mut got);
                assert_eq!(got, want, "mul c={c} len={len} offset={offset}");
                let mut got = init.to_vec();
                mul_slice_baseline(c, src, &mut got);
                assert_eq!(got, want, "mul baseline c={c} len={len} offset={offset}");
            }
            let mut want = init.to_vec();
            kernels::scalar::xor_slice(src, &mut want);
            let mut got = init.to_vec();
            xor_slice(src, &mut got);
            assert_eq!(got, want, "xor len={len} offset={offset}");
        }
    }
}

/// Every SIMD tier the host supports — not only the widest, which is
/// all that dispatch ever reaches — must agree with the scalar
/// reference on its own: `mul` and one-row `mulacc_rows`, all 256
/// coefficients, every length class, unaligned. Prints
/// `active backend: x` and `tiers covered: a b c`; CI fails when the
/// first names a tier the second does not list.
#[cfg(feature = "simd")]
#[test]
fn every_supported_tier_matches_scalar() {
    let tiers = kernels::simd_tiers();
    let names: Vec<&str> = tiers.iter().map(|t| t.name()).collect();
    // Own lines even behind the harness's `test name ... ` prefix.
    println!("\nactive backend: {}", kernels::active_backend());
    println!("tiers covered: {}", names.join(" "));
    match names.first() {
        Some(widest) => assert_eq!(kernels::active_backend(), *widest),
        None => assert_eq!(kernels::active_backend(), "baseline"),
    }
    for tier in tiers {
        for len in LENGTHS {
            for offset in [0usize, 1, 3] {
                let src_buf = pattern(len + offset, 0xA5);
                let dst_buf = pattern(len + offset, 0x3C);
                let src = &src_buf[offset..];
                let init = &dst_buf[offset..];
                for c in coefficients() {
                    let at = format!("{} c={c} len={len} offset={offset}", tier.name());
                    let mut want = init.to_vec();
                    kernels::scalar::mulacc_slice(c, src, &mut want);
                    let mut got = init.to_vec();
                    tier.mulacc_rows(&[(c, src)], &mut got);
                    assert_eq!(got, want, "mulacc_rows {at}");

                    let mut want = init.to_vec();
                    kernels::scalar::mul_slice(c, src, &mut want);
                    let mut got = init.to_vec();
                    tier.mul(c, src, &mut got);
                    assert_eq!(got, want, "mul {at}");
                }
            }
        }
    }
}

/// `mulacc_slice_simd` reports whether a SIMD tier exists and leaves
/// `dst` alone for a zero coefficient — with and without one.
#[cfg(feature = "simd")]
#[test]
fn simd_bypass_keeps_its_zero_coefficient_contract() {
    let src = pattern(100, 1);
    let mut dst = pattern(100, 2);
    let has_tier = kernels::active_backend() != "baseline";
    assert_eq!(
        kernels::mulacc_slice_simd(Gf256::ZERO, &src, &mut dst),
        has_tier
    );
    assert_eq!(dst, pattern(100, 2), "zero coefficient must not touch dst");
    assert_eq!(
        kernels::mulacc_slice_simd(Gf256::new(7), &src, &mut dst),
        has_tier
    );
    let mut want = pattern(100, 2);
    if has_tier {
        kernels::scalar::mulacc_slice(Gf256::new(7), &src, &mut want);
    }
    assert_eq!(dst, want);
}

/// `n` rows of `len` bytes carved at odd offsets out of one buffer each,
/// coefficient `coeff(k)`; every `alias`-th row is row 0 again (the same
/// slice twice is legal: sources are only read).
fn check_rows(n: usize, len: usize, alias: usize, coeff: impl Fn(usize) -> u8) {
    let bufs: Vec<Vec<u8>> = (0..n).map(|k| pattern(len + 3, k as u8 ^ 0x6D)).collect();
    let rows: Vec<(Gf256, &[u8])> = (0..n)
        .map(|k| {
            let src = if alias > 0 && k % alias == 0 { 0 } else { k };
            (Gf256::new(coeff(k)), &bufs[src][k % 4..k % 4 + len])
        })
        .collect();
    let dst_buf = pattern(len + 1, 0xE1);
    let mut want = dst_buf[1..].to_vec();
    for (c, src) in &rows {
        kernels::scalar::mulacc_slice(*c, src, &mut want);
    }
    let nonzero = rows.iter().filter(|(c, _)| !c.is_zero()).count();

    let mut got = dst_buf.clone();
    assert_eq!(mulacc_rows(rows.iter().copied(), &mut got[1..]), nonzero);
    assert_eq!(&got[1..], &want[..], "mulacc_rows n={n} len={len}");
    assert_eq!(got[0], dst_buf[0], "byte before an unaligned dst untouched");

    #[cfg(feature = "simd")]
    for tier in kernels::simd_tiers() {
        let mut got = dst_buf.clone();
        tier.mulacc_rows(&rows, &mut got[1..]);
        assert_eq!(&got[1..], &want[..], "{} n={n} len={len}", tier.name());
    }
}

/// Row counts around the 32-row batch and far past it, zero and unit
/// coefficients mixed in, unaligned everywhere, aliased sources.
#[test]
fn mulacc_rows_matches_row_by_row_scalar() {
    for n in [0usize, 1, 2, 31, 32, 33, 255] {
        for len in [0usize, 1, 63, 64, 130, 513, 1024, 1500] {
            if cfg!(miri) && n * len > 33 * 130 {
                continue;
            }
            // Every third coefficient zero, every fifth one; the rest spread.
            check_rows(n, len, 0, |k| match k % 15 {
                0 | 3 | 6 | 9 | 12 => 0,
                5 | 10 => 1,
                _ => (k as u8).wrapping_mul(73).wrapping_add(2),
            });
            check_rows(n, len, 4, |k| (k as u8).wrapping_mul(29) | 1);
            check_rows(n, len, 1, |_| 1); // the same row n times: XOR parity
        }
    }
}

/// A short source row must panic in safe code, before the SIMD tier
/// runs — never read out of bounds.
#[test]
#[should_panic(expected = "length mismatch")]
fn short_source_row_panics_before_any_work() {
    let long = [1u8; 64];
    let short = [2u8; 63];
    let mut dst = [0u8; 64];
    mulacc_rows(
        [(Gf256::new(3), &long[..]), (Gf256::new(5), &short[..])],
        &mut dst,
    );
}

/// The same through a tier's own entry point.
#[cfg(feature = "simd")]
#[test]
fn short_source_row_panics_in_each_simd_backend() {
    for tier in kernels::simd_tiers() {
        let caught = std::panic::catch_unwind(|| {
            let long = [1u8; 64];
            let short = [2u8; 63];
            let mut dst = [0u8; 64];
            tier.mulacc_rows(
                &[(Gf256::new(3), &long[..]), (Gf256::new(5), &short[..])],
                &mut dst,
            );
        });
        assert!(caught.is_err(), "{} accepted a short row", tier.name());
    }
}

proptest! {
    /// Random payloads, lengths, offsets, and coefficients: the
    /// dispatched kernels match the scalar reference byte for byte.
    #[test]
    fn random_slices_match_scalar(
        seed_src in any::<u64>(),
        seed_dst in any::<u64>(),
        len in 0usize..2048,
        offset in 0usize..4,
        c in any::<u8>(),
    ) {
        let mix = |seed: u64, i: usize| (seed.wrapping_mul(i as u64 ^ 0x9E37_79B9) >> 11) as u8;
        let src_buf: Vec<u8> = (0..len + offset).map(|i| mix(seed_src, i)).collect();
        let dst_buf: Vec<u8> = (0..len + offset).map(|i| mix(seed_dst, i)).collect();
        let src = &src_buf[offset..];
        let init = &dst_buf[offset..];
        let c = Gf256::new(c);

        let mut want = init.to_vec();
        kernels::scalar::mulacc_slice(c, src, &mut want);
        let mut got = init.to_vec();
        mulacc_slice(c, src, &mut got);
        prop_assert_eq!(&got, &want);

        let mut want = init.to_vec();
        kernels::scalar::mul_slice(c, src, &mut want);
        let mut got = init.to_vec();
        mul_slice(c, src, &mut got);
        prop_assert_eq!(&got, &want);
    }

    /// Random row sets — count, length, offsets, coefficients with zeros
    /// and ones over-represented — match row-by-row scalar accumulation.
    #[test]
    fn random_row_sets_match_scalar(
        seed in any::<u64>(),
        n in 0usize..80,
        len in 0usize..1200,
        dst_offset in 0usize..4,
    ) {
        let mix = |salt: u64, i: usize| {
            (seed ^ salt).wrapping_mul(i as u64 * 2 + 0x9E37_79B9).rotate_right(17) as u8
        };
        let bufs: Vec<Vec<u8>> = (0..n)
            .map(|k| (0..len + 3).map(|i| mix(k as u64 + 1, i)).collect())
            .collect();
        let rows: Vec<(Gf256, &[u8])> = (0..n)
            .map(|k| {
                let c = match mix(0xC0EF, k) {
                    0..=31 => 0,
                    32..=63 => 1,
                    other => other,
                };
                let off = mix(0x0FF5, k) as usize % 4;
                (Gf256::new(c), &bufs[k][off..off + len])
            })
            .collect();
        let dst_buf: Vec<u8> = (0..len + dst_offset).map(|i| mix(0xD57, i)).collect();
        let mut want = dst_buf[dst_offset..].to_vec();
        for (c, src) in &rows {
            kernels::scalar::mulacc_slice(*c, src, &mut want);
        }
        let mut got = dst_buf.clone();
        mulacc_rows(rows.iter().copied(), &mut got[dst_offset..]);
        prop_assert_eq!(&got[dst_offset..], &want[..]);
        prop_assert_eq!(&got[..dst_offset], &dst_buf[..dst_offset]);
    }

    /// Kernel-built combinations decode exactly like operator-built
    /// ones: the algebra survives the vectorization.
    #[test]
    fn combine_matches_manual_operators(
        len in 1usize..96,
        gen in 2usize..6,
        seed in any::<u64>(),
    ) {
        let payloads: Vec<Vec<u8>> = (0..gen)
            .map(|i| (0..len).map(|j| ((seed as usize + i * 31 + j * 7) & 0xFF) as u8).collect())
            .collect();
        let packets: Vec<_> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| ioverlay_gf256::CodedPacket::source(i, gen, p.clone()))
            .collect();
        let scalars: Vec<Gf256> = (0..gen)
            .map(|i| Gf256::new((seed.wrapping_shr(i as u32 * 8) & 0xFF) as u8))
            .collect();
        let inputs: Vec<(Gf256, &ioverlay_gf256::CodedPacket)> =
            scalars.iter().copied().zip(packets.iter()).collect();
        let combined = ioverlay_gf256::CodedPacket::combine(&inputs).unwrap();
        for (j, byte) in combined.data().iter().enumerate() {
            let mut want = Gf256::ZERO;
            for (s, p) in &inputs {
                want += *s * Gf256::new(p.data()[j]);
            }
            prop_assert_eq!(Gf256::new(*byte), want);
        }
    }
}
