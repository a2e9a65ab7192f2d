//! Bulk GF(2⁸) kernels for the network-coding hot path.
//!
//! Every coded byte the overlay moves — `CodedPacket::combine`, encoder
//! emission, the coding relay, and the decoder's blocked solve — is one
//! call of the row-combination kernel
//!
//! * [`mulacc_rows`] — `dst[i] ^= Σₖ cₖ * srcₖ[i]` over any number of
//!   source rows, the destination loaded and stored once per register
//!   block however many rows are folded into it,
//!
//! of which [`mulacc_slice`] (`dst[i] ^= c * src[i]`, the GF "axpy") is
//! the one-row case. Beside it sit [`xor_slice`] (`dst[i] ^= src[i]`,
//! GF addition) and [`mul_slice`] (`dst[i] = c * src[i]`).
//!
//! Three implementation tiers share one contract (bit-identical output):
//!
//! 1. **Scalar reference** ([`scalar`]) — the per-byte log/antilog loop
//!    the seed shipped: two table walks and a zero test per byte. Kept
//!    as the correctness oracle and the benchmark baseline.
//! 2. **Safe baseline** — bit-sliced Russian-peasant multiply over
//!    64-byte blocks: double the whole source block once per
//!    coefficient bit (`v = x·v` is a byte-lane add plus a signed
//!    compare for the reduction carry) and XOR it into the accumulator
//!    at each set bit. Every step is a byte-lane vector op on any
//!    target, so the loop autovectorizes — no table loads in the
//!    stream, no `unsafe`, Miri-clean. ≥4× the scalar reference with
//!    host-native codegen (how CI's bench job and `BENCH_gf256.json`
//!    build, `-C target-cpu=native`); ~3× on the portable SSE2
//!    floor. Sub-block tails fall back to 8-byte SWAR words
//!    ([`mul_word`]'s bit-plane form), then per-byte multiplies. This
//!    is the bulk fallback on a host without a SIMD tier; rows are
//!    folded one at a time. (The 256-byte product row of
//!    [`crate::field::product_row`] is not a bulk path: it serves the
//!    long `Gf256`-typed coefficient vectors of [`mulacc_slice_gf`].)
//! 3. **SIMD** (feature `simd`, module `simd`) — the fused row kernel,
//!    on the widest of GFNI + AVX-512 (`vgf2p8affineqb`), AVX2 / SSSE3
//!    `pshufb` and NEON `tbl` split-nibble tables that runtime CPU
//!    detection finds, falling back to the safe baseline when the host
//!    has none. The only `unsafe` in the workspace lives there, waived
//!    by the `scoped-unsafe` xtask lint rule and proven equivalent to
//!    tier 1, tier by tier, by `tests/proptest_kernels.rs`.
//!
//! **Why no loom models:** the kernels are pure sequential functions —
//! no shared mutable state, no atomics, no locks. The only global is
//! `std`'s internal CPU-feature detection cache, which is already
//! modeled and tested upstream. There is nothing for a model checker to
//! interleave, so (unlike `queue`/`telemetry`) this crate carries no
//! loom shim by design.

use crate::field::{gf_mul, product_row};
use crate::Gf256;

/// `0x01` in every byte lane of a word — the SWAR broadcast unit.
const LANE: u64 = 0x0101_0101_0101_0101;

/// The eight broadcast words `c * x^i` (i = 0..8) that drive the
/// bit-sliced safe kernels: multiplication by a constant is GF(2)-linear,
/// so `c * b = XOR over set bits i of b of (c * x^i)`.
fn bit_planes(c: Gf256) -> [u64; 8] {
    let mut planes = [0u64; 8];
    for (i, p) in planes.iter_mut().enumerate() {
        *p = LANE * u64::from((c * Gf256::new(1 << i)).value());
    }
    planes
}

/// One word of bit-sliced multiply: for each source byte lane, XOR
/// together the planes selected by its set bits.
#[inline]
fn mul_word(planes: &[u64; 8], w: u64) -> u64 {
    let mut acc = 0u64;
    for (i, p) in planes.iter().enumerate() {
        // Spread bit `i` of every byte into a full 0x00/0xFF lane mask.
        let mask = ((w >> i) & LANE) * 0xFF;
        acc ^= p & mask;
    }
    acc
}

/// Bytes per bit-sliced block. Wide enough that the autovectorizer
/// fills whole vector registers; a single serial word chain would pin
/// the kernel at scalar throughput.
const BLOCK: usize = 64;

/// `v[k] = x * v[k]` across a block — one carry-aware doubling step of
/// the Russian-peasant multiply. Every operation here has a direct
/// byte-lane vector form (`b + b` is a lane shift, the arithmetic shift
/// by 7 is a signed compare), so the loop vectorizes on any target.
#[inline]
fn xtime_block(v: &mut [u8; BLOCK]) {
    for b in v.iter_mut() {
        let carry = (((*b as i8) >> 7) as u8) & 0x1D;
        *b = b.wrapping_add(*b) ^ carry;
    }
}

/// `c * src[k]` across a block via Russian-peasant doubling: walk the
/// bits of the (scalar, loop-invariant) coefficient, accumulating the
/// doubled source block for each set bit. ~4 vector ops per doubling,
/// no table loads in the stream.
#[inline]
fn mul_block(c: u8, src: &[u8; BLOCK]) -> [u8; BLOCK] {
    let mut acc = [0u8; BLOCK];
    let mut v = *src;
    let mut bits = c;
    while bits != 0 {
        if bits & 1 != 0 {
            for (a, vk) in acc.iter_mut().zip(&v) {
                *a ^= *vk;
            }
        }
        bits >>= 1;
        if bits != 0 {
            xtime_block(&mut v);
        }
    }
    acc
}

/// Scalar per-byte reference kernels.
///
/// These walk the log/antilog tables once per byte, exactly like the
/// seed's inner loops. They are the oracle the fast tiers are tested
/// against and the denominator of the `BENCH_gf256.json` speedups; hot
/// code should call the dispatched top-level functions instead.
pub mod scalar {
    use crate::field::gf_mul;
    use crate::Gf256;

    /// Per-byte `dst[i] ^= src[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn xor_slice(src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "xor_slice length mismatch");
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= *s;
        }
    }

    /// Per-byte `dst[i] = c * src[i]` through the log/antilog tables.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn mul_slice(c: Gf256, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "mul_slice length mismatch");
        let c = c.value();
        for (d, s) in dst.iter_mut().zip(src) {
            *d = gf_mul(c, *s);
        }
    }

    /// Per-byte `dst[i] ^= c * src[i]` through the log/antilog tables.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn mulacc_slice(c: Gf256, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "mulacc_slice length mismatch");
        let c = c.value();
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= gf_mul(c, *s);
        }
    }
}

#[cfg(feature = "simd")]
use crate::simd;

/// One SIMD tier of the row kernel that this host supports; see
/// [`simd_tiers`].
#[cfg(feature = "simd")]
#[doc(hidden)]
pub use crate::simd::Tier as SimdTier;

/// Every SIMD tier the host supports, widest first — the first is what
/// dispatch uses and [`active_backend`] names. For the equivalence
/// tests, which must reach the narrower tiers too.
#[cfg(feature = "simd")]
#[doc(hidden)]
pub fn simd_tiers() -> Vec<&'static SimdTier> {
    simd::supported().collect()
}

/// Human-readable name of the fastest backend the dispatcher will pick
/// on this host for large slices (`"gfni"`, `"avx2"`, `"ssse3"`,
/// `"neon"`, or `"baseline"`). Reported in `BENCH_gf256.json`.
pub fn active_backend() -> &'static str {
    #[cfg(feature = "simd")]
    {
        if let Some(tier) = simd::active() {
            return tier.name();
        }
    }
    "baseline"
}

/// `dst[i] ^= src[i]` — GF(2⁸) addition of two equal-length slices.
///
/// Eight-byte word chunks; the compiler autovectorizes this form, so no
/// explicit SIMD tier is needed.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn xor_slice(src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "xor_slice length mismatch");
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dc, sc) in (&mut d).zip(&mut s) {
        let word = u64::from_ne_bytes(dc[..8].try_into().expect("8-byte chunk"))
            ^ u64::from_ne_bytes(sc[..8].try_into().expect("8-byte chunk"));
        dc.copy_from_slice(&word.to_ne_bytes());
    }
    for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db ^= *sb;
    }
}

/// `dst[i] = c * src[i]` — scales a slice into a destination buffer.
///
/// Dispatches to the fastest available backend (SIMD when the `simd`
/// feature is on and the CPU supports it, the safe bit-sliced kernel
/// otherwise), with `c == 0` and `c == 1` short-circuits.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mul_slice(c: Gf256, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "mul_slice length mismatch");
    if c.is_zero() {
        dst.fill(0);
        return;
    }
    if c == Gf256::ONE {
        dst.copy_from_slice(src);
        return;
    }
    #[cfg(feature = "simd")]
    if let Some(tier) = simd::active() {
        tier.mul(c, src, dst);
        return;
    }
    mul_slice_baseline(c, src, dst);
}

/// `dst[i] ^= c * src[i]` — the GF(2⁸) axpy: [`mulacc_rows`] with one
/// row. `c == 0` is a no-op.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mulacc_slice(c: Gf256, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "mulacc_slice length mismatch");
    if !c.is_zero() {
        mulacc_batch(&[(c, src)], dst);
    }
}

/// Rows folded per pass over the destination. The batch lives on the
/// stack, so a combination of any width allocates nothing; a generation
/// wider than this costs one extra load/store of `dst` per further
/// batch.
const ROW_BATCH: usize = 32;

/// `dst[i] ^= Σₖ cₖ * srcₖ[i]` — the one row-combination kernel behind
/// combine, encode, the coding relay and the decoder's solve.
///
/// The destination is processed in register-sized blocks (512 B with
/// AVX-512, 256 B with AVX2, 128 B with SSSE3/NEON): each block is
/// loaded once, every source row is folded into it, and it is stored
/// once, so `dst` traffic does not grow with the number of rows. Rows
/// with a zero coefficient are skipped; a unit coefficient is an
/// ordinary row. Rows may alias each other.
///
/// Returns the number of rows folded in, i.e. of non-zero coefficients.
///
/// # Panics
///
/// Panics — in safe code, before any row is touched by the SIMD tier —
/// if a row's length differs from `dst.len()`.
pub fn mulacc_rows<'a, I>(rows: I, dst: &mut [u8]) -> usize
where
    I: IntoIterator<Item = (Gf256, &'a [u8])>,
{
    let mut batch: [(Gf256, &[u8]); ROW_BATCH] = [(Gf256::ZERO, &[]); ROW_BATCH];
    let mut held = 0;
    let mut folded = 0;
    for (c, src) in rows {
        assert_eq!(src.len(), dst.len(), "mulacc_rows length mismatch");
        if c.is_zero() {
            continue;
        }
        batch[held] = (c, src);
        held += 1;
        if held == ROW_BATCH {
            mulacc_batch(&batch, dst);
            folded += held;
            held = 0;
        }
    }
    if held > 0 {
        mulacc_batch(&batch[..held], dst);
    }
    folded + held
}

/// One batch of non-zero, length-checked rows into `dst`, on the widest
/// tier the host has.
fn mulacc_batch(rows: &[(Gf256, &[u8])], dst: &mut [u8]) {
    #[cfg(feature = "simd")]
    if let Some(tier) = simd::active() {
        tier.mulacc_rows(rows, dst);
        return;
    }
    for &(c, src) in rows {
        mulacc_slice_baseline(c, src, dst);
    }
}

/// The safe bit-sliced tier of [`mul_slice`], exposed so benchmarks can
/// measure it against the scalar reference and the SIMD tier.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mul_slice_baseline(c: Gf256, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "mul_slice length mismatch");
    let planes = bit_planes(c);
    let mut d = dst.chunks_exact_mut(BLOCK);
    let mut s = src.chunks_exact(BLOCK);
    for (dc, sc) in (&mut d).zip(&mut s) {
        dc.copy_from_slice(&mul_block(c.value(), sc.try_into().expect("block")));
    }
    let mut d = d.into_remainder().chunks_exact_mut(8);
    let mut s = s.remainder().chunks_exact(8);
    for (dc, sc) in (&mut d).zip(&mut s) {
        let w = u64::from_ne_bytes(sc[..8].try_into().expect("8-byte chunk"));
        dc.copy_from_slice(&mul_word(&planes, w).to_ne_bytes());
    }
    let c = c.value();
    for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db = gf_mul(c, *sb);
    }
}

/// The safe bit-sliced tier of [`mulacc_slice`], exposed so benchmarks
/// can measure it against the scalar reference and the SIMD tier.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mulacc_slice_baseline(c: Gf256, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "mulacc_slice length mismatch");
    if c == Gf256::ONE {
        xor_slice(src, dst);
        return;
    }
    let planes = bit_planes(c);
    let mut d = dst.chunks_exact_mut(BLOCK);
    let mut s = src.chunks_exact(BLOCK);
    for (dc, sc) in (&mut d).zip(&mut s) {
        let prod = mul_block(c.value(), sc.try_into().expect("block"));
        for (db, p) in dc.iter_mut().zip(&prod) {
            *db ^= *p;
        }
    }
    let mut d = d.into_remainder().chunks_exact_mut(8);
    let mut s = s.remainder().chunks_exact(8);
    for (dc, sc) in (&mut d).zip(&mut s) {
        let w = u64::from_ne_bytes(sc[..8].try_into().expect("8-byte chunk"));
        let acc = u64::from_ne_bytes(dc[..8].try_into().expect("8-byte chunk"));
        dc.copy_from_slice(&(acc ^ mul_word(&planes, w)).to_ne_bytes());
    }
    let c = c.value();
    for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db ^= gf_mul(c, *sb);
    }
}

/// The SIMD tier of [`mulacc_slice`], bypassing dispatch: runs the
/// widest backend the host supports and returns `true`, or returns
/// `false` without touching `dst` when no SIMD backend is available
/// (a zero coefficient never touches `dst` either way).
/// Benchmarks use this to isolate the SIMD tier; hot code should call
/// [`mulacc_slice`].
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[cfg(feature = "simd")]
pub fn mulacc_slice_simd(c: Gf256, src: &[u8], dst: &mut [u8]) -> bool {
    assert_eq!(src.len(), dst.len(), "mulacc_slice length mismatch");
    let Some(tier) = simd::active() else {
        return false;
    };
    if !c.is_zero() {
        tier.mulacc_rows(&[(c, src)], dst);
    }
    true
}

// ---------------------------------------------------------------------
// Coefficient-vector variants.
//
// Coefficient vectors are short (one element per source packet in the
// generation), so they never need SIMD; the product-row form still
// beats per-element log/antilog walks during Gaussian elimination on
// wide matrices.
// ---------------------------------------------------------------------

/// `dst[i] += c * src[i]` over `Gf256` slices (coefficient vectors,
/// matrix rows).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mulacc_slice_gf(c: Gf256, src: &[Gf256], dst: &mut [Gf256]) {
    assert_eq!(src.len(), dst.len(), "mulacc_slice_gf length mismatch");
    if c.is_zero() {
        return;
    }
    if c == Gf256::ONE {
        for (d, s) in dst.iter_mut().zip(src) {
            *d += *s;
        }
        return;
    }
    // A product-row build costs ~255 log/exp pairs; below that length a
    // per-element multiply is strictly cheaper. Coefficient vectors are
    // one element per source packet, so small generations (the common
    // case) always take the direct path.
    if dst.len() < 256 {
        let c = c.value();
        for (d, s) in dst.iter_mut().zip(src) {
            *d += Gf256::new(gf_mul(c, s.value()));
        }
        return;
    }
    let row = product_row(c.value());
    for (d, s) in dst.iter_mut().zip(src) {
        *d += Gf256::new(row[s.value() as usize]);
    }
}

/// `data[i] = c * data[i]` over a `Gf256` slice, in place.
pub fn mul_slice_in_place_gf(c: Gf256, data: &mut [Gf256]) {
    if c == Gf256::ONE {
        return;
    }
    // Same break-even as [`mulacc_slice_gf`]: short coefficient vectors
    // multiply element-wise instead of amortizing a product-row build.
    if data.len() < 256 {
        let c = c.value();
        for d in data.iter_mut() {
            *d = Gf256::new(gf_mul(c, d.value()));
        }
        return;
    }
    let row = product_row(c.value());
    for d in data.iter_mut() {
        *d = Gf256::new(row[d.value() as usize]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize, salt: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(31) ^ salt).collect()
    }

    /// Every tier must agree with the scalar reference on every length
    /// class (empty, sub-word, word, word+1, big) and every coefficient.
    #[test]
    fn tiers_match_scalar_reference() {
        for len in [0usize, 1, 7, 8, 9, 64, 255, 1024] {
            let src = pattern(len, 0x5A);
            let init = pattern(len, 0xC3);
            for c in [0u8, 1, 2, 3, 0x1D, 0x80, 0xFF] {
                let c = Gf256::new(c);
                let mut want_acc = init.clone();
                scalar::mulacc_slice(c, &src, &mut want_acc);
                let mut got = init.clone();
                mulacc_slice(c, &src, &mut got);
                assert_eq!(got, want_acc, "mulacc c={c} len={len}");
                let mut got = init.clone();
                mulacc_slice_baseline(c, &src, &mut got);
                assert_eq!(got, want_acc, "mulacc baseline c={c} len={len}");

                let mut want_mul = init.clone();
                scalar::mul_slice(c, &src, &mut want_mul);
                let mut got = init.clone();
                mul_slice(c, &src, &mut got);
                assert_eq!(got, want_mul, "mul c={c} len={len}");
                let mut got = init.clone();
                mul_slice_baseline(c, &src, &mut got);
                assert_eq!(got, want_mul, "mul baseline c={c} len={len}");
            }
            let mut want_xor = init.clone();
            scalar::xor_slice(&src, &mut want_xor);
            let mut got = init.clone();
            xor_slice(&src, &mut got);
            assert_eq!(got, want_xor, "xor len={len}");
        }
    }

    #[test]
    fn gf_variants_match_operator_math() {
        let src: Vec<Gf256> = (0..40u8).map(|i| Gf256::new(i.wrapping_mul(7))).collect();
        for c in [0u8, 1, 0x13, 0xFF] {
            let c = Gf256::new(c);
            let mut dst: Vec<Gf256> = (0..40u8).map(Gf256::new).collect();
            let want: Vec<Gf256> = dst.iter().zip(&src).map(|(d, s)| *d + c * *s).collect();
            mulacc_slice_gf(c, &src, &mut dst);
            assert_eq!(dst, want);

            let mut data = src.clone();
            mul_slice_in_place_gf(c, &mut data);
            let want: Vec<Gf256> = src.iter().map(|s| c * *s).collect();
            assert_eq!(data, want);
        }
    }

    #[test]
    fn zero_and_one_fast_paths() {
        let src = pattern(33, 1);
        let mut dst = pattern(33, 2);
        let before = dst.clone();
        mulacc_slice(Gf256::ZERO, &src, &mut dst);
        assert_eq!(dst, before, "zero-coefficient mulacc is a no-op");
        mul_slice(Gf256::ZERO, &src, &mut dst);
        assert!(dst.iter().all(|&b| b == 0));
        mul_slice(Gf256::ONE, &src, &mut dst);
        assert_eq!(dst, src);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        mulacc_slice(Gf256::ONE, &[1, 2], &mut [0]);
    }

    #[test]
    fn backend_name_is_stable() {
        let name = active_backend();
        assert!(
            ["baseline", "ssse3", "avx2", "gfni", "neon"].contains(&name),
            "unexpected backend {name}"
        );
    }
}
