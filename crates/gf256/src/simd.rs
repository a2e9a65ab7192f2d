//! Runtime-dispatched SIMD tiers of the row-combination kernel.
//!
//! Every tier implements one operation over a batch of source rows,
//!
//! ```text
//! dst  = Σ cₖ·srcₖ        (overwrite — `Tier::mul`, one row)
//! dst ^= Σ cₖ·srcₖ        (accumulate — `Tier::mulacc_rows`)
//! ```
//!
//! with the loops turned inside out relative to a row-at-a-time axpy:
//! the destination is walked in blocks of eight vector registers, each
//! block is loaded once, *every* source row is folded into it while it
//! sits in registers, and it is stored once. A combination of `n` rows
//! therefore moves `n + 2` row-lengths through the load/store ports
//! instead of `3n`, and the per-coefficient constants are one or two
//! loads from a `const` table rather than a table build per call.
//!
//! | tier | detected by | vector | block | multiply |
//! |---|---|---|---|---|
//! | `gfni` | `gfni` + `avx512bw` (+ `avx512f`) | zmm, 64 B | 512 B | `vgf2p8affineqb` with the bit matrix of `c` |
//! | `avx2` | `avx2` | ymm, 32 B | 256 B | split-nibble `vpshufb` |
//! | `ssse3` | `ssse3` | xmm, 16 B | 128 B | split-nibble `pshufb` |
//! | `neon` | baseline on aarch64 | q, 16 B | 128 B | split-nibble `tbl` |
//!
//! **Split nibbles.** Multiplication distributes over GF(2⁸) addition
//! and every byte is `b = (b & 0x0F) ^ (b & 0xF0)`, so with
//! `lo[i] = c·i` and `hi[i] = c·(i << 4)`, `c·b = lo[b & 0xF] ^ hi[b >> 4]`
//! — two 16-lane byte shuffles per vector. [`NIBBLES`] holds both
//! 16-byte tables for each of the 256 coefficients (8 KiB, `const`).
//!
//! **The affine matrix.** Multiplication by a constant is GF(2)-linear
//! in the bits of the other operand, i.e. an 8×8 bit matrix whose
//! column `j` is the byte `c·2ʲ` reduced under this crate's polynomial
//! 0x11D. `gf2p8affineqb` applies one such matrix to all 64 bytes of a
//! zmm register (output bit `i` is the parity of matrix byte `7 − i`
//! ANDed with the source byte), so [`AFFINE`]`[c]` packs row `i` of the
//! matrix — bit `j` set iff bit `i` of `c·2ʲ` is — into byte `7 − i` of
//! a `u64` (2 KiB, `const`). The neighbouring `gf2p8mulb` cannot be
//! used: it multiplies under the AES polynomial 0x11B, fixed in
//! hardware, which is a different field representation.
//!
//! A sub-vector tail is run through the same vector code on zero-padded
//! stack copies, so no tier has a per-byte loop.
//!
//! # Safety
//!
//! This is the single unsafe-waived module in the workspace (see the
//! `scoped-unsafe` xtask lint rule). The obligations, for one `&mut`
//! destination and any number of sources:
//!
//! * a [`Tier`] has private fields and is only handed out by
//!   [`supported`], which filters the ladder on the runtime feature
//!   checks — so every `#[target_feature]` kernel is reached only on a
//!   CPU that has the features it enables (NEON is baseline on
//!   aarch64);
//! * every source row is asserted to be exactly `dst.len()` long in
//!   *safe* code ([`Tier::run`]) before the unsafe call — a short row
//!   panics there, it is never read out of bounds;
//! * each source is a shared borrow and `dst` the one `&mut` borrow, so
//!   no source can overlap the destination (sources may alias each
//!   other; they are only read);
//! * all vector loads/stores are unaligned-tolerant (`loadu`/`storeu`;
//!   `vld1q`/`vst1q` have no alignment requirement) and every access is
//!   at `off + k·W` with `off + 8·W <= len` (block loop) or
//!   `off + W <= len` (vector loop); the tail touches the rows through
//!   safe slice indexing only.
//!
//! Equivalence with the safe scalar reference is proven for every tier
//! the host supports — not only the one dispatch picks — by
//! `tests/proptest_kernels.rs` (all 256 coefficients, every block edge,
//! unaligned slices, aliased sources).

// xtask-lint: allow(unsafe-code) — std::arch intrinsics behind runtime
// feature detection; proptest-equivalence-tested against the safe
// scalar reference (tests/proptest_kernels.rs).
#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use crate::field::gf_mul_const;
use crate::Gf256;

/// `NIBBLES[c]` = the sixteen products `c·i` followed by the sixteen
/// products `c·(i << 4)`.
static NIBBLES: [[u8; 32]; 256] = {
    let mut t = [[0u8; 32]; 256];
    let mut c = 0;
    while c < 256 {
        let mut i = 0;
        while i < 16 {
            t[c][i] = gf_mul_const(c as u8, i as u8);
            t[c][16 + i] = gf_mul_const(c as u8, (i << 4) as u8);
            i += 1;
        }
        c += 1;
    }
    t
};

/// `AFFINE[c]` = multiplication by `c` as the 8×8 bit matrix operand of
/// `gf2p8affineqb` (see the module docs for the layout).
#[cfg(target_arch = "x86_64")]
static AFFINE: [u64; 256] = {
    let mut t = [0u64; 256];
    let mut c = 0;
    while c < 256 {
        let mut j = 0;
        while j < 8 {
            let column = gf_mul_const(c as u8, 1 << j) as u64;
            let mut i = 0;
            while i < 8 {
                t[c] |= ((column >> i) & 1) << (8 * (7 - i) + j);
                i += 1;
            }
            j += 1;
        }
        c += 1;
    }
    t
};

/// One coefficient/row pair of a batch.
type Row<'a> = (Gf256, &'a [u8]);

/// One SIMD implementation of the row kernel, usable on this host.
///
/// Values exist only for tiers whose CPU features were detected at run
/// time (they come from `supported`), which is what makes the safe
/// methods below sound.
pub struct Tier {
    name: &'static str,
    detected: fn() -> bool,
    /// `(rows, dst, accumulate)`. Callers guarantee the tier's CPU
    /// features and `src.len() == dst.len()` for every row.
    kernel: unsafe fn(&[Row<'_>], &mut [u8], bool),
}

impl Tier {
    /// The tier's name as [`crate::kernels::active_backend`] reports it.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// `dst[i] ^= Σₖ cₖ·srcₖ[i]`.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from `dst.len()`.
    pub fn mulacc_rows(&self, rows: &[Row<'_>], dst: &mut [u8]) {
        self.run(rows, dst, true);
    }

    /// `dst[i] = c·src[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn mul(&self, c: Gf256, src: &[u8], dst: &mut [u8]) {
        self.run(&[(c, src)], dst, false);
    }

    fn run(&self, rows: &[Row<'_>], dst: &mut [u8], accumulate: bool) {
        for (_, src) in rows {
            assert_eq!(src.len(), dst.len(), "row length mismatch");
        }
        // SAFETY: `self` came from `supported`, so the CPU has the
        // kernel's features; every row was just checked to be
        // `dst.len()` long; the rows are shared borrows and so cannot
        // overlap the exclusively borrowed `dst`.
        unsafe { (self.kernel)(rows, dst, accumulate) }
    }
}

/// The tiers this host supports, widest first. The equivalence tests
/// walk all of them.
pub(crate) fn supported() -> impl Iterator<Item = &'static Tier> {
    LADDER.iter().filter(|tier| (tier.detected)())
}

/// The tier dispatch uses: the widest supported one.
pub(crate) fn active() -> Option<&'static Tier> {
    supported().next()
}

#[cfg(target_arch = "x86_64")]
static LADDER: [Tier; 3] = [
    Tier {
        name: "gfni",
        detected: || {
            std::arch::is_x86_feature_detected!("gfni")
                && std::arch::is_x86_feature_detected!("avx512bw")
                && std::arch::is_x86_feature_detected!("avx512f")
        },
        kernel: x86::rows_gfni,
    },
    Tier {
        name: "avx2",
        detected: || std::arch::is_x86_feature_detected!("avx2"),
        kernel: x86::rows_avx2,
    },
    Tier {
        name: "ssse3",
        detected: || std::arch::is_x86_feature_detected!("ssse3"),
        kernel: x86::rows_ssse3,
    },
];

#[cfg(target_arch = "aarch64")]
static LADDER: [Tier; 1] = [Tier {
    name: "neon",
    detected: || true,
    kernel: neon::rows_neon,
}];

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
static LADDER: [Tier; 0] = [];

/// Expands to one tier's kernel. The loop structure — eight-register
/// blocks, single vectors, zero-padded tail — is written once here; a
/// tier supplies its vector type and width and six one-line operations
/// as closures (which inherit the function's target features).
///
/// `coef(c)` yields the per-row constants from the `const` tables and
/// `mul(&coef, v)` the product vector.
macro_rules! rows_kernel {
    (
        $(#[$attr:meta])*
        fn $name:ident: [$vec:ty; $width:expr];
        zero = $zero:expr;
        load = $load:expr;
        store = $store:expr;
        xor = $xor:expr;
        coef = $coef:expr;
        mul = $mul:expr;
    ) => {
        $(#[$attr])*
        pub(super) unsafe fn $name(rows: &[super::Row<'_>], dst: &mut [u8], accumulate: bool) {
            const W: usize = $width;
            const REGS: usize = 8;
            // `load` and `store` access W bytes at the pointer they are
            // given; each call below states why those bytes are in bounds.
            let zero = $zero;
            let load = $load;
            let store = $store;
            let xor = $xor;
            let coef = $coef;
            let mul = $mul;

            let len = dst.len();
            let dp = dst.as_mut_ptr();
            let mut off = 0;
            while off + REGS * W <= len {
                let mut acc: [$vec; REGS] = [zero(); REGS];
                if accumulate {
                    for (k, a) in acc.iter_mut().enumerate() {
                        // SAFETY: off + (k + 1)·W <= off + REGS·W <= len.
                        *a = unsafe { load(dp.add(off + k * W).cast_const()) };
                    }
                }
                for &(c, src) in rows {
                    let m = coef(c.value());
                    let sp = src.as_ptr();
                    for (k, a) in acc.iter_mut().enumerate() {
                        // SAFETY: src.len() == len (caller contract), so
                        // the same bound as for `dst` holds.
                        let s = unsafe { load(sp.add(off + k * W)) };
                        *a = xor(*a, mul(&m, s));
                    }
                }
                for (k, a) in acc.iter().enumerate() {
                    // SAFETY: as for the loads above.
                    unsafe { store(dp.add(off + k * W), *a) };
                }
                off += REGS * W;
            }
            while off + W <= len {
                // SAFETY: off + W <= len == src.len() for every row.
                let mut a = if accumulate { unsafe { load(dp.add(off).cast_const()) } } else { zero() };
                for &(c, src) in rows {
                    let m = coef(c.value());
                    // SAFETY: as above.
                    let s = unsafe { load(src.as_ptr().add(off)) };
                    a = xor(a, mul(&m, s));
                }
                // SAFETY: as above.
                unsafe { store(dp.add(off), a) };
                off += W;
            }
            if off < len {
                // The last `len - off < W` bytes, through a zero-padded
                // copy: safe slice indexing moves the bytes, and the
                // vector loads and store see only `buf`, which is exactly
                // the W bytes they access.
                let n = len - off;
                let mut buf = [0u8; W];
                if accumulate {
                    buf[..n].copy_from_slice(&dst[off..]);
                }
                let mut a = load(buf.as_ptr());
                for &(c, src) in rows {
                    let m = coef(c.value());
                    buf[..n].copy_from_slice(&src[off..]);
                    a = xor(a, mul(&m, load(buf.as_ptr())));
                }
                store(buf.as_mut_ptr(), a);
                dst[off..].copy_from_slice(&buf[..n]);
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{AFFINE, NIBBLES};
    use std::arch::x86_64::{
        __m128i, __m256i, __m512i, _mm256_and_si256, _mm256_broadcastsi128_si256,
        _mm256_loadu_si256, _mm256_set1_epi8, _mm256_setzero_si256, _mm256_shuffle_epi8,
        _mm256_srli_epi64, _mm256_storeu_si256, _mm256_xor_si256, _mm512_gf2p8affine_epi64_epi8,
        _mm512_loadu_si512, _mm512_set1_epi64, _mm512_setzero_si512, _mm512_storeu_si512,
        _mm512_xor_si512, _mm_and_si128, _mm_loadu_si128, _mm_set1_epi8, _mm_setzero_si128,
        _mm_shuffle_epi8, _mm_srli_epi64, _mm_storeu_si128, _mm_xor_si128,
    };

    rows_kernel! {
        /// # Safety
        ///
        /// The CPU must support GFNI, AVX-512F and AVX-512BW, and every
        /// row must be exactly `dst.len()` bytes long.
        #[target_feature(enable = "gfni,avx512f,avx512bw")]
        fn rows_gfni: [__m512i; 64];
        zero = || _mm512_setzero_si512();
        // SAFETY (both): the caller passes a pointer valid for 64 bytes.
        load = |p: *const u8| unsafe { _mm512_loadu_si512(p.cast()) };
        store = |p: *mut u8, v: __m512i| unsafe { _mm512_storeu_si512(p.cast(), v) };
        xor = |a: __m512i, b: __m512i| _mm512_xor_si512(a, b);
        coef = |c: u8| _mm512_set1_epi64(AFFINE[c as usize] as i64);
        mul = |m: &__m512i, s: __m512i| _mm512_gf2p8affine_epi64_epi8::<0>(s, *m);
    }

    rows_kernel! {
        /// # Safety
        ///
        /// The CPU must support AVX2, and every row must be exactly
        /// `dst.len()` bytes long.
        #[target_feature(enable = "avx2")]
        fn rows_avx2: [__m256i; 32];
        zero = || _mm256_setzero_si256();
        // SAFETY (both): the caller passes a pointer valid for 32 bytes.
        load = |p: *const u8| unsafe { _mm256_loadu_si256(p.cast()) };
        store = |p: *mut u8, v: __m256i| unsafe { _mm256_storeu_si256(p.cast(), v) };
        xor = |a: __m256i, b: __m256i| _mm256_xor_si256(a, b);
        coef = |c: u8| {
            let t = NIBBLES[c as usize].as_ptr();
            // SAFETY: two 16-byte loads inside one 32-byte table entry.
            unsafe {
                (
                    _mm256_broadcastsi128_si256(_mm_loadu_si128(t.cast())),
                    _mm256_broadcastsi128_si256(_mm_loadu_si128(t.add(16).cast())),
                )
            }
        };
        mul = |m: &(__m256i, __m256i), s: __m256i| {
            let mask = _mm256_set1_epi8(0x0F);
            let lo = _mm256_shuffle_epi8(m.0, _mm256_and_si256(s, mask));
            let hi = _mm256_shuffle_epi8(m.1, _mm256_and_si256(_mm256_srli_epi64::<4>(s), mask));
            _mm256_xor_si256(lo, hi)
        };
    }

    rows_kernel! {
        /// # Safety
        ///
        /// The CPU must support SSSE3, and every row must be exactly
        /// `dst.len()` bytes long.
        #[target_feature(enable = "ssse3")]
        fn rows_ssse3: [__m128i; 16];
        zero = || _mm_setzero_si128();
        // SAFETY (both): the caller passes a pointer valid for 16 bytes.
        load = |p: *const u8| unsafe { _mm_loadu_si128(p.cast()) };
        store = |p: *mut u8, v: __m128i| unsafe { _mm_storeu_si128(p.cast(), v) };
        xor = |a: __m128i, b: __m128i| _mm_xor_si128(a, b);
        coef = |c: u8| {
            let t = NIBBLES[c as usize].as_ptr();
            // SAFETY: two 16-byte loads inside one 32-byte table entry.
            unsafe { (_mm_loadu_si128(t.cast()), _mm_loadu_si128(t.add(16).cast())) }
        };
        mul = |m: &(__m128i, __m128i), s: __m128i| {
            let mask = _mm_set1_epi8(0x0F);
            let lo = _mm_shuffle_epi8(m.0, _mm_and_si128(s, mask));
            let hi = _mm_shuffle_epi8(m.1, _mm_and_si128(_mm_srli_epi64::<4>(s), mask));
            _mm_xor_si128(lo, hi)
        };
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::NIBBLES;
    use std::arch::aarch64::{
        uint8x16_t, vandq_u8, vdupq_n_u8, veorq_u8, vld1q_u8, vqtbl1q_u8, vshrq_n_u8, vst1q_u8,
    };

    rows_kernel! {
        /// # Safety
        ///
        /// Every row must be exactly `dst.len()` bytes long. (NEON is a
        /// baseline aarch64 feature; the attribute only gives the
        /// closures below a feature set to inherit.)
        #[target_feature(enable = "neon")]
        fn rows_neon: [uint8x16_t; 16];
        zero = || vdupq_n_u8(0);
        // SAFETY (both): the caller passes a pointer valid for 16 bytes.
        load = |p: *const u8| unsafe { vld1q_u8(p) };
        store = |p: *mut u8, v: uint8x16_t| unsafe { vst1q_u8(p, v) };
        xor = |a: uint8x16_t, b: uint8x16_t| veorq_u8(a, b);
        coef = |c: u8| {
            let t = NIBBLES[c as usize].as_ptr();
            // SAFETY: two 16-byte loads inside one 32-byte table entry.
            unsafe { (vld1q_u8(t), vld1q_u8(t.add(16))) }
        };
        mul = |m: &(uint8x16_t, uint8x16_t), s: uint8x16_t| {
            let lo = vqtbl1q_u8(m.0, vandq_u8(s, vdupq_n_u8(0x0F)));
            let hi = vqtbl1q_u8(m.1, vshrq_n_u8::<4>(s));
            veorq_u8(lo, hi)
        };
    }
}
