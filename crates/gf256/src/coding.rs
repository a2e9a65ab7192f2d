//! Generation-based linear network coding, systematic-first.
//!
//! The encoder emits a generation's source packets *uncoded* first
//! (identity coefficient rows) and only generates random-coefficient
//! **repair** packets to cover losses. The decoder exploits that split:
//!
//! * **Systematic passthrough** — an uncoded source packet is stored
//!   straight into its output slot ([`Decoder::push_systematic`]); the
//!   only per-packet work is one payload copy plus rank bookkeeping on
//!   the (tiny) coefficient matrix. A loss-free generation therefore
//!   decodes with **zero** elimination work on payload bytes.
//! * **Deferred tile-blocked elimination** — repair packets are *not*
//!   eliminated on arrival. Their raw coefficient rows and payload rows
//!   are appended to contiguous arenas (coefficients kept separate from
//!   payload tiles), and only a coefficient-sized RREF mirror is updated
//!   per push to detect innovation. When the generation completes, the
//!   decoder folds every recovered systematic slot out of each pending
//!   repair row (one fused [`mulacc_rows`] call per repair row over the
//!   arena), inverts the small `m × m` missing-column system with a
//!   pooled [`Matrix`] workspace, and reconstructs each of the `m` lost
//!   payloads with one further `mulacc_rows` call over the `m` adjusted
//!   rows. Payload bytes are touched by the wide kernels only — never
//!   by per-coefficient scalar loops.
//!
//! With `s` systematic arrivals and `m = generation - s` losses, the
//! payload work is `m·s + m²` row axpys instead of the old incremental
//! RREF's `O(generation²)` axpys *regardless* of loss — and exactly zero
//! when `m = 0`.

use std::error::Error;
use std::fmt;

use rand::Rng;

use crate::kernels::{mul_slice, mul_slice_in_place_gf, mulacc_rows, mulacc_slice_gf};
use crate::{Gf256, Matrix};

/// Errors arising in coding operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodingError {
    /// Combined packets disagree on generation size or payload length.
    ShapeMismatch,
    /// `combine` was called with no inputs.
    NoInputs,
    /// The decoder does not yet hold enough independent packets.
    NotDecodable {
        /// Current rank of the coefficient matrix.
        rank: usize,
        /// Generation size required.
        need: usize,
    },
}

impl fmt::Display for CodingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodingError::ShapeMismatch => {
                f.write_str("packets disagree on generation size or payload length")
            }
            CodingError::NoInputs => f.write_str("cannot combine zero packets"),
            CodingError::NotDecodable { rank, need } => {
                write!(f, "not decodable yet: rank {rank} of {need}")
            }
        }
    }
}

impl Error for CodingError {}

/// A linear combination of the source packets of one generation.
///
/// Carries the coefficient vector alongside the combined payload, as in
/// practical network-coding systems; the coefficients are what let a
/// receiver decode without any out-of-band coordination.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CodedPacket {
    coeffs: Vec<Gf256>,
    data: Vec<u8>,
}

impl CodedPacket {
    /// Wraps an original source packet as the trivial combination
    /// `e_index` (a unit coefficient vector).
    ///
    /// # Panics
    ///
    /// Panics if `index >= generation`.
    pub fn source(index: usize, generation: usize, data: Vec<u8>) -> Self {
        assert!(index < generation, "source index out of range");
        let mut coeffs = vec![Gf256::ZERO; generation];
        coeffs[index] = Gf256::ONE;
        Self { coeffs, data }
    }

    /// Creates a packet directly from a coefficient vector and payload.
    pub fn from_parts(coeffs: Vec<Gf256>, data: Vec<u8>) -> Self {
        Self { coeffs, data }
    }

    /// The coefficient vector (length = generation size).
    pub fn coeffs(&self) -> &[Gf256] {
        &self.coeffs
    }

    /// The combined payload bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Generation size this packet belongs to.
    pub fn generation(&self) -> usize {
        self.coeffs.len()
    }

    /// Linearly combines packets: `sum_i scalar_i * packet_i`.
    ///
    /// This is what a coding overlay node (node *D* in Fig. 8 of the
    /// paper) does with the messages it has placed on *hold*: the paper's
    /// `a + b` is `combine(&[(1, a), (1, b)])`.
    ///
    /// # Errors
    ///
    /// [`CodingError::NoInputs`] for an empty slice,
    /// [`CodingError::ShapeMismatch`] if inputs disagree on generation
    /// size or payload length.
    pub fn combine(inputs: &[(Gf256, &CodedPacket)]) -> Result<CodedPacket, CodingError> {
        let mut out = CodedPacket::default();
        Self::combine_into(inputs, &mut out)?;
        Ok(out)
    }

    /// [`CodedPacket::combine`] into a caller-owned packet, reusing its
    /// coefficient and payload buffers.
    ///
    /// A coding relay emits one combined packet per generation; with
    /// this variant it keeps a single scratch packet alive and never
    /// allocates on the hold path (the buffers are resized once, on the
    /// first generation). On error `out` is left cleared, never holding
    /// a partial combination.
    ///
    /// # Errors
    ///
    /// As [`CodedPacket::combine`].
    pub fn combine_into(
        inputs: &[(Gf256, &CodedPacket)],
        out: &mut CodedPacket,
    ) -> Result<(), CodingError> {
        out.coeffs.clear();
        out.data.clear();
        let (_, first) = inputs.first().ok_or(CodingError::NoInputs)?;
        let gen = first.generation();
        let len = first.data.len();
        if inputs
            .iter()
            .any(|(_, p)| p.generation() != gen || p.data.len() != len)
        {
            return Err(CodingError::ShapeMismatch);
        }
        out.coeffs.resize(gen, Gf256::ZERO);
        out.data.resize(len, 0);
        for (scalar, packet) in inputs {
            mulacc_slice_gf(*scalar, &packet.coeffs, &mut out.coeffs);
        }
        mulacc_rows(
            inputs
                .iter()
                .map(|(scalar, packet)| (*scalar, packet.data())),
            &mut out.data,
        );
        Ok(())
    }
}

/// Produces coded packets from the source packets of one generation.
///
/// The encoder sits at (or near) the data source. Systematic operation
/// emits the originals first ([`Encoder::systematic`] /
/// [`Encoder::systematic_into`]) and covers losses with random repair
/// combinations ([`Encoder::random_packet`]).
///
/// # Example
///
/// ```
/// use ioverlay_gf256::{Decoder, Encoder};
///
/// let gen = vec![b"alpha".to_vec(), b"bravo".to_vec(), b"charl".to_vec()];
/// let enc = Encoder::new(gen.clone()).unwrap();
/// let mut rng = rand::thread_rng();
/// let mut dec = Decoder::new(3);
/// // Systematic delivery: index 1 is lost, a repair packet covers it.
/// dec.push_systematic(0, enc.source_payload(0));
/// dec.push_systematic(2, enc.source_payload(2));
/// while !dec.is_complete() {
///     dec.push(enc.random_packet(&mut rng));
/// }
/// assert_eq!(dec.decoded_payloads().unwrap(), gen);
/// ```
#[derive(Debug, Clone)]
pub struct Encoder {
    sources: Vec<CodedPacket>,
}

impl Encoder {
    /// Creates an encoder over one generation of equally sized payloads.
    ///
    /// # Errors
    ///
    /// [`CodingError::NoInputs`] if `payloads` is empty,
    /// [`CodingError::ShapeMismatch`] if payload lengths differ. (Pad
    /// variable-length application messages to the generation's maximum
    /// before encoding.)
    pub fn new(payloads: Vec<Vec<u8>>) -> Result<Self, CodingError> {
        if payloads.is_empty() {
            return Err(CodingError::NoInputs);
        }
        let len = payloads[0].len();
        if payloads.iter().any(|p| p.len() != len) {
            return Err(CodingError::ShapeMismatch);
        }
        let gen = payloads.len();
        Ok(Self {
            sources: payloads
                .into_iter()
                .enumerate()
                .map(|(i, p)| CodedPacket::source(i, gen, p))
                .collect(),
        })
    }

    /// Generation size.
    pub fn generation(&self) -> usize {
        self.sources.len()
    }

    /// The original payload bytes of source `index` — what a systematic
    /// wire frame carries (the coefficient row is implied by the index).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn source_payload(&self, index: usize) -> &[u8] {
        &self.sources[index].data
    }

    /// The systematic (uncoded) packet for source `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn systematic(&self, index: usize) -> CodedPacket {
        self.sources[index].clone()
    }

    /// [`Encoder::systematic`] into a caller-owned packet, reusing its
    /// buffers across emissions.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn systematic_into(&self, index: usize, out: &mut CodedPacket) {
        let src = &self.sources[index];
        out.coeffs.clear();
        out.coeffs.extend_from_slice(&src.coeffs);
        out.data.clear();
        out.data.extend_from_slice(&src.data);
    }

    /// Emits a packet with the given coefficient vector.
    ///
    /// # Errors
    ///
    /// [`CodingError::ShapeMismatch`] if `coeffs.len()` differs from the
    /// generation size.
    pub fn packet_with(&self, coeffs: &[Gf256]) -> Result<CodedPacket, CodingError> {
        let mut out = CodedPacket::default();
        self.packet_with_into(coeffs, &mut out)?;
        Ok(out)
    }

    /// [`Encoder::packet_with`] into a caller-owned packet, reusing its
    /// buffers across emissions.
    ///
    /// Because the encoder's sources are unit vectors, the output
    /// coefficient vector is exactly `coeffs`; the payload is the
    /// matching linear combination, accumulated with the bulk kernels.
    ///
    /// # Errors
    ///
    /// [`CodingError::ShapeMismatch`] if `coeffs.len()` differs from the
    /// generation size.
    pub fn packet_with_into(
        &self,
        coeffs: &[Gf256],
        out: &mut CodedPacket,
    ) -> Result<(), CodingError> {
        out.coeffs.clear();
        out.data.clear();
        if coeffs.len() != self.generation() {
            return Err(CodingError::ShapeMismatch);
        }
        out.coeffs.extend_from_slice(coeffs);
        self.combine_sources(out);
        Ok(())
    }

    /// Emits a random linear combination — a repair packet under
    /// systematic operation.
    pub fn random_packet<R: Rng + ?Sized>(&self, rng: &mut R) -> CodedPacket {
        let mut out = CodedPacket::default();
        self.random_packet_into(rng, &mut out);
        out
    }

    /// [`Encoder::random_packet`] into a caller-owned packet, reusing its
    /// buffers across emissions — including the coefficient vector, which
    /// is drawn directly into `out` (no per-call scratch allocation).
    pub fn random_packet_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut CodedPacket) {
        let gen = self.generation();
        out.coeffs.clear();
        out.coeffs.resize(gen, Gf256::ZERO);
        loop {
            for c in out.coeffs.iter_mut() {
                *c = Gf256::new(rng.gen());
            }
            if out.coeffs.iter().any(|c| !c.is_zero()) {
                break;
            }
        }
        self.combine_sources(out);
    }

    /// `out.data = Σ out.coeffs[i] · sourceᵢ`, one fused kernel call.
    fn combine_sources(&self, out: &mut CodedPacket) {
        out.data.clear();
        out.data.resize(self.sources[0].data.len(), 0);
        mulacc_rows(
            out.coeffs
                .iter()
                .zip(&self.sources)
                .map(|(c, source)| (*c, source.data())),
            &mut out.data,
        );
    }
}

/// One reduced row of the decoder's coefficient-only RREF mirror — the
/// reduced form of one accepted *repair* packet.
///
/// The leading (first non-zero) column index is stored instead of
/// rescanned, so elimination against existing rows is a direct indexed
/// load per row rather than a `position()` walk over the whole
/// coefficient vector. These rows never carry payload bytes — they exist
/// purely to answer "is this packet innovative?".
#[derive(Debug, Clone)]
struct CoeffRow {
    lead: usize,
    coeffs: Vec<Gf256>,
}

/// Systematic-aware progressive decoder for one generation.
///
/// Feed uncoded source packets with [`Decoder::push_systematic`] and
/// coded/repair packets with [`Decoder::push`] (which also detects
/// unit-coefficient packets and routes them to the passthrough path);
/// each innovative packet raises the rank by one. The moment the rank
/// reaches the generation size the decoder runs its deferred blocked
/// solve, after which [`Decoder::decoded_payloads`] (or the zero-copy
/// [`Decoder::payload`]) returns the original source payloads.
///
/// The decoder is a reusable workspace: [`Decoder::reset`] clears it for
/// the next generation while retaining every internal buffer, so a
/// long-lived stream decodes generation after generation without
/// allocating.
#[derive(Debug, Clone, Default)]
pub struct Decoder {
    generation: usize,
    payload_len: Option<usize>,
    /// The coefficient-only RREF mirror of the accepted repair packets,
    /// sorted by `lead` ascending; one row per repair row held
    /// (`rref.len() == repair_rows`). The unit rows of systematic
    /// arrivals are *not* stored here: `have` is that set. Invariants:
    /// each row's leading coefficient is `1`, every *other* row is `0`
    /// at that lead column, and every row is `0` on every column `i`
    /// with `have[i]` — so the rows together with the `e_i` of `have`
    /// are a reduced basis of everything accepted so far.
    rref: Vec<CoeffRow>,
    /// Recycled coefficient-row buffers (filled by [`Decoder::reset`]).
    row_pool: Vec<Vec<Gf256>>,
    /// `have[i]` ⇔ output slot `i` holds its recovered payload. Until
    /// the solve this is exactly the set of unit rows `e_i` the decoder
    /// has accepted, which is why none of them needs a stored row.
    have: Vec<bool>,
    /// Output slots, one per source packet; only `..generation` are live.
    slots: Vec<Vec<u8>>,
    systematic_hits: usize,
    /// Raw repair rows, deferred until the solve: coefficient arena
    /// (`repair_rows × generation`) kept separate from the payload tile
    /// arena (`repair_rows × payload_len`).
    repair_coeffs: Vec<Gf256>,
    repair_data: Vec<u8>,
    repair_rows: usize,
    /// Payload-row axpys executed by the last solve (0 when loss-free).
    elimination_rows: u64,
    /// Elimination scratch for the coefficient RREF.
    scratch: Vec<Gf256>,
    /// Pooled solve workspace: the `m × m` missing-column system, its
    /// inverse, and the augmented inversion tableau.
    solve_a: Option<Matrix>,
    solve_inv: Option<Matrix>,
    solve_aug: Option<Matrix>,
    missing: Vec<usize>,
}

impl Decoder {
    /// Creates a decoder for a generation of the given size.
    ///
    /// # Panics
    ///
    /// Panics if `generation` is zero.
    pub fn new(generation: usize) -> Self {
        let mut d = Self::default();
        d.reset(generation);
        d
    }

    /// Clears the decoder for a new generation, retaining every internal
    /// buffer (slots, arenas, RREF rows, solve matrices). This is the
    /// per-stream workspace reuse that keeps a relay or sink from
    /// allocating per generation.
    ///
    /// # Panics
    ///
    /// Panics if `generation` is zero.
    pub fn reset(&mut self, generation: usize) {
        assert!(generation > 0, "generation size must be non-zero");
        self.generation = generation;
        self.payload_len = None;
        for row in self.rref.drain(..) {
            self.row_pool.push(row.coeffs);
        }
        self.have.clear();
        self.have.resize(generation, false);
        if self.slots.len() < generation {
            self.slots.resize_with(generation, Vec::new);
        }
        for slot in &mut self.slots[..generation] {
            slot.clear();
        }
        self.systematic_hits = 0;
        self.repair_coeffs.clear();
        self.repair_data.clear();
        self.repair_rows = 0;
        self.elimination_rows = 0;
        self.missing.clear();
    }

    /// Generation size this decoder was (re)created for.
    pub fn generation(&self) -> usize {
        self.generation
    }

    /// Current rank (number of innovative packets held).
    pub fn rank(&self) -> usize {
        self.systematic_hits + self.repair_rows
    }

    /// Whether enough innovative packets have arrived to decode.
    pub fn is_complete(&self) -> bool {
        self.rank() == self.generation
    }

    /// Number of accepted uncoded (identity-row) packets.
    pub fn systematic_hits(&self) -> usize {
        self.systematic_hits
    }

    /// Number of accepted random-coefficient repair packets.
    pub fn repair_rows(&self) -> usize {
        self.repair_rows
    }

    /// Payload-row axpy sweeps the completing solve executed — the
    /// elimination work this generation actually cost. Zero for a
    /// loss-free (all-systematic) generation, `m·s + m²` after `m`
    /// losses with `s` systematic arrivals.
    pub fn elimination_rows(&self) -> u64 {
        self.elimination_rows
    }

    /// Inserts an uncoded source packet; returns `true` if innovative.
    ///
    /// This is the systematic passthrough: one payload copy into the
    /// output slot, and one column zeroed in each held repair row (none,
    /// while no repair packet has arrived). No payload elimination
    /// happens now or later for this packet.
    pub fn push_systematic(&mut self, index: usize, data: &[u8]) -> bool {
        if index >= self.generation || self.is_complete() || self.have[index] {
            return false;
        }
        if let Some(len) = self.payload_len {
            if data.len() != len {
                return false;
            }
        }
        let accepted = self.accept_systematic(index, Gf256::ONE, data);
        self.debug_check_mirror();
        accepted
    }

    /// Inserts a packet; returns `true` if it was innovative.
    ///
    /// Unit-coefficient (and scaled-unit) packets take the systematic
    /// passthrough; anything else is held as a raw repair row until the
    /// generation completes. Non-innovative packets (including
    /// shape-mismatched ones) are discarded, which models a receiver
    /// simply ignoring useless arrivals.
    pub fn push(&mut self, packet: CodedPacket) -> bool {
        self.push_parts(&packet.coeffs, &packet.data)
    }

    /// [`Decoder::push`] over borrowed coefficient and payload slices —
    /// lets a wire-facing caller feed the decoder without materializing
    /// a [`CodedPacket`] per arrival.
    pub fn push_parts(&mut self, coeffs: &[Gf256], data: &[u8]) -> bool {
        let rank_before = self.rank();
        if coeffs.len() != self.generation || self.is_complete() {
            return false;
        }
        if let Some(len) = self.payload_len {
            if data.len() != len {
                return false;
            }
        }
        let accepted = match unit_scale(coeffs) {
            Some((index, _)) if self.have[index] => false,
            Some((index, scale)) => self.accept_systematic(index, scale, data),
            None => self.push_repair(coeffs, data),
        };
        debug_assert_eq!(
            self.rank(),
            rank_before + usize::from(accepted),
            "rank must rise by exactly one per innovative packet"
        );
        self.debug_check_mirror();
        accepted
    }

    /// The mirror's invariants (see `rref`), checked in debug builds.
    fn debug_check_mirror(&self) {
        debug_assert_eq!(
            self.rref.len(),
            self.repair_rows,
            "one stored row per repair"
        );
        debug_assert!(
            self.rref.windows(2).all(|w| w[0].lead < w[1].lead),
            "stored leads must stay strictly increasing"
        );
        debug_assert!(
            self.is_complete()
                || self.rref.iter().all(|row| {
                    row.coeffs[row.lead] == Gf256::ONE
                        && row
                            .coeffs
                            .iter()
                            .zip(&self.have)
                            .all(|(c, &h)| !h || c.is_zero())
                }),
            "stored rows must lead with 1 and be zero on the have columns"
        );
    }

    /// Recovers the original payloads, in source order.
    ///
    /// # Errors
    ///
    /// [`CodingError::NotDecodable`] if the rank is still short of the
    /// generation size.
    pub fn decoded_payloads(&self) -> Result<Vec<Vec<u8>>, CodingError> {
        if !self.is_complete() {
            return Err(CodingError::NotDecodable {
                rank: self.rank(),
                need: self.generation,
            });
        }
        debug_assert!(
            self.have[..self.generation].iter().all(|&h| h),
            "complete decoder must have every slot solved"
        );
        Ok(self.slots[..self.generation].to_vec())
    }

    /// Borrows the recovered payload of source `index`, or `None` if it
    /// has not been recovered yet. Systematic arrivals are readable here
    /// immediately — before the generation completes.
    pub fn payload(&self, index: usize) -> Option<&[u8]> {
        (index < self.generation && self.have[index]).then(|| self.slots[index].as_slice())
    }

    /// Stores `scale⁻¹ · data` into slot `index` if the unit row `e_index`
    /// is innovative. `scale` is the packet's single non-zero coefficient
    /// (`1` for a true systematic arrival). The caller has checked that
    /// the slot is empty.
    fn accept_systematic(&mut self, index: usize, scale: Gf256, data: &[u8]) -> bool {
        match self.rref.binary_search_by_key(&index, |row| row.lead) {
            // No stored row leads on this column, so reducing `e_index`
            // against the mirror changes nothing: it is innovative
            // because its slot is empty. Taking it into `have` means
            // clearing its column from the stored rows.
            Err(_) => {
                for row in &mut self.rref {
                    row.coeffs[index] = Gf256::ZERO;
                }
            }
            // A stored row `e_index + tail` leads here. The repairs
            // alone determine source `index` when the tail is empty;
            // otherwise `e_index` reduces to that tail, which replaces
            // the row it came from.
            Ok(pos) => {
                if !self.rref[pos].coeffs[index + 1..]
                    .iter()
                    .any(|c| !c.is_zero())
                {
                    return false;
                }
                let row = self.rref.remove(pos);
                self.scratch.clone_from(&row.coeffs);
                self.scratch[index] = Gf256::ZERO;
                self.row_pool.push(row.coeffs);
                let reduced = self.insert_scratch();
                debug_assert!(reduced, "a non-empty tail is a new row");
            }
        }
        self.payload_len = Some(data.len());
        let slot = &mut self.slots[index];
        slot.clear();
        if scale == Gf256::ONE {
            slot.extend_from_slice(data);
        } else {
            slot.resize(data.len(), 0);
            mul_slice(scale.inv(), data, slot);
        }
        self.have[index] = true;
        self.systematic_hits += 1;
        if self.is_complete() {
            self.solve();
        }
        true
    }

    /// Appends an innovative repair row to the raw arenas.
    fn push_repair(&mut self, coeffs: &[Gf256], data: &[u8]) -> bool {
        // Reduce against the unit rows first: that is zeroing the
        // `have` columns.
        self.scratch.clear();
        self.scratch.extend(
            coeffs
                .iter()
                .zip(&self.have)
                .map(|(&c, &have)| if have { Gf256::ZERO } else { c }),
        );
        for row in &self.rref {
            let factor = self.scratch[row.lead];
            if !factor.is_zero() {
                mulacc_slice_gf(factor, &row.coeffs, &mut self.scratch);
            }
        }
        if !self.insert_scratch() {
            return false;
        }
        self.payload_len = Some(data.len());
        self.repair_coeffs.extend_from_slice(coeffs);
        self.repair_data.extend_from_slice(data);
        self.repair_rows += 1;
        if self.is_complete() {
            self.solve();
        }
        true
    }

    /// Inserts `self.scratch` — already reduced against `have` and every
    /// stored row — into the mirror: normalises it, clears its lead
    /// column from the other rows, and keeps the rows sorted by lead.
    /// Returns `false`, storing nothing, if the scratch row is zero.
    fn insert_scratch(&mut self) -> bool {
        let Some(lead) = self.scratch.iter().position(|c| !c.is_zero()) else {
            return false;
        };
        let inv = self.scratch[lead].inv();
        mul_slice_in_place_gf(inv, &mut self.scratch);
        // Back-substitute the new row into the existing ones (coefficient
        // vectors only — payload rows are untouched until the solve).
        for row in &mut self.rref {
            let factor = row.coeffs[lead];
            if !factor.is_zero() {
                mulacc_slice_gf(factor, &self.scratch, &mut row.coeffs);
            }
        }
        let mut coeffs = self.row_pool.pop().unwrap_or_default();
        coeffs.clear();
        coeffs.extend_from_slice(&self.scratch);
        let pos = self.rref.partition_point(|r| r.lead < lead);
        self.rref.insert(pos, CoeffRow { lead, coeffs });
        true
    }

    /// The deferred blocked solve, run once at completion.
    ///
    /// With `P` the recovered (systematic) indices and `M` the missing
    /// ones (`|M| = m`), the accepted repair rows are exactly `m` and
    /// their restriction `A` to the columns of `M` is invertible (the
    /// full accepted set is a basis, and Laplace expansion along the
    /// unit rows reduces its determinant to `det(A)`). The solve is
    /// three blocked passes over the contiguous arenas:
    ///
    /// 1. `Y′_j = Y_j + Σ_{i∈P} c[j][i]·slotᵢ` — fold the recovered
    ///    sources out of each of the `m` repair payload rows,
    /// 2. invert the `m × m` block `A` in the pooled workspace,
    /// 3. `slot_{M[k]} = Σ_j A⁻¹[k][j]·Y′_j` — `m` rows into each slot.
    ///
    /// `elimination_rows` counts the non-zero (coefficient, row)
    /// products of passes 1 and 3.
    fn solve(&mut self) {
        debug_assert!(self.is_complete());
        let gen = self.generation;
        let len = self.payload_len.unwrap_or(0);
        self.elimination_rows = 0;
        self.missing.clear();
        self.missing
            .extend((0..gen).filter(|&i| !self.have[i]));
        let m = self.missing.len();
        if m == 0 {
            return; // pure systematic: passthrough already solved it
        }
        debug_assert_eq!(m, self.repair_rows, "repair rows must cover the losses");
        // Pass 1: adjusted RHS — per repair row, every recovered source
        // folded out in one kernel call (the row's blocks stay in
        // registers across the whole source sweep).
        for j in 0..m {
            let coeffs = &self.repair_coeffs[j * gen..(j + 1) * gen];
            let recovered = (0..gen)
                .filter(|&i| self.have[i])
                .map(|i| (coeffs[i], self.slots[i].as_slice()));
            let row = &mut self.repair_data[j * len..(j + 1) * len];
            self.elimination_rows += mulacc_rows(recovered, row) as u64;
        }
        // Pass 2: invert the m × m missing-column block in the pooled
        // workspace (no allocation after the first lossy generation).
        let a = self.solve_a.get_or_insert_with(|| Matrix::zero(1, 1));
        a.reshape_zeroed(m, m);
        for j in 0..m {
            for (k, &mi) in self.missing.iter().enumerate() {
                a[(j, k)] = self.repair_coeffs[j * gen + mi];
            }
        }
        let inv = self.solve_inv.get_or_insert_with(|| Matrix::zero(1, 1));
        let aug = self.solve_aug.get_or_insert_with(|| Matrix::zero(1, 1));
        let invertible = a.invert_into(inv, aug);
        debug_assert!(invertible, "full rank implies an invertible missing block");
        if !invertible {
            return;
        }
        // Pass 3: reconstruct each missing payload from the m adjusted
        // rows, again one kernel call.
        for (k, &mi) in self.missing.iter().enumerate() {
            let slot = &mut self.slots[mi];
            slot.clear();
            slot.resize(len, 0);
            let adjusted = (0..m).map(|j| (inv[(k, j)], &self.repair_data[j * len..(j + 1) * len]));
            self.elimination_rows += mulacc_rows(adjusted, slot) as u64;
            self.have[mi] = true;
        }
    }
}

/// If `coeffs` has exactly one non-zero entry, returns its index and
/// value — the (possibly scaled) systematic case.
fn unit_scale(coeffs: &[Gf256]) -> Option<(usize, Gf256)> {
    let mut found = None;
    for (i, &c) in coeffs.iter().enumerate() {
        if c.is_zero() {
            continue;
        }
        if found.is_some() {
            return None;
        }
        found = Some((i, c));
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn payloads(n: usize, len: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| (0..len).map(|j| (i * 31 + j * 7) as u8).collect())
            .collect()
    }

    #[test]
    fn paper_a_plus_b_scenario() {
        // Fig. 8(b): F receives `a` and `a + b`, recovers both streams.
        let a = CodedPacket::source(0, 2, b"stream-a".to_vec());
        let b = CodedPacket::source(1, 2, b"stream-b".to_vec());
        let coded = CodedPacket::combine(&[(Gf256::ONE, &a), (Gf256::ONE, &b)]).unwrap();
        let mut dec = Decoder::new(2);
        assert!(dec.push(a));
        assert!(dec.push(coded));
        let out = dec.decoded_payloads().unwrap();
        assert_eq!(out[0], b"stream-a");
        assert_eq!(out[1], b"stream-b");
    }

    #[test]
    fn random_coding_decodes_with_exactly_gen_innovative_packets() {
        let mut rng = StdRng::seed_from_u64(7);
        let sources = payloads(8, 64);
        let enc = Encoder::new(sources.clone()).unwrap();
        let mut dec = Decoder::new(8);
        let mut pushes = 0;
        while !dec.is_complete() {
            dec.push(enc.random_packet(&mut rng));
            pushes += 1;
            assert!(pushes < 100, "decoder failed to converge");
        }
        assert_eq!(dec.decoded_payloads().unwrap(), sources);
    }

    #[test]
    fn duplicate_packets_are_not_innovative() {
        let enc = Encoder::new(payloads(3, 16)).unwrap();
        let p = enc.systematic(0);
        let mut dec = Decoder::new(3);
        assert!(dec.push(p.clone()));
        assert!(!dec.push(p));
        assert_eq!(dec.rank(), 1);
    }

    #[test]
    fn linear_dependents_are_rejected() {
        let enc = Encoder::new(payloads(3, 16)).unwrap();
        let a = enc.systematic(0);
        let b = enc.systematic(1);
        let dep = CodedPacket::combine(&[(Gf256::new(3), &a), (Gf256::new(5), &b)]).unwrap();
        let mut dec = Decoder::new(3);
        assert!(dec.push(a));
        assert!(dec.push(b));
        assert!(!dec.push(dep));
        assert_eq!(dec.rank(), 2);
        assert!(matches!(
            dec.decoded_payloads(),
            Err(CodingError::NotDecodable { rank: 2, need: 3 })
        ));
    }

    #[test]
    fn systematic_then_coded_mix() {
        let mut rng = StdRng::seed_from_u64(42);
        let sources = payloads(5, 33);
        let enc = Encoder::new(sources.clone()).unwrap();
        let mut dec = Decoder::new(5);
        dec.push(enc.systematic(2));
        dec.push(enc.systematic(4));
        while !dec.is_complete() {
            dec.push(enc.random_packet(&mut rng));
        }
        assert_eq!(dec.decoded_payloads().unwrap(), sources);
    }

    #[test]
    fn loss_free_generation_does_zero_elimination_work() {
        let sources = payloads(16, 128);
        let enc = Encoder::new(sources.clone()).unwrap();
        let mut dec = Decoder::new(16);
        for (i, source) in sources.iter().enumerate() {
            assert!(dec.push_systematic(i, enc.source_payload(i)));
            // Systematic arrivals are readable before completion.
            assert_eq!(dec.payload(i).unwrap(), &source[..]);
        }
        assert!(dec.is_complete());
        assert_eq!(dec.systematic_hits(), 16);
        assert_eq!(dec.repair_rows(), 0);
        assert_eq!(dec.elimination_rows(), 0, "passthrough must not eliminate");
        assert_eq!(dec.decoded_payloads().unwrap(), sources);
    }

    #[test]
    fn burst_loss_recovered_by_repair_packets() {
        let mut rng = StdRng::seed_from_u64(9);
        let sources = payloads(8, 96);
        let enc = Encoder::new(sources.clone()).unwrap();
        let mut dec = Decoder::new(8);
        // Burst: sources 2..5 lost.
        for i in (0..8).filter(|i| !(2..5).contains(i)) {
            assert!(dec.push_systematic(i, enc.source_payload(i)));
        }
        while !dec.is_complete() {
            dec.push(enc.random_packet(&mut rng));
        }
        assert_eq!(dec.systematic_hits(), 5);
        assert_eq!(dec.repair_rows(), 3);
        // m·s + m² payload axpy upper bound; lower bound m (each lost
        // slot touched at least once).
        assert!(dec.elimination_rows() >= 3);
        assert!(dec.elimination_rows() <= (3 * 5 + 3 * 3) as u64);
        assert_eq!(dec.decoded_payloads().unwrap(), sources);
    }

    #[test]
    fn scaled_unit_packet_takes_the_systematic_path() {
        let sources = payloads(2, 16);
        let enc = Encoder::new(sources.clone()).unwrap();
        let mut coeffs = vec![Gf256::ZERO; 2];
        coeffs[1] = Gf256::new(0x35);
        let scaled = enc.packet_with(&coeffs).unwrap();
        let mut dec = Decoder::new(2);
        assert!(dec.push(scaled));
        assert_eq!(dec.systematic_hits(), 1);
        assert_eq!(dec.payload(1).unwrap(), &sources[1][..]);
    }

    #[test]
    fn systematic_dependent_on_repair_rows_is_rejected() {
        // Two repair rows spanning e_0 for a gen-3 prefix: e_0 is then
        // dependent even though slot 0 was never filled directly.
        let sources = payloads(3, 8);
        let enc = Encoder::new(sources.clone()).unwrap();
        let mk = |a: u8, b: u8| {
            enc.packet_with(&[Gf256::new(a), Gf256::new(b), Gf256::ZERO])
                .unwrap()
        };
        let mut dec = Decoder::new(3);
        assert!(dec.push(mk(1, 1)));
        assert!(dec.push(mk(1, 2)));
        assert!(!dec.push_systematic(0, enc.source_payload(0)));
        assert_eq!(dec.rank(), 2);
        // The third dimension still completes the generation.
        assert!(dec.push_systematic(2, enc.source_payload(2)));
        assert_eq!(dec.decoded_payloads().unwrap(), sources);
    }

    #[test]
    fn systematic_on_a_stored_rows_lead_replaces_that_row_by_its_tail() {
        // One repair row x0 + 2·x1 + 3·x2 leads on column 0. Systematic 0
        // is then still innovative (the repair alone does not determine
        // x0) and must leave the mirror holding 2·x1 + 3·x2, normalised.
        let sources = payloads(3, 8);
        let enc = Encoder::new(sources.clone()).unwrap();
        let repair = enc
            .packet_with(&[Gf256::new(1), Gf256::new(2), Gf256::new(3)])
            .unwrap();
        let mut dec = Decoder::new(3);
        assert!(dec.push(repair.clone()));
        assert_eq!(dec.rref[0].lead, 0);
        assert!(dec.push_systematic(0, enc.source_payload(0)));
        assert_eq!(
            (dec.rank(), dec.systematic_hits(), dec.repair_rows()),
            (2, 1, 1)
        );
        assert_eq!(
            dec.rref.len(),
            1,
            "the tail replaced the row, not joined it"
        );
        assert_eq!(dec.rref[0].lead, 1);
        assert_eq!(
            dec.rref[0].coeffs,
            [Gf256::ZERO, Gf256::ONE, Gf256::new(3) / Gf256::new(2)]
        );
        // Everything the repair and source 0 span is now dependent.
        assert!(!dec.push(repair));
        assert!(!dec.push(
            enc.packet_with(&[Gf256::new(9), Gf256::new(2), Gf256::new(3)])
                .unwrap()
        ));
        assert!(dec.push_systematic(2, enc.source_payload(2)));
        assert_eq!(dec.decoded_payloads().unwrap(), sources);
    }

    #[test]
    fn reset_to_a_smaller_generation_reuses_rows_and_decodes() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut dec = Decoder::new(12);
        let big = Encoder::new(payloads(12, 40)).unwrap();
        while !dec.is_complete() {
            dec.push(big.random_packet(&mut rng));
        }
        assert_eq!(dec.repair_rows(), 12);
        dec.reset(5);
        assert_eq!(
            dec.row_pool.len(),
            12,
            "coefficient rows are pooled, not freed"
        );
        let sources = payloads(5, 24);
        let small = Encoder::new(sources.clone()).unwrap();
        assert!(dec.push_systematic(1, small.source_payload(1)));
        assert!(dec.push_systematic(4, small.source_payload(4)));
        while !dec.is_complete() {
            dec.push(small.random_packet(&mut rng));
        }
        assert_eq!(
            dec.row_pool.len(),
            12 - 3,
            "the three repair rows came from the pool"
        );
        assert_eq!(dec.decoded_payloads().unwrap(), sources);
    }

    #[test]
    fn reset_reuses_the_workspace_across_generations() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut dec = Decoder::new(4);
        for round in 0..3u8 {
            let sources: Vec<Vec<u8>> = (0..4)
                .map(|i| vec![round.wrapping_mul(17) ^ i as u8; 64])
                .collect();
            let enc = Encoder::new(sources.clone()).unwrap();
            dec.push_systematic(0, enc.source_payload(0));
            dec.push_systematic(3, enc.source_payload(3));
            while !dec.is_complete() {
                dec.push(enc.random_packet(&mut rng));
            }
            assert_eq!(dec.decoded_payloads().unwrap(), sources);
            dec.reset(4);
            assert_eq!(dec.rank(), 0);
            assert_eq!(dec.systematic_hits(), 0);
            assert_eq!(dec.elimination_rows(), 0);
        }
        // Reset can also change the generation size.
        dec.reset(2);
        assert!(dec.push_systematic(0, &[1, 2]));
        assert!(dec.push_systematic(1, &[3, 4]));
        assert_eq!(dec.decoded_payloads().unwrap(), vec![vec![1, 2], vec![3, 4]]);
    }

    #[test]
    fn combine_shape_mismatch() {
        let a = CodedPacket::source(0, 2, vec![1, 2, 3]);
        let b = CodedPacket::source(1, 3, vec![1, 2, 3]);
        assert_eq!(
            CodedPacket::combine(&[(Gf256::ONE, &a), (Gf256::ONE, &b)]),
            Err(CodingError::ShapeMismatch)
        );
        let c = CodedPacket::source(1, 2, vec![1, 2]);
        assert_eq!(
            CodedPacket::combine(&[(Gf256::ONE, &a), (Gf256::ONE, &c)]),
            Err(CodingError::ShapeMismatch)
        );
        assert_eq!(CodedPacket::combine(&[]), Err(CodingError::NoInputs));
    }

    #[test]
    fn encoder_rejects_ragged_or_empty_input() {
        assert_eq!(Encoder::new(vec![]).unwrap_err(), CodingError::NoInputs);
        assert_eq!(
            Encoder::new(vec![vec![1], vec![1, 2]]).unwrap_err(),
            CodingError::ShapeMismatch
        );
    }

    #[test]
    fn decoder_ignores_wrong_shapes() {
        let mut dec = Decoder::new(2);
        assert!(!dec.push(CodedPacket::source(0, 3, vec![1])));
        assert!(dec.push(CodedPacket::source(0, 2, vec![1, 2])));
        // Different payload length is ignored too.
        assert!(!dec.push(CodedPacket::source(1, 2, vec![1])));
        // Out-of-range systematic index is ignored.
        assert!(!dec.push_systematic(2, &[1, 2]));
    }

    #[test]
    fn systematic_into_and_random_into_reuse_buffers() {
        let mut rng = StdRng::seed_from_u64(3);
        let enc = Encoder::new(payloads(4, 32)).unwrap();
        let mut scratch = CodedPacket::default();
        enc.systematic_into(1, &mut scratch);
        assert_eq!(scratch, enc.systematic(1));
        enc.random_packet_into(&mut rng, &mut scratch);
        assert_eq!(scratch.generation(), 4);
        assert!(scratch.coeffs().iter().any(|c| !c.is_zero()));
    }
}
