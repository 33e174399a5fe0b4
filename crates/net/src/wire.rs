//! Columnar (structure-of-arrays) wire frames for bulk-data messages.
//!
//! The legacy encodings of [`Message::FeedbackBatch`](crate::Message),
//! `SurvivalBatchReply`, `ReplicaSync`, and `RegionReply` serialize tuples
//! row-at-a-time, so the receiver decodes the wire tuple-at-a-time into
//! owned [`TupleMsg`]s and then *re*-columnarizes them before the SoA
//! dominance kernel runs. The columnar frames here (wire tags 23–26) ship
//! the same payload already in the kernel's shape: fixed-width SoA
//! sections — coordinates column-major as `f64` lanes, probabilities, and
//! packed tuple ids — behind a validated 16-byte header, so a batched
//! round goes socket → dominance kernel through a borrowed [`BatchView`]
//! with zero per-tuple allocation.
//!
//! # Frame layout
//!
//! All multi-byte section values are **little-endian** (unlike the legacy
//! big-endian row encoding) so that on little-endian targets a section can
//! be reinterpreted in place as `&[f64]` when its alignment allows. Byte
//! offsets are relative to the frame start (the tag byte):
//!
//! ```text
//! offset  size      field
//! 0       1         wire tag (23 FeedbackBatchC / 24 SurvivalBatchReplyC
//!                    / 25 ReplicaSyncC / 26 RegionReplyC)
//! 1       3         magic "DSC"
//! 4       4         n   — row count, u32 LE
//! 8       2         d   — dimensionality, u16 LE (0 for tag 24)
//! 10      6         zero padding (reserves 8-byte section alignment
//!                    relative to the frame start)
//! 16      8n        seqs         — per-row sequence number, u64 LE
//! 16+8n   8n·d      cols         — coordinates, column-major: column d'
//!                    occupies rows [16+8n+8n·d' .. 16+8n+8n·(d'+1))
//! ..      8n        probs        — existential probability P(t), f64 LE
//! ..      8n        local_probs  — local skyline probability, f64 LE
//! ..      4n        sites        — per-row home site id, u32 LE
//! ```
//!
//! total length `16 + n·(28 + 8d)`. Tag 24 replaces the tuple sections
//! with `survivals` (`8n`) followed by `pruned` (`u64 LE`): total
//! `24 + 8n`.
//!
//! # Validation
//!
//! [`BatchView::parse`] (and the [`Message`] decode arms
//! built on it) accept a frame only when the magic matches, `d ≤ 64` (the
//! [`SubspaceMask`](dsud_uncertain::SubspaceMask) bound), the padding is
//! zero, and the frame length equals the exact total implied by `(n, d)` —
//! wrong column lengths, truncated sections, and trailing bytes all reject
//! as a whole-frame decode failure (the transports answer
//! `Message::DecodeError`), never a panic or a partial read.
//!
//! # Alignment
//!
//! Heap buffers are 8-aligned in practice but not guaranteed, and a
//! columnar frame spliced behind a [`Tagged`](crate::Message::Tagged)
//! header starts at offset 9 of its enclosing frame, which misaligns every
//! section. Reads therefore probe alignment first: [`BatchView::col_f64`]
//! and [`decode_survivals_into`] reinterpret a section in place only when
//! it really is 8-aligned (the one `unsafe` cast in this crate, checked by
//! `slice::align_to`), and otherwise fall back to safe per-element
//! little-endian reads with identical results.

use bytes::{BufMut, BytesMut};
use serde::{Deserialize, Serialize};

use dsud_uncertain::{ProbeRows, TupleId};

use crate::{Message, TupleMsg};

/// Magic bytes at offsets 1..4 of every columnar frame.
pub const MAGIC: [u8; 3] = *b"DSC";

/// Fixed header length (tag + magic + n + d + padding).
pub const HEADER_LEN: usize = 16;

/// Dimensionality bound, matching `SubspaceMask`'s 64-bit word.
pub const MAX_DIMS: usize = 64;

/// Wire tag of the columnar [`Message::FeedbackBatchC`] frame.
pub const TAG_FEEDBACK_BATCH_C: u8 = 23;
/// Wire tag of the columnar [`Message::SurvivalBatchReplyC`] frame.
pub const TAG_SURVIVAL_BATCH_REPLY_C: u8 = 24;
/// Wire tag of the columnar [`Message::ReplicaSyncC`] frame.
pub const TAG_REPLICA_SYNC_C: u8 = 25;
/// Wire tag of the columnar [`Message::RegionReplyC`] frame.
pub const TAG_REGION_REPLY_C: u8 = 26;

/// Wire tag of the [`Message::Tagged`] session wrapper: the tag, a
/// big-endian `u64` query id, then the inner frame.
pub const TAG_TAGGED: u8 = 21;
/// Wire tag of [`Message::Draw`]: the tag, then the flush frame.
pub const TAG_DRAW: u8 = 34;
/// Wire tag of a [`Message::Drawn`] without an upload: the tag, then the
/// survival reply frame.
pub const TAG_DRAWN_EXHAUSTED: u8 = 35;
/// Wire tag of a [`Message::Drawn`] with an upload: the tag, the uploaded
/// tuple in its legacy row form, then the survival reply frame.
pub const TAG_DRAWN: u8 = 36;
/// Wire tag of a [`Message::Drawn`] whose upload left the site's queue
/// empty: laid out as [`TAG_DRAWN`].
pub const TAG_DRAWN_LAST: u8 = 41;
/// Wire tag of [`Message::DrawDeferred`]: laid out as [`TAG_DRAW`].
pub const TAG_DRAW_DEFERRED: u8 = 44;
/// Wire tag of a [`Message::Refilled`] without an upload: the tag, then
/// the held factors as big-endian `f64`s to the end of the frame.
pub const TAG_REFILLED_EXHAUSTED: u8 = 45;
/// Wire tag of a [`Message::Refilled`] with an upload: the tag, the
/// uploaded tuple in its legacy row form, then the held factors.
pub const TAG_REFILLED: u8 = 46;
/// Wire tag of a [`Message::Refilled`] whose upload left the site's queue
/// empty: laid out as [`TAG_REFILLED`].
pub const TAG_REFILLED_LAST: u8 = 47;
/// Wire tag of [`Message::RequestNextDeferred`]: the tag alone.
pub const TAG_REQUEST_NEXT_DEFERRED: u8 = 48;

/// Whether `tag` denotes one of the columnar frames decoded by this module.
pub(crate) fn is_columnar_tag(tag: u8) -> bool {
    (TAG_FEEDBACK_BATCH_C..=TAG_REGION_REPLY_C).contains(&tag)
}

/// Exact frame length of a tuple-block frame with `n` rows of `dims`
/// coordinates.
pub fn block_encoded_len(n: usize, dims: usize) -> usize {
    HEADER_LEN + n * (28 + 8 * dims)
}

/// Exact frame length of a columnar survival reply with `n` factors.
pub fn survivals_encoded_len(n: usize) -> usize {
    HEADER_LEN + 8 * n + 8
}

/// An owned structure-of-arrays tuple batch: the in-memory twin of the
/// columnar frame's sections, used by coordinators to build bulk frames
/// and by receivers that need owned tuples back (maintenance vectors).
///
/// Row `i` is the tuple `(sites[i], seqs[i])` with coordinates
/// `cols[d·len + i]` for dimension `d` — the same column-major layout the
/// dominance kernel consumes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TupleBlock {
    /// Dimensionality of every row.
    pub dims: u16,
    /// Per-row home site ids.
    pub sites: Vec<u32>,
    /// Per-row sequence numbers.
    pub seqs: Vec<u64>,
    /// Column-major coordinates: `cols[d * len + i]` is row `i`'s
    /// dimension `d`.
    pub cols: Vec<f64>,
    /// Per-row existential probabilities `P(t)`.
    pub probs: Vec<f64>,
    /// Per-row local skyline probabilities.
    pub local_probs: Vec<f64>,
}

impl TupleBlock {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Columnarizes a row-major tuple vector. All tuples must share one
    /// dimensionality (every protocol message does).
    pub fn from_msgs(msgs: &[TupleMsg]) -> Self {
        let n = msgs.len();
        let dims = msgs.first().map_or(0, |m| m.values.len());
        let mut block = TupleBlock {
            dims: dims as u16,
            sites: Vec::with_capacity(n),
            seqs: Vec::with_capacity(n),
            cols: vec![0.0; dims * n],
            probs: Vec::with_capacity(n),
            local_probs: Vec::with_capacity(n),
        };
        for (i, m) in msgs.iter().enumerate() {
            debug_assert_eq!(m.values.len(), dims, "block rows share one dimensionality");
            block.sites.push(m.id.site.0);
            block.seqs.push(m.id.seq);
            for (d, &v) in m.values.iter().enumerate() {
                block.cols[d * n + i] = v;
            }
            block.probs.push(m.prob);
            block.local_probs.push(m.local_prob);
        }
        block
    }

    /// Transposes the block's coordinates into a reusable row-major probe
    /// buffer, as [`BatchView::gather_rows`] does for a borrowed frame.
    pub fn gather_rows(&self, rows: &mut ProbeRows) {
        let n = self.len();
        rows.reset(self.dims as usize);
        for i in 0..n {
            rows.push_row_with(|d| self.cols[d * n + i]);
        }
    }

    /// Re-materializes the row-major tuple vector (bit-identical to the
    /// rows [`TupleBlock::from_msgs`] consumed).
    pub fn to_msgs(&self) -> Vec<TupleMsg> {
        let n = self.len();
        let dims = self.dims as usize;
        (0..n)
            .map(|i| TupleMsg {
                id: TupleId::new(self.sites[i], self.seqs[i]),
                values: (0..dims).map(|d| self.cols[d * n + i]).collect(),
                prob: self.probs[i],
                local_prob: self.local_probs[i],
            })
            .collect()
    }
}

/// The one alignment-checked pointer cast of the crate: reinterprets a
/// byte section as `&[f64]` when (and only when) the section is 8-aligned
/// and the target stores `f64`s little-endian — i.e. exactly when the cast
/// reads the same values the safe fallback would.
#[allow(unsafe_code)]
fn cast_f64s(bytes: &[u8]) -> Option<&[f64]> {
    if cfg!(target_endian = "big") || !bytes.len().is_multiple_of(8) {
        return None;
    }
    // SAFETY: every 8-byte bit pattern is a valid f64, the length is a
    // multiple of 8, and `align_to` itself guarantees `mid` is correctly
    // aligned — the head/tail emptiness check below rejects any buffer
    // whose base address is not 8-aligned instead of reading it shifted.
    let (head, mid, tail) = unsafe { bytes.align_to::<f64>() };
    if head.is_empty() && tail.is_empty() {
        Some(mid)
    } else {
        None
    }
}

fn read_u32_le(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("length validated"))
}

fn read_u64_le(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("length validated"))
}

fn read_f64_le(bytes: &[u8], at: usize) -> f64 {
    f64::from_le_bytes(bytes[at..at + 8].try_into().expect("length validated"))
}

/// Parses and validates the 16-byte columnar header; returns `(n, dims)`.
fn parse_header(frame: &[u8], expected_tag: Option<u8>) -> Option<(usize, usize)> {
    if frame.len() < HEADER_LEN {
        return None;
    }
    match expected_tag {
        Some(tag) if frame[0] != tag => return None,
        None if !is_columnar_tag(frame[0]) => return None,
        _ => {}
    }
    if frame[1..4] != MAGIC || frame[10..16] != [0u8; 6] {
        return None;
    }
    let n = read_u32_le(frame, 4) as usize;
    let dims = u16::from_le_bytes([frame[8], frame[9]]) as usize;
    if dims > MAX_DIMS {
        return None;
    }
    Some((n, dims))
}

/// A borrowed, zero-copy view over a validated tuple-block frame
/// (tags 23 / 25 / 26): the decoded form the site-side fast path feeds
/// straight into the dominance kernel without materializing owned tuples.
#[derive(Debug, Clone, Copy)]
pub struct BatchView<'a> {
    n: usize,
    dims: usize,
    seqs: &'a [u8],
    cols: &'a [u8],
    probs: &'a [u8],
    local_probs: &'a [u8],
    sites: &'a [u8],
}

impl<'a> BatchView<'a> {
    /// Validates a tuple-block frame and borrows its sections.
    ///
    /// Returns `None` when the tag is not a tuple-block tag, the magic or
    /// padding is wrong, `dims` exceeds [`MAX_DIMS`], or the frame length
    /// is not exactly `16 + n·(28 + 8d)`.
    pub fn parse(frame: &'a [u8]) -> Option<Self> {
        let (n, dims) = parse_header(frame, None)?;
        if frame[0] == TAG_SURVIVAL_BATCH_REPLY_C {
            return None; // a reply frame has no tuple sections
        }
        if frame.len() != block_encoded_len(n, dims) {
            return None;
        }
        let body = &frame[HEADER_LEN..];
        let (seqs, body) = body.split_at(8 * n);
        let (cols, body) = body.split_at(8 * n * dims);
        let (probs, body) = body.split_at(8 * n);
        let (local_probs, sites) = body.split_at(8 * n);
        Some(BatchView { n, dims, seqs, cols, probs, local_probs, sites })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the view holds no rows.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Dimensionality of every row.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Identifier of row `i`.
    pub fn id(&self, i: usize) -> TupleId {
        TupleId::new(read_u32_le(self.sites, 4 * i), read_u64_le(self.seqs, 8 * i))
    }

    /// Existential probability of row `i`.
    pub fn prob(&self, i: usize) -> f64 {
        read_f64_le(self.probs, 8 * i)
    }

    /// Local skyline probability of row `i`.
    pub fn local_prob(&self, i: usize) -> f64 {
        read_f64_le(self.local_probs, 8 * i)
    }

    /// Coordinate `d` of row `i`.
    pub fn coord(&self, d: usize, i: usize) -> f64 {
        read_f64_le(self.cols, 8 * (d * self.n + i))
    }

    /// Column `d` reinterpreted in place as `&[f64]`, when alignment and
    /// endianness allow the cast (see the module docs); `None` falls back
    /// to [`BatchView::coord`] with identical values.
    pub fn col_f64(&self, d: usize) -> Option<&'a [f64]> {
        cast_f64s(&self.cols[8 * d * self.n..8 * (d + 1) * self.n])
    }

    /// Transposes the view's coordinates into a reusable row-major probe
    /// buffer (no allocation once `rows` has seen a batch this large).
    pub fn gather_rows(&self, rows: &mut ProbeRows) {
        rows.reset(self.dims);
        for i in 0..self.n {
            rows.push_row_with(|d| self.coord(d, i));
        }
    }

    /// Re-materializes owned row-major tuples (the maintenance receivers'
    /// shape). Bit-identical to decoding the legacy frame for the same
    /// rows.
    pub fn to_msgs(&self) -> Vec<TupleMsg> {
        (0..self.n)
            .map(|i| TupleMsg {
                id: self.id(i),
                values: (0..self.dims).map(|d| self.coord(d, i)).collect(),
                prob: self.prob(i),
                local_prob: self.local_prob(i),
            })
            .collect()
    }

    /// Decodes into an owned [`TupleBlock`] (the `Message` enum's payload).
    pub fn to_block(&self) -> TupleBlock {
        let fast = |section: &[u8], out: &mut Vec<f64>| {
            if let Some(vals) = cast_f64s(section) {
                out.extend_from_slice(vals);
            } else {
                out.extend((0..section.len() / 8).map(|i| read_f64_le(section, 8 * i)));
            }
        };
        let mut cols = Vec::with_capacity(self.n * self.dims);
        fast(self.cols, &mut cols);
        let mut probs = Vec::with_capacity(self.n);
        fast(self.probs, &mut probs);
        let mut local_probs = Vec::with_capacity(self.n);
        fast(self.local_probs, &mut local_probs);
        TupleBlock {
            dims: self.dims as u16,
            sites: (0..self.n).map(|i| read_u32_le(self.sites, 4 * i)).collect(),
            seqs: (0..self.n).map(|i| read_u64_le(self.seqs, 8 * i)).collect(),
            cols,
            probs,
            local_probs,
        }
    }
}

fn put_header(buf: &mut BytesMut, tag: u8, n: usize, dims: u16) {
    buf.put_u8(tag);
    buf.put_slice(&MAGIC);
    buf.put_slice(&(n as u32).to_le_bytes());
    buf.put_slice(&dims.to_le_bytes());
    buf.put_slice(&[0u8; 6]);
}

/// Appends a tuple-block frame (header + SoA sections) to `buf`.
pub(crate) fn encode_block(tag: u8, block: &TupleBlock, buf: &mut BytesMut) {
    debug_assert!(is_columnar_tag(tag) && tag != TAG_SURVIVAL_BATCH_REPLY_C);
    let n = block.len();
    put_header(buf, tag, n, block.dims);
    for &s in &block.seqs {
        buf.put_slice(&s.to_le_bytes());
    }
    for &v in &block.cols {
        buf.put_slice(&v.to_le_bytes());
    }
    for &p in &block.probs {
        buf.put_slice(&p.to_le_bytes());
    }
    for &p in &block.local_probs {
        buf.put_slice(&p.to_le_bytes());
    }
    for &s in &block.sites {
        buf.put_slice(&s.to_le_bytes());
    }
}

/// Appends a columnar survival-reply frame (tag 24) to `buf`. Sites use
/// this directly from the frame-level fast path so a warm batched round
/// encodes its reply without constructing a [`Message`].
pub fn encode_survivals(survivals: &[f64], pruned: u64, buf: &mut BytesMut) {
    put_header(buf, TAG_SURVIVAL_BATCH_REPLY_C, survivals.len(), 0);
    for &s in survivals {
        buf.put_slice(&s.to_le_bytes());
    }
    buf.put_slice(&pruned.to_le_bytes());
}

/// Decodes a columnar survival-reply frame into a reusable factor buffer:
/// `out` is cleared and refilled (allocation-free once warm) and the
/// frame's `pruned` count is returned. `None` on any validation failure —
/// same rules as the `Message` decode arm, which this underlies.
pub fn decode_survivals_into(frame: &[u8], out: &mut Vec<f64>) -> Option<u64> {
    let (n, dims) = parse_header(frame, Some(TAG_SURVIVAL_BATCH_REPLY_C))?;
    if dims != 0 || frame.len() != survivals_encoded_len(n) {
        return None;
    }
    let section = &frame[HEADER_LEN..HEADER_LEN + 8 * n];
    out.clear();
    if let Some(vals) = cast_f64s(section) {
        out.extend_from_slice(vals);
    } else {
        out.extend((0..n).map(|i| read_f64_le(section, 8 * i)));
    }
    Some(read_u64_le(frame, HEADER_LEN + 8 * n))
}

/// Decodes any columnar frame (tags 23–26) into its owned [`Message`]
/// form. `frame` is the whole frame including the tag byte.
pub(crate) fn decode_columnar(frame: &[u8]) -> Option<Message> {
    match *frame.first()? {
        TAG_SURVIVAL_BATCH_REPLY_C => {
            let mut survivals = Vec::new();
            let pruned = decode_survivals_into(frame, &mut survivals)?;
            Some(Message::SurvivalBatchReplyC { survivals, pruned })
        }
        TAG_FEEDBACK_BATCH_C => Some(Message::FeedbackBatchC(BatchView::parse(frame)?.to_block())),
        TAG_REPLICA_SYNC_C => Some(Message::ReplicaSyncC(BatchView::parse(frame)?.to_block())),
        TAG_REGION_REPLY_C => Some(Message::RegionReplyC(BatchView::parse(frame)?.to_block())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsud_uncertain::ProbeSet;

    fn sample_msgs(n: usize, dims: usize) -> Vec<TupleMsg> {
        (0..n)
            .map(|i| TupleMsg {
                id: TupleId::new(i as u32 % 5, 100 + i as u64),
                values: (0..dims).map(|d| (i * dims + d) as f64 * 0.5).collect(),
                prob: 0.5 + (i % 4) as f64 * 0.1,
                local_prob: 0.25 + (i % 3) as f64 * 0.1,
            })
            .collect()
    }

    #[test]
    fn block_roundtrips_rows() {
        for (n, dims) in [(0, 3), (1, 2), (7, 4), (33, 1)] {
            let msgs = sample_msgs(n, dims);
            let block = TupleBlock::from_msgs(&msgs);
            assert_eq!(block.len(), n);
            assert_eq!(block.to_msgs(), msgs);
        }
    }

    #[test]
    fn view_reads_every_section() {
        let msgs = sample_msgs(9, 3);
        let block = TupleBlock::from_msgs(&msgs);
        let mut buf = BytesMut::new();
        encode_block(TAG_FEEDBACK_BATCH_C, &block, &mut buf);
        assert_eq!(buf.len(), block_encoded_len(9, 3));
        let view = BatchView::parse(&buf).expect("valid frame");
        assert_eq!(view.len(), 9);
        assert_eq!(view.dims(), 3);
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(view.id(i), m.id);
            assert_eq!(view.prob(i).to_bits(), m.prob.to_bits());
            assert_eq!(view.local_prob(i).to_bits(), m.local_prob.to_bits());
            for d in 0..3 {
                assert_eq!(view.coord(d, i).to_bits(), m.values[d].to_bits());
            }
        }
        assert_eq!(view.to_msgs(), msgs);
        assert_eq!(view.to_block(), block);
        // The aligned-cast fast path and the per-element reads agree
        // whenever the cast applies.
        for d in 0..3 {
            if let Some(col) = view.col_f64(d) {
                for (i, &v) in col.iter().enumerate() {
                    assert_eq!(v.to_bits(), view.coord(d, i).to_bits());
                }
            }
        }
    }

    #[test]
    fn gather_rows_transposes_without_regrowth() {
        let msgs = sample_msgs(16, 4);
        let block = TupleBlock::from_msgs(&msgs);
        let mut buf = BytesMut::new();
        encode_block(TAG_FEEDBACK_BATCH_C, &block, &mut buf);
        let view = BatchView::parse(&buf).expect("valid frame");
        let mut rows = ProbeRows::default();
        view.gather_rows(&mut rows);
        assert_eq!(rows.len(), 16);
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(rows.probe(i), m.values.as_slice());
        }
        let warm = rows.footprint();
        view.gather_rows(&mut rows);
        assert_eq!(rows.footprint(), warm, "regather must reuse the buffer");
    }

    #[test]
    fn survival_reply_roundtrips_through_reusable_buffer() {
        let survivals = [0.5, 0.25, 1.0, 0.9375];
        let mut buf = BytesMut::new();
        encode_survivals(&survivals, 7, &mut buf);
        assert_eq!(buf.len(), survivals_encoded_len(4));
        let mut out = vec![9.9; 2];
        assert_eq!(decode_survivals_into(&buf, &mut out), Some(7));
        assert_eq!(out, survivals);
        // An offset (misaligned) copy decodes to the same factors via the
        // safe fallback.
        let mut shifted = vec![0u8; 1];
        shifted.extend_from_slice(&buf);
        assert_eq!(decode_survivals_into(&shifted[1..], &mut out), Some(7));
        assert_eq!(out, survivals);
    }

    #[test]
    fn malformed_headers_reject_without_panicking() {
        let block = TupleBlock::from_msgs(&sample_msgs(4, 2));
        let mut buf = BytesMut::new();
        encode_block(TAG_FEEDBACK_BATCH_C, &block, &mut buf);
        let good = buf.as_ref().to_vec();

        // Truncated header.
        assert!(BatchView::parse(&good[..HEADER_LEN - 1]).is_none());
        // Bad magic.
        let mut bad = good.clone();
        bad[1] = b'X';
        assert!(BatchView::parse(&bad).is_none());
        // Nonzero padding.
        let mut bad = good.clone();
        bad[12] = 1;
        assert!(BatchView::parse(&bad).is_none());
        // Row count inflated past the payload (wrong column lengths).
        let mut bad = good.clone();
        bad[4..8].copy_from_slice(&100u32.to_le_bytes());
        assert!(BatchView::parse(&bad).is_none());
        // Dimensionality beyond the SubspaceMask bound.
        let mut bad = good.clone();
        bad[8..10].copy_from_slice(&65u16.to_le_bytes());
        assert!(BatchView::parse(&bad).is_none());
        // Truncated / padded payloads.
        assert!(BatchView::parse(&good[..good.len() - 1]).is_none());
        let mut long = good.clone();
        long.push(0);
        assert!(BatchView::parse(&long).is_none());
        // A reply tag is not a tuple block, and vice versa.
        let mut reply = BytesMut::new();
        encode_survivals(&[1.0], 0, &mut reply);
        assert!(BatchView::parse(&reply).is_none());
        let mut out = Vec::new();
        assert!(decode_survivals_into(&good, &mut out).is_none());
    }
}
