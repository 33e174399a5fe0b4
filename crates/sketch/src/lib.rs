//! Mergeable synopses for the pre-query plan phase.
//!
//! Each site summarizes its *local* skyline-probability distribution in a
//! fixed-size [`SiteSketch`]: a log-bucket quantile sketch (UddSketch-style
//! geometric buckets over `(0, 1]`), a HyperLogLog distinct-tuple estimator,
//! and a small dominance-frequency count-min. All three structures share the
//! property the plan phase depends on: **merge is associative and
//! commutative** (bucket counts add, HLL registers take the max, count-min
//! cells add), so tree aggregators may legally combine child sketches before
//! forwarding — unlike survival-product folds, whose floating-point order the
//! root must own.
//!
//! Sketches only ever inform *scheduling* (batch caps, round shapes). They
//! never decide which tuples qualify, so a stale or lossy sketch can cost
//! frames but can never change an answer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bytes::{Buf, BufMut};
use serde::{Deserialize, Serialize};

/// Number of geometric probability buckets in [`QuantileSketch`].
pub const QUANTILE_BUCKETS: usize = 64;
/// Number of HyperLogLog registers in [`DistinctSketch`].
pub const HLL_REGISTERS: usize = 64;
/// Rows in [`CountMinSketch`] — one independent hash per row.
pub const CM_ROWS: usize = 4;
/// Columns per row in [`CountMinSketch`].
pub const CM_COLS: usize = 64;

/// Buckets per octave: bucket `i` covers probabilities in
/// `(2^-((i+1)/8), 2^-(i/8)]`, a relative-error guarantee of ~9% per
/// bucket, UddSketch-style.
const BUCKETS_PER_OCTAVE: f64 = 8.0;

/// SplitMix64 — the deterministic, dependency-free hash every sketch
/// shares. Identical on every site and every run, which is what keeps the
/// plan phase replayable.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Log-bucket quantile sketch over skyline probabilities in `(0, 1]`.
///
/// Insertions land in geometric buckets of the probability's base-2
/// logarithm; merge is element-wise addition of bucket counts, so any merge
/// order yields the same sketch.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuantileSketch {
    counts: [u64; QUANTILE_BUCKETS],
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self { counts: [0; QUANTILE_BUCKETS] }
    }
}

impl QuantileSketch {
    /// Bucket index for a probability. Values at or above 1.0 land in
    /// bucket 0; values at or below the smallest representable bucket
    /// (≈ 2⁻⁸) land in the last bucket, which doubles as the underflow bin.
    // `!(p > 0.0)` is deliberate: unlike `p <= 0.0` it is also true for
    // NaN, which must land in the underflow bin rather than index by
    // `log2(NaN)`.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn bucket(p: f64) -> usize {
        if !(p > 0.0) || p >= 1.0 {
            return if p >= 1.0 { 0 } else { QUANTILE_BUCKETS - 1 };
        }
        let idx = (-p.log2() * BUCKETS_PER_OCTAVE).floor() as usize;
        idx.min(QUANTILE_BUCKETS - 1)
    }

    /// Record one observation.
    pub fn insert(&mut self, p: f64) {
        self.counts[Self::bucket(p)] += 1;
    }

    /// Remove one observation previously inserted at the same probability.
    /// Saturates at zero so replayed deletes cannot underflow.
    pub fn remove(&mut self, p: f64) {
        let b = Self::bucket(p);
        self.counts[b] = self.counts[b].saturating_sub(1);
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Conservative (never-under) estimate of how many observations have
    /// probability ≥ `q`: every bucket wholly above `q` plus the bucket
    /// straddling it.
    pub fn count_at_least(&self, q: f64) -> u64 {
        let cutoff = Self::bucket(q);
        self.counts[..=cutoff].iter().sum()
    }

    /// Element-wise additive merge — associative and commutative.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
    }
}

/// HyperLogLog distinct-tuple estimator with 64 six-bit registers (stored
/// one per byte for a fixed, simple wire layout). Merge takes the
/// element-wise register maximum.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistinctSketch {
    registers: [u8; HLL_REGISTERS],
}

impl Default for DistinctSketch {
    fn default() -> Self {
        Self { registers: [0; HLL_REGISTERS] }
    }
}

impl DistinctSketch {
    /// Record one key (a tuple id).
    pub fn insert(&mut self, key: u64) {
        let h = splitmix64(key);
        let idx = (h >> 58) as usize; // top 6 bits pick the register
        let rank = ((h << 6) | 0x20).leading_zeros() as u8 + 1; // rank of the rest
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Standard HLL cardinality estimate with linear counting for the
    /// small-range correction.
    pub fn estimate(&self) -> f64 {
        let m = HLL_REGISTERS as f64;
        let raw_sum: f64 = self.registers.iter().map(|&r| 2f64.powi(-i32::from(r))).sum();
        let raw = 0.709 * m * m / raw_sum;
        let zeros = self.registers.iter().filter(|&&r| r == 0).count();
        if raw <= 2.5 * m && zeros > 0 {
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }

    /// Element-wise register maximum — associative, commutative, idempotent.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.registers.iter_mut().zip(other.registers.iter()) {
            *a = (*a).max(*b);
        }
    }
}

/// Count-min sketch over dominance frequencies: sites bump a key each time
/// a tuple participates in a dominance comparison outcome worth tracking
/// (here, each local-skyline survivor keyed by id). Merge is element-wise
/// addition, estimates are upper bounds.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CountMinSketch {
    rows: [[u32; CM_COLS]; CM_ROWS],
}

impl Default for CountMinSketch {
    fn default() -> Self {
        Self { rows: [[0; CM_COLS]; CM_ROWS] }
    }
}

impl CountMinSketch {
    fn col(row: usize, key: u64) -> usize {
        (splitmix64(key ^ ((row as u64 + 1) << 56)) % CM_COLS as u64) as usize
    }

    /// Add `count` occurrences of `key`.
    pub fn insert(&mut self, key: u64, count: u32) {
        for (r, row) in self.rows.iter_mut().enumerate() {
            let c = Self::col(r, key);
            row[c] = row[c].saturating_add(count);
        }
    }

    /// Upper-bound estimate of the count recorded for `key`.
    pub fn estimate(&self, key: u64) -> u32 {
        self.rows.iter().enumerate().map(|(r, row)| row[Self::col(r, key)]).min().unwrap_or(0)
    }

    /// Element-wise additive merge — associative and commutative.
    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.rows.iter_mut().zip(other.rows.iter()) {
            for (a, b) in mine.iter_mut().zip(theirs.iter()) {
                *a = a.saturating_add(*b);
            }
        }
    }
}

/// Magic word opening every encoded [`SiteSketch`] section.
pub const SKETCH_MAGIC: u16 = 0x5AD5;
/// Wire-format version of the sketch payload.
pub const SKETCH_VERSION: u8 = 1;

/// The composite synopsis one site ships in its single plan-phase frame.
///
/// `tuples` counts live local-skyline observations and `deletes` counts
/// tombstones applied through the §5.4 maintenance path; both are plain
/// sums under merge, so the aggregate sketch of a subtree is exactly the
/// sketch the subtree's sites would have produced together.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SiteSketch {
    /// Distribution of local skyline probabilities.
    pub quantile: QuantileSketch,
    /// Distinct tuple ids observed in local skylines.
    pub distinct: DistinctSketch,
    /// Dominance-frequency heavy-hitter counts keyed by tuple id.
    pub dominance: CountMinSketch,
    /// Live observations summarized (inserts minus nothing — deletes are
    /// tracked separately as tombstones).
    pub tuples: u64,
    /// Tombstones applied via maintenance since the sketch was built.
    pub deletes: u64,
}

impl SiteSketch {
    /// Record one local-skyline entry: id into the distinct and dominance
    /// sketches, probability into the quantile sketch.
    pub fn record(&mut self, id: u64, probability: f64) {
        self.quantile.insert(probability);
        self.distinct.insert(id);
        self.dominance.insert(id, 1);
        self.tuples += 1;
    }

    /// Apply a maintenance delete: the quantile bucket count drops and a
    /// tombstone is noted (HLL and count-min cannot unsee the id, which
    /// only makes downstream plans conservative, never wrong).
    pub fn forget(&mut self, probability: f64) {
        self.quantile.remove(probability);
        self.tuples = self.tuples.saturating_sub(1);
        self.deletes += 1;
    }

    /// Associative, commutative merge of two sketches.
    pub fn merge(&mut self, other: &Self) {
        self.quantile.merge(&other.quantile);
        self.distinct.merge(&other.distinct);
        self.dominance.merge(&other.dominance);
        self.tuples = self.tuples.saturating_add(other.tuples);
        self.deletes = self.deletes.saturating_add(other.deletes);
    }

    /// Conservative count of summarized tuples with probability ≥ `q`.
    pub fn count_at_least(&self, q: f64) -> u64 {
        self.quantile.count_at_least(q)
    }

    /// Exact encoded size in bytes: magic + version + counters + the three
    /// fixed-width sections.
    pub const fn encoded_len() -> usize {
        2 + 1 // magic + version
            + 8 + 8 // tuples + deletes
            + QUANTILE_BUCKETS * 8
            + HLL_REGISTERS
            + CM_ROWS * CM_COLS * 4
    }

    /// Serialize into `buf` — always exactly [`Self::encoded_len`] bytes.
    pub fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u16(SKETCH_MAGIC);
        buf.put_u8(SKETCH_VERSION);
        buf.put_u64(self.tuples);
        buf.put_u64(self.deletes);
        for &c in &self.quantile.counts {
            buf.put_u64(c);
        }
        buf.put_slice(&self.distinct.registers);
        for row in &self.dominance.rows {
            for &cell in row.iter() {
                buf.put_u32(cell);
            }
        }
    }

    /// Decode one sketch from the front of `buf`, consuming exactly
    /// [`Self::encoded_len`] bytes. Returns `None` on a short buffer, a
    /// wrong magic, or an unknown version — the caller treats the frame as
    /// malformed and falls back to static planning.
    pub fn decode(buf: &mut &[u8]) -> Option<Self> {
        if buf.remaining() < Self::encoded_len() {
            return None;
        }
        if buf.get_u16() != SKETCH_MAGIC || buf.get_u8() != SKETCH_VERSION {
            return None;
        }
        let tuples = buf.get_u64();
        let deletes = buf.get_u64();
        let mut quantile = QuantileSketch::default();
        for c in quantile.counts.iter_mut() {
            *c = buf.get_u64();
        }
        let mut distinct = DistinctSketch::default();
        for r in distinct.registers.iter_mut() {
            *r = buf.get_u8();
        }
        let mut dominance = CountMinSketch::default();
        for row in dominance.rows.iter_mut() {
            for cell in row.iter_mut() {
                *cell = buf.get_u32();
            }
        }
        Some(Self { quantile, distinct, dominance, tuples, deletes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64, n: u64) -> SiteSketch {
        let mut s = SiteSketch::default();
        for i in 0..n {
            let h = splitmix64(seed.wrapping_mul(1000) + i);
            let p = (h % 1000) as f64 / 1000.0;
            s.record(seed * 10_000 + i, p);
        }
        s
    }

    #[test]
    fn quantile_count_at_least_never_undercounts() {
        let mut qs = QuantileSketch::default();
        let probs: Vec<f64> = (1..=200).map(|i| f64::from(i) / 200.0).collect();
        for &p in &probs {
            qs.insert(p);
        }
        for q in [0.05, 0.1, 0.3, 0.5, 0.9, 1.0] {
            let exact = probs.iter().filter(|&&p| p >= q).count() as u64;
            assert!(
                qs.count_at_least(q) >= exact,
                "q={q}: sketch said {} but {} qualify",
                qs.count_at_least(q),
                exact
            );
        }
        assert_eq!(qs.total(), 200);
    }

    #[test]
    fn quantile_handles_degenerate_probabilities() {
        let mut qs = QuantileSketch::default();
        qs.insert(0.0);
        qs.insert(-1.0);
        qs.insert(f64::NAN);
        qs.insert(1.0);
        qs.insert(2.0);
        assert_eq!(qs.total(), 5);
        assert_eq!(qs.count_at_least(1.0), 2, "only the >=1.0 inserts sit in bucket 0");
    }

    #[test]
    fn quantile_remove_reverses_insert_and_saturates() {
        let mut qs = QuantileSketch::default();
        qs.insert(0.42);
        qs.remove(0.42);
        assert_eq!(qs, QuantileSketch::default());
        qs.remove(0.42); // already empty — must not underflow
        assert_eq!(qs.total(), 0);
    }

    #[test]
    fn distinct_estimate_is_in_the_ballpark() {
        let mut hll = DistinctSketch::default();
        for id in 0..5_000u64 {
            hll.insert(id);
            hll.insert(id); // duplicates must not move the estimate
        }
        let est = hll.estimate();
        assert!((2_500.0..=10_000.0).contains(&est), "5000 distinct keys estimated as {est}");
    }

    #[test]
    fn count_min_never_underestimates() {
        let mut cm = CountMinSketch::default();
        for key in 0..300u64 {
            cm.insert(key, (key % 7) as u32 + 1);
        }
        for key in 0..300u64 {
            assert!(cm.estimate(key) > (key % 7) as u32, "key {key}");
        }
        assert_eq!(cm.estimate(999_999), cm.estimate(999_999)); // deterministic
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let (a, b, c) = (sample(1, 50), sample(2, 80), sample(3, 30));

        // (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c)
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "merge must be associative");

        // a ⊔ b == b ⊔ a
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");

        assert_eq!(left.tuples, 160);
        assert!(left.count_at_least(0.3) >= a.count_at_least(0.3));
    }

    #[test]
    fn encode_decode_roundtrips_exactly() {
        let sketch = sample(7, 120);
        let mut raw = bytes::BytesMut::new();
        sketch.encode(&mut raw);
        let buf = raw.to_vec();
        assert_eq!(buf.len(), SiteSketch::encoded_len());
        let mut slice = buf.as_slice();
        let decoded = SiteSketch::decode(&mut slice).expect("well-formed sketch decodes");
        assert!(slice.is_empty(), "decode must consume exactly encoded_len bytes");
        assert_eq!(decoded, sketch);
    }

    #[test]
    fn malformed_sketches_decode_to_none() {
        let sketch = sample(9, 40);
        let mut raw = bytes::BytesMut::new();
        sketch.encode(&mut raw);
        let buf = raw.to_vec();

        // Truncation at every section boundary (and a few interior cuts).
        for cut in [0, 1, 2, 3, 10, 19, 19 + 512, 19 + 512 + 64, buf.len() - 1] {
            let mut slice = &buf[..cut];
            assert!(SiteSketch::decode(&mut slice).is_none(), "truncated at {cut}");
        }

        // Corrupted magic and unknown version.
        for (at, label) in [(0, "magic"), (2, "version")] {
            let mut bad = buf.clone();
            bad[at] ^= 0xFF;
            let mut slice = bad.as_slice();
            assert!(SiteSketch::decode(&mut slice).is_none(), "corrupted {label}");
        }
    }

    #[test]
    fn forget_tracks_tombstones_conservatively() {
        let mut s = SiteSketch::default();
        s.record(1, 0.8);
        s.record(2, 0.6);
        s.forget(0.6);
        assert_eq!(s.tuples, 1);
        assert_eq!(s.deletes, 1);
        assert_eq!(s.count_at_least(0.7), 1);
        assert!(s.distinct.estimate() >= 1.0, "HLL never forgets — only conservative");
    }
}
