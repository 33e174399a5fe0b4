//! Seeded workload data and the correctness reference.
//!
//! The generator lives here, not in the system under test, so a change to
//! the program can never change the benchmark's inputs.

use dsud_core::{baseline, BandwidthMeter, SkylineEntry, SubspaceMask};
use dsud_uncertain::{Probability, TupleId, UncertainTuple};

/// Absolute tolerance on a skyline probability when an answer is compared
/// with the reference. Every probability is a product of at most N
/// factors in `[0, 1]`; reordering those products moves the result by a
/// few ulps, far below this bound.
pub const PROB_TOLERANCE: f64 = 1e-9;

/// SplitMix64: small, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x005e_ed0f_be4c_4a11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        mean + sd * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dist {
    Independent,
    Anticorrelated,
    /// Independent data in `k` equal blocks laid along the anti-diagonal of
    /// dimensions 0 and 1: block `b` spans `[b/k, (b+1)/k)` in dimension 0
    /// and `[(k-1-b)/k, (k-b)/k)` in dimension 1. No tuple of one block
    /// dominates one of another in any subspace holding both dimensions,
    /// so the answer is the union of `k` independent blocks' answers and
    /// its size varies far less from seed to seed than one block's.
    IndependentBlocks(usize),
}

/// One tuple's attribute values (smaller is better on every dimension)
/// and existential probability in `(0, 1]`.
pub type Row = (Vec<f64>, f64);

pub fn row(dist: Dist, dims: usize, rng: &mut Rng) -> Row {
    let values = match dist {
        Dist::Independent => (0..dims).map(|_| rng.unit()).collect(),
        Dist::IndependentBlocks(k) => {
            let b = rng.below(k) as f64;
            let mut v: Vec<f64> = (0..dims).map(|_| rng.unit()).collect();
            v[0] = (b + v[0]) / k as f64;
            v[1] = (k as f64 - 1.0 - b + v[1]) / k as f64;
            v
        }
        // Points spread along the hyperplane `sum = dims * c` with `c`
        // concentrated around 0.5: good in one dimension means bad in
        // another, so local skylines are large.
        Dist::Anticorrelated => loop {
            let c = rng.normal(0.5, 0.06);
            let u: Vec<f64> = (0..dims).map(|_| rng.unit() * 2.0 - 1.0).collect();
            let mean = u.iter().sum::<f64>() / dims as f64;
            let v: Vec<f64> = u.iter().map(|x| c + (x - mean) * 0.5).collect();
            if v.iter().all(|x| (0.0..1.0).contains(x)) {
                break v;
            }
        },
    };
    (values, 1.0 - rng.unit())
}

pub fn rows(dist: Dist, dims: usize, n: usize, seed: u64) -> Vec<Row> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| row(dist, dims, &mut rng)).collect()
}

pub fn tuple(site: u32, seq: u64, (values, p): &Row) -> UncertainTuple {
    let prob = Probability::new(*p).expect("generated probabilities lie in (0, 1]");
    UncertainTuple::new(TupleId::new(site, seq), values.clone(), prob)
        .expect("generated rows are valid tuples")
}

/// Uniform random assignment into `m` equal-sized sites (the paper's
/// horizontal partitioning), ids `(site, seq)`.
pub fn partition(rows: &[Row], m: usize, seed: u64) -> Vec<Vec<UncertainTuple>> {
    let mut order: Vec<usize> = (0..rows.len()).collect();
    let mut rng = Rng::new(seed ^ 0x9a27);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut sites: Vec<Vec<UncertainTuple>> = vec![Vec::new(); m];
    for (k, &i) in order.iter().enumerate() {
        let site = k % m;
        let seq = sites[site].len() as u64;
        sites[site].push(tuple(site as u32, seq, &rows[i]));
    }
    sites
}

/// One reference answer entry: attribute values and global skyline
/// probability. Answers are matched by values, which are unique in
/// generated data, because the daemon assigns its own tuple ids.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub values: Vec<f64>,
    pub prob: f64,
}

/// Reference answers for every distinct `(q, subspace)` of a workload,
/// from the centralized baseline over the same data. Probabilities do not
/// depend on `q`, so one baseline run per subspace at the smallest `q`
/// covers every threshold. Each reference probability is then recomputed
/// independently by a direct Eq. 3 scan.
pub struct Reference {
    by_mask: Vec<(u64, Vec<Expected>)>,
}

impl Reference {
    pub fn compute(
        sites: &[Vec<UncertainTuple>],
        dims: usize,
        keys: &[(f64, SubspaceMask)],
    ) -> Result<Self, String> {
        let all: Vec<&UncertainTuple> = sites.iter().flatten().collect();
        let mut by_mask: Vec<(u64, Vec<Expected>)> = Vec::new();
        for &(_, mask) in keys {
            if by_mask.iter().any(|(bits, _)| *bits == mask.bits()) {
                continue;
            }
            let q_min = keys
                .iter()
                .filter(|(_, m)| m.bits() == mask.bits())
                .map(|(q, _)| *q)
                .fold(1.0, f64::min);
            let outcome = baseline::run(sites, dims, q_min, mask, &BandwidthMeter::new())
                .map_err(|e| format!("baseline failed: {e}"))?;
            let mut expected = Vec::with_capacity(outcome.skyline.len());
            for e in &outcome.skyline {
                let direct = eq3(&all, &e.tuple, mask);
                if (direct - e.probability).abs() > PROB_TOLERANCE {
                    return Err(format!(
                        "baseline probability {} of {:?} disagrees with Eq. 3 ({direct})",
                        e.probability,
                        e.tuple.id()
                    ));
                }
                expected.push(Expected { values: e.tuple.values().to_vec(), prob: e.probability });
            }
            by_mask.push((mask.bits(), expected));
        }
        Ok(Reference { by_mask })
    }

    /// The expected answer of `(q, mask)`.
    pub fn answer(&self, q: f64, mask: SubspaceMask) -> Vec<&Expected> {
        self.by_mask
            .iter()
            .find(|(bits, _)| *bits == mask.bits())
            .map(|(_, all)| all.iter().filter(|e| e.prob >= q).collect())
            .unwrap_or_default()
    }
}

/// Eq. 3 by direct scan: `P(t) * prod over t' dominating t of (1 - P(t'))`.
fn eq3(all: &[&UncertainTuple], t: &UncertainTuple, mask: SubspaceMask) -> f64 {
    let dims: Vec<usize> = mask.dims().collect();
    let tv = t.values();
    let mut p = t.prob().get();
    for other in all {
        let ov = other.values();
        let mut strictly = false;
        let mut dominated = true;
        for &d in &dims {
            if ov[d] > tv[d] {
                dominated = false;
                break;
            }
            strictly |= ov[d] < tv[d];
        }
        if dominated && strictly {
            p *= 1.0 - other.prob().get();
        }
    }
    p
}

/// Compares an answer, given as `(values, probability)` entries, with the
/// reference.
pub fn check(answer: &[(&[f64], f64)], expected: &[&Expected]) -> Result<(), String> {
    if answer.len() != expected.len() {
        return Err(format!("{} tuples returned, reference has {}", answer.len(), expected.len()));
    }
    for (values, prob) in answer {
        match expected.iter().find(|e| e.values.as_slice() == *values) {
            Some(e) if (e.prob - prob).abs() <= PROB_TOLERANCE => {}
            Some(e) => {
                return Err(format!("probability {prob} for {values:?}, reference {}", e.prob))
            }
            None => return Err(format!("{values:?} is not in the reference answer")),
        }
    }
    Ok(())
}

/// `check` for an in-process outcome's skyline.
pub fn check_entries(skyline: &[SkylineEntry], expected: &[&Expected]) -> Result<(), String> {
    let answer: Vec<(&[f64], f64)> =
        skyline.iter().map(|e| (e.tuple.values(), e.probability)).collect();
    check(&answer, expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_seeded() {
        assert_eq!(rows(Dist::Anticorrelated, 4, 50, 3), rows(Dist::Anticorrelated, 4, 50, 3));
        assert_ne!(rows(Dist::Independent, 3, 50, 3), rows(Dist::Independent, 3, 50, 4));
    }

    #[test]
    fn partition_is_balanced_and_labelled() {
        let data = rows(Dist::Independent, 2, 103, 1);
        let sites = partition(&data, 4, 1);
        assert_eq!(sites.iter().map(Vec::len).sum::<usize>(), 103);
        for (i, site) in sites.iter().enumerate() {
            assert!(site.len() == 25 || site.len() == 26);
            assert!(site.iter().all(|t| t.id().site.0 == i as u32));
        }
    }

    #[test]
    fn reference_matches_a_hand_computed_answer() {
        let data: Vec<Row> =
            vec![(vec![80.0, 96.0], 0.8), (vec![85.0, 90.0], 0.6), (vec![75.0, 95.0], 0.8)];
        let sites = vec![data.iter().enumerate().map(|(i, r)| tuple(0, i as u64, r)).collect()];
        let full = SubspaceMask::full(2).unwrap();
        let reference = Reference::compute(&sites, 2, &[(0.3, full)]).unwrap();
        let answer = reference.answer(0.3, full);
        assert_eq!(answer.len(), 2);
        assert!((answer[0].prob - 0.8).abs() < 1e-12);
        assert!((answer[1].prob - 0.6).abs() < 1e-12);
    }
}
