//! Per-site dominance covers: what lets the coordinator prove, without a
//! frame, that a site holds no dominator of a candidate.
//!
//! A [`Cover`] of a site is a set of points such that every tuple the site
//! stores is *weakly* dominated by one of them (no greater on any
//! dimension). If a corner `c ≤ t` and `t` dominates a candidate `p` on a
//! subspace, then `c` dominates `p` there too: `c ≤ t ≤ p` on every masked
//! dimension, and `c ≤ t < p` on the one where `t` is strictly better. So
//! when no cover point dominates `p`, the site holds no dominator of `p`,
//! and its survival factor for `p` — the product over an empty set — is
//! exactly `1.0`.
//!
//! Sites answer [`crate::Message::CoverRequest`] with the lower corners of
//! runs of consecutive tuples in their index leaves (`dsud-prtree`'s
//! `PrTree::dominance_cover`); the coordinator keeps one cover per site for
//! the life of the deployment in its [`crate::Routes`], plus the point of
//! every tuple it inserts there. Deleting an inserted tuple takes its point
//! back out; deleting an original tuple leaves the corners alone — a stale
//! corner only proves less.

use serde::{Deserialize, Serialize};

use dsud_uncertain::{dominates_in, SubspaceMask};

/// A site's dominance cover: `len()` points of `dims()` coordinates each,
/// stored row-major.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cover {
    dims: usize,
    points: Vec<f64>,
}

impl Cover {
    /// A cover over `points`, `dims` coordinates per point, row-major.
    ///
    /// # Panics
    ///
    /// Panics when `dims` is zero or `points` is not a whole number of
    /// rows.
    pub fn new(dims: usize, points: Vec<f64>) -> Self {
        assert!(dims > 0, "a cover point has at least one coordinate");
        assert_eq!(points.len() % dims, 0, "cover points are whole rows");
        Cover { dims, points }
    }

    /// Coordinates per point.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len() / self.dims
    }

    /// Whether the cover has no point (its site stores nothing).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The points, row-major.
    pub fn points(&self) -> &[f64] {
        &self.points
    }

    /// Whether some cover point dominates `point` on `mask` — `false`
    /// proves the site holds no dominator of `point` there. A point of
    /// another dimensionality is never proved free of dominators.
    pub fn dominates(&self, point: &[f64], mask: SubspaceMask) -> bool {
        point.len() != self.dims
            || self.points.chunks_exact(self.dims).any(|c| dominates_in(c, point, mask))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(d: usize) -> SubspaceMask {
        SubspaceMask::full(d).unwrap()
    }

    #[test]
    fn dominance_is_strict_and_respects_the_mask() {
        let cover = Cover::new(2, vec![1.0, 5.0, 4.0, 2.0]);
        assert_eq!(cover.len(), 2);
        assert!(cover.dominates(&[2.0, 6.0], full(2)));
        // Equal to a corner: no strict improvement, no dominance.
        assert!(!cover.dominates(&[1.0, 5.0], full(2)));
        assert!(!cover.dominates(&[0.5, 9.0], full(2)));
        // On dimension 1 alone, (4, 2) dominates anything above 2.
        let second = SubspaceMask::from_dims(&[1]).unwrap();
        assert!(cover.dominates(&[0.5, 9.0], second));
        assert!(!Cover::new(1, Vec::new()).dominates(&[0.0], full(1)));
    }

    #[test]
    fn points_of_another_dimensionality_are_never_proved() {
        let cover = Cover::new(2, vec![5.0, 5.0]);
        assert!(cover.dominates(&[0.0], full(1)));
        assert!(cover.dominates(&[0.0, 0.0, 0.0], full(3)));
    }
}
