//! Probabilistic R-tree (PR-tree) for uncertain skyline computation.
//!
//! Implements the index structure of the paper's Section 6 (Fig. 5): an
//! R-tree whose entries are annotated with the minimum (`P1`) and maximum
//! (`P2`) existential probabilities of the tuples beneath them. On top of
//! the paper's annotations, every entry also carries the *survival product*
//! `∏ (1 − P(t))` of its subtree, which lets window queries compute the
//! exact local skyline probability of a point (Section 6.3, Fig. 6) while
//! visiting only nodes that straddle the window boundary.
//!
//! Two query procedures are provided:
//!
//! * [`PrTree::survival_product`] — the dominator-window product used to
//!   answer "what is the local skyline probability of a foreign tuple
//!   against this database" (global-phase computation, Section 6.3);
//! * [`bbs::local_skyline`] — a Branch-and-Bound Skyline traversal
//!   (Papadias et al., adapted in Section 6.2) that extracts all tuples
//!   whose *local* skyline probability is at least the query threshold `q`.
//!
//! # Example
//!
//! ```
//! use dsud_prtree::PrTree;
//! use dsud_uncertain::{Probability, SubspaceMask, TupleId, UncertainTuple};
//!
//! # fn main() -> Result<(), dsud_prtree::Error> {
//! let tuples = vec![
//!     UncertainTuple::new(TupleId::new(0, 0), vec![6.0, 6.0], Probability::new(0.7).unwrap()).unwrap(),
//!     UncertainTuple::new(TupleId::new(0, 1), vec![8.0, 4.0], Probability::new(0.8).unwrap()).unwrap(),
//!     UncertainTuple::new(TupleId::new(0, 2), vec![9.0, 9.0], Probability::new(0.9).unwrap()).unwrap(),
//! ];
//! let tree = PrTree::bulk_load(2, tuples)?;
//! let full = SubspaceMask::full(2).unwrap();
//! // (9,9) is dominated by (6,6) and (8,4): survival = 0.3 × 0.2.
//! let s = tree.survival_product(&[9.0, 9.0], full);
//! assert!((s - 0.06).abs() < 1e-12);
//!
//! let sky = dsud_prtree::bbs::local_skyline(&tree, 0.3, full)?;
//! assert_eq!(sky.len(), 2); // (6,6): 0.7 and (8,4): 0.8 qualify; (9,9): 0.054 does not.
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bbs;
mod error;
mod mbr;
mod node;
mod tree;

pub use bbs::BbsScratch;
pub use error::Error;
pub use mbr::Mbr;
pub use node::Summary;
pub use tree::{MultiProbeScratch, PrTree, COVER_RUN, DEFAULT_MAX_ENTRIES};
