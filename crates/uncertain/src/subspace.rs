use std::fmt;

use serde::{Deserialize, Serialize};

use crate::Error;

/// A subset of the attribute dimensions, used for subspace skyline queries.
///
/// Section 4 of the paper notes that the DSUD framework extends to any
/// pre-specified subset of `k <= d` attributes simply by checking dominance
/// only on those dimensions. `SubspaceMask` is that subset, represented as a
/// bitmask over dimension indices.
///
/// # Example
///
/// ```
/// use dsud_uncertain::SubspaceMask;
///
/// # fn main() -> Result<(), dsud_uncertain::Error> {
/// let full = SubspaceMask::full(4)?;
/// assert_eq!(full.len(), 4);
///
/// let price_only = SubspaceMask::from_dims(&[0])?;
/// assert!(price_only.contains(0));
/// assert!(!price_only.contains(1));
/// assert_eq!(price_only.dims().collect::<Vec<_>>(), vec![0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SubspaceMask(u64);

impl SubspaceMask {
    /// Maximum number of dimensions a mask can address.
    pub const MAX_DIMS: usize = 64;

    /// The full space of a `d`-dimensional database.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDimensionality`] if `d` is zero or exceeds
    /// [`SubspaceMask::MAX_DIMS`].
    pub fn full(d: usize) -> Result<Self, Error> {
        if d == 0 || d > Self::MAX_DIMS {
            return Err(Error::InvalidDimensionality(d));
        }
        if d == Self::MAX_DIMS {
            Ok(SubspaceMask(u64::MAX))
        } else {
            Ok(SubspaceMask((1u64 << d) - 1))
        }
    }

    /// A subspace selecting exactly the given dimension indices.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDimensionality`] if `dims` is empty or any
    /// index is at least [`SubspaceMask::MAX_DIMS`].
    pub fn from_dims(dims: &[usize]) -> Result<Self, Error> {
        if dims.is_empty() {
            return Err(Error::InvalidDimensionality(0));
        }
        let mut bits = 0u64;
        for &d in dims {
            if d >= Self::MAX_DIMS {
                return Err(Error::InvalidDimensionality(d));
            }
            bits |= 1u64 << d;
        }
        Ok(SubspaceMask(bits))
    }

    /// Whether dimension `dim` belongs to the subspace.
    pub fn contains(self, dim: usize) -> bool {
        dim < Self::MAX_DIMS && self.0 & (1u64 << dim) != 0
    }

    /// Number of selected dimensions.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the mask selects no dimension. Masks constructed through the
    /// public API are never empty; this exists for defensive checks.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over the selected dimension indices in ascending order,
    /// visiting only the set bits.
    pub fn dims(self) -> impl Iterator<Item = usize> {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let dim = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                dim
            })
        })
    }

    /// Highest selected dimension index, if any.
    pub fn max_dim(self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            Some(Self::MAX_DIMS - 1 - self.0.leading_zeros() as usize)
        }
    }

    /// Raw bit representation (bit `i` set ⇔ dimension `i` selected), for
    /// wire encodings.
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Reconstructs a mask from its [`SubspaceMask::bits`] representation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDimensionality`] if `bits` is zero (an empty
    /// subspace is never valid).
    pub fn try_from_bits(bits: u64) -> Result<Self, Error> {
        if bits == 0 {
            return Err(Error::InvalidDimensionality(0));
        }
        Ok(SubspaceMask(bits))
    }

    /// Validates that the mask fits a `dims`-dimensional space.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidSubspace`] if a selected dimension index is
    /// `>= dims`.
    pub fn validate_for(self, dims: usize) -> Result<(), Error> {
        match self.max_dim() {
            Some(max) if max >= dims => Err(Error::InvalidSubspace { dims, selected: max }),
            _ => Ok(()),
        }
    }
}

impl fmt::Display for SubspaceMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, d) in self.dims().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_selects_all_dims() {
        let m = SubspaceMask::full(3).unwrap();
        assert_eq!(m.len(), 3);
        assert_eq!(m.dims().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(m.max_dim(), Some(2));
    }

    #[test]
    fn full_supports_max_dims() {
        let m = SubspaceMask::full(SubspaceMask::MAX_DIMS).unwrap();
        assert_eq!(m.len(), 64);
        assert_eq!(m.max_dim(), Some(63));
    }

    #[test]
    fn rejects_zero_and_oversized() {
        assert!(SubspaceMask::full(0).is_err());
        assert!(SubspaceMask::full(65).is_err());
        assert!(SubspaceMask::from_dims(&[]).is_err());
        assert!(SubspaceMask::from_dims(&[64]).is_err());
    }

    #[test]
    fn from_dims_deduplicates() {
        let m = SubspaceMask::from_dims(&[1, 1, 3]).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.dims().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn validate_for_rejects_out_of_space() {
        let m = SubspaceMask::from_dims(&[0, 4]).unwrap();
        assert!(m.validate_for(5).is_ok());
        assert_eq!(m.validate_for(3), Err(Error::InvalidSubspace { dims: 3, selected: 4 }));
    }

    #[test]
    fn display_lists_dims() {
        let m = SubspaceMask::from_dims(&[0, 2]).unwrap();
        assert_eq!(m.to_string(), "{0,2}");
    }
}
