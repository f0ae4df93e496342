//! Column-major (Fortran-order) multidimensional arrays.
//!
//! The FortWrap→SWIG path of §III.B exists so Swift scripts can hand
//! Fortran codes the multidimensional arrays they expect. A Fortran array
//! is column-major: the *first* index varies fastest in memory. The blob
//! encoding is self-describing (`ndims`, dims, payload) so an array created
//! by one task can be decoded by a task written in another language.

use crate::blob::{Blob, BlobError};

/// A dense column-major `f64` array of arbitrary rank.
#[derive(Debug, Clone, PartialEq)]
pub struct FortranArray {
    dims: Vec<usize>,
    data: Vec<f64>,
}

impl FortranArray {
    /// A zero-filled array with the given dimensions.
    ///
    /// # Panics
    /// Panics if `dims` is empty or any dimension is zero.
    pub fn zeros(dims: &[usize]) -> Self {
        assert!(!dims.is_empty(), "array must have at least one dimension");
        assert!(dims.iter().all(|&d| d > 0), "dimensions must be positive");
        let n = dims.iter().product();
        FortranArray {
            dims: dims.to_vec(),
            data: vec![0.0; n],
        }
    }

    /// Build from existing data (must match the product of `dims`).
    pub fn from_data(dims: &[usize], data: Vec<f64>) -> Result<Self, BlobError> {
        let n: usize = dims.iter().product();
        if dims.is_empty() || data.len() != n {
            return Err(BlobError::new(format!(
                "data length {} does not match dims {:?}",
                data.len(),
                dims
            )));
        }
        Ok(FortranArray {
            dims: dims.to_vec(),
            data,
        })
    }

    /// Array rank.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the array holds no elements (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat column-major storage.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Column-major flat offset of a multi-index.
    pub fn offset(&self, idx: &[usize]) -> Result<usize, BlobError> {
        if idx.len() != self.dims.len() {
            return Err(BlobError::new(format!(
                "index rank {} does not match array rank {}",
                idx.len(),
                self.dims.len()
            )));
        }
        let mut off = 0usize;
        let mut stride = 1usize;
        for (k, (&i, &d)) in idx.iter().zip(&self.dims).enumerate() {
            if i >= d {
                return Err(BlobError::new(format!(
                    "index {i} out of bounds for dimension {k} of size {d}"
                )));
            }
            off += i * stride;
            stride *= d;
        }
        Ok(off)
    }

    /// Read an element.
    pub fn get(&self, idx: &[usize]) -> Result<f64, BlobError> {
        Ok(self.data[self.offset(idx)?])
    }

    /// Write an element.
    pub fn set(&mut self, idx: &[usize], v: f64) -> Result<(), BlobError> {
        let off = self.offset(idx)?;
        self.data[off] = v;
        Ok(())
    }

    /// Encode: `u32 ndims, u32 dims..., f64 data...` (little-endian).
    pub fn to_blob(&self) -> Blob {
        let mut bytes = Vec::with_capacity(4 + 4 * self.dims.len() + 8 * self.data.len());
        bytes.extend_from_slice(&(self.dims.len() as u32).to_le_bytes());
        for &d in &self.dims {
            bytes.extend_from_slice(&(d as u32).to_le_bytes());
        }
        for v in &self.data {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        Blob::from_bytes(bytes)
    }

    /// Decode the [`FortranArray::to_blob`] encoding.
    pub fn from_blob(blob: &Blob) -> Result<Self, BlobError> {
        let b = blob.as_bytes();
        let words = b.as_chunks::<4>().0;
        let ndims = words
            .first()
            .map(|w| u32::from_le_bytes(*w) as usize)
            .ok_or_else(|| BlobError::new("blob too short for array header"))?;
        if ndims == 0 || ndims > 16 {
            return Err(BlobError::new(format!("implausible rank {ndims}")));
        }
        let dims: Vec<usize> = words
            .get(1..=ndims)
            .ok_or_else(|| BlobError::new("blob too short for dims"))?
            .iter()
            .map(|w| u32::from_le_bytes(*w) as usize)
            .collect();
        let payload = b.get(4 + 4 * ndims..).unwrap_or_default();
        let n = dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
        if n.and_then(|n| n.checked_mul(8)) != Some(payload.len()) {
            return Err(BlobError::new(format!(
                "payload length {} does not match dims {:?}",
                payload.len(),
                dims
            )));
        }
        let (elems, _) = payload.as_chunks::<8>();
        FortranArray::from_data(
            &dims,
            elems.iter().map(|e| f64::from_le_bytes(*e)).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn column_major_layout() {
        // A 2x3 array: memory order is (0,0),(1,0),(0,1),(1,1),(0,2),(1,2).
        let mut a = FortranArray::zeros(&[2, 3]);
        a.set(&[0, 0], 1.0).unwrap();
        a.set(&[1, 0], 2.0).unwrap();
        a.set(&[0, 1], 3.0).unwrap();
        a.set(&[1, 2], 6.0).unwrap();
        assert_eq!(a.data()[0], 1.0);
        assert_eq!(a.data()[1], 2.0);
        assert_eq!(a.data()[2], 3.0);
        assert_eq!(a.data()[5], 6.0);
    }

    #[test]
    fn bounds_checked() {
        let a = FortranArray::zeros(&[2, 2]);
        assert!(a.get(&[2, 0]).is_err());
        assert!(a.get(&[0]).is_err());
        assert!(a.get(&[0, 0, 0]).is_err());
    }

    #[test]
    fn rank_three_offsets() {
        let a = FortranArray::zeros(&[3, 4, 5]);
        assert_eq!(a.offset(&[0, 0, 0]).unwrap(), 0);
        assert_eq!(a.offset(&[1, 0, 0]).unwrap(), 1);
        assert_eq!(a.offset(&[0, 1, 0]).unwrap(), 3);
        assert_eq!(a.offset(&[0, 0, 1]).unwrap(), 12);
        assert_eq!(a.offset(&[2, 3, 4]).unwrap(), 2 + 3 * 3 + 4 * 12);
    }

    #[test]
    fn blob_round_trip() {
        let mut a = FortranArray::zeros(&[4, 3]);
        for i in 0..4 {
            for j in 0..3 {
                a.set(&[i, j], (i * 10 + j) as f64).unwrap();
            }
        }
        let b = a.to_blob();
        let back = FortranArray::from_blob(&b).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn corrupt_blob_rejected() {
        let a = FortranArray::zeros(&[2, 2]);
        let mut bytes = a.to_blob().as_bytes().to_vec();
        bytes.truncate(bytes.len() - 1);
        assert!(FortranArray::from_blob(&Blob::from_bytes(bytes)).is_err());
        assert!(FortranArray::from_blob(&Blob::from_bytes(vec![9, 0, 0, 0])).is_err());
    }

    proptest! {
        #[test]
        fn round_trips_any_shape(
            d1 in 1usize..6,
            d2 in 1usize..6,
            d3 in 1usize..4,
            seed in any::<u64>()
        ) {
            let n = d1 * d2 * d3;
            let mut x = seed | 1;
            let data: Vec<f64> = (0..n).map(|_| {
                x ^= x << 13; x ^= x >> 7; x ^= x << 17;
                (x % 1000) as f64 / 7.0
            }).collect();
            let a = FortranArray::from_data(&[d1, d2, d3], data).unwrap();
            let back = FortranArray::from_blob(&a.to_blob()).unwrap();
            prop_assert_eq!(back, a);
        }
    }
}
