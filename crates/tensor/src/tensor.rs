use crate::{Result, TensorError};
use rand::Rng;

/// A dense, contiguous, row-major `f32` tensor.
///
/// Activation tensors use NCHW order `[batch, channels, height, width]`;
/// weight tensors of a convolution use `[out_c, in_c, kh, kw]`; matrices are
/// `[rows, cols]`. The layout is always row-major over `shape`.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Allocate a zero-filled tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        let n = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; n],
        }
    }

    /// Allocate a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; n],
        }
    }

    /// Build a tensor from an existing buffer.
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len()` does not match
    /// the product of `shape`.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Result<Self> {
        let n: usize = shape.iter().product();
        if n != data.len() {
            return Err(TensorError::ShapeMismatch {
                expected: shape.to_vec(),
                got: vec![data.len()],
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Sample every element i.i.d. from `N(0, std²)`.
    pub fn randn<R: Rng>(shape: &[usize], std: f32, rng: &mut R) -> Self {
        let n: usize = shape.iter().product();
        // Box-Muller; avoids a dependency on rand_distr.
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in bytes of the raw storage (what an activation store accounts).
    #[inline]
    pub fn byte_size(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Read-only view of the storage.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the storage.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor, yielding its storage.
    #[inline]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Interpret the shape as 4-D NCHW, padding leading dims with 1.
    ///
    /// `[n]` becomes `(1,1,1,n)`, `[a,b]` becomes `(1,1,a,b)`, etc.
    /// Panics if the tensor has more than 4 dims.
    pub fn dims4(&self) -> (usize, usize, usize, usize) {
        match *self.shape.as_slice() {
            [w] => (1, 1, 1, w),
            [h, w] => (1, 1, h, w),
            [c, h, w] => (1, c, h, w),
            [n, c, h, w] => (n, c, h, w),
            _ => panic!("dims4 on {}-d tensor", self.shape.len()),
        }
    }

    /// Matrix interpretation `(rows, cols)`; panics unless 2-D.
    pub fn dims2(&self) -> (usize, usize) {
        match *self.shape.as_slice() {
            [r, c] => (r, c),
            _ => panic!("dims2 on {}-d tensor {:?}", self.shape.len(), self.shape),
        }
    }

    /// Flat index of `(n, c, h, w)` under NCHW layout.
    #[inline]
    pub fn idx4(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        let (_, cc, hh, ww) = self.dims4();
        ((n * cc + c) * hh + h) * ww + w
    }

    /// Element accessor by NCHW coordinates.
    #[inline]
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.idx4(n, c, h, w)]
    }

    /// Mutable element accessor by NCHW coordinates.
    #[inline]
    pub fn at4_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        let i = self.idx4(n, c, h, w);
        &mut self.data[i]
    }

    /// Reinterpret the storage under a new shape with the same element count.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor> {
        let n: usize = shape.iter().product();
        if n != self.data.len() {
            return Err(TensorError::BadReshape {
                from: self.data.len(),
                to: n,
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        })
    }

    /// In-place reshape (no copy); same element-count contract as [`reshape`].
    ///
    /// [`reshape`]: Tensor::reshape
    pub fn reshape_in_place(&mut self, shape: &[usize]) -> Result<()> {
        let n: usize = shape.iter().product();
        if n != self.data.len() {
            return Err(TensorError::BadReshape {
                from: self.data.len(),
                to: n,
            });
        }
        self.shape = shape.to_vec();
        Ok(())
    }

    /// Shape equality check returning a typed error (used by layer contracts).
    pub fn expect_shape(&self, shape: &[usize]) -> Result<()> {
        if self.shape != shape {
            return Err(TensorError::ShapeMismatch {
                expected: shape.to_vec(),
                got: self.shape.clone(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let t = Tensor::zeros(&[2, 3, 4, 5]);
        assert_eq!(t.shape(), &[2, 3, 4, 5]);
        assert_eq!(t.len(), 120);
        assert!(t.data().iter().all(|&x| x == 0.0));
        assert_eq!(t.byte_size(), 480);
    }

    #[test]
    fn from_vec_rejects_wrong_length() {
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 3]).is_err());
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 4]).is_ok());
    }

    #[test]
    fn idx4_is_row_major_nchw() {
        let mut t = Tensor::zeros(&[2, 3, 4, 5]);
        *t.at4_mut(1, 2, 3, 4) = 7.0;
        // flat index = ((1*3+2)*4+3)*5+4 = 119 (last element)
        assert_eq!(t.data()[119], 7.0);
        assert_eq!(t.at4(1, 2, 3, 4), 7.0);
    }

    #[test]
    fn dims4_pads_leading_dims() {
        assert_eq!(Tensor::zeros(&[7]).dims4(), (1, 1, 1, 7));
        assert_eq!(Tensor::zeros(&[3, 7]).dims4(), (1, 1, 3, 7));
        assert_eq!(Tensor::zeros(&[2, 3, 7]).dims4(), (1, 2, 3, 7));
        assert_eq!(Tensor::zeros(&[5, 2, 3, 7]).dims4(), (5, 2, 3, 7));
    }

    #[test]
    fn reshape_preserves_data_and_checks_count() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn randn_is_roughly_standard_normal() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = Tensor::randn(&[100_000], 1.0, &mut rng);
        let mean = t.data().iter().sum::<f32>() / t.len() as f32;
        let var = t
            .data()
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f32>()
            / t.len() as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn expect_shape_reports_mismatch() {
        let t = Tensor::zeros(&[2, 3]);
        assert!(t.expect_shape(&[2, 3]).is_ok());
        let err = t.expect_shape(&[3, 2]).unwrap_err();
        assert_eq!(
            err,
            TensorError::ShapeMismatch {
                expected: vec![3, 2],
                got: vec![2, 3]
            }
        );
    }
}
