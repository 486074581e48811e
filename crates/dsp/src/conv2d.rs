//! 2-D image convolution through an approximate multiplier — the
//! "multimedia processing" workload class of the paper's introduction.
//!
//! Kernels are Q12 fixed-point; image samples are 8-bit. Every
//! tap product runs through the supplied [`Multiplier`], so blur/edge
//! pipelines quantify each approximate design's visual impact via PSNR
//! against the exact-multiplier result.

use realm_core::Multiplier;
use realm_jpeg::Image;

use crate::gemm::{matmul, Matrix};
use crate::im2col::im2col;

/// Fractional bits of the quantized kernel weights (Q12).
pub const KERNEL_BITS: u32 = 12;

/// A square convolution kernel with Q12 weights.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Kernel {
    size: usize,
    weights: Vec<i32>,
}

impl Kernel {
    /// Quantizes a `size × size` row-major weight matrix to Q12.
    ///
    /// # Panics
    ///
    /// Panics unless `size` is odd, the matrix matches it, and every
    /// |weight| < 8 (Q3.12 range).
    pub fn from_weights(size: usize, weights: &[f64]) -> Self {
        assert!(size % 2 == 1, "kernel size must be odd");
        assert_eq!(weights.len(), size * size, "weight matrix size mismatch");
        let weights = weights
            .iter()
            .map(|&w| {
                assert!(w.abs() < 8.0, "weight {w} out of Q3.12 range");
                (w * (1i64 << KERNEL_BITS) as f64).round() as i32
            })
            .collect();
        Kernel { size, weights }
    }

    /// A normalized Gaussian blur kernel.
    ///
    /// # Panics
    ///
    /// Panics unless `size` is odd and `sigma > 0`.
    pub fn gaussian(size: usize, sigma: f64) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        let mid = (size / 2) as f64;
        let mut w: Vec<f64> = (0..size * size)
            .map(|i| {
                let (x, y) = ((i % size) as f64 - mid, (i / size) as f64 - mid);
                (-(x * x + y * y) / (2.0 * sigma * sigma)).exp()
            })
            .collect();
        let sum: f64 = w.iter().sum();
        for v in &mut w {
            *v /= sum;
        }
        Kernel::from_weights(size, &w)
    }

    /// The horizontal Sobel edge operator.
    pub fn sobel_x() -> Self {
        Kernel::from_weights(3, &[-1.0, 0.0, 1.0, -2.0, 0.0, 2.0, -1.0, 0.0, 1.0])
    }

    /// The vertical Sobel edge operator.
    pub fn sobel_y() -> Self {
        Kernel::from_weights(3, &[-1.0, -2.0, -1.0, 0.0, 0.0, 0.0, 1.0, 2.0, 1.0])
    }

    /// Kernel side length.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Convolves an image (edge-replicated borders), clamping outputs to
    /// 8 bits; `offset` is added before clamping (128 centres signed
    /// responses like Sobel's).
    ///
    /// Lowered to `im2col` + one GEMM so every tap product runs through
    /// the batched multiply kernels; bit-identical to the historical
    /// direct nested loop (same tap order, same exact accumulation, same
    /// round-to-nearest descale).
    pub fn apply(&self, m: &dyn Multiplier, image: &Image, offset: i32) -> Image {
        // im2col row order is (kernel, image) swapped relative to a direct
        // loop's `fixed_mul_signed(m, w, sample, 0)` — sign-magnitude
        // multiplication is commutative, so the products are identical.
        let windows = im2col(1, image.width(), image.height(), self.size, |_, x, y| {
            image.get(x, y) as i32
        });
        let weights = Matrix::from_data(self.size * self.size, 1, self.weights.clone());
        let response = matmul(m, &windows, &weights, KERNEL_BITS);
        Image::from_fn(image.width(), image.height(), |x, y| {
            let v = response.get(y * image.width() + x, 0) + offset;
            v.clamp(0, 255) as u8
        })
    }
}

/// Gradient-magnitude edge map from the two Sobel responses
/// (`|gx| + |gy|`, the usual L1 approximation), all products through `m`.
pub fn sobel_edges(m: &dyn Multiplier, image: &Image) -> Image {
    let gx = Kernel::sobel_x().apply(m, image, 128);
    let gy = Kernel::sobel_y().apply(m, image, 128);
    Image::from_fn(image.width(), image.height(), |x, y| {
        let ex = (gx.get(x, y) as i32 - 128).abs();
        let ey = (gy.get(x, y) as i32 - 128).abs();
        (ex + ey).min(255) as u8
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_baselines::Calm;
    use realm_core::{Accurate, Realm, RealmConfig};
    use realm_jpeg::psnr;

    #[test]
    fn gaussian_preserves_flat_regions() {
        let flat = Image::from_fn(32, 32, |_, _| 180);
        let out = Kernel::gaussian(5, 1.0).apply(&Accurate::new(16), &flat, 0);
        for y in 0..32 {
            for x in 0..32 {
                assert!(
                    (out.get(x, y) as i32 - 180).abs() <= 1,
                    "({x}, {y}): {}",
                    out.get(x, y)
                );
            }
        }
    }

    #[test]
    fn gaussian_smooths_impulse() {
        let mut img = Image::from_fn(17, 17, |_, _| 0);
        img.set(8, 8, 255);
        let out = Kernel::gaussian(5, 1.2).apply(&Accurate::new(16), &img, 0);
        assert!(
            out.get(8, 8) < 80,
            "center should spread: {}",
            out.get(8, 8)
        );
        assert!(out.get(7, 8) > 5, "energy should spread to neighbours");
    }

    #[test]
    fn sobel_finds_a_vertical_edge() {
        let img = Image::from_fn(32, 32, |x, _| if x < 16 { 40 } else { 210 });
        let edges = sobel_edges(&Accurate::new(16), &img);
        // Strong response at the edge column, quiet elsewhere.
        assert!(
            edges.get(16, 16) > 100,
            "edge response {}",
            edges.get(16, 16)
        );
        assert!(edges.get(4, 16) < 10, "flat response {}", edges.get(4, 16));
    }

    #[test]
    fn realm_blur_tracks_exact_blur_closely() {
        let img = Image::synthetic_cameraman();
        let kernel = Kernel::gaussian(5, 1.0);
        let exact = kernel.apply(&Accurate::new(16), &img, 0);
        let realm = kernel.apply(
            &Realm::new(RealmConfig::n16(16, 0)).expect("paper design point"),
            &img,
            0,
        );
        let calm = kernel.apply(&Calm::new(16), &img, 0);
        let p_realm = psnr(&exact, &realm);
        let p_calm = psnr(&exact, &calm);
        assert!(p_realm > 38.0, "REALM blur PSNR {p_realm}");
        assert!(p_realm > p_calm + 5.0, "REALM {p_realm} vs cALM {p_calm}");
    }

    #[test]
    #[should_panic(expected = "size must be odd")]
    fn even_kernel_rejected() {
        let _ = Kernel::from_weights(4, &[0.0; 16]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_matrix_size_rejected() {
        let _ = Kernel::from_weights(3, &[0.0; 8]);
    }
}
