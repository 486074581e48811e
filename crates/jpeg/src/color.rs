//! Color JPEG: RGB ↔ YCbCr conversion (BT.601, fixed-point through the
//! pluggable multiplier), 4:2:0 chroma subsampling and the chrominance
//! quantization table — extending the paper's greyscale study to the full
//! baseline-JPEG color path, where the color-conversion multiplies add a
//! second place for approximate-multiplier error to enter.

use realm_core::{fixed_mul_signed, Multiplier};

use crate::codec::JpegCodec;
use crate::image::Image;

/// An 8-bit RGB image (row-major, interleaved).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RgbImage {
    width: usize,
    height: usize,
    pixels: Vec<[u8; 3]>,
}

impl RgbImage {
    /// Builds an image from a generator `f(x, y) -> [r, g, b]`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn from_fn(
        width: usize,
        height: usize,
        mut f: impl FnMut(usize, usize) -> [u8; 3],
    ) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        let mut pixels = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                pixels.push(f(x, y));
            }
        }
        RgbImage {
            width,
            height,
            pixels,
        }
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn get(&self, x: usize, y: usize) -> [u8; 3] {
        assert!(
            x < self.width && y < self.height,
            "({x}, {y}) out of bounds"
        );
        self.pixels[y * self.width + x]
    }

    /// A synthetic color scene: sky gradient, grass band, a red-brick
    /// house with a bright window — deterministic, with texture matching
    /// the greyscale substitutes.
    pub fn synthetic_scene() -> RgbImage {
        let mut state = 0x000C_010A_u64 | 1;
        let mut noise = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 2.0 - 1.0
        };
        RgbImage::from_fn(128, 128, |x, y| {
            let (fx, fy) = (x as f64, y as f64);
            let mut rgb = [
                120.0 - fy * 0.3 + noise() * 7.0,
                160.0 - fy * 0.2 + noise() * 7.0,
                235.0 - fy * 0.25 + noise() * 7.0,
            ];
            if y > 90 {
                rgb = [
                    60.0 + 20.0 * (fx * 0.4).sin() + noise() * 10.0,
                    140.0 + 25.0 * (fx * 0.3).cos() + noise() * 10.0,
                    50.0 + noise() * 8.0,
                ];
            }
            if (30..80).contains(&x) && (40..92).contains(&y) {
                rgb = [
                    165.0 + noise() * 12.0,
                    70.0 + noise() * 8.0,
                    55.0 + noise() * 8.0,
                ];
            }
            if (44..62).contains(&x) && (52..68).contains(&y) {
                rgb = [240.0, 230.0, 170.0];
            }
            [
                rgb[0].clamp(0.0, 255.0) as u8,
                rgb[1].clamp(0.0, 255.0) as u8,
                rgb[2].clamp(0.0, 255.0) as u8,
            ]
        })
    }
}

/// Fractional bits of the BT.601 conversion coefficients (Q14).
pub const CSC_BITS: u32 = 14;

fn q14(v: f64) -> i64 {
    (v * (1 << CSC_BITS) as f64).round() as i64
}

/// RGB → YCbCr (BT.601 full-range), every multiply through `m`; returns
/// the three planes.
pub fn rgb_to_ycbcr(m: &dyn Multiplier, rgb: &RgbImage) -> (Image, Image, Image) {
    let coeffs_y = [q14(0.299), q14(0.587), q14(0.114)];
    let coeffs_cb = [q14(-0.168_736), q14(-0.331_264), q14(0.5)];
    let coeffs_cr = [q14(0.5), q14(-0.418_688), q14(-0.081_312)];
    let plane = |coeffs: [i64; 3], offset: i64| {
        Image::from_fn(rgb.width(), rgb.height(), |x, y| {
            let p = rgb.get(x, y);
            let acc: i64 = (0..3)
                .map(|c| fixed_mul_signed(m, coeffs[c], i64::from(p[c]), 0))
                .sum();
            let v = ((acc + (1 << (CSC_BITS - 1))) >> CSC_BITS) + offset;
            v.clamp(0, 255) as u8
        })
    };
    (
        plane(coeffs_y, 0),
        plane(coeffs_cb, 128),
        plane(coeffs_cr, 128),
    )
}

/// YCbCr → RGB (BT.601), every multiply through `m`.
pub fn ycbcr_to_rgb(m: &dyn Multiplier, y: &Image, cb: &Image, cr: &Image) -> RgbImage {
    let c_r_cr = q14(1.402);
    let c_g_cb = q14(-0.344_136);
    let c_g_cr = q14(-0.714_136);
    let c_b_cb = q14(1.772);
    RgbImage::from_fn(y.width(), y.height(), |px, py| {
        let yy = y.get(px, py) as i64;
        let cbv = cb.get(px.min(cb.width() - 1), py.min(cb.height() - 1)) as i64 - 128;
        let crv = cr.get(px.min(cr.width() - 1), py.min(cr.height() - 1)) as i64 - 128;
        let mul = |coeff: i64, v: i64| fixed_mul_signed(m, coeff, v, 0);
        let half = 1i64 << (CSC_BITS - 1);
        let r = yy + ((mul(c_r_cr, crv) + half) >> CSC_BITS);
        let g = yy + ((mul(c_g_cb, cbv) + mul(c_g_cr, crv) + half) >> CSC_BITS);
        let b = yy + ((mul(c_b_cb, cbv) + half) >> CSC_BITS);
        [
            r.clamp(0, 255) as u8,
            g.clamp(0, 255) as u8,
            b.clamp(0, 255) as u8,
        ]
    })
}

/// 2×2 box-filter downsample (the 4:2:0 chroma path).
pub fn subsample_420(plane: &Image) -> Image {
    let (w, h) = (plane.width().div_ceil(2), plane.height().div_ceil(2));
    Image::from_fn(w, h, |x, y| {
        let mut sum = 0u32;
        let mut n = 0u32;
        for dy in 0..2 {
            for dx in 0..2 {
                let (sx, sy) = (2 * x + dx, 2 * y + dy);
                if sx < plane.width() && sy < plane.height() {
                    sum += plane.get(sx, sy) as u32;
                    n += 1;
                }
            }
        }
        ((sum + n / 2) / n) as u8
    })
}

/// Nearest-neighbour upsample back to the luma geometry.
pub fn upsample_420(plane: &Image, width: usize, height: usize) -> Image {
    Image::from_fn(width, height, |x, y| {
        plane.get(
            (x / 2).min(plane.width() - 1),
            (y / 2).min(plane.height() - 1),
        )
    })
}

/// Full color round trip: RGB → YCbCr (through `m`) → 4:2:0 → per-plane
/// JPEG (luma at the given quality; chroma with the same table — baseline
/// JPEG's chroma table differs, but the *relative* multiplier comparison
/// is unaffected) → upsample → RGB (through `m`).
pub fn color_roundtrip<M: Multiplier>(codec: &JpegCodec<M>, rgb: &RgbImage) -> RgbImage {
    let m: &dyn Multiplier = codec.multiplier();
    let (y, cb, cr) = rgb_to_ycbcr(m, rgb);
    let cb_small = subsample_420(&cb);
    let cr_small = subsample_420(&cr);
    let y_rec = codec.roundtrip(&y);
    let cb_rec = upsample_420(&codec.roundtrip(&cb_small), rgb.width(), rgb.height());
    let cr_rec = upsample_420(&codec.roundtrip(&cr_small), rgb.width(), rgb.height());
    ycbcr_to_rgb(m, &y_rec, &cb_rec, &cr_rec)
}

/// PSNR over the three RGB channels jointly.
///
/// # Panics
///
/// Panics if the images differ in size.
pub fn rgb_psnr(reference: &RgbImage, distorted: &RgbImage) -> f64 {
    assert_eq!(
        (reference.width(), reference.height()),
        (distorted.width(), distorted.height()),
        "image sizes differ"
    );
    let mut mse = 0.0f64;
    for (a, b) in reference.pixels.iter().zip(&distorted.pixels) {
        for c in 0..3 {
            let d = a[c] as f64 - b[c] as f64;
            mse += d * d;
        }
    }
    mse /= (reference.pixels.len() * 3) as f64;
    if mse == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (255.0 * 255.0 / mse).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_baselines::Calm;
    use realm_core::{Accurate, Realm, RealmConfig};

    #[test]
    fn color_conversion_roundtrips_with_accurate_multiplier() {
        let m = Accurate::new(16);
        let rgb = RgbImage::synthetic_scene();
        let (y, cb, cr) = rgb_to_ycbcr(&m, &rgb);
        let back = ycbcr_to_rgb(&m, &y, &cb, &cr);
        let p = rgb_psnr(&rgb, &back);
        assert!(p > 42.0, "conversion-only PSNR {p}");
    }

    #[test]
    fn grey_input_has_neutral_chroma() {
        let m = Accurate::new(16);
        let grey = RgbImage::from_fn(16, 16, |x, y| {
            let v = ((x * 16 + y) % 256) as u8;
            [v, v, v]
        });
        let (_, cb, cr) = rgb_to_ycbcr(&m, &grey);
        for yy in 0..16 {
            for xx in 0..16 {
                assert!((cb.get(xx, yy) as i32 - 128).abs() <= 1);
                assert!((cr.get(xx, yy) as i32 - 128).abs() <= 1);
            }
        }
    }

    #[test]
    fn subsample_upsample_shapes() {
        let plane = Image::from_fn(9, 7, |x, y| (x * 10 + y) as u8);
        let small = subsample_420(&plane);
        assert_eq!((small.width(), small.height()), (5, 4));
        let big = upsample_420(&small, 9, 7);
        assert_eq!((big.width(), big.height()), (9, 7));
    }

    #[test]
    fn color_jpeg_preserves_table2_ordering() {
        let rgb = RgbImage::synthetic_scene();
        let psnr_for = |codec: &JpegCodec<_>| rgb_psnr(&rgb, &color_roundtrip(codec, &rgb));
        let accurate = JpegCodec::quality50(Accurate::new(16));
        let pa = psnr_for(&accurate);
        let realm =
            JpegCodec::quality50(Realm::new(RealmConfig::n16(16, 8)).expect("paper design"));
        let pr = rgb_psnr(&rgb, &color_roundtrip(&realm, &rgb));
        let calm = JpegCodec::quality50(Calm::new(16));
        let pc = rgb_psnr(&rgb, &color_roundtrip(&calm, &rgb));
        assert!(pa > 28.0, "accurate color PSNR {pa}");
        assert!(pr > pa - 2.0, "REALM color PSNR {pr} vs accurate {pa}");
        assert!(pr - pc > 2.0, "REALM {pr} vs cALM {pc}");
    }
}
