//! The block pipeline: level shift → forward DCT → quantize → dequantize
//! → inverse DCT → reconstruct. PSNR of the reconstruction against the
//! original is exactly what Table II reports (entropy coding is lossless
//! and does not affect it).

use realm_core::multiplier::Multiplier;
use realm_core::signed::fixed_mul_signed;

use crate::dct;
use crate::image::Image;
use crate::quant::{self, scaled_table};
use crate::zigzag;

/// A JPEG compress–decompress pipeline whose multiplications run through
/// a chosen [`Multiplier`].
///
/// ```
/// use realm_core::{Realm, RealmConfig};
/// use realm_jpeg::{Image, JpegCodec};
///
/// # fn main() -> Result<(), realm_core::ConfigError> {
/// let realm = Realm::new(RealmConfig::n16(16, 8))?;
/// let codec = JpegCodec::quality50(realm);
/// let img = Image::synthetic_lena();
/// let out = codec.roundtrip(&img);
/// assert_eq!(out.width(), img.width());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct JpegCodec<M> {
    multiplier: M,
    table: [[i32; 8]; 8],
    quality: u32,
}

/// Result of a full compression pass: the reconstruction plus the
/// entropy-stage size estimate.
#[derive(Debug, Clone)]
pub struct CompressionResult {
    /// The decompressed image.
    pub reconstruction: Image,
    /// Estimated entropy-coded size in bits (see
    /// [`crate::zigzag::estimate_bits`]).
    pub estimated_bits: u64,
}

impl<M: Multiplier> JpegCodec<M> {
    /// A codec at the paper's quality level 50.
    pub fn quality50(multiplier: M) -> Self {
        JpegCodec::with_quality(multiplier, 50)
    }

    /// A codec at an arbitrary JPEG quality level in `1..=100`.
    ///
    /// # Panics
    ///
    /// Panics if `quality` is outside `1..=100`.
    pub fn with_quality(multiplier: M, quality: u32) -> Self {
        JpegCodec {
            multiplier,
            table: scaled_table(quality),
            quality,
        }
    }

    /// The configured quality level.
    pub fn quality(&self) -> u32 {
        self.quality
    }

    /// The wrapped multiplier.
    pub fn multiplier(&self) -> &M {
        &self.multiplier
    }

    /// Compresses and decompresses one image, returning the
    /// reconstruction (blocks outside the image are edge-replicated, and
    /// only in-bounds pixels are written back).
    pub fn roundtrip(&self, image: &Image) -> Image {
        self.compress(image).reconstruction
    }

    /// Compresses and decompresses one image, also accumulating the
    /// entropy-size estimate of every quantized block.
    pub fn compress(&self, image: &Image) -> CompressionResult {
        let mut out = image.clone();
        let mut estimated_bits = 0u64;
        let m: &dyn Multiplier = &self.multiplier;
        for by in (0..image.height()).step_by(8) {
            for bx in (0..image.width()).step_by(8) {
                // Gather (edge-replicated) and level shift.
                let block: [[i32; 8]; 8] = std::array::from_fn(|r| {
                    std::array::from_fn(|c| {
                        let y = (by + r).min(image.height() - 1);
                        let x = (bx + c).min(image.width() - 1);
                        image.get(x, y) as i32 - 128
                    })
                });
                let coef = dct::forward(m, &block);
                // Quantize (exact, encoder side) …
                let quantized: [[i32; 8]; 8] = std::array::from_fn(|r| {
                    std::array::from_fn(|c| quant::quantize(coef[r][c], self.table[r][c]))
                });
                estimated_bits += u64::from(zigzag::estimate_bits(&zigzag::scan(&quantized)));
                // … dequantize through the multiplier (decoder side).
                let dequantized: [[i32; 8]; 8] = std::array::from_fn(|r| {
                    std::array::from_fn(|c| {
                        let (q, step) = (quantized[r][c], self.table[r][c]);
                        fixed_mul_signed(m, i64::from(q), i64::from(step), 0) as i32
                    })
                });
                let rec = dct::inverse(m, &dequantized);
                for (r, row) in rec.iter().enumerate() {
                    for (c, &v) in row.iter().enumerate() {
                        let (x, y) = (bx + c, by + r);
                        if x < image.width() && y < image.height() {
                            out.set(x, y, (v + 128).clamp(0, 255) as u8);
                        }
                    }
                }
            }
        }
        CompressionResult {
            reconstruction: out,
            estimated_bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::psnr::psnr;
    use realm_baselines::Calm;
    use realm_core::{Accurate, Realm, RealmConfig};

    #[test]
    fn accurate_codec_reaches_natural_jpeg_quality() {
        let codec = JpegCodec::quality50(Accurate::new(16));
        for (name, img) in Image::table2_set() {
            let p = psnr(&img, &codec.roundtrip(&img));
            // Table II: ~30–32 dB on the real photographs.
            assert!(p > 27.0 && p < 50.0, "{name}: {p} dB");
        }
    }

    #[test]
    fn realm_stays_close_to_accurate() {
        let accurate = JpegCodec::quality50(Accurate::new(16));
        let realm = JpegCodec::quality50(Realm::new(RealmConfig::n16(16, 8)).unwrap());
        let img = Image::synthetic_cameraman();
        let pa = psnr(&img, &accurate.roundtrip(&img));
        let pr = psnr(&img, &realm.roundtrip(&img));
        // Table II: REALM16/t=8 stays within 0.4 dB of the accurate design
        // on the paper's photographs; on these synthetic scenes the gap is
        // slightly wider (~1.1 dB, see EXPERIMENTS.md) but must stay far
        // below the > 2 dB drop of every other log-based design.
        assert!(pr > pa - 1.5, "accurate {pa} vs REALM16 {pr}");
    }

    #[test]
    fn calm_drops_multiple_db() {
        // Table II: cALM drops PSNR by far more than 2 dB.
        let accurate = JpegCodec::quality50(Accurate::new(16));
        let calm = JpegCodec::quality50(Calm::new(16));
        let img = Image::synthetic_lena();
        let pa = psnr(&img, &accurate.roundtrip(&img));
        let pc = psnr(&img, &calm.roundtrip(&img));
        assert!(pa - pc > 2.0, "accurate {pa} vs cALM {pc}");
    }

    #[test]
    fn lower_quality_compresses_smaller_and_worse() {
        let img = Image::synthetic_livingroom();
        let q20 = JpegCodec::with_quality(Accurate::new(16), 20).compress(&img);
        let q80 = JpegCodec::with_quality(Accurate::new(16), 80).compress(&img);
        assert!(q20.estimated_bits < q80.estimated_bits);
        assert!(psnr(&img, &q20.reconstruction) < psnr(&img, &q80.reconstruction));
    }

    #[test]
    fn non_multiple_of_eight_dimensions_supported() {
        let img = Image::from_fn(21, 13, |x, y| ((x * 11 + y * 17) % 256) as u8);
        let codec = JpegCodec::quality50(Accurate::new(16));
        let out = codec.roundtrip(&img);
        assert_eq!((out.width(), out.height()), (21, 13));
    }
}
