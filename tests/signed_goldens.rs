//! Goldens of the signed fixed-point substrates, where every product is a
//! sign-magnitude multiply through an unsigned core. For Accurate@16 and
//! the eight Table II designs, the rows pin a quality-50 JPEG round trip
//! of each Table II scene cropped to 64×64 (the PSNR's bits and an FNV-64
//! of the reconstruction), a colour round trip of the synthetic RGB scene
//! at the same crop, and one fixed 64-point FFT (FNV-64 each).
//!
//! `results/goldens/signed_substrates.csv` was blessed from the code
//! before the signed multiply was folded into one function, with
//! `REALM_BLESS_GOLDENS=1 cargo test --test signed_goldens`. The file is
//! closed: a change may not add, drop or alter a row.

use std::fmt::Write as _;
use std::path::Path;

use realm::baselines::catalog::{self, DesignSpec};
use realm::dsp::fft::{fft, Complex};
use realm::jpeg::color::{color_roundtrip, RgbImage};
use realm::jpeg::{psnr, Image, JpegCodec};

/// Side of the square crop every image is cut to.
const CROP: usize = 64;

/// FNV-1a 64 over a byte stream.
fn fnv64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fresh_rows() -> String {
    let scenes: Vec<(&str, Image)> = Image::table2_set()
        .into_iter()
        .map(|(name, img)| (name, Image::from_fn(CROP, CROP, |x, y| img.get(x, y))))
        .collect();
    let scene = RgbImage::synthetic_scene();
    let rgb = RgbImage::from_fn(CROP, CROP, |x, y| scene.get(x, y));
    // Signed real and imaginary parts, well inside the 16-bit range.
    let fft_input: Vec<Complex> = (0..64i32)
        .map(|k| Complex::new((k * 37) % 64 * 300 - 9_600, (k * 11) % 32 * 500 - 8_000))
        .collect();
    let mut designs = vec![DesignSpec::parse("accurate@16").expect("accurate@16 parses")];
    designs.extend(catalog::table2());

    let mut out = String::from("design,substrate,input,metric,value\n");
    for spec in &designs {
        let model = spec.build().expect("a Table II design builds");
        let codec = JpegCodec::quality50(model.as_ref());
        for (scene, img) in &scenes {
            let rec = codec.roundtrip(img);
            let bits = psnr(img, &rec).to_bits();
            let _ = writeln!(out, "\"{spec}\",jpeg,{scene},psnr_bits,{bits:016x}");
            let hash = fnv64(rec.pixels().iter().copied());
            let _ = writeln!(out, "\"{spec}\",jpeg,{scene},fnv64,{hash:016x}");
        }
        let color = color_roundtrip(&codec, &rgb);
        let hash = fnv64((0..CROP * CROP).flat_map(|i| color.get(i % CROP, i / CROP)));
        let _ = writeln!(out, "\"{spec}\",color,scene,fnv64,{hash:016x}");
        let mut data = fft_input.clone();
        fft(model.as_ref(), &mut data);
        let hash = fnv64(
            data.iter()
                .flat_map(|c| [c.re, c.im])
                .flat_map(i32::to_le_bytes),
        );
        let _ = writeln!(out, "\"{spec}\",fft,input64,fnv64,{hash:016x}");
    }
    out
}

#[test]
fn signed_substrates_are_bit_identical_to_their_goldens() {
    let fresh = fresh_rows();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/goldens/signed_substrates.csv");
    if std::env::var_os("REALM_BLESS_GOLDENS").is_some() {
        std::fs::write(&path, &fresh).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden '{}' ({e}); bless with REALM_BLESS_GOLDENS=1",
            path.display()
        )
    });
    assert_eq!(
        fresh, golden,
        "signed substrate outputs must stay bit-identical"
    );
}
