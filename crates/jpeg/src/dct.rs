//! 8×8 two-dimensional DCT in 16-bit fixed-point arithmetic, with every
//! multiplication routed through a pluggable [`Multiplier`].
//!
//! Basis coefficients are quantized to Q13 (signed, |c| ≤ 0.5 → 12
//! magnitude bits), samples stay within a signed 16-bit range through
//! both 1-D passes, and each `coefficient × sample` product runs through
//! the supplied unsigned multiplier under sign-magnitude handling
//! ([`fixed_mul_signed`]) — the paper's "JPEG in 16-bit fixed-point
//! arithmetic, using accurate and approximate multipliers".

use std::sync::OnceLock;

use realm_core::multiplier::Multiplier;
use realm_core::signed::fixed_mul_signed;

/// Fractional bits of the fixed-point DCT basis (Q13).
pub const COEFF_BITS: u32 = 13;

/// The orthonormal 8-point DCT-II basis in Q13: `BASIS[u][x]` is
/// `c(u)·cos((2x+1)uπ/16)` scaled by `2^13` and rounded.
pub fn basis_q13() -> [[i32; 8]; 8] {
    bases().0
}

/// An 8-point basis, one row per output.
type Basis = [[i32; 8]; 8];

/// The basis and its transpose (the inverse transform's basis),
/// computed once: 64 `cos` calls cost about as much as an accurate
/// codec's whole block transform.
fn bases() -> &'static (Basis, Basis) {
    static BASES: OnceLock<(Basis, Basis)> = OnceLock::new();
    BASES.get_or_init(|| {
        let basis = compute_basis();
        let transposed = std::array::from_fn(|x| std::array::from_fn(|u| basis[u][x]));
        (basis, transposed)
    })
}

fn compute_basis() -> [[i32; 8]; 8] {
    let mut basis = [[0i32; 8]; 8];
    for (u, row) in basis.iter_mut().enumerate() {
        let cu = if u == 0 {
            (1.0f64 / 8.0).sqrt()
        } else {
            (2.0f64 / 8.0).sqrt()
        };
        for (x, cell) in row.iter_mut().enumerate() {
            let angle = (2.0 * x as f64 + 1.0) * u as f64 * std::f64::consts::PI / 16.0;
            *cell = (cu * angle.cos() * (1 << COEFF_BITS) as f64).round() as i32;
        }
    }
    basis
}

/// One 8-point 1-D transform: `out[u] = (Σ_x basis[u][x] · input[x]) ≫ 13`
/// with round-to-nearest descaling of the accumulated sum. Each product
/// is taken at full Q13 scale; descaling happens once per accumulated
/// output, as fixed-point DCT datapaths do.
fn transform_1d(m: &dyn Multiplier, basis: &[[i32; 8]; 8], input: &[i32; 8]) -> [i32; 8] {
    let mut out = [0i32; 8];
    for (u, row) in basis.iter().enumerate() {
        let mut acc = 0i64;
        for (x, &c) in row.iter().enumerate() {
            acc += fixed_mul_signed(m, i64::from(c), i64::from(input[x]), 0);
        }
        out[u] = ((acc + (1 << (COEFF_BITS - 1))) >> COEFF_BITS) as i32;
    }
    out
}

/// Forward 2-D DCT of a level-shifted 8×8 block (inputs in `[−128, 127]`),
/// rows first then columns.
pub fn forward(m: &dyn Multiplier, block: &[[i32; 8]; 8]) -> [[i32; 8]; 8] {
    let basis = &bases().0;
    let mut rows = [[0i32; 8]; 8];
    for (r, row) in block.iter().enumerate() {
        rows[r] = transform_1d(m, basis, row);
    }
    let mut out = [[0i32; 8]; 8];
    for c in 0..8 {
        let col: [i32; 8] = std::array::from_fn(|r| rows[r][c]);
        let t = transform_1d(m, basis, &col);
        for r in 0..8 {
            out[r][c] = t[r];
        }
    }
    out
}

/// Inverse 2-D DCT: `out[x] = Σ_u basis[u][x] · coef[u]` per axis.
pub fn inverse(m: &dyn Multiplier, coef: &[[i32; 8]; 8]) -> [[i32; 8]; 8] {
    // Transposed basis = inverse transform for an orthonormal DCT.
    let tbasis = &bases().1;
    let mut cols = [[0i32; 8]; 8];
    for c in 0..8 {
        let col: [i32; 8] = std::array::from_fn(|r| coef[r][c]);
        let t = transform_1d(m, tbasis, &col);
        for r in 0..8 {
            cols[r][c] = t[r];
        }
    }
    let mut out = [[0i32; 8]; 8];
    for (r, row) in cols.iter().enumerate() {
        out[r] = transform_1d(m, tbasis, row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_core::Accurate;

    fn reference_dct(block: &[[i32; 8]; 8]) -> [[f64; 8]; 8] {
        let mut out = [[0.0; 8]; 8];
        for (u, row) in out.iter_mut().enumerate() {
            for (v, cell) in row.iter_mut().enumerate() {
                let cu = if u == 0 { (1.0f64 / 8.0).sqrt() } else { 0.5 };
                let cv = if v == 0 { (1.0f64 / 8.0).sqrt() } else { 0.5 };
                let mut acc = 0.0;
                for (x, brow) in block.iter().enumerate() {
                    for (y, &bv) in brow.iter().enumerate() {
                        acc += bv as f64
                            * ((2 * x + 1) as f64 * u as f64 * std::f64::consts::PI / 16.0).cos()
                            * ((2 * y + 1) as f64 * v as f64 * std::f64::consts::PI / 16.0).cos();
                    }
                }
                *cell = cu * cv * acc;
            }
        }
        out
    }

    fn test_block() -> [[i32; 8]; 8] {
        std::array::from_fn(|r| std::array::from_fn(|c| ((r * 13 + c * 7) % 256) as i32 - 128))
    }

    #[test]
    fn basis_rows_are_orthonormal() {
        let b = basis_q13();
        let scale = (1i64 << COEFF_BITS) as f64;
        for u in 0..8 {
            for v in 0..8 {
                let dot: f64 =
                    (0..8).map(|x| b[u][x] as f64 * b[v][x] as f64).sum::<f64>() / (scale * scale);
                let expect = if u == v { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-3, "rows {u}, {v}: {dot}");
            }
        }
    }

    #[test]
    fn forward_matches_float_reference_with_accurate_multiplier() {
        let m = Accurate::new(16);
        let block = test_block();
        let fixed = forward(&m, &block);
        let float = reference_dct(&block);
        for u in 0..8 {
            for v in 0..8 {
                let err = (fixed[u][v] as f64 - float[u][v]).abs();
                assert!(
                    err < 4.0,
                    "({u}, {v}): fixed {} vs float {}",
                    fixed[u][v],
                    float[u][v]
                );
            }
        }
    }

    #[test]
    fn roundtrip_is_near_lossless_with_accurate_multiplier() {
        let m = Accurate::new(16);
        let block = test_block();
        let rec = inverse(&m, &forward(&m, &block));
        for r in 0..8 {
            for c in 0..8 {
                let err = (rec[r][c] - block[r][c]).abs();
                assert!(err <= 3, "({r}, {c}): {} vs {}", rec[r][c], block[r][c]);
            }
        }
    }

    #[test]
    fn dc_coefficient_is_eight_times_mean() {
        let m = Accurate::new(16);
        let block = [[64i32; 8]; 8];
        let coef = forward(&m, &block);
        // DC = 8 × mean = 512 (orthonormal scaling).
        assert!((coef[0][0] - 512).abs() <= 2, "dc = {}", coef[0][0]);
        // Every AC coefficient of a flat block is ~0.
        for (u, row) in coef.iter().enumerate() {
            for (v, &c) in row.iter().enumerate() {
                if (u, v) != (0, 0) {
                    assert!(c.abs() <= 2, "ac ({u}, {v}) = {c}");
                }
            }
        }
    }

    #[test]
    fn operands_stay_within_16_bits() {
        // The largest magnitude that can reach the multiplier: basis 4096,
        // samples bounded by the 1-D DCT gain √8·128 ≈ 362 on pass one and
        // 8·128 = 1024 after pass one.
        let b = basis_q13();
        let max_coeff = b.iter().flatten().map(|c| c.abs()).max().unwrap();
        assert!(max_coeff <= 4096);
        let m = Accurate::new(16);
        let extreme = [[127i32; 8]; 8];
        let coef = forward(&m, &extreme);
        for row in &coef {
            for &c in row {
                assert!(c.unsigned_abs() < (1 << 15), "coefficient overflow: {c}");
            }
        }
    }
}
