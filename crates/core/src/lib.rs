//! # realm-core
//!
//! A faithful, bit-accurate reproduction of **REALM**, the Reduced-Error
//! Approximate Log-based unsigned integer Multiplier proposed by Saadat,
//! Javaid, Ignjatovic and Parameswaran at DATE 2020.
//!
//! REALM augments Mitchell's classical approximate log-based multiplier with
//! a mathematically derived error-reduction stage: each power-of-two interval
//! of the operands is partitioned into `M × M` equispaced segments and, for
//! every segment `(i, j)`, a factor `s_ij` is determined analytically such
//! that the *average relative error* over the segment is zero (Eq. 8–13 of
//! the paper). Because `s_ij` is independent of the interval, only `M²`
//! factors exist for the whole multiplier; they are quantized to `q`-bit
//! precision and realized as a hardwired constant lookup table.
//!
//! This crate provides:
//!
//! * [`Multiplier`] — the object-safe trait shared by every multiplier in
//!   the workspace (REALM, the accurate reference and all baselines).
//! * [`Realm`] — the bit-accurate REALM datapath model of the paper's
//!   Fig. 3, configurable in operand width `N`, segmentation `M`,
//!   fraction truncation `t` and LUT precision `q`.
//! * [`mitchell`] — leading-one detection, logarithmic encode/decode and the
//!   truncate-and-set-LSB fraction conditioning shared by the log-based
//!   multiplier family.
//! * [`factors`] — the analytic derivation of the error-reduction factors
//!   (closed-form inner integrals + adaptive Gauss–Legendre outer
//!   quadrature), replacing the authors' MATLAB Symbolic Toolbox scripts.
//! * [`lut`] — the `q`-bit round-to-nearest quantized lookup table with the
//!   paper's `(q−2)`-bit storage optimization.
//! * [`precomputed`] — frozen `q = 6` tables for `M ∈ {4, 8, 16}`,
//!   mirroring the constants the authors shipped as open source.
//! * [`signed`] — the sign-magnitude wrapper that extends any unsigned
//!   [`Multiplier`] to signed operands (the scheme referenced from DRUM).
//! * [`simd`] (the re-exported `realm-simd` crate) — the tiered batch
//!   kernels behind `multiply_batch`: scalar reference lanes plus
//!   runtime-dispatched AVX2, bit-identical by exhaustive test.
//!
//! ## Quick example
//!
//! ```
//! use realm_core::{Multiplier, Realm, RealmConfig};
//!
//! # fn main() -> Result<(), realm_core::ConfigError> {
//! let realm = Realm::new(RealmConfig::n16(16, 0))?; // 16-bit, M = 16, t = 0
//! let approx = realm.multiply(25_000, 31_456);
//! let exact = 25_000u64 * 31_456;
//! let rel = (approx as f64 - exact as f64) / exact as f64;
//! assert!(rel.abs() < 0.0208); // paper: peak error 2.08 % for REALM16 t=0
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The datapath models must be total: no lazy panics outside test code.
// Invariant violations either propagate a `ConfigError` or degrade to an
// exact fallback result.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod accurate;
pub mod analysis;
pub mod configurable;
pub mod divider;
pub mod error;
pub mod factors;
pub mod float;
pub mod lut;
pub mod mitchell;
pub mod mse;
pub mod multiplier;
pub mod precomputed;
pub mod quad;
pub mod realm;
pub mod rng;
pub mod segment;
pub mod signed;

/// The tiered (scalar / AVX2) batch-kernel layer, re-exported so
/// downstream crates can query [`simd::active_tier`] and pin tiers in
/// benches and differential tests without a separate dependency.
pub use realm_simd as simd;

pub use accurate::Accurate;
pub use error::ConfigError;
pub use factors::ErrorReductionTable;
pub use lut::QuantizedLut;
pub use mitchell::LogEncoding;
pub use multiplier::{batch_lanes, Multiplier};
pub use realm::{Realm, RealmConfig};
pub use segment::SegmentGrid;
pub use signed::{fixed_mul_signed, FixedBatch, SignMagnitude};
