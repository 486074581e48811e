//! # realm-simd
//!
//! Wide `multiply_batch` kernels for the characterization hot path: every
//! campaign family, all 13 experiment binaries, the `realm-par` chunk
//! workers, `realm-serve` jobs and the DNN substrate ultimately spend
//! their time in the monomorphic batch kernels of `Accurate`, `REALM`,
//! `cALM` and `DRUM`. Their datapaths — leading-one detect, fraction
//! extract, M×M LUT gather, shift/add reconstruction — are branch-free
//! per lane, so this crate expresses each of them four lanes at a time
//! with AVX2 intrinsics and picks the widest safe implementation once
//! per process.
//!
//! ## Kernel tiers
//!
//! | [`Tier`] | lanes | where |
//! |---|---|---|
//! | `Scalar` | 1 | everywhere (the always-correct fallback) |
//! | `Avx2`   | 4 × u64 | x86-64 with AVX2, detected at run time |
//!
//! The scalar tier is the reference: it is the exact per-lane arithmetic
//! the `realm-core`/`realm-baselines` designs executed before this crate
//! existed, hoisted into [`kernel`] so both tiers share one body of
//! truth. The AVX2 tier must be — and is exhaustively tested to be —
//! **bit-identical** to the scalar tier for every in-range operand pair,
//! including the remainder lanes of batches whose length is not a
//! multiple of the vector width. Approximate multipliers tolerate error
//! by design, but *which* error is part of the reproduced paper's
//! contract, so acceleration is never allowed to change a single bit.
//!
//! ## Dispatch rules
//!
//! [`active_tier`] is resolved once per process, in this order:
//!
//! 1. If the `REALM_FORCE_SCALAR` environment variable is set to
//!    anything other than `0`/`false`/`off`/empty, the scalar tier is
//!    forced — the debugging and CI-differential override.
//! 2. On x86-64, AVX2 is probed with `is_x86_feature_detected!`.
//! 3. Otherwise the scalar tier runs.
//!
//! The chosen tier is reported through the `realm-obs` metrics registry
//! (gauge `kernel_tier`) and recorded in `BENCH_throughput.json`, so
//! every artifact names the ISA tier that produced it. Benches and
//! differential tests can also pin a tier explicitly per call — every
//! kernel's `run` takes the tier as an argument precisely so both tiers
//! can be exercised inside one process.
//!
//! ## Portability notes
//!
//! * **NEON**: the same pipeline maps to 2 × u64 NEON lanes
//!   (`vclzq_u64` replaces the exponent-extraction trick and the LUT
//!   gather becomes `vqtbl` on the small `M ≤ 16` tables), but aarch64
//!   is not wired up yet; ARM hosts transparently take the scalar tier
//!   through the same dispatch path.
//! * **AVX-512** would double the lane count and provide native
//!   `vplzcntq`; deliberately out of scope while the hosted CI runners
//!   only guarantee AVX2.
//!
//! ## Safety
//!
//! This is the only crate in the workspace that contains `unsafe` code,
//! and all of it is confined to the `avx2` module: raw-pointer
//! loads/stores of operand blocks and the bounds-guaranteed LUT gather.
//! Kernel parameters are validated at construction (`new` returns
//! `Option`), so a kernel that exists cannot index its LUT out of
//! bounds.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::OnceLock;

pub mod kernel;

#[allow(unsafe_code)]
mod avx2;

pub use kernel::{AccurateKernel, CalmKernel, DrumKernel, IlmKernel, RealmKernel, ScaleTrimKernel};

/// The environment variable that forces the scalar tier
/// (`REALM_FORCE_SCALAR=1`), for debugging and CI differential runs.
pub const FORCE_SCALAR_ENV: &str = "REALM_FORCE_SCALAR";

/// One ISA tier of the batch-kernel layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Per-lane scalar arithmetic — the always-correct reference tier.
    Scalar,
    /// 4 × u64 lanes via AVX2 intrinsics (x86-64, runtime-detected).
    Avx2,
}

impl Tier {
    /// Stable lower-case name, as recorded in `BENCH_throughput.json`
    /// and campaign artifacts (`"scalar"`, `"avx2"`).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Avx2 => "avx2",
        }
    }

    /// Numeric code for the `kernel_tier` metrics gauge (gauges are
    /// `f64`-valued): 0 = scalar, 1 = AVX2.
    pub fn index(self) -> u8 {
        match self {
            Tier::Scalar => 0,
            Tier::Avx2 => 1,
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether [`FORCE_SCALAR_ENV`] requests the scalar tier. Set-but-falsy
/// values (`0`, `false`, `off`, empty) leave dispatch alone, so CI can
/// pass the variable unconditionally and flip only its value.
pub fn force_scalar_requested() -> bool {
    match std::env::var(FORCE_SCALAR_ENV) {
        Ok(v) => !matches!(v.trim(), "" | "0" | "false" | "off"),
        Err(_) => false,
    }
}

/// Whether the AVX2 tier can run on this machine (compile target plus
/// runtime CPUID probe). Independent of the scalar override.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Resolves the dispatch rules right now, ignoring the process-wide
/// cache: scalar override first, then feature detection. Prefer
/// [`active_tier`] outside tests — kernels must not flip tiers midway
/// through a campaign.
pub fn detect_tier() -> Tier {
    if force_scalar_requested() {
        return Tier::Scalar;
    }
    if avx2_available() {
        Tier::Avx2
    } else {
        Tier::Scalar
    }
}

/// The tier every `multiply_batch` runs on, selected once per process
/// (first call wins; later changes to [`FORCE_SCALAR_ENV`] are
/// deliberately ignored so a campaign never mixes tiers).
pub fn active_tier() -> Tier {
    static TIER: OnceLock<Tier> = OnceLock::new();
    *TIER.get_or_init(detect_tier)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_names_are_stable() {
        assert_eq!(Tier::Scalar.name(), "scalar");
        assert_eq!(Tier::Avx2.name(), "avx2");
        assert_eq!(Tier::Scalar.index(), 0);
        assert_eq!(Tier::Avx2.index(), 1);
        assert_eq!(Tier::Avx2.to_string(), "avx2");
    }

    #[test]
    fn active_tier_is_sticky() {
        assert_eq!(active_tier(), active_tier());
    }

    #[test]
    fn detection_is_consistent_with_availability() {
        if !avx2_available() {
            assert_eq!(detect_tier(), Tier::Scalar);
        } else if !force_scalar_requested() {
            assert_eq!(detect_tier(), Tier::Avx2);
        }
    }
}
