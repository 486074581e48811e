//! Error types returned by fallible constructors in this crate.

use std::error::Error;
use std::fmt;

/// The reason a multiplier configuration was rejected.
///
/// Returned by constructors such as [`crate::Realm::new`] when the requested
/// combination of operand width, segmentation, truncation and LUT precision
/// cannot be realized as hardware.
///
/// ```
/// use realm_core::{Realm, RealmConfig, ConfigError};
///
/// // t = 15 would leave no fraction bits at all in a 16-bit design.
/// let err = Realm::new(RealmConfig::new(16, 16, 15, 6)).unwrap_err();
/// assert!(matches!(err, ConfigError::TruncationTooLarge { .. }));
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The operand width `N` is outside the range the design supports
    /// (`4..=64` for REALM).
    UnsupportedWidth {
        /// The rejected width.
        width: u32,
    },
    /// The segment count `M` is not a power of two in `2..=256`.
    InvalidSegmentCount {
        /// The rejected segment count.
        segments: u32,
    },
    /// Truncating `t` LSBs would leave fewer fraction bits than the
    /// `log2(M)` bits needed to index the lookup table.
    TruncationTooLarge {
        /// The rejected truncation.
        truncation: u32,
        /// Fraction bits available before truncation (`N − 1`).
        fraction_bits: u32,
        /// Bits needed to address one segment axis (`log2 M`).
        index_bits: u32,
    },
    /// The LUT precision `q` is outside the supported `3..=20` range.
    InvalidLutPrecision {
        /// The rejected precision.
        precision: u32,
    },
    /// An iteration count outside the supported `1..=2` range (the
    /// two-iteration ILM baseline only defines one refinement step).
    InvalidIterations {
        /// The rejected iteration count.
        iterations: u32,
    },
    /// An error-reduction factor fell outside the open interval `(0, 0.25)`
    /// that the paper's `(q−2)`-bit storage optimization relies on.
    FactorOutOfRange {
        /// Row index of the offending segment.
        row: usize,
        /// Column index of the offending segment.
        col: usize,
        /// The offending value.
        value: f64,
    },
    /// A factor table of the wrong size was supplied (`M²` entries needed).
    FactorTableSize {
        /// Number of entries supplied.
        got: usize,
        /// Number of entries expected.
        expected: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::UnsupportedWidth { width } => {
                write!(f, "operand width {width} is not supported by this design")
            }
            ConfigError::InvalidSegmentCount { segments } => {
                write!(
                    f,
                    "segment count {segments} is not a power of two in 2..=256"
                )
            }
            ConfigError::TruncationTooLarge {
                truncation,
                fraction_bits,
                index_bits,
            } => write!(
                f,
                "truncating {truncation} of {fraction_bits} fraction bits leaves fewer than \
                 the {index_bits} bits needed to index the lookup table"
            ),
            ConfigError::InvalidLutPrecision { precision } => {
                write!(
                    f,
                    "lut precision {precision} is outside the supported range 3..=20"
                )
            }
            ConfigError::InvalidIterations { iterations } => {
                write!(
                    f,
                    "iteration count {iterations} is outside the supported range 1..=2"
                )
            }
            ConfigError::FactorOutOfRange { row, col, value } => write!(
                f,
                "error-reduction factor s[{row}][{col}] = {value} is outside the open \
                 interval (0, 0.25) required for (q-2)-bit storage"
            ),
            ConfigError::FactorTableSize { got, expected } => {
                write!(f, "factor table has {got} entries, expected {expected}")
            }
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_unpunctuated() {
        let e = ConfigError::UnsupportedWidth { width: 99 };
        let s = e.to_string();
        assert!(s.starts_with("operand width 99"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConfigError>();
    }

    #[test]
    fn all_variants_format() {
        let variants = [
            ConfigError::UnsupportedWidth { width: 3 },
            ConfigError::InvalidSegmentCount { segments: 5 },
            ConfigError::TruncationTooLarge {
                truncation: 15,
                fraction_bits: 15,
                index_bits: 4,
            },
            ConfigError::InvalidLutPrecision { precision: 1 },
            ConfigError::InvalidIterations { iterations: 3 },
            ConfigError::FactorOutOfRange {
                row: 0,
                col: 1,
                value: 0.3,
            },
            ConfigError::FactorTableSize {
                got: 4,
                expected: 16,
            },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }
}
