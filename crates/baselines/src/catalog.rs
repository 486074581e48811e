//! The design registry. A [`DesignSpec`] is the one key for a design
//! point: it parses from the `name[@W][:key=value,…]` text grammar
//! ([`FAMILIES`] lists the names, keys and defaults), builds the
//! behavioural model and its label, and `realm_synth::designs::netlist`
//! maps it to the gate-level netlist. The slates the experiments iterate
//! are lists of specs: Table I ([`table1`]) and Table II ([`table2`]).

use std::fmt;
use std::ops::RangeInclusive;

use realm_core::{Accurate, ConfigError, Multiplier, Realm, RealmConfig};

use crate::{
    Alm, AlmAdder, Am, AmRecovery, Calm, Drum, Essm8, Ilm, ImpLm, IntAlp, Kulkarni, Mbm, ScaleTrim,
    Ssm,
};

use DesignSpec as D;

/// One design point: a family and its parameters, each field named
/// after the family's grammar key (`w` is the operand width).
#[allow(missing_docs)] // each field is a grammar key, named in its variant's doc
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignSpec {
    /// The exact reference multiplier (`accurate`).
    Accurate { w: u32 },
    /// The paper's REALM (`realm`: `m` segments, `t` truncation, `q` LUT).
    Realm(RealmConfig),
    /// Mitchell's multiplier (`calm`).
    Calm { w: u32 },
    /// ALM-MAA (`alm-maa`: `m` approximate adder bits).
    AlmMaa { w: u32, m: u32 },
    /// ALM-SOA (`alm-soa`: `m` approximate adder bits).
    AlmSoa { w: u32, m: u32 },
    /// ImpLM with the exact adder (`implm`).
    ImpLm { w: u32 },
    /// MBM (`mbm`: `t` fraction truncation).
    Mbm { w: u32, t: u32 },
    /// AM1 (`am1`: `nb` error-recovery columns, OR-combined).
    Am1 { w: u32, nb: u32 },
    /// AM2 (`am2`: `nb` error-recovery columns, summed).
    Am2 { w: u32, nb: u32 },
    /// IntALP (`intalp`: `l` levels).
    IntAlp { w: u32, l: u32 },
    /// DRUM (`drum`: `k` fragment bits).
    Drum { w: u32, k: u32 },
    /// SSM (`ssm`: `s` segment bits).
    Ssm { w: u32, s: u32 },
    /// ESSM8 (`essm8`, 16-bit only).
    Essm8 { w: u32 },
    /// scaleTRIM (`scaletrim`: `t` cross-term bits, `c` compensation).
    ScaleTrim { w: u32, t: u32, c: bool },
    /// The iterative log multiplier (`ilm`: `i` iterations).
    Ilm { w: u32, i: u32 },
    /// Kulkarni's 2×2-array underdesigned multiplier (`kulkarni`).
    Kulkarni { w: u32 },
}

/// One row of the family table: a grammar name, the keys it accepts and
/// how their values make a [`DesignSpec`].
pub struct Family {
    /// The design name in the grammar.
    pub name: &'static str,
    /// Every key the name accepts with its default, the width `w` first.
    pub keys: &'static [(&'static str, u32)],
    /// Makes the spec from the key values, in `keys` order.
    make: fn(&[u32]) -> Result<DesignSpec, String>,
}

const fn family(
    name: &'static str,
    keys: &'static [(&'static str, u32)],
    make: fn(&[u32]) -> Result<DesignSpec, String>,
) -> Family {
    Family { name, keys, make }
}

const W: (&str, u32) = ("w", 16);

/// The family table: every design name of the grammar, its keys and
/// their defaults.
pub const FAMILIES: &[Family] = &[
    family("accurate", &[W], |v| Ok(D::Accurate { w: v[0] })),
    family("realm", &[W, ("m", 16), ("t", 0), ("q", 6)], |v| {
        Ok(D::Realm(RealmConfig::new(v[0], v[1], v[2], v[3])))
    }),
    family("calm", &[W], |v| Ok(D::Calm { w: v[0] })),
    family("alm-maa", &[W, ("m", 11)], |v| {
        Ok(D::AlmMaa { w: v[0], m: v[1] })
    }),
    family("alm-soa", &[W, ("m", 11)], |v| {
        Ok(D::AlmSoa { w: v[0], m: v[1] })
    }),
    family("implm", &[W], |v| Ok(D::ImpLm { w: v[0] })),
    family("mbm", &[W, ("t", 0)], |v| Ok(D::Mbm { w: v[0], t: v[1] })),
    family("am1", &[W, ("nb", 9)], |v| Ok(D::Am1 { w: v[0], nb: v[1] })),
    family("am2", &[W, ("nb", 9)], |v| Ok(D::Am2 { w: v[0], nb: v[1] })),
    family("intalp", &[W, ("l", 1)], |v| {
        Ok(D::IntAlp { w: v[0], l: v[1] })
    }),
    family("drum", &[W, ("k", 6)], |v| Ok(D::Drum { w: v[0], k: v[1] })),
    family("ssm", &[W, ("s", 8)], |v| Ok(D::Ssm { w: v[0], s: v[1] })),
    family("essm8", &[W], |v| Ok(D::Essm8 { w: v[0] })),
    family("scaletrim", &[W, ("t", 4), ("c", 1)], |v| match v[2] {
        c @ (0 | 1) => Ok(D::ScaleTrim {
            w: v[0],
            t: v[1],
            c: c == 1,
        }),
        c => Err(format!("'c={c}' must be 0 or 1")),
    }),
    family("ilm", &[W, ("i", 2)], |v| Ok(D::Ilm { w: v[0], i: v[1] })),
    family("kulkarni", &[W], |v| Ok(D::Kulkarni { w: v[0] })),
];

/// Why a design text does not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The name is not in [`FAMILIES`].
    UnknownDesign(String),
    /// A parameter was malformed, out of range, or not a key the named
    /// design accepts.
    BadParam {
        /// The full design text being parsed.
        design: String,
        /// What was wrong with it.
        detail: String,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::UnknownDesign(name) => {
                let names: Vec<&str> = FAMILIES.iter().map(|family| family.name).collect();
                write!(f, "unknown design '{name}' (expected {})", names.join("|"))
            }
            ParseError::BadParam { design, detail } => {
                write!(f, "bad parameter in design '{design}': {detail}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// An ALM, with the limits [`Alm::new`] asserts returned as errors.
fn alm(w: u32, adder: AlmAdder, m: u32) -> Result<Alm, ConfigError> {
    let w = width_in(Alm::WIDTHS, w)?;
    if m >= w - 1 {
        return Err(ConfigError::TruncationTooLarge {
            truncation: m,
            fraction_bits: w - 1,
            index_bits: 1,
        });
    }
    Ok(Alm::new(w, adder, m))
}

/// `width` if `widths` holds it, else the error a constructor asserting
/// that range would have panicked on.
fn width_in(widths: RangeInclusive<u32>, width: u32) -> Result<u32, ConfigError> {
    if widths.contains(&width) {
        Ok(width)
    } else {
        Err(ConfigError::UnsupportedWidth { width })
    }
}

impl DesignSpec {
    /// Parses the design grammar
    ///
    /// ```text
    /// design := name [ "@" width ] [ ":" key "=" int { "," key "=" int } ]
    /// ```
    ///
    /// with the names, keys and defaults of [`FAMILIES`]. Names and keys
    /// are case-insensitive; `@W` is shorthand for the `w` key, and giving
    /// both is an error. Whether the values make a buildable design is
    /// [`DesignSpec::build`]'s question.
    ///
    /// ```
    /// use realm_baselines::catalog::DesignSpec;
    ///
    /// let spec = DesignSpec::parse("alm-soa:m=11").unwrap();
    /// assert_eq!(spec.to_string(), "alm-soa@16:m=11");
    /// assert_eq!(spec.build().unwrap().name(), "ALM-SOA");
    /// assert!(DesignSpec::parse("calm@100").unwrap().build().is_err());
    /// ```
    pub fn parse(text: &str) -> Result<DesignSpec, ParseError> {
        let bad = |detail: String| ParseError::BadParam {
            design: text.to_string(),
            detail,
        };
        let (head, param_text) = text.split_once(':').unwrap_or((text, ""));
        let (name, at_width) = match head.split_once('@') {
            Some((name, width)) => (name, Some(width.trim())),
            None => (head, None),
        };
        let name = name.trim().to_ascii_lowercase();
        let Some(family) = FAMILIES.iter().find(|family| family.name == name) else {
            return Err(ParseError::UnknownDesign(name));
        };
        // Defaults, overwritten by each key in turn (the last one wins).
        let mut values: Vec<u32> = family.keys.iter().map(|&(_, default)| default).collect();
        let pairs = param_text.split(',').map(str::trim);
        for kv in pairs.filter(|kv| !kv.is_empty()) {
            let (key, value) = kv
                .split_once('=')
                .ok_or_else(|| bad(format!("expected key=value, got '{kv}'")))?;
            let key = key.trim().to_ascii_lowercase();
            let Some(slot) = family.keys.iter().position(|&(k, _)| k == key) else {
                let allowed: Vec<&str> = family.keys.iter().map(|&(k, _)| k).collect();
                return Err(bad(format!(
                    "'{name}' does not accept key '{key}' (allowed: {})",
                    allowed.join(", ")
                )));
            };
            if slot == 0 && at_width.is_some() {
                return Err(bad(
                    "operand width given both as '@W' suffix and 'w=' key".into()
                ));
            }
            let value = value.trim();
            values[slot] = value
                .parse()
                .map_err(|_| bad(format!("'{value}' is not an unsigned 32-bit integer")))?;
        }
        if let Some(width) = at_width {
            values[0] = width
                .parse()
                .map_err(|_| bad(format!("'@{width}' is not an unsigned operand width")))?;
        }
        (family.make)(&values).map_err(bad)
    }

    /// Builds the behavioural model. Total: a width or parameter the
    /// model's constructor rejects, or would assert on, comes back as a
    /// [`ConfigError`].
    pub fn build(&self) -> Result<Box<dyn Multiplier>, ConfigError> {
        Ok(match *self {
            D::Accurate { w } => Box::new(Accurate::new(width_in(Accurate::WIDTHS, w)?)),
            D::Realm(config) => Box::new(Realm::new(config)?),
            D::Calm { w } => Box::new(Calm::new(width_in(Calm::WIDTHS, w)?)),
            D::AlmMaa { w, m } => Box::new(alm(w, AlmAdder::Maa, m)?),
            D::AlmSoa { w, m } => Box::new(alm(w, AlmAdder::Soa, m)?),
            D::ImpLm { w } => Box::new(ImpLm::new(width_in(ImpLm::WIDTHS, w)?)),
            D::Mbm { w, t } => Box::new(Mbm::new(w, t)?),
            D::Am1 { w, nb } => Box::new(Am::new(w, AmRecovery::Or, nb)?),
            D::Am2 { w, nb } => Box::new(Am::new(w, AmRecovery::Sum, nb)?),
            D::IntAlp { w, l } => Box::new(IntAlp::new(w, l)?),
            D::Drum { w, k } => Box::new(Drum::new(w, k)?),
            D::Ssm { w, s } => Box::new(Ssm::new(w, s)?),
            D::Essm8 { w } => width_in(16..=16, w).map(|_| Box::new(Essm8::new()))?,
            D::ScaleTrim { w, t, c } => Box::new(ScaleTrim::new(w, t, c)?),
            D::Ilm { w, i } => Box::new(Ilm::new(w, i)?),
            D::Kulkarni { w } => Box::new(Kulkarni::new(w)?),
        })
    }

    /// The grammar name and the key values, in the family's key order.
    fn parts(&self) -> (&'static str, Vec<u32>) {
        match *self {
            D::Accurate { w } => ("accurate", vec![w]),
            D::Realm(c) => (
                "realm",
                vec![c.width, c.segments, c.truncation, c.precision],
            ),
            D::Calm { w } => ("calm", vec![w]),
            D::AlmMaa { w, m } => ("alm-maa", vec![w, m]),
            D::AlmSoa { w, m } => ("alm-soa", vec![w, m]),
            D::ImpLm { w } => ("implm", vec![w]),
            D::Mbm { w, t } => ("mbm", vec![w, t]),
            D::Am1 { w, nb } => ("am1", vec![w, nb]),
            D::Am2 { w, nb } => ("am2", vec![w, nb]),
            D::IntAlp { w, l } => ("intalp", vec![w, l]),
            D::Drum { w, k } => ("drum", vec![w, k]),
            D::Ssm { w, s } => ("ssm", vec![w, s]),
            D::Essm8 { w } => ("essm8", vec![w]),
            D::ScaleTrim { w, t, c } => ("scaletrim", vec![w, t, u32::from(c)]),
            D::Ilm { w, i } => ("ilm", vec![w, i]),
            D::Kulkarni { w } => ("kulkarni", vec![w]),
        }
    }
}

impl fmt::Display for DesignSpec {
    /// The canonical text, `name@W:key=value,…` with every key; it
    /// parses back to an equal spec.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (name, values) = self.parts();
        write!(f, "{name}@{}", values[0])?;
        let family = FAMILIES.iter().find(|family| family.name == name);
        let keys = family.map_or(&[][..], |family| family.keys);
        for (i, (&(key, _), value)) in keys.iter().zip(&values).enumerate().skip(1) {
            write!(f, "{}{key}={value}", if i == 1 { ':' } else { ',' })?;
        }
        Ok(())
    }
}

/// Table I's 69 rows in the table's order: REALM (`M ∈ {16, 8, 4}` ×
/// `t ∈ 0..=9`, `q = 6`), the paper's baselines, then the post-paper
/// comparators scaleTRIM and ILM, appended last so the paper rows keep
/// their positions. Every row is 16-bit.
pub fn table1() -> Vec<DesignSpec> {
    let w = 16;
    let mut rows = Vec::with_capacity(69);
    for m in [16, 8, 4] {
        rows.extend((0..=9).map(|t| D::Realm(RealmConfig::n16(m, t))));
    }
    rows.push(D::Calm { w });
    rows.push(D::ImpLm { w });
    rows.extend([0, 2, 4, 6, 8, 9].map(|t| D::Mbm { w, t }));
    rows.extend([3, 6, 9, 11, 12].map(|m| D::AlmMaa { w, m }));
    rows.extend([3, 6, 9, 11, 12].map(|m| D::AlmSoa { w, m }));
    rows.extend([2, 1].map(|l| D::IntAlp { w, l }));
    rows.extend([13, 9, 5].map(|nb| D::Am1 { w, nb }));
    rows.extend([13, 9, 5].map(|nb| D::Am2 { w, nb }));
    rows.extend([8, 7, 6, 5, 4].map(|k| D::Drum { w, k }));
    rows.extend([10, 9, 8].map(|s| D::Ssm { w, s }));
    rows.push(D::Essm8 { w });
    rows.extend([4, 6].map(|t| D::ScaleTrim { w, t, c: true }));
    rows.extend([1, 2].map(|i| D::Ilm { w, i }));
    rows
}

/// The designs of the JPEG study (Table II), excluding the accurate
/// reference: REALM{16,8,4} at `t = 8`, MBM `t = 0`, cALM, ImpLM (EA),
/// IntALP `L = 1` and ALM-SOA `m = 11`.
pub fn table2() -> Vec<DesignSpec> {
    let w = 16;
    vec![
        D::Realm(RealmConfig::n16(16, 8)),
        D::Realm(RealmConfig::n16(8, 8)),
        D::Realm(RealmConfig::n16(4, 8)),
        D::Mbm { w, t: 0 },
        D::Calm { w },
        D::ImpLm { w },
        D::IntAlp { w, l: 1 },
        D::AlmSoa { w, m: 11 },
    ]
}

/// The models of [`table1`], in row order.
pub fn table1_designs() -> Vec<Box<dyn Multiplier>> {
    build_all(&table1())
}

/// The models of [`table2`], in row order.
pub fn table2_designs() -> Vec<Box<dyn Multiplier>> {
    build_all(&table2())
}

/// Builds a slate. Its rows are fixed design points, so none is
/// dropped; the slate tests build every row and count them.
fn build_all(slate: &[DesignSpec]) -> Vec<Box<dyn Multiplier>> {
    slate.iter().filter_map(|spec| spec.build().ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_core::multiplier::MultiplierExt;

    fn is_comparator(spec: &DesignSpec) -> bool {
        matches!(spec, D::ScaleTrim { .. } | D::Ilm { .. })
    }

    #[test]
    fn realm_rows_match_table1_count() {
        let realm = table1().iter().filter(|s| matches!(s, D::Realm(_))).count();
        assert_eq!(realm, 30);
    }

    #[test]
    fn baseline_rows_match_table1_count() {
        // 1 cALM + 1 ImpLM + 6 MBM + 5 MAA + 5 SOA + 2 IntALP + 3 AM1 +
        // 3 AM2 + 5 DRUM + 3 SSM + 1 ESSM8 = 35.
        let baselines = table1()
            .iter()
            .filter(|s| !matches!(s, D::Realm(_)) && !is_comparator(s))
            .count();
        assert_eq!(baselines, 35);
    }

    #[test]
    fn comparator_rows_extend_the_table() {
        let rows = table1();
        assert!(rows[65..].iter().all(is_comparator));
        assert_eq!(rows.iter().filter(|s| is_comparator(s)).count(), 4);
        assert_eq!(table1_designs().len(), 69);
    }

    #[test]
    fn all_designs_are_16_bit_and_zero_preserving() {
        for d in table1_designs() {
            assert_eq!(d.width(), 16, "{}", d.label());
            assert_eq!(d.multiply(0, 1234), 0, "{}", d.label());
            assert_eq!(d.multiply(1234, 0), 0, "{}", d.label());
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<String> = table1_designs().iter().map(|d| d.label()).collect();
        let before = labels.len();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), before, "duplicate design labels");
    }

    #[test]
    fn table2_has_eight_approximate_designs() {
        assert_eq!(table2_designs().len(), 8);
    }

    #[test]
    fn every_slate_row_builds_from_its_text_with_the_same_label() {
        for spec in table1().into_iter().chain(table2()) {
            let text = spec.to_string();
            let parsed = DesignSpec::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(parsed, spec, "{text}");
            let label = spec.build().unwrap().label();
            assert_eq!(parsed.build().unwrap().label(), label, "{text}");
        }
    }

    #[test]
    fn every_family_parses_with_its_defaults_and_round_trips() {
        for family in FAMILIES {
            let spec = DesignSpec::parse(family.name).unwrap();
            assert_eq!(spec.parts().0, family.name);
            let defaults: Vec<u32> = family.keys.iter().map(|&(_, d)| d).collect();
            assert_eq!(spec.parts().1, defaults, "{}", family.name);
            assert_eq!(DesignSpec::parse(&spec.to_string()), Ok(spec));
            let design = spec
                .build()
                .unwrap_or_else(|e| panic!("{}: {e}", family.name));
            assert_eq!(design.width(), 16, "{}", family.name);
        }
        assert_eq!(DesignSpec::parse("AM2@8:NB=5"), Ok(D::Am2 { w: 8, nb: 5 }));
    }

    /// Every name × a width list × the same values for each key: every
    /// text either fails to parse, fails to build or builds a design that
    /// multiplies, and none panics. The texts listed at the end used to
    /// reach a constructor assert.
    #[test]
    fn the_grammar_is_total_over_a_width_and_key_sweep() {
        let mut values: Vec<u64> = (0..=10).collect();
        values.extend([12, 15, 16, 17, 24, 31, 32, 33, 48, 63, 64, 65, 100]);
        values.extend([u64::from(u32::MAX), 1 << 32]);
        let mut built = 0;
        for family in FAMILIES {
            for &w in &values {
                let base = format!("{}@{w}", family.name);
                let mut texts = vec![base.clone()];
                for &(key, _) in &family.keys[1..] {
                    texts.extend(values.iter().map(|v| format!("{base}:{key}={v}")));
                }
                for text in texts {
                    let Ok(Ok(design)) = DesignSpec::parse(&text).map(|spec| spec.build()) else {
                        continue;
                    };
                    let max = u64::MAX >> (64 - design.width());
                    let _ = (design.multiply(1, 1), design.multiply_wide(max, max));
                    built += 1;
                }
            }
        }
        assert!(built > 1000, "only {built} texts built");
        // The 22 texts that reached a constructor assert before `build`
        // was total, then the ALM and ESSM8 limits of the new names.
        let rejected = [
            "accurate@0",
            "accurate@65",
            "accurate@100",
            "accurate@4294967295",
            "calm@0",
            "calm@1",
            "calm@2",
            "calm@3",
            "calm@65",
            "calm@100",
            "calm@4294967295",
            "implm@0",
            "implm@1",
            "implm@2",
            "implm@3",
            "implm@33",
            "implm@48",
            "implm@63",
            "implm@64",
            "implm@65",
            "implm@100",
            "implm@4294967295",
            "alm-maa@3",
            "alm-soa@33",
            "alm-maa:m=15",
            "alm-soa@8:m=7",
            "essm8@8",
            "essm8@32",
        ];
        for text in rejected {
            let spec = DesignSpec::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert!(spec.build().is_err(), "{text} must be rejected");
        }
    }

    #[test]
    fn bad_texts_are_parse_errors() {
        for text in ["booth", "", "@16", ":m=4"] {
            assert!(
                matches!(DesignSpec::parse(text), Err(ParseError::UnknownDesign(_))),
                "{text:?}"
            );
        }
        for text in [
            "realm:z=3",
            "realm:m",
            "realm:=5",
            "realm:m=",
            "realm:m=4294967296",
            "calm@x",
            "calm@",
            "calm@16@8",
            "realm@16:w=16",
            "scaletrim:c=2",
        ] {
            assert!(
                matches!(DesignSpec::parse(text), Err(ParseError::BadParam { .. })),
                "{text}"
            );
        }
        let message = ParseError::UnknownDesign("booth".into()).to_string();
        assert!(message.contains("alm-soa|implm"), "{message}");
    }
}
