//! Uniform command-line behavior across every experiment driver: all 15
//! binaries share one parser (`realm_bench::Options`), so a malformed
//! flag must exit with status 2 and print the usage table everywhere,
//! and `--help` must exit 0 with the same table.

use std::process::Command;

/// Every driver binary in the crate, resolved at build time so the test
/// fails to compile if a binary is renamed without updating the matrix.
const BINS: [(&str, &str); 15] = [
    ("ablation", env!("CARGO_BIN_EXE_ablation")),
    ("campaign", env!("CARGO_BIN_EXE_campaign")),
    ("dnn", env!("CARGO_BIN_EXE_dnn")),
    ("extensions", env!("CARGO_BIN_EXE_extensions")),
    ("faults", env!("CARGO_BIN_EXE_faults")),
    ("fig1", env!("CARGO_BIN_EXE_fig1")),
    ("fig2", env!("CARGO_BIN_EXE_fig2")),
    ("fig3", env!("CARGO_BIN_EXE_fig3")),
    ("fig4", env!("CARGO_BIN_EXE_fig4")),
    ("fig5", env!("CARGO_BIN_EXE_fig5")),
    ("qos", env!("CARGO_BIN_EXE_qos")),
    ("sweep", env!("CARGO_BIN_EXE_sweep")),
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("table2", env!("CARGO_BIN_EXE_table2")),
    ("widths", env!("CARGO_BIN_EXE_widths")),
];

#[test]
fn unknown_flag_exits_2_with_usage_everywhere() {
    for (name, exe) in BINS {
        let out = Command::new(exe)
            .arg("--bogus-flag")
            .output()
            .unwrap_or_else(|e| panic!("cannot spawn {name}: {e}"));
        assert_eq!(
            out.status.code(),
            Some(2),
            "{name}: bad flag must exit 2, got {:?}",
            out.status.code()
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--bogus-flag"),
            "{name}: diagnostic must name the flag:\n{stderr}"
        );
        assert!(
            stderr.contains("--samples") && stderr.contains("--trace"),
            "{name}: usage table must follow the diagnostic:\n{stderr}"
        );
    }
}

#[test]
fn missing_flag_value_exits_2_everywhere() {
    for (name, exe) in BINS {
        let out = Command::new(exe)
            .arg("--samples")
            .output()
            .unwrap_or_else(|e| panic!("cannot spawn {name}: {e}"));
        assert_eq!(
            out.status.code(),
            Some(2),
            "{name}: missing value must exit 2"
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("requires a value"),
            "{name}: diagnostic must explain the missing value"
        );
    }
}

#[test]
fn zero_samples_exit_2_with_usage_everywhere() {
    for (name, exe) in BINS {
        let out = Command::new(exe)
            .args(["--samples", "0"])
            .output()
            .unwrap_or_else(|e| panic!("cannot spawn {name}: {e}"));
        assert_eq!(
            out.status.code(),
            Some(2),
            "{name}: --samples 0 must exit 2, got {:?}",
            out.status.code()
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--samples 0") && stderr.contains("--trace"),
            "{name}: diagnostic and usage table expected:\n{stderr}"
        );
    }
}

#[test]
fn malformed_error_sla_exits_2_with_usage_everywhere() {
    for (name, exe) in BINS {
        for bad in ["mean:banana", "typo:0.1", "mean", ""] {
            let out = Command::new(exe)
                .args(["--error-sla", bad])
                .output()
                .unwrap_or_else(|e| panic!("cannot spawn {name}: {e}"));
            assert_eq!(
                out.status.code(),
                Some(2),
                "{name}: --error-sla '{bad}' must exit 2, got {:?}",
                out.status.code()
            );
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("--error-sla"),
                "{name}: diagnostic must name the flag for '{bad}':\n{stderr}"
            );
            assert!(
                stderr.contains("--samples"),
                "{name}: usage table must follow the diagnostic:\n{stderr}"
            );
        }
    }
}

#[test]
fn malformed_design_spec_exits_2_with_usage_everywhere() {
    // One driver per failure class keeps the matrix fast; the parser is
    // shared, so any driver exercising a class covers them all.
    let cases = [
        ("frobnicator", 0),     // unknown design name
        ("scaletrim:t=1", 1),   // config rejected by the design
        ("ilm:i=3", 2),         // iteration count out of range
        ("ilm@banana", 3),      // malformed @W width suffix
        ("calm@16:w=16", 4),    // width given twice
        ("drum:k=6,typo=1", 5), // unknown parameter key
        ("calm@100", 6),        // width the design cannot build
    ];
    for (bad, i) in cases {
        let (name, exe) = BINS[i % BINS.len()];
        let out = Command::new(exe)
            .args(["--design", bad])
            .output()
            .unwrap_or_else(|e| panic!("cannot spawn {name}: {e}"));
        assert_eq!(
            out.status.code(),
            Some(2),
            "{name}: --design '{bad}' must exit 2, got {:?}",
            out.status.code()
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--design") && stderr.contains(bad),
            "{name}: diagnostic must name the flag and spec for '{bad}':\n{stderr}"
        );
        assert!(
            stderr.contains("--samples"),
            "{name}: usage table must follow the diagnostic:\n{stderr}"
        );
    }
}

#[test]
fn malformed_layer_spec_exits_2_with_usage_everywhere() {
    // The layer-binding grammar is validated eagerly at the flag table;
    // the parser is shared, so a rotating driver per failure class
    // covers them all (and the dnn driver — its actual consumer — takes
    // the first).
    let cases = [
        ("conv1", 2),                 // no '=' at all
        ("conv1=", 0),                // empty design
        ("conv1=banana", 1),          // unknown design name
        ("t=4", 3),                   // parameter before any binding
        ("conv1=realm:z=1", 4),       // unknown parameter key
        ("conv1=calm,conv1=calm", 5), // duplicate layer
        ("conv1=scaletrim:t=6@x", 6), // malformed trailing width
        ("", 7),                      // empty spec
    ];
    for (bad, i) in cases {
        let (name, exe) = BINS[i % BINS.len()];
        let out = Command::new(exe)
            .args(["--layers", bad])
            .output()
            .unwrap_or_else(|e| panic!("cannot spawn {name}: {e}"));
        assert_eq!(
            out.status.code(),
            Some(2),
            "{name}: --layers '{bad}' must exit 2, got {:?}",
            out.status.code()
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--layers"),
            "{name}: diagnostic must name the flag for '{bad}':\n{stderr}"
        );
        assert!(
            stderr.contains("--samples") && stderr.contains("--trace"),
            "{name}: usage table must follow the diagnostic:\n{stderr}"
        );
    }
}

#[test]
fn well_formed_layer_spec_passes_the_flag_table() {
    // The canonical mixed spec from the documentation must clear eager
    // validation: compact realm alias + trailing @W relocation. Checked
    // via --help short-circuit? No — --help wins before parsing, so use
    // a driver that exits quickly on a separate bad flag *after* the
    // spec parses, proving the spec itself was accepted.
    let (name, exe) = BINS[0];
    let out = Command::new(exe)
        .args([
            "--layers",
            "conv1=realm16t4,dense1=scaletrim:t=6@16",
            "--bogus-flag",
        ])
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {name}: {e}"));
    assert_eq!(out.status.code(), Some(2), "{name}: trailing bad flag");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--bogus-flag") && !stderr.contains("--layers '"),
        "{name}: the layer spec must parse — only the bogus flag may be diagnosed:\n{stderr}"
    );
}

#[test]
fn help_exits_0_with_the_shared_flag_table() {
    for (name, exe) in BINS {
        let out = Command::new(exe)
            .arg("--help")
            .output()
            .unwrap_or_else(|e| panic!("cannot spawn {name}: {e}"));
        assert_eq!(out.status.code(), Some(0), "{name}: --help must exit 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        for flag in [
            "--samples",
            "--threads",
            "--smoke",
            "--resume",
            "--trace",
            "--progress",
            "--error-sla",
            "--layers",
        ] {
            assert!(
                stdout.contains(flag),
                "{name}: --help must document {flag}:\n{stdout}"
            );
        }
    }
}
