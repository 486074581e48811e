//! The benchmark's own contract, in its tiny-size mode: every metric
//! named in `BENCHMARK.json` is emitted with its unit, the output checks
//! pass, and the same seed gives the same output checksum on either
//! kernel tier and at 1 or 2 threads.

use std::path::Path;
use std::process::{Command, Output};

use realm_obs::Json;

fn run(args: &[&str], envs: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .envs(envs.iter().copied())
        .output()
        .expect("spawn perfbench")
}

/// Runs a tiny workload and returns `(meta, result)` parsed from the
/// last two lines of standard output.
fn tiny(
    workload: &str,
    seed: &str,
    trace: &str,
    threads: &str,
    envs: &[(&str, &str)],
) -> (Json, Json) {
    let out = run(
        &[
            "--workload",
            workload,
            "--seed",
            seed,
            "--seconds",
            "1",
            "--trace",
            trace,
            "--threads",
            threads,
            "--tiny",
        ],
        envs,
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let meta = lines[lines.len() - 2]
        .strip_prefix("meta ")
        .expect("meta line before the result");
    (
        Json::parse(meta).expect("meta is JSON"),
        Json::parse(lines[lines.len() - 1]).expect("result is JSON"),
    )
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    let Some(Json::Arr(items)) = doc.get(list) else {
        panic!("BENCHMARK.json has no '{list}' list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Checks the result line's shape and returns its metrics as `(name, unit, value)`.
fn metrics(result: &Json) -> Vec<(String, String, f64)> {
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let Some(Json::Obj(members)) = result.get("metrics") else {
        panic!("no metrics object");
    };
    members
        .iter()
        .map(|(name, m)| {
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .expect("unit")
                .to_string();
            let value = m.get("value").and_then(Json::as_f64).expect("value");
            assert!(value.is_finite(), "{name} = {value}");
            (name.clone(), unit, value)
        })
        .collect()
}

fn checksum(meta: &Json) -> String {
    meta.get("output_checksum")
        .and_then(Json::as_str)
        .expect("output_checksum")
        .to_string()
}

fn check_workload(workload: &str) {
    let end_to_end = declared("end_to_end");
    let (meta, result) = tiny(workload, "7", "0", "2", &[]);
    let got = metrics(&result);
    let names: Vec<(String, String)> = got.iter().map(|(n, u, _)| (n.clone(), u.clone())).collect();
    assert_eq!(
        names, end_to_end,
        "{workload}: end-to-end metrics and units"
    );
    let ok = got
        .iter()
        .find(|(n, _, _)| n == "ok_ratio")
        .expect("ok_ratio");
    assert_eq!(ok.2, 1.0);
    for key in [
        "kernel_tier",
        "cpu_model",
        "available_parallelism",
        "seed",
        "commit",
        "work_size",
    ] {
        assert!(meta.get(key).is_some(), "meta lacks {key}");
    }

    // Same seed, other kernel tier and one thread: same outputs.
    let (scalar, result) = tiny(workload, "7", "0", "1", &[("REALM_FORCE_SCALAR", "1")]);
    metrics(&result);
    assert_eq!(
        scalar.get("kernel_tier").and_then(Json::as_str),
        Some("scalar")
    );
    assert_eq!(
        checksum(&scalar),
        checksum(&meta),
        "{workload}: checksum across tier/threads"
    );

    // A second seed passes its checks too, on other inputs.
    let (other, result) = tiny(workload, "8", "0", "2", &[]);
    metrics(&result);
    assert_ne!(
        checksum(&other),
        checksum(&meta),
        "{workload}: seed must change the inputs"
    );
}

#[test]
fn table1_contract() {
    check_workload("table1");
}

#[test]
fn apps_contract() {
    check_workload("apps");
}

#[test]
fn serve_contract() {
    check_workload("serve");
}

#[test]
fn traced_run_emits_every_per_layer_metric_and_matches_untraced_outputs() {
    let (meta, result) = tiny("serve", "7", "1", "2", &[]);
    let mut got: Vec<(String, String)> = metrics(&result)
        .into_iter()
        .map(|(n, u, _)| (n, u))
        .collect();
    let mut declared = declared("per_layer");
    got.sort();
    declared.sort();
    assert_eq!(got, declared, "per-layer metrics and units");
    assert_eq!(meta.get("traced_checksum"), meta.get("output_checksum"));
    let spans = meta
        .get("spans_file")
        .and_then(Json::as_str)
        .expect("spans_file");
    assert!(Path::new(spans).exists());
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "table1", "--trace", "2"],
        &["--workload", "table1", "--threads", "3"],
        &["--workload", "table1", "--seed"],
    ] {
        let out = run(args, &[]);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
