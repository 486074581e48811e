//! Order statistics, output fingerprints and run metadata.

use std::path::{Path, PathBuf};

use realm_harness::Fnv64;

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten values beyond it: the value
/// at rank `n - 10` (1-based) of the sorted sample, with its percentile.
/// Below eleven values it is the maximum (percentile 100).
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, 100.0);
    }
    let k = n.saturating_sub(11);
    if n < 11 {
        return (v[n - 1], 100.0);
    }
    (v[k], 100.0 * (k + 1) as f64 / n as f64)
}

/// An FNV-64 fingerprint accumulator over output bits.
#[derive(Default)]
pub struct Digest(Fnv64);

impl Digest {
    pub fn new() -> Self {
        Digest(Fnv64::new())
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.0.update(&v.to_le_bytes());
        self
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.u64(b.len() as u64);
        self.0.update(b);
        self
    }

    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from(".."), Path::to_path_buf)
}

/// The checked-out commit when the tree is a git work tree, else
/// `"unknown"`; [`source_fingerprint`] identifies the code either way.
/// Without a `.git` here, git is not asked: it would search the parent
/// directories.
pub fn commit() -> String {
    if !repo_root().join(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(repo_root())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-64 over the path and bytes of every `.rs` and `Cargo.toml` file
/// under `crates/`, in path order: names the program version in a
/// checkout that is not a git repository.
pub fn source_fingerprint() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs")
                || path.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                out.push(path);
            }
        }
    }
    let root = repo_root();
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut digest = Digest::new();
    for file in files {
        let rel = file.strip_prefix(&root).unwrap_or(&file);
        digest.bytes(rel.to_string_lossy().as_bytes());
        digest.bytes(&std::fs::read(&file).unwrap_or_default());
    }
    digest.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_values_beyond_it() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&values), (90.0, 90.0));
        assert_eq!(tail(&values[..5]), (5.0, 100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
