//! # realm-bench
//!
//! Experiment drivers that regenerate **every table and figure** of the
//! REALM paper's evaluation (§IV), plus wall-clock micro-benchmarks.
//!
//! | Binary | Regenerates | Paper reference |
//! |---|---|---|
//! | `table1` | error + synthesis metrics for all designs | Table I |
//! | `table2` | JPEG PSNR study | Table II |
//! | `fig1` | error profiles over `A, B ∈ {32..255}` | Fig. 1 |
//! | `fig2` | `4×4` partition demo + per-segment factors | Fig. 2 |
//! | `fig4` | design space + Pareto front | Fig. 4 |
//! | `fig5` | REALM relative-error distributions | Fig. 5 |
//! | `ablation` | design-choice ablations (ours) | §III design choices |
//!
//! Each binary prints a human-readable report and, when `--out DIR` is
//! given, writes machine-readable CSV files.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod options;
pub mod runner;
pub mod stopwatch;

pub use options::Options;
pub use runner::Driver;

/// Unwraps a result in a driver binary: on error, prints the diagnostic
/// with its context and exits 1 — drivers fail loudly but never panic.
pub fn or_die<T, E: std::fmt::Display>(result: Result<T, E>, context: &str) -> T {
    match result {
        Ok(value) => value,
        Err(e) => die(&format!("{context}: {e}")),
    }
}

/// [`or_die`] for options: exits with a diagnostic when a value that
/// must exist (a paper design point, a lookup that cannot miss) is
/// absent.
pub fn or_die_opt<T>(option: Option<T>, context: &str) -> T {
    match option {
        Some(value) => value,
        None => die(context),
    }
}

/// Prints `error: <msg>` to stderr and exits 1.
pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// Method-position sugar for [`or_die`]/[`or_die_opt`], so driver
/// binaries can unwrap fallible setup (`Realm::new(...).or_die("…")`)
/// with a diagnostic and a clean exit instead of a panic.
pub trait OrDie {
    /// The success value.
    type Out;
    /// Returns the success value or exits 1 with `context`.
    fn or_die(self, context: &str) -> Self::Out;
}

impl<T, E: std::fmt::Display> OrDie for Result<T, E> {
    type Out = T;
    fn or_die(self, context: &str) -> T {
        or_die(self, context)
    }
}

impl<T> OrDie for Option<T> {
    type Out = T;
    fn or_die(self, context: &str) -> T {
        or_die_opt(self, context)
    }
}

/// One row of the Table I reproduction: a design's error metrics paired
/// with its synthesis-model results.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Display label (`"REALM16 (t=3)"`).
    pub label: String,
    /// Area reduction vs. the accurate multiplier (%).
    pub area_reduction: f64,
    /// Power reduction vs. the accurate multiplier (%).
    pub power_reduction: f64,
    /// Error metrics from the Monte-Carlo campaign.
    pub errors: realm_metrics::ErrorSummary,
}

impl Table1Row {
    /// Formats the row in the paper's column order (all in percent).
    pub fn render(&self) -> String {
        format!(
            "{:<22} {:>7.1} {:>7.1} {:>8.2} {:>7.2} {:>8.2} {:>7.2} {:>9.2}",
            self.label,
            self.area_reduction,
            self.power_reduction,
            self.errors.bias * 100.0,
            self.errors.mean_error * 100.0,
            self.errors.min_error * 100.0,
            self.errors.max_error * 100.0,
            self.errors.variance_percent(),
        )
    }

    /// The CSV form of [`render`](Self::render).
    pub fn to_csv(&self) -> String {
        format!(
            "{},{:.2},{:.2},{:.4},{:.4},{:.4},{:.4},{:.4}",
            self.label,
            self.area_reduction,
            self.power_reduction,
            self.errors.bias * 100.0,
            self.errors.mean_error * 100.0,
            self.errors.min_error * 100.0,
            self.errors.max_error * 100.0,
            self.errors.variance_percent(),
        )
    }

    /// The header matching [`to_csv`](Self::to_csv).
    pub fn csv_header() -> &'static str {
        "design,area_reduction_pct,power_reduction_pct,bias_pct,mean_error_pct,min_error_pct,max_error_pct,variance_pct2"
    }
}

/// Computes the full Table I row set: Monte-Carlo error characterization
/// of every design plus calibrated synthesis-model area/power.
///
/// `threads` is a pure performance knob for the Monte-Carlo campaigns —
/// the rows are bit-identical under every worker count.
pub fn table1_rows(
    samples: u64,
    power_cycles: u32,
    seed: u64,
    threads: realm_par::Threads,
) -> Vec<Table1Row> {
    use realm_core::multiplier::MultiplierExt;

    let campaign = realm_metrics::MonteCarlo::new(samples, seed).with_threads(threads);
    let reporter = realm_synth::Reporter::paper_setup(power_cycles, seed);
    realm_synth::designs::table1_pairs()
        .into_iter()
        .map(|pair| {
            let errors = campaign.characterize(pair.model.as_ref());
            let synth = reporter.report(&pair.netlist);
            Table1Row {
                label: pair.model.label(),
                area_reduction: synth.area_reduction,
                power_reduction: synth.power_reduction,
                errors,
            }
        })
        .collect()
}

/// One pane of the Fig. 4 design-space plot: its display title, the
/// in-range points (ME ≤ 4 %, PE ≤ 15 %, as the paper constrains the
/// plot) and the indices of the Pareto-optimal ones.
#[derive(Debug, Clone)]
pub struct Fig4Pane {
    /// Pane title, e.g. `"(a) mean error vs area reduction"`.
    pub title: &'static str,
    /// The in-range design points (gain %, error %).
    pub points: Vec<realm_metrics::ParetoPoint>,
    /// Indices into [`points`](Self::points) on the Pareto front.
    pub front: Vec<usize>,
}

/// Assembles the four Fig. 4 panes (mean/peak error against area/power
/// reduction) from a computed Table I row set. Pure data plumbing over
/// the rows: the pane contents are bit-determined by the rows alone, so
/// the `fig4` driver and the golden suite share one definition.
pub fn fig4_panes(rows: &[Table1Row]) -> Vec<Fig4Pane> {
    type Extract = fn(&Table1Row) -> (f64, f64);
    let panes: [(&'static str, Extract); 4] = [
        ("(a) mean error vs area reduction", |r| {
            (r.area_reduction, r.errors.mean_error * 100.0)
        }),
        ("(b) mean error vs power reduction", |r| {
            (r.power_reduction, r.errors.mean_error * 100.0)
        }),
        ("(c) peak error vs area reduction", |r| {
            (r.area_reduction, r.errors.peak_error() * 100.0)
        }),
        ("(d) peak error vs power reduction", |r| {
            (r.power_reduction, r.errors.peak_error() * 100.0)
        }),
    ];
    panes
        .into_iter()
        .map(|(title, extract)| {
            // The paper constrains the plot to ME <= 4 %, PE <= 15 %.
            let points: Vec<realm_metrics::ParetoPoint> = rows
                .iter()
                .filter(|r| {
                    r.errors.mean_error * 100.0 <= 4.0 && r.errors.peak_error() * 100.0 <= 15.0
                })
                .map(|r| {
                    let (gain, cost) = extract(r);
                    realm_metrics::ParetoPoint::new(r.label.clone(), gain, cost)
                })
                .collect();
            let front = realm_metrics::pareto_front(&points);
            Fig4Pane {
                title,
                points,
                front,
            }
        })
        .collect()
}

/// The `fig4_design_space.csv` rendering of [`fig4_panes`]:
/// `pane,design,gain_pct,error_pct,pareto`, one line per in-range point.
pub fn fig4_csv(panes: &[Fig4Pane]) -> String {
    let mut csv = String::from("pane,design,gain_pct,error_pct,pareto\n");
    for pane in panes {
        let id = pane.title.split_whitespace().next().unwrap_or(pane.title);
        for (i, p) in pane.points.iter().enumerate() {
            csv.push_str(&format!(
                "{},{},{:.2},{:.3},{}\n",
                id,
                p.label,
                p.gain,
                p.cost,
                pane.front.contains(&i)
            ));
        }
    }
    csv
}

/// The outcome of a supervised Table I campaign: the rows whose error
/// campaign completed, the designs that had to be skipped (interrupted
/// or quarantined), and whether the run stopped early.
#[derive(Debug)]
pub struct Table1Campaign {
    /// Completed rows — each bit-identical to its unsupervised
    /// counterpart.
    pub rows: Vec<Table1Row>,
    /// Labels of designs whose campaign did not complete this
    /// invocation (rerun with `--resume` to finish them).
    pub skipped: Vec<String>,
    /// Whether a deadline/cancellation/budget stop cut the run short.
    pub interrupted: bool,
}

/// [`table1_rows`] under a [`realm_harness::Supervisor`]: every
/// design's Monte-Carlo campaign is journaled separately, so the table
/// survives interruption at any point and resumes exactly where it
/// stopped. Completed rows are bit-identical to [`table1_rows`] at the
/// same samples/seed.
pub fn table1_rows_supervised(
    samples: u64,
    power_cycles: u32,
    seed: u64,
    supervisor: &realm_harness::Supervisor,
) -> Result<Table1Campaign, realm_harness::HarnessError> {
    use realm_core::multiplier::MultiplierExt;

    let campaign = realm_metrics::MonteCarlo::new(samples, seed);
    let reporter = realm_synth::Reporter::paper_setup(power_cycles, seed);
    let mut out = Table1Campaign {
        rows: Vec::new(),
        skipped: Vec::new(),
        interrupted: false,
    };
    for pair in realm_synth::designs::table1_pairs() {
        let label = pair.model.label();
        if out.interrupted {
            // The stop (deadline, Ctrl-C, budget) covers the whole
            // table: don't start further campaigns.
            out.skipped.push(label);
            continue;
        }
        let sup = campaign.characterize_supervised(pair.model.as_ref(), supervisor)?;
        if sup.report.stopped.is_some() {
            out.interrupted = true;
        }
        match (sup.report.is_complete(), sup.value) {
            (true, Some(errors)) => {
                let synth = reporter.report(&pair.netlist);
                out.rows.push(Table1Row {
                    label,
                    area_reduction: synth.area_reduction,
                    power_reduction: synth.power_reduction,
                    errors,
                });
            }
            _ => out.skipped.push(label),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supervised_table1_matches_plain() {
        let rows = table1_rows(5_000, 20, 3, realm_par::Threads::Auto);
        let sup = table1_rows_supervised(5_000, 20, 3, &realm_harness::Supervisor::new())
            .expect("supervised table");
        assert!(!sup.interrupted);
        assert!(sup.skipped.is_empty());
        assert_eq!(sup.rows.len(), rows.len());
        for (a, b) in sup.rows.iter().zip(&rows) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.errors, b.errors);
            assert_eq!(a.area_reduction, b.area_reduction);
        }
    }

    #[test]
    fn supervised_table1_skips_cleanly_on_expired_deadline() {
        let sup = table1_rows_supervised(
            5_000,
            20,
            3,
            &realm_harness::Supervisor::new().with_deadline(std::time::Duration::ZERO),
        )
        .expect("supervised table");
        assert!(sup.interrupted);
        assert!(sup.rows.is_empty());
        assert_eq!(sup.skipped.len(), 69);
    }

    #[test]
    fn small_table1_run_produces_all_rows() {
        let rows = table1_rows(20_000, 40, 3, realm_par::Threads::Auto);
        assert_eq!(rows.len(), 69); // 30 REALM + 35 baselines + 4 comparators
        for row in &rows {
            assert!(row.errors.samples > 0, "{}", row.label);
            assert!(row.area_reduction < 100.0);
        }
    }

    #[test]
    fn csv_roundtrip_has_matching_columns() {
        let rows = table1_rows(5_000, 20, 1, realm_par::Threads::Fixed(2));
        let header_cols = Table1Row::csv_header().split(',').count();
        assert_eq!(rows[0].to_csv().split(',').count(), header_cols);
    }
}
