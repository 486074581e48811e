//! # realm-metrics
//!
//! The error-characterization harness behind the paper's evaluation
//! (§IV-B): Monte-Carlo campaigns over the full operand space, exhaustive
//! sweeps for the error-profile figures, the paper's five error metrics,
//! relative-error histograms (Fig. 5) and Pareto-front extraction
//! (Fig. 4).
//!
//! ```
//! use realm_core::Accurate;
//! use realm_metrics::MonteCarlo;
//!
//! let campaign = MonteCarlo::new(10_000, 42);
//! let summary = campaign.characterize(&Accurate::new(16));
//! assert_eq!(summary.mean_error, 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Campaign code must be total outside tests: partial results degrade to
// `Option`/reports, never to a lazy panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod breakdown;
mod chunk_body;
pub mod dnn;
pub mod engine;
pub mod exhaustive;
pub mod faults;
pub mod heatmap;
pub mod histogram;
pub mod montecarlo;
pub mod nmed;
pub mod pareto;
pub mod spec;
pub mod summary;

pub use breakdown::{BreakdownWorkload, IntervalCell};
pub use dnn::{parse_layer_bindings, DnnConfig, DnnPoint, DnnSweep, LayerBinding};
pub use engine::{Engine, Workload};
pub use exhaustive::{ProfileWorkload, RangeWorkload};
pub use faults::{summarize_by_class, ClassSummary, FaultCampaign, FaultWorkload, SiteReport};
pub use histogram::Histogram;
pub use montecarlo::{MonteCarlo, MonteCarloWorkload};
pub use nmed::{DistanceSummary, DistanceWorkload};
pub use pareto::{pareto_front, ParetoPoint};
pub use realm_harness::{Supervised, Supervisor};
pub use realm_par::Threads;
pub use spec::{
    parse_design, CampaignSpec, DesignSpec, ErrorSla, FamilySpec, Scoped, SpecError, SpecWorkload,
};
pub use summary::{ErrorAccumulator, ErrorSummary};
