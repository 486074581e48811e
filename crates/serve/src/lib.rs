//! `realm-serve`: a fault-tolerant multi-tenant campaign service over
//! the REALM characterization engine.
//!
//! Clients POST campaign specs (design text, family, sample budget,
//! deadline, priority) to an HTTP/JSON API; the server runs them on the
//! existing [`realm_harness::Supervisor`] stack with:
//!
//! * **admission control** — a bounded queue with explicit 429
//!   load-shed and per-tenant fair-share scheduling ([`queue`]);
//! * **retry with backoff** — failing jobs re-queue with exponential
//!   backoff and deterministic jitter until a per-job retry budget is
//!   exhausted, then dead-letter ([`server`]);
//! * **crash recovery** — jobs are journaled before acknowledgement
//!   ([`ledger`]); a restart after SIGKILL re-queues incomplete jobs
//!   and resumes them bit-identically from their campaign journals;
//! * **graceful shutdown** — SIGTERM drains running jobs to a
//!   checkpoint boundary, rejects new work, and flushes metrics.
//!
//! The crate is `std`-only: HTTP is a deliberately small HTTP/1.1
//! subset ([`http`]) over blocking `std::net`, one connection per
//! request.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod http;
pub mod job;
pub mod ledger;
pub mod queue;
pub mod server;

pub use client::{http_request, wait_terminal};
pub use job::{result_json, Job, JobId, JobRequest, JobState, Terminal};
pub use ledger::{Ledgers, Recovered};
pub use queue::{AdmissionQueue, AdmitError, AdmitResult};
pub use server::{ServeConfig, Server};
