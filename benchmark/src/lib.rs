//! The repo benchmark: four workloads, eleven end-to-end metrics, per-layer
//! probes and a traced run.  See `README.md` beside this crate for what is
//! measured and why, and `../BENCHMARK.json` for the contract.
//!
//! Everything here sits outside the engine: inputs are generated from the
//! run's seed ([`inputs`]), the engine is driven through its public API
//! ([`workload`], [`layers`]) on a virtual clock where a schedule is needed
//! ([`clock`]), results are checked against an oracle the benchmark keeps
//! itself ([`oracle`]), and spans are recorded around the calls into each
//! layer ([`trace`]).  A run gives itself one CPU first ([`host`]).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod calibrate;
pub mod clock;
pub mod host;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod oracle;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workload;
