//! Closed-loop bank benchmark of the MT(k) transaction engine.
//!
//! Four seeded workloads drive the engine's public API with no think
//! time. Measured (untraced) rounds give the end-to-end metrics; traced
//! rounds time the calls into each layer from outside and close a
//! per-client wall-time ledger. See `README.md` in this directory.

pub mod bank;
pub mod gen;
pub mod ledger;
pub mod report;
pub mod stats;
pub mod timed;
