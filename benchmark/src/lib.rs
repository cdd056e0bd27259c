//! Black-box benchmark for `saql serve` / `saql replay`: a seeded load
//! generator with an exact oracle, four workloads driven over the program's
//! public surfaces only, and the checks and statistics that turn a run into
//! the result the driver reads. See `benchmark/README.md`.

pub mod alerts;
pub mod calib;
pub mod child;
pub mod clock;
pub mod gen;
pub mod load;
pub mod many;
pub mod metrics;
pub mod report;
pub mod stats;
pub mod wire;
pub mod workloads;
