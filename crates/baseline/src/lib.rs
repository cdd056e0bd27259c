//! # saql-baseline
//!
//! **MiniCep**: a deliberately *generic* complex-event-processing engine,
//! standing in for the general-purpose stream systems the paper compares
//! against (Siddhi, Esper, Flink).
//!
//! MiniCep supports what those systems give you out of the box for this
//! workload: per-event filters, tumbling windows, grouped aggregation
//! (count/sum/avg of the event amount), and threshold emission. It has
//!
//! * **no anomaly primitives** — no multievent temporal joins, no window
//!   history (`ss[1]`), no invariant training, no clustering: the paper's
//!   Queries 1, 3 and 4 are simply not expressible (see
//!   [`Capability::supports`]);
//! * **no stream sharing** — each query filters the full stream and takes a
//!   private deep copy of matching events, the "multiple copies of the
//!   data" cost SAQL's master–dependent scheme eliminates.
//!
//! The `e5_baseline` benchmark runs the same filter+window+aggregate
//! workload through MiniCep and through the SAQL engine to measure the cost
//! of SAQL's added expressiveness.
//!
//! **[`NaiveScheduler`]** is the other comparison point: SAQL's own
//! queries hosted the way such a system would host them — one scheduler
//! and one copy of the data per query (`e4_concurrent`, `e11_parallel`).

pub mod capability;
pub mod cep;
pub mod naive;

pub use capability::Capability;
pub use cep::{BaselineAgg, CepQuery, CepRecord, Filter, GroupBy, MiniCep};
pub use naive::NaiveScheduler;
