//! # saql-analytics
//!
//! Numeric and statistical kernels backing SAQL's stateful anomaly models:
//!
//! * [`aggregate`] — single-pass online aggregates (count/sum/min/max/mean/
//!   variance via Welford's algorithm) used by the engine's state maintainer;
//! * [`robust`] — median, percentiles, MAD and z-scores for robust
//!   thresholding;
//! * [`distance`] — Euclidean (`"ed"`) and Manhattan (`"md"`) metrics;
//! * [`mod@dbscan`] — density-based clustering with outlier (noise)
//!   labelling, the method behind the paper's Query 4;
//! * [`mod@kmeans`] — k-means with k-means++ seeding, the alternative
//!   peer-grouping method.

pub mod aggregate;
pub mod dbscan;
pub mod distance;
pub mod histogram;
pub mod kmeans;
pub mod robust;

pub use aggregate::OnlineStats;
pub use dbscan::{dbscan, dbscan_with, DbscanLabel, DbscanScratch};
pub use distance::Metric;
pub use histogram::Histogram;
pub use kmeans::{kmeans, KMeansResult};
