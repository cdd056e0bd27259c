//! The cluster stage: outlier-based anomaly models.
//!
//! At every window close, an outlier query gathers one *comparison point*
//! per group (the `points=all(...)` expressions evaluated on each group's
//! state) and clusters them with the configured method. Points that fall in
//! no dense cluster (DBSCAN noise, or tiny k-means clusters) set
//! `cluster.outlier` for their group's alert evaluation.

use saql_analytics::{dbscan, kmeans, DbscanScratch, Metric};
use saql_lang::ast::{ClusterMethod, ClusterSpec, Distance};

use crate::eval::ClusterOutcome;

/// Buffers for the cluster stage, held per running query: the DBSCAN
/// working set (visited flags, BFS queue, neighbour lists, sort order) and
/// cluster-size tallies, recycled across window closes, and the comparison
/// points of the close at hand.
#[derive(Debug, Default)]
pub struct ClusterScratch {
    dbscan: DbscanScratch,
    sizes: Vec<usize>,
    /// Comparison points for the current window close, one per group that
    /// produced every dimension, in the groups' label order.
    pub points: Vec<Vec<f64>>,
}

/// Convert the language-level distance to the analytics metric.
pub fn metric_of(d: Distance) -> Metric {
    match d {
        Distance::Euclidean => Metric::Euclidean,
        Distance::Manhattan => Metric::Manhattan,
    }
}

/// Cluster the groups' points and produce one outcome per point, in input
/// order.
///
/// * DBSCAN: noise points are outliers; cluster size = population of the
///   point's cluster.
/// * k-means: clusters smaller than half the uniform share are outliers
///   (peer-comparison smallness), k-means has no native noise notion.
///
/// Seeded deterministically (`window id` as seed) so replays reproduce.
///
/// Allocates fresh scratch; the engine's hot path holds a
/// [`ClusterScratch`] per query and calls [`run_cluster_with`].
pub fn run_cluster(spec: &ClusterSpec, points: &[Vec<f64>], seed: u64) -> Vec<ClusterOutcome> {
    let mut scratch = ClusterScratch::default();
    scratch.points.extend(points.iter().cloned());
    run_cluster_with(spec, seed, &mut scratch)
}

/// [`run_cluster`] over `scratch.points`, reusing the scratch's DBSCAN
/// working set and size tallies across calls.
pub fn run_cluster_with(
    spec: &ClusterSpec,
    seed: u64,
    scratch: &mut ClusterScratch,
) -> Vec<ClusterOutcome> {
    let ClusterScratch {
        dbscan: db,
        sizes,
        points,
        ..
    } = scratch;
    let points: &[Vec<f64>] = points;
    let metric = metric_of(spec.distance);
    match &spec.method {
        ClusterMethod::Dbscan { eps, min_pts } => {
            let labels = dbscan::dbscan_with(points, *eps, *min_pts, metric, db);
            sizes.clear();
            for l in labels {
                if let Some(id) = l.cluster_id() {
                    if sizes.len() <= id {
                        sizes.resize(id + 1, 0);
                    }
                    sizes[id] += 1;
                }
            }
            labels
                .iter()
                .map(|l| match l.cluster_id() {
                    Some(id) => ClusterOutcome {
                        outlier: false,
                        cluster_id: Some(id),
                        size: sizes[id],
                    },
                    None => ClusterOutcome {
                        outlier: true,
                        cluster_id: None,
                        size: 1,
                    },
                })
                .collect()
        }
        ClusterMethod::KMeans { k } => {
            let result = kmeans::kmeans(points, *k, metric, seed);
            let outliers = result.outliers(0.5);
            let sizes = result.sizes();
            result
                .assignment
                .iter()
                .zip(outliers)
                .map(|(&a, outlier)| ClusterOutcome {
                    outlier,
                    cluster_id: Some(a),
                    size: sizes[a],
                })
                .collect()
        }
        ClusterMethod::ZScore { threshold } => {
            // Robust 1-D outlier test over the first point dimension:
            // peers = everyone, outlier = modified z-score above threshold.
            // When the MAD is zero (a unanimous peer group), any deviation
            // from the median is an outlier — the strictest peer comparison.
            let xs: Vec<f64> = points.iter().map(|p| p[0]).collect();
            let median = saql_analytics::robust::median(&xs);
            let inliers = xs.len();
            points
                .iter()
                .map(|p| {
                    let outlier = match saql_analytics::robust::modified_zscore(&xs, p[0]) {
                        Some(z) => z > *threshold,
                        None => matches!(median, Some(m) if p[0] != m),
                    };
                    ClusterOutcome {
                        outlier,
                        cluster_id: if outlier { None } else { Some(0) },
                        size: if outlier { 1 } else { inliers },
                    }
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saql_lang::parse;

    fn spec(method: &str) -> ClusterSpec {
        let src = format!(
            "proc p read || write ip i as evt #time(10 min)\nstate ss {{ amt := sum(evt.amount) }} group by i.dstip\ncluster(points=all(ss.amt), distance=\"ed\", method=\"{method}\")\nalert cluster.outlier\nreturn i.dstip"
        );
        parse(&src).unwrap().cluster.unwrap()
    }

    fn pts(xs: &[f64]) -> Vec<Vec<f64>> {
        xs.iter().map(|&x| vec![x]).collect()
    }

    #[test]
    fn dbscan_flags_exfiltration_volume() {
        // Query-4 scenario: ordinary per-ip byte counts plus one huge dump.
        let spec = spec("DBSCAN(100000, 5)");
        let points = pts(&[
            40_000.0,
            55_000.0,
            48_000.0,
            61_000.0,
            52_000.0,
            45_000.0,
            58_000.0,
            2_000_000_000.0,
        ]);
        let outcomes = run_cluster(&spec, &points, 0);
        assert!(outcomes[..7].iter().all(|o| !o.outlier));
        assert!(outcomes[7].outlier);
        assert_eq!(outcomes[7].size, 1);
        assert_eq!(outcomes[0].size, 7);
    }

    #[test]
    fn kmeans_flags_tiny_cluster() {
        let spec = spec("KMEANS(2)");
        let mut xs: Vec<f64> = (0..12).map(|i| 1000.0 + i as f64 * 10.0).collect();
        xs.push(5_000_000.0);
        let outcomes = run_cluster(&spec, &pts(&xs), 42);
        assert!(outcomes[12].outlier, "{outcomes:?}");
        assert!(outcomes[..12].iter().all(|o| !o.outlier), "{outcomes:?}");
    }

    #[test]
    fn deterministic_across_runs() {
        let spec = spec("KMEANS(3)");
        let points = pts(&[1.0, 2.0, 50.0, 51.0, 100.0, 101.0]);
        let a = run_cluster(&spec, &points, 9);
        let b = run_cluster(&spec, &points, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_points() {
        let spec = spec("DBSCAN(10, 2)");
        assert!(run_cluster(&spec, &[], 0).is_empty());
    }
}
