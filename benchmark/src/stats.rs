//! Order statistics over small samples.

/// The `q`-quantile (0..=1) by nearest rank over an unsorted sample;
/// `None` when empty. A sample holding an infinity (a missing alert)
/// reports it once the rank reaches it.
pub fn quantile(sample: &[f64], q: f64) -> Option<f64> {
    if sample.is_empty() {
        return None;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

pub fn median(sample: &[f64]) -> Option<f64> {
    if sample.is_empty() {
        return None;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The highest percentile that still has at least ten samples beyond it
/// (choosing-metrics §1), as a quantile in 0.5..=0.99; `None` under 20
/// samples, where not even the median has ten beyond it.
pub fn supported_tail(n: usize) -> Option<f64> {
    [0.99, 0.95, 0.9, 0.75, 0.5]
        .into_iter()
        .find(|q| (n as f64) * (1.0 - q) >= 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), Some(50.0));
        assert_eq!(quantile(&s, 0.99), Some(99.0));
        assert_eq!(quantile(&s, 1.0), Some(100.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0]), Some(2.0));
        assert_eq!(median(&[3.0, 1.0, 9.0]), Some(3.0));
    }

    #[test]
    fn missing_alerts_surface_in_the_tail() {
        let mut s = vec![1.0; 99];
        s.push(f64::INFINITY);
        assert_eq!(quantile(&s, 0.99), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(f64::INFINITY));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(20), Some(0.5));
        assert_eq!(supported_tail(19), None);
    }
}
