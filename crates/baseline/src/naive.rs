//! `NaiveScheduler`: how a generic stream engine hosts N concurrent
//! queries — with nothing shared.
//!
//! Each query runs in a [`Scheduler`] of its own (a compatibility group of
//! one, so every query performs its own master check on every event) and
//! is fed its **own deep copy** of every batch — the "multiple copies of
//! the data" the paper's master–dependent scheme eliminates. Exists for the
//! E4/E11 benchmark comparison.

use std::sync::Arc;

use saql_engine::scheduler::SchedulerStats;
use saql_engine::{Alert, RunningQuery, Scheduler};
use saql_model::Event;
use saql_stream::EventBatch;

/// Baseline scheduler without sharing: one single-member [`Scheduler`] per
/// query, one payload copy per query per event.
#[derive(Default)]
pub struct NaiveScheduler {
    queries: Vec<Scheduler>,
    data_copies: u64,
}

impl NaiveScheduler {
    pub fn new() -> Self {
        NaiveScheduler::default()
    }

    pub fn add(&mut self, query: RunningQuery) {
        let mut alone = Scheduler::new();
        alone.add(query);
        self.queries.push(alone);
    }

    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// Counters summed over the per-query schedulers: every query scans
    /// the whole stream, so `master_checks` is events × queries, and so is
    /// `data_copies`.
    pub fn stats(&self) -> SchedulerStats {
        let mut total = SchedulerStats {
            data_copies: self.data_copies,
            ..SchedulerStats::default()
        };
        for s in &self.queries {
            total.absorb_shard(s.stats());
        }
        total
    }

    /// Push one batch: per query, deep-copy every payload and process the
    /// copy.
    pub fn process_batch(&mut self, batch: &EventBatch) -> Vec<Alert> {
        let mut alerts = Vec::new();
        for s in &mut self.queries {
            let copy =
                EventBatch::from_events(batch.iter().map(|e| Arc::new(Event::clone(e))).collect());
            self.data_copies += copy.len() as u64;
            alerts.extend(s.process_batch(&copy));
        }
        alerts
    }

    pub fn finish(&mut self) -> Vec<Alert> {
        self.queries
            .iter_mut()
            .flat_map(Scheduler::finish)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saql_engine::query::QueryConfig;
    use saql_model::event::EventBuilder;
    use saql_model::ProcessInfo;

    #[test]
    fn naive_scheduler_copies_per_query() {
        let rq = |name: &str| {
            RunningQuery::compile(
                name,
                "proc p start proc q as e\nreturn p",
                QueryConfig::default(),
            )
            .unwrap()
        };
        let batch = EventBatch::from_events(vec![Arc::new(
            EventBuilder::new(1, "h", 10)
                .subject(ProcessInfo::new(1, "a.exe", "u"))
                .starts_process(ProcessInfo::new(2, "b.exe", "u"))
                .build(),
        )]);
        let mut n = NaiveScheduler::new();
        for i in 0..4 {
            n.add(rq(&format!("q{i}")));
        }
        assert_eq!(n.process_batch(&batch).len(), 4);
        assert_eq!(n.stats().events, 1);
        assert_eq!(n.stats().data_copies, 4);
        assert_eq!(n.stats().master_checks, 4);
        // Master–dependent makes zero copies for the same workload.
        let mut s = Scheduler::new();
        for i in 0..4 {
            s.add(rq(&format!("q{i}")));
        }
        s.process_batch(&batch);
        assert_eq!(s.stats().data_copies, 0);
        assert_eq!(s.stats().master_checks, 1);
    }
}
