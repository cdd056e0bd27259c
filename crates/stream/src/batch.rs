//! Event batches: the engine's unit of execution, and the unit a
//! worker-backed engine ships to its shard workers.
//!
//! Sending events across a channel one at a time pays synchronization cost
//! per event; a batch amortizes it over its length. Batches carry
//! [`SharedEvent`]s, so cloning a batch (to fan one batch out to several
//! workers) clones `Arc` handles only — never event payloads. This
//! preserves the master–dependent-query invariant that every consumer
//! observes the *same allocation* of every event.

use crate::SharedEvent;

/// Default number of events per batch when callers don't specify one.
pub const DEFAULT_BATCH_SIZE: usize = 256;

/// A run of consecutive stream events.
#[derive(Debug, Clone)]
pub struct EventBatch {
    events: Vec<SharedEvent>,
}

impl EventBatch {
    /// Wrap a run of events.
    pub fn from_events(events: Vec<SharedEvent>) -> Self {
        EventBatch { events }
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The batched events, in stream order.
    pub fn events(&self) -> &[SharedEvent] {
        &self.events
    }

    pub fn iter(&self) -> std::slice::Iter<'_, SharedEvent> {
        self.events.iter()
    }
}

impl<'a> IntoIterator for &'a EventBatch {
    type Item = &'a SharedEvent;
    type IntoIter = std::slice::Iter<'a, SharedEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl IntoIterator for EventBatch {
    type Item = SharedEvent;
    type IntoIter = std::vec::IntoIter<SharedEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

/// A view over one [`EventBatch`] for the engine's execution path: the
/// events plus the one per-event scalar dispatch needs of every row — the
/// shape code, which routes a row to the compatibility groups that admit
/// it — materialized once as a dense column. Everything else is probed per
/// selected row, on the event itself.
#[derive(Debug)]
pub struct BatchView<'a> {
    events: &'a [SharedEvent],
    shape: Vec<u8>,
}

impl<'a> BatchView<'a> {
    /// Materialize the shape column (one pass over the batch).
    pub fn new(batch: &'a EventBatch) -> BatchView<'a> {
        Self::over(batch.events())
    }

    /// A view over any run of events (tests and the session pump use runs
    /// that are not wrapped in an [`EventBatch`]).
    pub fn over(events: &'a [SharedEvent]) -> BatchView<'a> {
        BatchView {
            events,
            shape: events.iter().map(|e| e.shape_code()).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The underlying events, in stream order.
    pub fn events(&self) -> &'a [SharedEvent] {
        self.events
    }

    /// Shape-code column (see `saql_model::event::shape_code`): admission
    /// masks AND against `1 << shape[i]`.
    pub fn shape(&self) -> &[u8] {
        &self.shape
    }
}

/// Split a stream into consecutive batches of at most `batch_size` events.
pub fn batched(
    events: impl IntoIterator<Item = SharedEvent>,
    batch_size: usize,
) -> Vec<EventBatch> {
    let events: Vec<SharedEvent> = events.into_iter().collect();
    events
        .chunks(batch_size.max(1))
        .map(|chunk| EventBatch::from_events(chunk.to_vec()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use saql_model::event::EventBuilder;
    use saql_model::ProcessInfo;
    use std::sync::Arc;

    fn ev(id: u64) -> SharedEvent {
        Arc::new(
            EventBuilder::new(id, "h", id * 10)
                .subject(ProcessInfo::new(1, "a.exe", "u"))
                .starts_process(ProcessInfo::new(2, "b.exe", "u"))
                .build(),
        )
    }

    #[test]
    fn clone_shares_event_allocations() {
        let b = EventBatch::from_events(vec![ev(7)]);
        let c = b.clone();
        assert!(Arc::ptr_eq(&b.events()[0], &c.events()[0]));
    }

    #[test]
    fn batched_splits_in_order() {
        let events: Vec<SharedEvent> = (0..10).map(ev).collect();
        let batches = batched(events, 4);
        assert_eq!(
            batches.iter().map(EventBatch::len).collect::<Vec<_>>(),
            vec![4, 4, 2]
        );
        let ids: Vec<u64> = batches
            .iter()
            .flat_map(|b| b.iter().map(|e| e.id))
            .collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn batched_clamps_zero_size() {
        let batches = batched((0..3).map(ev).collect::<Vec<_>>(), 0);
        assert_eq!(batches.len(), 3);
    }

    #[test]
    fn view_materializes_the_shape_column() {
        let b = EventBatch::from_events(vec![ev(1), ev(2)]);
        let view = BatchView::new(&b);
        assert_eq!(view.len(), 2);
        // Both events are `start proc`: one shape code, matching per-event.
        assert_eq!(view.shape()[0], b.events()[0].shape_code());
        assert_eq!(view.shape()[0], view.shape()[1]);
    }
}
