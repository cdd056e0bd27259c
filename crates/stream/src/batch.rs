//! Event batches: the unit of work the parallel runtime ships to shard
//! workers.
//!
//! Sending events across a channel one at a time pays synchronization cost
//! per event; a batch amortizes it over [`EventBatch::capacity`] events.
//! Batches carry [`SharedEvent`]s, so cloning a batch (to fan one batch out
//! to several workers) clones `Arc` handles only — never event payloads.
//! This preserves the master–dependent-query invariant that every consumer
//! observes the *same allocation* of every event.

use crate::SharedEvent;

/// Default number of events per batch when callers don't specify one.
pub const DEFAULT_BATCH_SIZE: usize = 256;

/// A fixed-capacity run of consecutive stream events.
#[derive(Debug, Clone)]
pub struct EventBatch {
    events: Vec<SharedEvent>,
    capacity: usize,
}

impl EventBatch {
    /// An empty batch that fills up after `capacity` pushes. Zero clamps to
    /// one: a batch that can never accept an event is a foot-gun, not a
    /// configuration.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        EventBatch {
            events: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Wrap an existing run of events (capacity = its length, min 1).
    pub fn from_events(events: Vec<SharedEvent>) -> Self {
        let capacity = events.len().max(1);
        EventBatch { events, capacity }
    }

    /// Append one event. Returns `false` (rejecting the push) when full.
    pub fn push(&mut self, event: SharedEvent) -> bool {
        if self.is_full() {
            return false;
        }
        self.events.push(event);
        true
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn is_full(&self) -> bool {
        self.events.len() >= self.capacity
    }

    /// The configured fill limit.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The batched events, in stream order.
    pub fn events(&self) -> &[SharedEvent] {
        &self.events
    }

    pub fn iter(&self) -> std::slice::Iter<'_, SharedEvent> {
        self.events.iter()
    }

    /// Drain this batch into a fresh empty one with the same capacity,
    /// returning the filled batch (the dispatch handoff).
    pub fn take(&mut self) -> EventBatch {
        let capacity = self.capacity;
        std::mem::replace(self, EventBatch::with_capacity(capacity))
    }

    /// [`take`](Self::take), but only when there is something to hand off.
    /// Dispatchers that must flush at arbitrary points (end of stream,
    /// control-message boundaries) use this to avoid shipping empty
    /// batches.
    pub fn take_if_nonempty(&mut self) -> Option<EventBatch> {
        if self.is_empty() {
            None
        } else {
            Some(self.take())
        }
    }

    /// Partition this batch into `n` sub-batches by a per-row owner column
    /// (`owners[i]` names the sub-batch for `self.events()[i]`), preserving
    /// stream order within each. Rows beyond the owner column's length or
    /// with an out-of-range owner are dropped. Like [`Clone`], this copies
    /// `Arc` handles only — event payloads are never re-cloned — so routed
    /// dispatch costs one handle move per event instead of one full batch
    /// clone per worker.
    pub fn split_by_owner(&self, owners: &[u32], n: usize) -> Vec<EventBatch> {
        let n = n.max(1);
        let mut parts: Vec<EventBatch> = (0..n)
            .map(|_| EventBatch::with_capacity(self.capacity))
            .collect();
        for (event, &owner) in self.events.iter().zip(owners) {
            if let Some(part) = parts.get_mut(owner as usize) {
                part.events.push(event.clone());
            }
        }
        parts
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
/// events plus the one per-event scalar every compatibility group probes
/// on every row — the shape code — materialized once as a dense column.
/// Everything else is probed per selected row, on the event itself.
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
    let batch_size = batch_size.max(1);
    let mut out = Vec::new();
    let mut current = EventBatch::with_capacity(batch_size);
    for event in events {
        current.push(event);
        if current.is_full() {
            out.push(current.take());
        }
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
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
    fn push_respects_capacity() {
        let mut b = EventBatch::with_capacity(2);
        assert!(b.push(ev(1)));
        assert!(!b.is_full());
        assert!(b.push(ev(2)));
        assert!(b.is_full());
        assert!(!b.push(ev(3)), "full batch must reject pushes");
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut b = EventBatch::with_capacity(0);
        assert_eq!(b.capacity(), 1);
        assert!(b.push(ev(1)));
        assert!(b.is_full());
    }

    #[test]
    fn take_hands_off_and_resets() {
        let mut b = EventBatch::with_capacity(4);
        b.push(ev(1));
        b.push(ev(2));
        let full = b.take();
        assert_eq!(full.len(), 2);
        assert!(b.is_empty());
        assert_eq!(b.capacity(), 4);
    }

    #[test]
    fn take_if_nonempty_skips_empty_batches() {
        let mut b = EventBatch::with_capacity(4);
        assert!(b.take_if_nonempty().is_none());
        b.push(ev(1));
        let taken = b.take_if_nonempty().expect("one event buffered");
        assert_eq!(taken.len(), 1);
        assert!(b.is_empty());
        assert!(b.take_if_nonempty().is_none());
    }

    #[test]
    fn clone_shares_event_allocations() {
        let mut b = EventBatch::with_capacity(2);
        b.push(ev(7));
        let c = b.clone();
        assert!(Arc::ptr_eq(&b.events()[0], &c.events()[0]));
    }

    #[test]
    fn split_by_owner_routes_without_payload_clones() {
        let mut b = EventBatch::with_capacity(8);
        for i in 0..6 {
            b.push(ev(i));
        }
        // Owner column shorter than the batch: the unrouted tail drops.
        let owners = [0u32, 1, 0, 2, 9]; // 9 is out of range at n=3
        let parts = b.split_by_owner(&owners, 3);
        assert_eq!(parts.len(), 3);
        let ids = |p: &EventBatch| p.iter().map(|e| e.id).collect::<Vec<_>>();
        assert_eq!(ids(&parts[0]), vec![0, 2], "stream order preserved");
        assert_eq!(ids(&parts[1]), vec![1]);
        assert_eq!(ids(&parts[2]), vec![3]);
        // Handles are shared with the source batch, payloads never cloned.
        assert!(Arc::ptr_eq(&parts[0].events()[0], &b.events()[0]));
        assert_eq!(parts.iter().map(EventBatch::len).sum::<usize>(), 4);
        // Zero partitions clamp to one.
        assert_eq!(b.split_by_owner(&[0, 0], 0).len(), 1);
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
        let mut b = EventBatch::with_capacity(4);
        b.push(ev(1));
        b.push(ev(2));
        let view = BatchView::new(&b);
        assert_eq!(view.len(), 2);
        // Both events are `start proc`: one shape code, matching per-event.
        assert_eq!(view.shape()[0], b.events()[0].shape_code());
        assert_eq!(view.shape()[0], view.shape()[1]);
    }
}
