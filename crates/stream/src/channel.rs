//! Bounded event channels.
//!
//! Agents (or the replayer) publish events; the engine consumes them. The
//! channel carries `Arc<Event>` — the master–dependent-query scheme depends
//! on every consumer observing the *same allocation*, so cloning a stream
//! item never copies event payloads.

use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError, TrySendError};

use crate::SharedEvent;

/// Producer half of an event channel.
#[derive(Debug, Clone)]
pub struct EventSender {
    tx: Sender<SharedEvent>,
}

/// Consumer half of an event channel. Iterate to drain until all senders
/// drop.
#[derive(Debug, Clone)]
pub struct EventReceiver {
    rx: Receiver<SharedEvent>,
}

/// Create a bounded event channel with room for `capacity` in-flight events.
///
/// A `capacity` of zero clamps to one: the vendored crossbeam stand-in has
/// no rendezvous channels, and a channel that can never buffer an event is
/// a misconfiguration, not a feature (it used to panic here).
pub fn event_channel(capacity: usize) -> (EventSender, EventReceiver) {
    let (tx, rx) = bounded(capacity.max(1));
    (EventSender { tx }, EventReceiver { rx })
}

impl EventSender {
    /// Blocking send; returns `false` if all receivers are gone.
    pub fn send(&self, event: SharedEvent) -> bool {
        self.tx.send(event).is_ok()
    }

    /// Non-blocking send of as much of a chunk as fits, under one channel
    /// lock; what did not fit stays in `events` for the caller to shed.
    /// `false` once all receivers are gone.
    pub fn send_fitting(&self, events: &mut impl ExactSizeIterator<Item = SharedEvent>) -> bool {
        !matches!(
            self.tx.try_send_from(events),
            Err(TrySendError::Disconnected(()))
        )
    }
}

impl EventReceiver {
    /// Blocking receive; `None` when the stream has ended.
    pub fn recv(&self) -> Option<SharedEvent> {
        self.rx.recv().ok()
    }

    /// Move up to `max` buffered events onto `out` under one channel lock
    /// and return how many moved (`0` while momentarily empty); `None` once
    /// the stream has ended.
    pub fn recv_into(&self, out: &mut Vec<SharedEvent>, max: usize) -> Option<usize> {
        match self.rx.try_recv_into(out, max) {
            Ok(n) => Some(n),
            Err(TryRecvError::Empty) => Some(0),
            Err(TryRecvError::Disconnected) => None,
        }
    }

    /// Move `max` events onto `out`, waiting for them as needed; `false`
    /// once the stream ended short of `max` (what came is on `out`).
    pub fn recv_filling(&self, out: &mut Vec<SharedEvent>, max: usize) -> bool {
        let end = out.len() + max;
        while out.len() < end {
            if self.rx.try_recv_into(out, end - out.len()).is_err() {
                // Empty or ended: wait for the next event, or for the end.
                let Some(event) = self.recv() else {
                    return false;
                };
                out.push(event);
            }
        }
        true
    }
}

impl IntoIterator for EventReceiver {
    type Item = SharedEvent;
    type IntoIter = crossbeam::channel::IntoIter<SharedEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.rx.into_iter()
    }
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
    fn send_receive_in_order() {
        let (tx, rx) = event_channel(8);
        for i in 0..5 {
            assert!(tx.send(ev(i)));
        }
        drop(tx);
        let ids: Vec<u64> = rx.into_iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn zero_capacity_clamps_instead_of_panicking() {
        let (tx, rx) = event_channel(0);
        let mut chunk = vec![ev(1), ev(2)].into_iter();
        assert!(tx.send_fitting(&mut chunk));
        assert_eq!(chunk.len(), 1, "clamped capacity is exactly 1");
        assert_eq!(rx.recv().map(|e| e.id), Some(1));
    }

    #[test]
    fn chunks_go_in_whole_or_as_far_as_they_fit() {
        let (tx, rx) = event_channel(3);
        let mut chunk = (1..=5).map(ev).collect::<Vec<_>>().into_iter();
        assert!(tx.send_fitting(&mut chunk));
        assert_eq!(chunk.map(|e| e.id).collect::<Vec<_>>(), vec![4, 5]);
        let mut out = Vec::new();
        assert_eq!(rx.recv_into(&mut out, 2), Some(2));
        assert_eq!(rx.recv_into(&mut out, 8), Some(1));
        assert_eq!(rx.recv_into(&mut out, 8), Some(0), "empty, not ended");
        assert!(tx.send_fitting(&mut (6..=8).map(ev).collect::<Vec<_>>().into_iter()));
        drop(tx);
        assert_eq!(rx.recv_into(&mut out, 8), Some(3));
        assert_eq!(rx.recv_into(&mut out, 8), None);
        let ids: Vec<u64> = out.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 6, 7, 8]);
    }

    #[test]
    fn a_filling_receive_waits_for_the_whole_count_or_the_end() {
        let (tx, rx) = event_channel(2);
        let producer = std::thread::spawn(move || (1..=5).all(|id| tx.send(ev(id))));
        let mut out = Vec::new();
        assert!(rx.recv_filling(&mut out, 3));
        assert!(!rx.recv_filling(&mut out, 3), "short only at the end");
        assert!(producer.join().unwrap());
        let ids: Vec<u64> = out.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn chunk_sends_report_a_closed_channel() {
        let (tx, rx) = event_channel(1);
        drop(rx);
        let mut chunk = vec![ev(3)].into_iter();
        assert!(!tx.send_fitting(&mut chunk));
        assert_eq!(chunk.len(), 1, "nothing was taken");
    }

    #[test]
    fn recv_none_after_all_senders_drop() {
        let (tx, rx) = event_channel(4);
        let tx2 = tx.clone();
        tx.send(ev(1));
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv().map(|e| e.id), Some(1));
        assert!(rx.recv().is_none());
    }

    #[test]
    fn cross_thread_transfer_shares_allocation() {
        let (tx, rx) = event_channel(4);
        let event = ev(9);
        let clone = event.clone();
        std::thread::spawn(move || tx.send(event)).join().unwrap();
        let got = rx.recv().unwrap();
        assert!(Arc::ptr_eq(&got, &clone));
    }
}
