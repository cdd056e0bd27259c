//! Minimal vendored subset of `crossbeam`: [`channel`] with a blocking
//! bounded multi-producer multi-consumer queue. Built on `Mutex`/`Condvar`;
//! see `crates/compat/README.md` for scope.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    struct Inner<T> {
        queue: VecDeque<T>,
        capacity: usize,
        senders: usize,
        receivers: usize,
        /// Threads asleep in a blocking send / receive. A notify is a futex
        /// syscall whether or not anyone waits, so one is made only when a
        /// sleeper is counted here (the real crossbeam's cost model too).
        sleeping_senders: usize,
        sleeping_receivers: usize,
    }

    /// Wake sleepers on `cv` for `n` items (or slots) just made available.
    fn wake(cv: &Condvar, sleeping: usize, n: usize) {
        match (sleeping, n) {
            (0, _) | (_, 0) => {}
            (1, _) | (_, 1) => cv.notify_one(),
            _ => cv.notify_all(),
        }
    }

    impl<T> Shared<T> {
        /// Release the lock after enqueueing `n` items, waking receivers.
        fn queued(&self, inner: MutexGuard<'_, Inner<T>>, n: usize) {
            let sleeping = inner.sleeping_receivers;
            drop(inner);
            wake(&self.not_empty, sleeping, n);
        }

        /// Release the lock after dequeueing `n` items, waking senders.
        fn freed(&self, inner: MutexGuard<'_, Inner<T>>, n: usize) {
            let sleeping = inner.sleeping_senders;
            drop(inner);
            wake(&self.not_full, sleeping, n);
        }

        /// Sleep until a receiver frees room (or disconnects).
        fn wait_for_room<'a>(
            &self,
            mut inner: MutexGuard<'a, Inner<T>>,
        ) -> MutexGuard<'a, Inner<T>> {
            inner.sleeping_senders += 1;
            let mut inner = self.not_full.wait(inner).unwrap();
            inner.sleeping_senders -= 1;
            inner
        }
    }

    /// Move items into the queue while it has room; returns how many moved.
    fn fill<T>(inner: &mut Inner<T>, items: &mut impl Iterator<Item = T>) -> usize {
        let before = inner.queue.len();
        let room = inner.capacity.saturating_sub(before);
        inner.queue.extend(items.take(room));
        inner.queue.len() - before
    }

    /// Sending half; cloneable for multiple producers.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half; cloneable for multiple consumers.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// All receivers disconnected while sending.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Outcome of a failed non-blocking send.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        Full(T),
        Disconnected(T),
    }

    /// Channel empty with every sender disconnected.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Outcome of a failed receive-with-timeout.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    /// Outcome of a failed non-blocking receive.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    /// Create a bounded channel holding at most `capacity` in-flight items.
    ///
    /// Unlike real crossbeam, zero-capacity rendezvous channels are not
    /// supported; `capacity == 0` panics here rather than silently
    /// deadlocking the first `send`.
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        assert!(
            capacity > 0,
            "compat crossbeam does not support zero-capacity rendezvous channels"
        );
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::with_capacity(capacity.min(1024)),
                capacity,
                senders: 1,
                receivers: 1,
                sleeping_senders: 0,
                sleeping_receivers: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Blocking send; errors only when every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut inner = self.shared.inner.lock().unwrap();
            loop {
                if inner.receivers == 0 {
                    return Err(SendError(value));
                }
                if inner.queue.len() < inner.capacity {
                    inner.queue.push_back(value);
                    self.shared.queued(inner, 1);
                    return Ok(());
                }
                inner = self.shared.wait_for_room(inner);
            }
        }

        /// Non-blocking send.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut inner = self.shared.inner.lock().unwrap();
            if inner.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if inner.queue.len() >= inner.capacity {
                return Err(TrySendError::Full(value));
            }
            inner.queue.push_back(value);
            self.shared.queued(inner, 1);
            Ok(())
        }

        /// Non-blocking bulk send (not in the real crossbeam): enqueue what
        /// fits under one lock; `Full` leaves the rest in `items`.
        pub fn try_send_from(
            &self,
            items: &mut impl ExactSizeIterator<Item = T>,
        ) -> Result<(), TrySendError<()>> {
            let mut inner = self.shared.inner.lock().unwrap();
            if inner.receivers == 0 {
                return Err(TrySendError::Disconnected(()));
            }
            let n = fill(&mut inner, items);
            self.shared.queued(inner, n);
            if items.len() == 0 {
                Ok(())
            } else {
                Err(TrySendError::Full(()))
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocking receive; errors once empty with every sender gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = self.shared.inner.lock().unwrap();
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    self.shared.freed(inner, 1);
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner.sleeping_receivers += 1;
                inner = self.shared.not_empty.wait(inner).unwrap();
                inner.sleeping_receivers -= 1;
            }
        }

        /// Non-blocking receive: `Empty` when nothing is buffered but
        /// senders remain, `Disconnected` once empty with every sender gone.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.shared.inner.lock().unwrap();
            if let Some(v) = inner.queue.pop_front() {
                self.shared.freed(inner, 1);
                return Ok(v);
            }
            if inner.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Non-blocking bulk receive (not in the real crossbeam): move up to
        /// `max` buffered items onto `out` under one lock and return how
        /// many moved; errors as [`try_recv`](Self::try_recv) does when
        /// nothing is buffered.
        pub fn try_recv_into(&self, out: &mut Vec<T>, max: usize) -> Result<usize, TryRecvError> {
            let mut inner = self.shared.inner.lock().unwrap();
            if inner.queue.is_empty() {
                return Err(if inner.senders == 0 {
                    TryRecvError::Disconnected
                } else {
                    TryRecvError::Empty
                });
            }
            let n = max.min(inner.queue.len());
            out.extend(inner.queue.drain(..n));
            self.shared.freed(inner, n);
            Ok(n)
        }

        /// Receive, waiting at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut inner = self.shared.inner.lock().unwrap();
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    self.shared.freed(inner, 1);
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                inner.sleeping_receivers += 1;
                let (guard, _) = self
                    .shared
                    .not_empty
                    .wait_timeout(inner, deadline - now)
                    .unwrap();
                inner = guard;
                inner.sleeping_receivers -= 1;
            }
        }

        /// Non-blocking draining iterator: yields whatever is currently
        /// buffered, then stops (regardless of sender liveness).
        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter { rx: self }
        }

        /// Number of items currently buffered.
        pub fn len(&self) -> usize {
            self.shared.inner.lock().unwrap().queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.inner.lock().unwrap().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.inner.lock().unwrap().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.inner.lock().unwrap();
            inner.senders -= 1;
            if inner.senders == 0 {
                drop(inner);
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.inner.lock().unwrap();
            inner.receivers -= 1;
            if inner.receivers == 0 {
                drop(inner);
                self.shared.not_full.notify_all();
            }
        }
    }

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// Non-blocking iterator over currently-buffered items (see
    /// [`Receiver::try_iter`]).
    pub struct TryIter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.try_recv().ok()
        }
    }

    /// Draining iterator: yields until the channel is empty and disconnected.
    pub struct IntoIter<T> {
        rx: Receiver<T>,
    }

    impl<T> Iterator for IntoIter<T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;
        fn into_iter(self) -> IntoIter<T> {
            IntoIter { rx: self }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn mpmc_order_and_disconnect() {
            let (tx, rx) = bounded(4);
            let tx2 = tx.clone();
            tx.send(1).unwrap();
            tx2.send(2).unwrap();
            drop(tx);
            drop(tx2);
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn try_send_full_and_timeout() {
            let (tx, rx) = bounded(1);
            tx.try_send(1).unwrap();
            assert!(matches!(tx.try_send(2), Err(TrySendError::Full(2))));
            assert_eq!(rx.recv_timeout(Duration::from_millis(1)), Ok(1));
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(1)),
                Err(RecvTimeoutError::Timeout)
            );
        }

        #[test]
        fn try_recv_distinguishes_empty_from_disconnected() {
            let (tx, rx) = bounded(2);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
            tx.send(5).unwrap();
            assert_eq!(rx.try_recv(), Ok(5));
            drop(tx);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn try_iter_drains_buffered_without_blocking() {
            let (tx, rx) = bounded(4);
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            let got: Vec<i32> = rx.try_iter().collect();
            assert_eq!(got, vec![1, 2]);
            // Sender still alive: try_iter stops instead of blocking.
            assert_eq!(rx.try_iter().next(), None);
            tx.send(3).unwrap();
            assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![3]);
        }

        #[test]
        fn bulk_send_and_drain_keep_order_and_report_the_rest() {
            let (tx, rx) = bounded(3);
            let mut items = vec![1, 2, 3, 4, 5].into_iter();
            assert_eq!(tx.try_send_from(&mut items), Err(TrySendError::Full(())));
            assert_eq!(items.as_slice(), &[4, 5], "what did not fit stays");
            let mut out = Vec::new();
            assert_eq!(rx.try_recv_into(&mut out, 2), Ok(2));
            assert_eq!(rx.try_recv_into(&mut out, 8), Ok(1));
            assert_eq!(out, vec![1, 2, 3]);
            assert_eq!(rx.try_recv_into(&mut out, 8), Err(TryRecvError::Empty));
            assert_eq!(tx.try_send_from(&mut items), Ok(()));
            drop(tx);
            assert_eq!(rx.try_recv_into(&mut out, 8), Ok(2));
            assert_eq!(
                rx.try_recv_into(&mut out, 8),
                Err(TryRecvError::Disconnected)
            );
            assert_eq!(out, vec![1, 2, 3, 4, 5]);
        }

        #[test]
        fn a_sender_blocked_on_a_full_channel_is_woken_by_a_bulk_drain() {
            let (tx, rx) = bounded(2);
            tx.send(0).unwrap();
            tx.send(1).unwrap();
            let handle = std::thread::spawn(move || tx.send(2).is_ok() && tx.send(3).is_ok());
            // Let the sender fall asleep on the full channel.
            while rx.shared.inner.lock().unwrap().sleeping_senders == 0 {
                std::thread::yield_now();
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut out = Vec::new();
            while out.len() < 4 {
                assert!(Instant::now() < deadline, "the drain never woke the sender");
                let _ = rx.try_recv_into(&mut out, 8);
                std::thread::yield_now();
            }
            assert!(handle.join().unwrap());
            assert_eq!(out, vec![0, 1, 2, 3]);
        }

        /// 4 producers x 2 consumers over a channel of capacity 1 and 3,
        /// every send and receive flavour mixed: each of 100k items arrives
        /// exactly once, each producer's items in order, and nothing hangs.
        #[test]
        fn mixed_bulk_and_single_ops_deliver_exactly_once_under_contention() {
            const PER_PRODUCER: usize = 25_000;
            for capacity in [1, 3] {
                let (done_tx, done_rx) = std::sync::mpsc::channel();
                std::thread::spawn(move || {
                    let (tx, rx) = bounded::<usize>(capacity);
                    let producers: Vec<_> = (0..4)
                        .map(|p| {
                            let tx = tx.clone();
                            std::thread::spawn(move || {
                                let mut next = p * PER_PRODUCER;
                                let end = next + PER_PRODUCER;
                                for round in 0.. {
                                    if next == end {
                                        break;
                                    }
                                    if round % 2 == 0 {
                                        tx.send(next).unwrap();
                                        next += 1;
                                        continue;
                                    }
                                    // A bulk send; on `Full`, block for the
                                    // next item (the serve ingest protocol).
                                    let n = (1 + round % 7).min(end - next);
                                    let mut chunk = next..next + n;
                                    if tx.try_send_from(&mut chunk).is_err() {
                                        tx.send(chunk.next().unwrap()).unwrap();
                                    }
                                    next += n - chunk.len();
                                }
                            })
                        })
                        .collect();
                    drop(tx);
                    let consumers: Vec<_> = (0..2)
                        .map(|_| {
                            let rx = rx.clone();
                            std::thread::spawn(move || {
                                let mut got = Vec::new();
                                for round in 0usize.. {
                                    let ended = match round % 4 {
                                        0 => match rx.try_recv() {
                                            Ok(v) => {
                                                got.push(v);
                                                false
                                            }
                                            Err(e) => e == TryRecvError::Disconnected,
                                        },
                                        1 => {
                                            rx.try_recv_into(&mut got, 1 + round % 5)
                                                == Err(TryRecvError::Disconnected)
                                        }
                                        2 => match rx.recv_timeout(Duration::from_millis(1)) {
                                            Ok(v) => {
                                                got.push(v);
                                                false
                                            }
                                            Err(e) => e == RecvTimeoutError::Disconnected,
                                        },
                                        _ => match rx.recv() {
                                            Ok(v) => {
                                                got.push(v);
                                                false
                                            }
                                            Err(RecvError) => true,
                                        },
                                    };
                                    if ended {
                                        return got;
                                    }
                                }
                                unreachable!()
                            })
                        })
                        .collect();
                    drop(rx);
                    for p in producers {
                        p.join().unwrap();
                    }
                    let per_consumer: Vec<Vec<usize>> =
                        consumers.into_iter().map(|c| c.join().unwrap()).collect();
                    done_tx.send(per_consumer).unwrap();
                });
                let per_consumer = done_rx
                    .recv_timeout(Duration::from_secs(120))
                    .unwrap_or_else(|_| panic!("capacity {capacity}: the channel hung"));
                for got in &per_consumer {
                    for p in 0..4 {
                        let mine: Vec<usize> = got
                            .iter()
                            .copied()
                            .filter(|v| v / PER_PRODUCER == p)
                            .collect();
                        assert!(mine.windows(2).all(|w| w[0] < w[1]), "producer {p} order");
                    }
                }
                let mut all: Vec<usize> = per_consumer.concat();
                all.sort_unstable();
                assert!(
                    all.iter().copied().eq(0..4 * PER_PRODUCER),
                    "capacity {capacity}"
                );
            }
        }

        #[test]
        fn blocking_send_unblocks_on_recv() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let handle = std::thread::spawn(move || tx.send(2).is_ok());
            std::thread::sleep(Duration::from_millis(10));
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            assert!(handle.join().unwrap());
        }
    }
}
