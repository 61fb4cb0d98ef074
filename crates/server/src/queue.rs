//! A bounded multi-producer / multi-consumer queue built on `Mutex` +
//! `Condvar`.
//!
//! The service's submission path pushes [`crate::service::QueryService`]
//! jobs here and the worker pool pops them. Bounding the queue gives
//! **backpressure**: when analysts submit faster than the workers drain,
//! `push` blocks instead of letting the backlog grow without limit.
//! Closing the queue wakes every blocked producer and consumer; consumers
//! drain the remaining items before observing the close.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// A consumer's fair share of `available` queued items when the backlog
/// is split across `shares` consumers: `ceil(available / shares)`, at
/// least 1.
fn fair_share(available: usize, shares: usize) -> usize {
    available.div_ceil(shares.max(1)).max(1)
}

/// Error returned by [`BoundedQueue::push`] after [`BoundedQueue::close`];
/// carries the rejected item back to the caller.
#[derive(Debug)]
pub struct QueueClosed<T>(pub T);

/// Error returned by [`BoundedQueue::try_push`]; carries the rejected item
/// back so a non-blocking producer can park it instead of losing it.
#[derive(Debug)]
pub enum TryPushError<T> {
    /// The queue is at capacity; retry when a space listener fires.
    Full(T),
    /// The queue has been closed; the item will never be accepted.
    Closed(T),
}

/// Callback registered with [`BoundedQueue::add_space_listener`].
pub type SpaceListener = Arc<dyn Fn() + Send + Sync>;

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A blocking, bounded MPMC queue.
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
    /// Called (outside the queue lock) whenever a pop transitions the
    /// queue away from full — the non-blocking producers' wakeup signal,
    /// complementing the `not_full` condvar blocking producers wait on.
    space_listeners: Mutex<Vec<SpaceListener>>,
}

impl<T> std::fmt::Debug for BoundedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedQueue")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            space_listeners: Mutex::new(Vec::new()),
        }
    }

    /// Registers a callback fired after a pop moves the queue away from
    /// capacity. Fired outside the queue lock; the callback may call
    /// [`Self::try_push`] but must not block.
    pub fn add_space_listener(&self, listener: SpaceListener) {
        self.space_listeners
            .lock()
            .expect("queue poisoned")
            .push(listener);
    }

    fn fire_space_listeners(&self) {
        let listeners = self.space_listeners.lock().expect("queue poisoned").clone();
        for listener in listeners {
            listener();
        }
    }

    /// Enqueues an item, blocking while the queue is full. Returns the
    /// queue depth *including* the new item (the producer observed it under
    /// the lock, so it is exact — the service's depth high-watermark feeds
    /// on this), or the item back if the queue has been closed.
    pub fn push(&self, item: T) -> Result<usize, QueueClosed<T>> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if state.closed {
                return Err(QueueClosed(item));
            }
            if state.items.len() < self.capacity {
                state.items.push_back(item);
                let depth = state.items.len();
                self.not_empty.notify_one();
                return Ok(depth);
            }
            state = self.not_full.wait(state).expect("queue poisoned");
        }
    }

    /// Enqueues an item without blocking. A full queue hands the item back
    /// as [`TryPushError::Full`] — the caller parks it and retries when a
    /// space listener fires, instead of tying up a thread.
    pub fn try_push(&self, item: T) -> Result<usize, TryPushError<T>> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.closed {
            return Err(TryPushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(TryPushError::Full(item));
        }
        state.items.push_back(item);
        let depth = state.items.len();
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Dequeues up to `max` items as one micro-batch, oldest first. Blocks
    /// while the queue is empty until at least one item (or the close) is
    /// observed, then takes whatever else is already queued. Returns an
    /// empty vector only once the queue is closed *and* drained.
    ///
    /// `shares` is the number of consumers the backlog should be split
    /// across fairly: the batch is additionally capped at
    /// `ceil(available / shares)` (at least 1), so one consumer of a pool
    /// never drains a burst that its siblings could run in parallel.
    /// `shares <= 1` disables the cap, and `pop_batch(1, 1)` dequeues one
    /// item at a time.
    pub fn pop_batch(&self, max: usize, shares: usize) -> Vec<T> {
        let mut state = self.state.lock().expect("queue poisoned");
        // Block for the first item (or the close).
        while state.items.is_empty() {
            if state.closed {
                return Vec::new();
            }
            state = self.not_empty.wait(state).expect("queue poisoned");
        }
        self.take_batch(state, max.max(1), shares)
    }

    /// Dequeues up to `max` immediately available items without blocking
    /// (used by workers that already hold chained work and only top the
    /// batch up). The same fair-share cap as [`Self::pop_batch`] applies.
    pub fn try_pop_batch(&self, max: usize, shares: usize) -> Vec<T> {
        let state = self.state.lock().expect("queue poisoned");
        self.take_batch(state, max, shares)
    }

    /// Takes up to `max` queued items, capped at a fair share of the
    /// backlog when `shares > 1`, and wakes the producers a full queue
    /// held back.
    fn take_batch(
        &self,
        mut state: MutexGuard<'_, QueueState<T>>,
        max: usize,
        shares: usize,
    ) -> Vec<T> {
        let available = state.items.len();
        let target = if shares > 1 {
            max.min(fair_share(available, shares))
        } else {
            max
        };
        let out: Vec<T> = state.items.drain(..target.min(available)).collect();
        if out.is_empty() {
            return out;
        }
        self.not_full.notify_all();
        drop(state);
        if available == self.capacity {
            self.fire_space_listeners();
        }
        out
    }

    /// Closes the queue: pending pushes fail, consumers drain what is left
    /// and then observe the end of the stream.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("queue poisoned");
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
        // Parked non-blocking producers retry and observe the close.
        self.fire_space_listeners();
    }

    /// Number of queued (not yet popped) items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue poisoned").items.len()
    }

    /// True when no items are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// One blocking pop: the oldest item, or `None` once the queue is
    /// closed and drained.
    fn pop<T>(q: &BoundedQueue<T>) -> Option<T> {
        let mut batch = q.pop_batch(1, 1);
        assert!(batch.len() <= 1);
        batch.pop()
    }

    #[test]
    fn fifo_within_one_producer() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            // Push reports the depth as observed under the lock.
            assert_eq!(q.push(i).unwrap(), (i + 1) as usize);
        }
        assert_eq!(q.len(), 5);
        for i in 0..5 {
            assert_eq!(pop(&q), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(8);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert!(q.push(3).is_err());
        assert_eq!(pop(&q), Some(1));
        assert_eq!(pop(&q), Some(2));
        assert_eq!(pop(&q), None);
    }

    #[test]
    fn pop_batch_without_linger_takes_only_what_is_available() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(q.pop_batch(3, 1), vec![0, 1, 2]);
        assert_eq!(q.pop_batch(10, 1), vec![3, 4]);
        assert_eq!(q.try_pop_batch(10, 1), Vec::<i32>::new());
        q.push(7).unwrap();
        assert_eq!(q.try_pop_batch(10, 1), vec![7]);
    }

    #[test]
    fn fair_share_caps_a_batch_to_its_slice_of_the_backlog() {
        let q = BoundedQueue::new(16);
        for i in 0..8 {
            q.push(i).unwrap();
        }
        // Four consumers splitting an 8-deep backlog get 2 each, so one
        // greedy batch cannot serialise work its siblings could run.
        assert_eq!(q.pop_batch(8, 4), vec![0, 1]);
        assert_eq!(q.try_pop_batch(8, 3), vec![2, 3]);
        // A lone consumer takes everything.
        assert_eq!(q.pop_batch(8, 1), vec![4, 5, 6, 7]);
    }

    #[test]
    fn pop_batch_drains_across_close() {
        let q = BoundedQueue::new(8);
        q.push(2u64).unwrap();
        q.close();
        // Remaining items drain, then the closed queue yields empty batches.
        assert_eq!(q.pop_batch(4, 1), vec![2]);
        assert!(q.pop_batch(4, 1).is_empty());
        assert!(q.try_pop_batch(4, 1).is_empty());
    }

    #[test]
    fn bounded_push_blocks_until_a_pop_frees_a_slot() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(0u64).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(1).is_ok())
        };
        // Give the producer a moment to block on the full queue.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(pop(&q), Some(0));
        assert!(producer.join().unwrap());
        assert_eq!(pop(&q), Some(1));
    }

    #[test]
    fn try_push_hands_the_item_back_when_full_or_closed() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1).unwrap(), 1);
        assert_eq!(q.try_push(2).unwrap(), 2);
        assert!(matches!(q.try_push(3), Err(TryPushError::Full(3))));
        assert_eq!(pop(&q), Some(1));
        assert_eq!(q.try_push(3).unwrap(), 2);
        q.close();
        assert!(matches!(q.try_push(4), Err(TryPushError::Closed(4))));
        // Close drains before ending.
        assert_eq!(pop(&q), Some(2));
        assert_eq!(pop(&q), Some(3));
        assert_eq!(pop(&q), None);
    }

    #[test]
    fn space_listeners_fire_when_a_pop_frees_a_full_queue() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let q = BoundedQueue::new(2);
        let fired = Arc::new(AtomicUsize::new(0));
        let observer = Arc::clone(&fired);
        q.add_space_listener(Arc::new(move || {
            observer.fetch_add(1, Ordering::SeqCst);
        }));
        q.push(1).unwrap();
        assert_eq!(pop(&q), Some(1));
        assert_eq!(
            fired.load(Ordering::SeqCst),
            0,
            "no signal while the queue never filled"
        );
        q.push(2).unwrap();
        q.push(3).unwrap();
        assert!(matches!(q.try_push(4), Err(TryPushError::Full(4))));
        assert_eq!(pop(&q), Some(2));
        assert_eq!(fired.load(Ordering::SeqCst), 1, "full → non-full fires");
        assert_eq!(q.pop_batch(2, 1), vec![3]);
        assert_eq!(
            fired.load(Ordering::SeqCst),
            1,
            "popping a non-full queue stays quiet"
        );
        q.push(5).unwrap();
        q.push(6).unwrap();
        assert_eq!(q.try_pop_batch(1, 1), vec![5]);
        assert_eq!(fired.load(Ordering::SeqCst), 2);
        // Close wakes parked producers so they observe the shutdown.
        q.close();
        assert_eq!(fired.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn many_producers_many_consumers_lose_nothing() {
        let q = Arc::new(BoundedQueue::new(4));
        let producers: Vec<_> = (0..4u64)
            .map(|t| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        q.push(t * 1_000 + i).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = pop(&q) {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let mut expected: Vec<u64> = (0..4u64)
            .flat_map(|t| (0..100).map(move |i| t * 1_000 + i))
            .collect();
        expected.sort_unstable();
        assert_eq!(all, expected);
    }
}
