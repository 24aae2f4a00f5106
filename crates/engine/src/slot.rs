//! Per-shard steal-queues: the substrate of the wait-free barrier.
//!
//! The classic threaded backend parked one mpsc channel in front of
//! each shard thread and made every barrier a send/ack round trip —
//! two context switches per dirty shard per sync, which is exactly the
//! cost the fold-back loop's per-delivery sync multiplied into the
//! scenario leg's anti-scaling. A [`ShardSlot`] replaces the channel
//! with a mutex-guarded deque *plus a mutex over the worker itself*,
//! and publishes a processed-message counter:
//!
//! * The worker thread waits for input, locks the worker, and drains
//!   the queue — popping **only while holding the worker lock**.
//! * The engine skips a shard whose published counter already equals
//!   what the engine sent it (a *clean* shard: zero cross-thread
//!   traffic, not even a lock).
//! * For a dirty shard the engine locks the worker and drains the
//!   queue **inline on its own thread** — stealing the work instead of
//!   waiting for a wakeup. The pop-under-worker-lock invariant makes
//!   this safe: once the engine holds the worker, no message is in
//!   flight anywhere, so after its drain `processed == sent` and the
//!   shard is provably quiescent.
//!
//! Either way a barrier costs at most one uncontended lock per dirty
//! shard and no context switches on the sync path.

use crate::metrics::ShardMetrics;
use crate::worker::{ShardMessage, ShardWorker};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Queue state behind the slot's input lock.
struct Queue {
    messages: VecDeque<ShardMessage>,
    closed: bool,
}

/// One shard's input queue, worker, and progress counters.
pub(crate) struct ShardSlot {
    queue: Mutex<Queue>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    /// The worker itself. `None` only after shutdown consumed it.
    /// Lock order: worker before queue (both the thread body and the
    /// engine's steal path acquire in that order; `send` takes only the
    /// queue lock).
    worker: Mutex<Option<ShardWorker>>,
    /// Messages fully handled (incremented *after* each handle, under
    /// the worker lock). The engine compares this against its own sent
    /// count: equality proves the shard clean.
    processed: AtomicU64,
    /// Items the worker's reorder buffer still held after the last
    /// message — the engine's heartbeat-suppression gate.
    held: AtomicU64,
}

impl ShardSlot {
    pub(crate) fn new(worker: ShardWorker, capacity: usize) -> Self {
        ShardSlot {
            queue: Mutex::new(Queue {
                messages: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            worker: Mutex::new(Some(worker)),
            processed: AtomicU64::new(0),
            held: AtomicU64::new(0),
        }
    }

    /// Messages fully handled so far.
    pub(crate) fn processed(&self) -> u64 {
        self.processed.load(Ordering::Acquire)
    }

    /// Reorder-buffer depth after the last handled message.
    pub(crate) fn held(&self) -> u64 {
        self.held.load(Ordering::Acquire)
    }

    /// Enqueues a message. Sends below capacity cost one uncontended
    /// lock and **no wakeup**: the worker is only notified when the
    /// queue fills (amortizing thread wakeups over `capacity` messages)
    /// or at close — in between, barriers and checkpoints steal the
    /// backlog inline. On a full queue the engine races the worker for
    /// the drain: if the worker is already draining (holds its lock)
    /// the engine waits for room, otherwise the engine — already
    /// running, no context switch — drains the backlog itself.
    pub(crate) fn send(&self, message: ShardMessage) {
        let mut message = Some(message);
        loop {
            {
                let mut q = self.queue.lock().expect("shard worker panicked");
                if q.messages.len() < self.capacity {
                    q.messages
                        .push_back(message.take().expect("message unsent"));
                    return;
                }
            }
            self.not_empty.notify_one();
            if let Ok(mut guard) = self.worker.try_lock() {
                if let Some(worker) = guard.as_mut() {
                    if self.drain_with(worker) > 0 {
                        worker.publish_obs();
                    }
                }
            } else {
                let q = self.queue.lock().expect("shard worker panicked");
                let _room = self
                    .not_full
                    .wait_while(q, |q| q.messages.len() >= self.capacity)
                    .expect("shard worker panicked");
            }
        }
    }

    /// Closes the queue: the worker thread drains what is left, runs
    /// [`ShardWorker::finish`], and returns its metrics.
    pub(crate) fn close(&self) {
        self.queue.lock().expect("shard worker panicked").closed = true;
        self.not_empty.notify_all();
    }

    /// Pops one message — only ever called with the worker lock held
    /// (the invariant the engine's steal path relies on).
    fn pop(&self) -> Option<ShardMessage> {
        let mut q = self.queue.lock().expect("engine panicked");
        let message = q.messages.pop_front();
        drop(q);
        if message.is_some() {
            self.not_full.notify_one();
        }
        message
    }

    /// Handles every queued message using `worker`, updating the
    /// progress counters.
    fn drain_with(&self, worker: &mut ShardWorker) -> u64 {
        let mut handled = 0;
        while let Some(message) = self.pop() {
            worker.handle(message);
            self.held
                .store(worker.reorder_pending() as u64, Ordering::Release);
            self.processed.fetch_add(1, Ordering::Release);
            handled += 1;
        }
        handled
    }

    /// The engine's steal path: lock the worker and drain the queue
    /// inline on the calling thread. On return the shard has processed
    /// everything the engine ever sent it (the engine is the only
    /// sender, and any message mid-handle on the worker thread
    /// completed before the worker lock was released to us). Publishes
    /// the worker's telemetry when anything was stolen — the engine
    /// samples right after barriers.
    ///
    /// Returns the nanoseconds the drain spent doing the shard's own
    /// work (0 with telemetry off). That time lands on the worker
    /// recorder under its real stages — the caller subtracts it from
    /// its barrier span so relocated work is not double-counted as
    /// synchronization cost.
    pub(crate) fn steal(&self) -> u64 {
        let mut guard = self.lock_worker();
        let Some(worker) = guard.as_mut() else {
            return 0;
        };
        let busy = worker.busy_span();
        let handled = self.drain_with(worker);
        let busy_ns = worker.busy_elapsed(&busy);
        if handled > 0 {
            worker.publish_obs();
            busy_ns
        } else {
            0
        }
    }

    fn lock_worker(&self) -> MutexGuard<'_, Option<ShardWorker>> {
        self.worker.lock().expect("shard worker panicked")
    }

    /// The shard thread body: wait for input without holding the
    /// worker, then drain under the worker lock; on close, finish the
    /// worker and return its metrics.
    pub(crate) fn run(&self) -> ShardMetrics {
        loop {
            {
                let mut q = self.queue.lock().expect("engine panicked");
                while q.messages.is_empty() && !q.closed {
                    q = self.not_empty.wait(q).expect("engine panicked");
                }
                if q.messages.is_empty() && q.closed {
                    break;
                }
            }
            let mut guard = self.lock_worker();
            // The engine's steal path may have raced us to the queue;
            // an empty drain just parks again above.
            let worker = guard.as_mut().expect("worker present until close");
            self.drain_with(worker);
        }
        let worker = self
            .lock_worker()
            .take()
            .expect("shard worker consumed twice");
        worker.finish()
    }
}
