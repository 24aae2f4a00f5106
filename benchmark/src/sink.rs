//! The benchmark-owned `EventSink`: an order-insensitive digest of
//! every subscription's deliveries, and in the open-loop phase a
//! latency sample per delivery.

use crate::gen::TICKS_PER_INSTANCE;
use crate::rng::mix64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use stem_cep::SustainedEvent;
use stem_engine::{EventSink, Notification, NotificationKind};

/// Count and order-insensitive 64-bit hash of one subscription's
/// deliveries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    pub count: u64,
    pub hash: u64,
}

#[derive(Default)]
struct Slot {
    count: AtomicU64,
    hash: AtomicU64,
}

/// Open-loop timing: when each arrival position was due, and the
/// latency samples taken so far (one buffer per delivering shard, so
/// the lock is never contended).
pub struct LatencyClock {
    /// When arrival position 0 is due; set once the feed starts.
    start: OnceLock<Instant>,
    /// Nanoseconds between consecutive due instants.
    period_ns: f64,
    arrival_of_gen: Arc<[u32]>,
    samples: Vec<Mutex<Vec<u64>>>,
}

impl LatencyClock {
    pub fn new(rate: f64, arrival_of_gen: Arc<[u32]>, shards: usize) -> Self {
        LatencyClock {
            start: OnceLock::new(),
            period_ns: 1e9 / rate,
            arrival_of_gen,
            samples: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Starts the schedule. Deliveries before this are not timed.
    pub fn begin(&self, start: Instant) {
        self.start.set(start).expect("a latency clock begins once");
    }

    /// Nanoseconds after `start` at which arrival `position` is due.
    pub fn due_ns(&self, position: usize) -> u64 {
        (position as f64 * self.period_ns) as u64
    }

    pub fn take_samples(&self) -> Vec<u64> {
        let mut all = Vec::new();
        for shard in &self.samples {
            all.append(&mut shard.lock().expect("latency buffer poisoned"));
        }
        all
    }
}

/// State shared by every sink of one engine run, indexed by the raw
/// subscription id (ids are dense, in registration order).
pub struct Deliveries {
    slots: Vec<Slot>,
    latency: Option<LatencyClock>,
    /// The first few notifications, kept for timing the sink itself.
    capture: Option<Mutex<Vec<Notification>>>,
}

const CAPTURE_LIMIT: usize = 4096;

impl Deliveries {
    pub fn new(subscriptions: usize, latency: Option<LatencyClock>, capture: bool) -> Arc<Self> {
        Arc::new(Deliveries {
            slots: (0..subscriptions).map(|_| Slot::default()).collect(),
            latency,
            capture: capture.then(|| Mutex::new(Vec::new())),
        })
    }

    pub fn sink(self: &Arc<Self>) -> Box<dyn EventSink> {
        Box::new(BenchSink(Arc::clone(self)))
    }

    /// Every subscription's digest, by raw id.
    pub fn digests(&self) -> Vec<Digest> {
        self.slots
            .iter()
            .map(|slot| Digest {
                count: slot.count.load(Ordering::Relaxed),
                hash: slot.hash.load(Ordering::Relaxed),
            })
            .collect()
    }

    pub fn latency(&self) -> Option<&LatencyClock> {
        self.latency.as_ref()
    }

    pub fn take_captured(&self) -> Vec<Notification> {
        self.capture
            .as_ref()
            .map(|c| std::mem::take(&mut *c.lock().expect("capture poisoned")))
            .unwrap_or_default()
    }
}

/// What identifies a delivery within its subscription, and the
/// generation time of the newest instance that contributed to it
/// (`None` where the notification does not carry it: a sustained
/// episode's end reports when the condition last held, not the sample
/// that ended it).
fn identity(kind: &NotificationKind) -> (u64, Option<u64>) {
    match kind {
        NotificationKind::Match(inst) => {
            let t = inst.generation_time().ticks();
            (mix64(t ^ (1 << 60)), Some(t))
        }
        NotificationKind::Derived(inst) => {
            let t = inst.generation_time().ticks();
            let extent = inst.estimated_time();
            let key = mix64(t ^ (2 << 60)) ^ mix64(extent.start().ticks()).rotate_left(17);
            (mix64(key ^ extent.end().ticks()), Some(t))
        }
        NotificationKind::Sustained(SustainedEvent::Began {
            since,
            confirmed_at,
        }) => (
            mix64(mix64(since.ticks() ^ (3 << 60)) ^ confirmed_at.ticks()),
            Some(confirmed_at.ticks()),
        ),
        NotificationKind::Sustained(SustainedEvent::Ended { interval }) => (
            mix64(mix64(interval.start().ticks() ^ (4 << 60)) ^ interval.end().ticks()),
            None,
        ),
    }
}

struct BenchSink(Arc<Deliveries>);

impl EventSink for BenchSink {
    fn deliver(&self, notification: Notification) {
        let shared = &*self.0;
        let (key, newest) = identity(&notification.kind);
        // One subscription lives on one shard, so a slot has a single
        // writer at a time; the atomics only publish to the reader
        // after `finish()` has joined the workers.
        let slot = &shared.slots[notification.subscription.raw() as usize];
        slot.count.fetch_add(1, Ordering::Relaxed);
        slot.hash.fetch_add(key, Ordering::Relaxed);
        let timed = shared
            .latency
            .as_ref()
            .and_then(|c| Some((c, *c.start.get()?, newest?)));
        if let Some((clock, start, ticks)) = timed {
            let now_ns = start.elapsed().as_nanos() as u64;
            let position = clock.arrival_of_gen[(ticks / TICKS_PER_INSTANCE) as usize];
            let latency = now_ns.saturating_sub(clock.due_ns(position as usize));
            let buffer = &clock.samples[notification.shard % clock.samples.len()];
            buffer
                .lock()
                .expect("latency buffer poisoned")
                .push(latency);
        }
        if let Some(capture) = &shared.capture {
            let mut kept = capture.lock().expect("capture poisoned");
            if kept.len() < CAPTURE_LIMIT {
                kept.push(notification);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacing_schedule_is_position_over_rate() {
        let clock = LatencyClock::new(250_000.0, Arc::from(vec![0u32; 4]), 1);
        assert_eq!(clock.due_ns(0), 0);
        // A chunk of 256 goes out when its last instance is due.
        assert_eq!(clock.due_ns(255), 1_020_000);
        assert_eq!(clock.due_ns(250_000), 1_000_000_000);
        let mut last = 0;
        for position in 1..10_000 {
            let due = clock.due_ns(position);
            assert!(due > last, "due instants must strictly increase");
            last = due;
        }
    }

    #[test]
    fn untimed_before_the_schedule_begins() {
        let clock = LatencyClock::new(1_000.0, Arc::from(vec![0u32; 4]), 2);
        assert!(clock.start.get().is_none());
        clock.begin(Instant::now());
        assert!(clock.start.get().is_some());
        assert!(clock.take_samples().is_empty());
    }
}
