//! Engine-side flight recording: the bounded per-shard trace rings and
//! the worker-held sampling state behind [`crate::TracePolicy`].
//!
//! Provenance itself ([`stem_core::Provenance`]) is attached to every
//! notification whenever tracing is on at all; the *ring* is what the
//! policy samples. The ring holds already-serialized-shape
//! [`stem_obs::TraceRecord`]s so export and the in-process view
//! ([`TraceHandle`]) are the same data.

use crate::config::TracePolicy;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use stem_core::{DropVerdict, TraceClock, TraceId};
use stem_obs::TraceRecord;

/// A bounded ring of trace records: pushing past capacity evicts the
/// oldest. One per shard, shared between the worker (writer) and the
/// engine's [`TraceHandle`] (reader) behind a mutex the worker touches
/// only when the policy actually samples a record.
#[derive(Debug)]
pub struct FlightRing {
    records: VecDeque<TraceRecord>,
    capacity: usize,
    /// Records evicted to stay within capacity (so consumers can tell a
    /// short history from a truncated one).
    evicted: u64,
}

impl FlightRing {
    /// An empty ring holding at most `capacity` records (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        FlightRing {
            records: VecDeque::new(),
            capacity: capacity.max(1),
            evicted: 0,
        }
    }

    /// Appends a record, evicting the oldest if the ring is full.
    pub fn push(&mut self, record: TraceRecord) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.evicted += 1;
        }
        self.records.push_back(record);
    }

    /// The retained records, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.records.iter().cloned().collect()
    }

    /// Records evicted so far.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

/// Bound on remembered drop verdicts between notifications: a burst of
/// late arrivals should not grow a worker allocation without limit, and
/// a handful of near-miss constituents is what a lineage reader can
/// actually use.
const RECENT_DROPS: usize = 16;

/// Per-worker tracing state: the shared clock, the sampling policy, the
/// shard's flight ring, and the drop verdicts accumulated since the
/// last notification (drained into the next notification's provenance).
#[derive(Debug)]
pub struct WorkerTrace {
    /// The engine-wide trace clock (wall in threaded mode, virtual in
    /// deterministic mode).
    pub clock: Arc<TraceClock>,
    /// What the ring samples.
    pub policy: TracePolicy,
    /// This shard's flight ring.
    pub ring: Arc<Mutex<FlightRing>>,
    /// Monotone per-shard notification id for ring `Notify` records
    /// (`(shard, id)` is globally unique).
    pub next_notify_id: u64,
    /// Drop verdicts since the last notification, oldest first, bounded
    /// at [`RECENT_DROPS`].
    recent_drops: VecDeque<(TraceId, DropVerdict)>,
}

impl WorkerTrace {
    /// Fresh worker state over a shared clock and ring.
    #[must_use]
    pub fn new(clock: Arc<TraceClock>, policy: TracePolicy, ring: Arc<Mutex<FlightRing>>) -> Self {
        WorkerTrace {
            clock,
            policy,
            ring,
            next_notify_id: 0,
            recent_drops: VecDeque::new(),
        }
    }

    /// Whether an *instance* with this trace id should be ring-recorded
    /// on release (drops and notifications have their own rules).
    #[must_use]
    pub fn samples_instance(&self, trace: TraceId) -> bool {
        match self.policy {
            TracePolicy::Off | TracePolicy::NotificationsOnly => false,
            TracePolicy::Always => true,
            TracePolicy::OneInN(n) => trace.0.is_multiple_of(u64::from(n.max(1))),
        }
    }

    /// Whether drop records enter the ring (under `NotificationsOnly`
    /// they surface only as verdicts inside provenance).
    #[must_use]
    pub fn samples_drops(&self) -> bool {
        !matches!(
            self.policy,
            TracePolicy::Off | TracePolicy::NotificationsOnly
        )
    }

    /// Remembers a drop verdict for the next notification's provenance
    /// (bounded: the oldest verdict gives way under a burst).
    pub fn note_drop(&mut self, trace: TraceId, verdict: DropVerdict) {
        if self.recent_drops.len() == RECENT_DROPS {
            self.recent_drops.pop_front();
        }
        self.recent_drops.push_back((trace, verdict));
    }

    /// Drains the verdicts accumulated since the last call.
    #[must_use]
    pub fn take_drops(&mut self) -> Vec<(TraceId, DropVerdict)> {
        self.recent_drops.drain(..).collect()
    }

    /// Pushes a record into the shard's ring.
    pub fn record(&self, record: TraceRecord) {
        self.ring.lock().expect("trace ring poisoned").push(record);
    }

    /// Consumes the next per-shard notification id.
    pub fn take_notify_id(&mut self) -> u64 {
        let id = self.next_notify_id;
        self.next_notify_id += 1;
        id
    }
}

/// A live view over every shard's flight ring, handed out by
/// `Engine::trace` (mirroring `Engine::obs` for metrics).
#[derive(Debug, Clone)]
pub struct TraceHandle {
    rings: Vec<Arc<Mutex<FlightRing>>>,
}

impl TraceHandle {
    pub(crate) fn new(rings: Vec<Arc<Mutex<FlightRing>>>) -> Self {
        TraceHandle { rings }
    }

    /// Number of shard rings.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.rings.len()
    }

    /// A point-in-time copy of one shard's ring, oldest record first.
    #[must_use]
    pub fn shard_records(&self, shard: usize) -> Vec<TraceRecord> {
        self.rings[shard]
            .lock()
            .expect("trace ring poisoned")
            .snapshot()
    }

    /// A point-in-time copy of every ring, concatenated in shard order.
    #[must_use]
    pub fn records(&self) -> Vec<TraceRecord> {
        let mut all = Vec::new();
        for ring in &self.rings {
            all.extend(ring.lock().expect("trace ring poisoned").snapshot());
        }
        all
    }

    /// Total records evicted across all rings.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.rings
            .iter()
            .map(|r| r.lock().expect("trace ring poisoned").evicted())
            .sum()
    }
}

/// The trace section of an [`crate::EngineReport`]: the final ring
/// contents at shutdown, concatenated in shard order.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Every ring record retained at shutdown.
    pub records: Vec<TraceRecord>,
    /// Records the rings evicted over the run.
    pub evicted: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trace: u64) -> TraceRecord {
        TraceRecord::Drop {
            shard: 0,
            trace,
            verdict: stem_obs::TraceDropKind::Late,
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let mut ring = FlightRing::new(2);
        ring.push(rec(0));
        ring.push(rec(1));
        ring.push(rec(2));
        assert_eq!(ring.evicted(), 1);
        let kept: Vec<u64> = ring
            .snapshot()
            .iter()
            .map(|r| match r {
                TraceRecord::Drop { trace, .. } => *trace,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![1, 2], "oldest gave way");
    }

    #[test]
    fn sampling_rules_follow_policy() {
        let clock = Arc::new(TraceClock::deterministic());
        let ring = Arc::new(Mutex::new(FlightRing::new(8)));
        let mk = |policy| WorkerTrace::new(Arc::clone(&clock), policy, Arc::clone(&ring));

        let always = mk(TracePolicy::Always);
        assert!(always.samples_instance(TraceId(7)));
        assert!(always.samples_drops());

        let notif = mk(TracePolicy::NotificationsOnly);
        assert!(!notif.samples_instance(TraceId(0)));
        assert!(!notif.samples_drops());

        let nth = mk(TracePolicy::OneInN(4));
        let sampled: Vec<u64> = (0..9)
            .filter(|&i| nth.samples_instance(TraceId(i)))
            .collect();
        assert_eq!(sampled, vec![0, 4, 8]);
        assert!(nth.samples_drops());
    }

    #[test]
    fn drop_verdicts_are_bounded_and_drained() {
        let clock = Arc::new(TraceClock::deterministic());
        let ring = Arc::new(Mutex::new(FlightRing::new(8)));
        let mut wt = WorkerTrace::new(clock, TracePolicy::NotificationsOnly, ring);
        for i in 0..20u64 {
            wt.note_drop(TraceId(i), stem_core::DropVerdict::Late);
        }
        let drained = wt.take_drops();
        assert_eq!(drained.len(), RECENT_DROPS);
        assert_eq!(drained[0].0, TraceId(4), "burst evicted the oldest");
        assert!(wt.take_drops().is_empty(), "drained means drained");
    }
}
