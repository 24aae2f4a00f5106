//! Columnar (structure-of-arrays) ingest batches.
//!
//! The engine's hot path used to move one boxed [`EventInstance`] at a
//! time through routing: every instance paid for its own `String` event
//! id, its own `BTreeMap` attribute set, and its own cache-hostile heap
//! walk, even though the router and the scope/BVH probes only ever look
//! at a handful of plain-old-data fields (layer, times, representative
//! point). A [`ColumnarBatch`] flips the layout: instances are appended
//! into parallel arrays, event ids and attribute keys are interned once
//! per batch, and attribute values live in a flat arena that a
//! [`ColumnarBatch::reset`] reclaims without freeing capacity. Every
//! instance the engine routes is a row of such a batch: routing, scope
//! tests, and BVH probes iterate dense columns, and a full
//! [`EventInstance`] is only re-materialized for the minority of rows
//! that actually reach evaluation or durable logging.

use crate::{AttrValue, Attributes, Confidence, EventId, EventInstance, Layer, ObserverId, SeqNo};
use std::collections::BTreeMap;
use stem_spatial::{Point, SpatialExtent};
use stem_temporal::{TemporalExtent, TimePoint};

/// Arena-backed attribute storage shared by every row of a batch.
///
/// Keys are interned (each distinct attribute name is stored once per
/// arena lifetime — the interner survives [`AttrArena::reset`]); values
/// are appended to one flat vector, and each row owns a contiguous
/// `(start, end)` range of it. Resetting truncates the value vector and
/// the row table while keeping both the interner and all capacity, so a
/// recycled batch appends at amortized zero allocation cost.
#[derive(Debug, Default, Clone)]
pub struct AttrArena {
    keys: Vec<String>,
    key_ids: BTreeMap<String, u32>,
    entries: Vec<(u32, AttrValue)>,
    rows: Vec<(u32, u32)>,
}

impl AttrArena {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        AttrArena::default()
    }

    /// Appends one row holding `attrs` and returns its row index.
    pub fn push_row(&mut self, attrs: &Attributes) -> usize {
        let start = self.entries.len() as u32;
        for (key, value) in attrs.iter() {
            let id = match self.key_ids.get(key) {
                Some(&id) => id,
                None => {
                    let id = self.keys.len() as u32;
                    self.keys.push(key.to_owned());
                    self.key_ids.insert(key.to_owned(), id);
                    id
                }
            };
            self.entries.push((id, value.clone()));
        }
        self.rows.push((start, self.entries.len() as u32));
        self.rows.len() - 1
    }

    /// Rebuilds the row's attribute set (bit-identical to the one that
    /// was pushed: `Attributes` iterates in sorted key order, and the
    /// arena preserves that order per row).
    #[must_use]
    pub fn materialize_row(&self, row: usize) -> Attributes {
        let (start, end) = self.rows[row];
        self.entries[start as usize..end as usize]
            .iter()
            .map(|(id, value)| (self.keys[*id as usize].clone(), value.clone()))
            .collect()
    }

    /// Number of rows pushed since the last reset.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of distinct attribute keys ever interned.
    #[must_use]
    pub fn interned_keys(&self) -> usize {
        self.keys.len()
    }

    /// Total value-entry capacity currently reserved.
    #[must_use]
    pub fn entry_capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Drops all rows and values, keeping the key interner and every
    /// vector's capacity for reuse.
    pub fn reset(&mut self) {
        self.entries.clear();
        self.rows.clear();
    }
}

/// A structure-of-arrays batch of event instances.
///
/// Columns the router and scope/BVH probes touch (`layer`,
/// `generation_time`, the ingest-provided evaluation time, the
/// representative point of the estimated location) are dense `Copy`
/// arrays; heavier per-row state (estimated extents, attributes) sits
/// in side tables that are only consulted when a row is materialized
/// back into an [`EventInstance`].
#[derive(Debug, Default, Clone)]
pub struct ColumnarBatch {
    observers: Vec<ObserverId>,
    event_rows: Vec<u32>,
    events: Vec<EventId>,
    event_ids: BTreeMap<EventId, u32>,
    seqs: Vec<SeqNo>,
    layers: Vec<Layer>,
    gen_times: Vec<TimePoint>,
    gen_locations: Vec<Point>,
    est_times: Vec<TemporalExtent>,
    est_locations: Vec<SpatialExtent>,
    reps: Vec<Point>,
    confidences: Vec<Confidence>,
    eval_ats: Vec<Option<TimePoint>>,
    ingest_stamps: Vec<u64>,
    attrs: AttrArena,
}

impl ColumnarBatch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        ColumnarBatch::default()
    }

    /// An empty batch with row capacity reserved up front.
    #[must_use]
    pub fn with_capacity(rows: usize) -> Self {
        let mut batch = ColumnarBatch::default();
        batch.observers.reserve(rows);
        batch.event_rows.reserve(rows);
        batch.seqs.reserve(rows);
        batch.layers.reserve(rows);
        batch.gen_times.reserve(rows);
        batch.gen_locations.reserve(rows);
        batch.est_times.reserve(rows);
        batch.est_locations.reserve(rows);
        batch.reps.reserve(rows);
        batch.confidences.reserve(rows);
        batch.eval_ats.reserve(rows);
        batch.ingest_stamps.reserve(rows);
        batch
    }

    /// Appends one instance as a new row and returns its row index.
    /// The row has no evaluation time and an ingest stamp of 0
    /// (untraced); the engine's ingest path uses
    /// [`ColumnarBatch::push_at`].
    pub fn push(&mut self, instance: &EventInstance) -> usize {
        self.push_at(instance, None, 0)
    }

    /// Appends one instance with its ingest-provided evaluation time
    /// (`None` = evaluate at the generation time) and the trace-clock
    /// stamp taken when it entered the engine (0 untraced), and returns
    /// its row index.
    pub fn push_at(
        &mut self,
        instance: &EventInstance,
        eval_at: Option<TimePoint>,
        ingest_stamp: u64,
    ) -> usize {
        // Streams are overwhelmingly single-event: one equality check
        // against the previous row's interned id usually replaces the
        // map descent.
        let last = self.event_rows.last().copied();
        let event_id = match last {
            Some(id) if self.events[id as usize] == *instance.event() => id,
            _ => match self.event_ids.get(instance.event()) {
                Some(&id) => id,
                None => {
                    let id = self.events.len() as u32;
                    self.events.push(instance.event().clone());
                    self.event_ids.insert(instance.event().clone(), id);
                    id
                }
            },
        };
        self.observers.push(instance.observer());
        self.event_rows.push(event_id);
        self.seqs.push(instance.seq());
        self.layers.push(instance.layer());
        self.gen_times.push(instance.generation_time());
        self.gen_locations.push(instance.generation_location());
        self.est_times.push(*instance.estimated_time());
        self.est_locations
            .push(instance.estimated_location().clone());
        self.reps
            .push(instance.estimated_location().representative());
        self.confidences.push(instance.confidence());
        self.eval_ats.push(eval_at);
        self.ingest_stamps.push(ingest_stamp);
        self.attrs.push_row(instance.attributes());
        self.len() - 1
    }

    /// The row's ingest-provided evaluation time: the stream-clock
    /// sample, reorder key, and detector clock in place of the
    /// generation time (`None` = the generation time).
    #[must_use]
    pub fn eval_at(&self, row: usize) -> Option<TimePoint> {
        self.eval_ats[row]
    }

    /// The trace-clock stamp taken when the row entered the engine
    /// (0 for untraced rows).
    #[must_use]
    pub fn ingest_stamp(&self, row: usize) -> u64 {
        self.ingest_stamps[row]
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the batch holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The row's event id (interned reference).
    #[must_use]
    pub fn event(&self, row: usize) -> &EventId {
        &self.events[self.event_rows[row] as usize]
    }

    /// The row's model layer.
    #[must_use]
    pub fn layer(&self, row: usize) -> Layer {
        self.layers[row]
    }

    /// The row's generation time `t^g`.
    #[must_use]
    pub fn generation_time(&self, row: usize) -> TimePoint {
        self.gen_times[row]
    }

    /// The representative point of the row's estimated location — the
    /// value the router and interest probes key on.
    #[must_use]
    pub fn representative(&self, row: usize) -> Point {
        self.reps[row]
    }

    /// The row's estimated occurrence location `l^eo`.
    #[must_use]
    pub fn estimated_location(&self, row: usize) -> &SpatialExtent {
        &self.est_locations[row]
    }

    /// The representative points of every row, as one dense column.
    #[must_use]
    pub fn representatives(&self) -> &[Point] {
        &self.reps
    }

    /// The generation times of every row, as one dense column.
    #[must_use]
    pub fn generation_times(&self) -> &[TimePoint] {
        &self.gen_times
    }

    /// The attribute arena backing this batch.
    #[must_use]
    pub fn attr_arena(&self) -> &AttrArena {
        &self.attrs
    }

    /// Rebuilds the row as a standalone [`EventInstance`], bit-identical
    /// to the instance that was pushed.
    #[must_use]
    pub fn materialize(&self, row: usize) -> EventInstance {
        EventInstance::builder(
            self.observers[row],
            self.event(row).clone(),
            self.layers[row],
        )
        .seq(self.seqs[row])
        .generated(self.gen_times[row], self.gen_locations[row])
        .estimated(self.est_times[row], self.est_locations[row].clone())
        .attributes(self.attrs.materialize_row(row))
        .confidence(self.confidences[row])
        .build()
    }

    /// Drops every row while keeping all column capacity and both
    /// interners (event ids and attribute keys), so a recycled batch
    /// rebuilds at amortized zero allocation cost.
    pub fn reset(&mut self) {
        self.observers.clear();
        self.event_rows.clear();
        self.seqs.clear();
        self.layers.clear();
        self.gen_times.clear();
        self.gen_locations.clear();
        self.est_times.clear();
        self.est_locations.clear();
        self.reps.clear();
        self.confidences.clear();
        self.eval_ats.clear();
        self.ingest_stamps.clear();
        self.attrs.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MoteId;

    fn inst(t: u64, x: f64, event: &str) -> EventInstance {
        EventInstance::builder(
            ObserverId::Mote(MoteId::new(1)),
            EventId::new(event),
            Layer::Sensor,
        )
        .seq(SeqNo::new(t))
        .generated(TimePoint::new(t), Point::new(x, -x))
        .estimated(
            TemporalExtent::punctual(TimePoint::new(t.saturating_sub(1))),
            SpatialExtent::point(Point::new(x + 0.5, x)),
        )
        .attributes(
            Attributes::new()
                .with("temp", t as f64)
                .with("label", format!("row-{t}").as_str())
                .with("hot", t.is_multiple_of(2)),
        )
        .confidence(Confidence::new(0.5).unwrap())
        .build()
    }

    #[test]
    fn materialize_round_trips_every_field() {
        let mut batch = ColumnarBatch::new();
        let originals: Vec<EventInstance> =
            (0..50).map(|t| inst(t, t as f64 * 0.3, "hot")).collect();
        for instance in &originals {
            batch.push(instance);
        }
        assert_eq!(batch.len(), originals.len());
        for (row, original) in originals.iter().enumerate() {
            assert_eq!(&batch.materialize(row), original);
            assert_eq!(
                batch.representative(row),
                original.estimated_location().representative()
            );
            assert_eq!(batch.event(row), original.event());
            assert_eq!(batch.generation_time(row), original.generation_time());
        }
    }

    #[test]
    fn arena_reuse_after_reset_keeps_interner_and_capacity() {
        let mut batch = ColumnarBatch::with_capacity(16);
        for t in 0..16 {
            batch.push(&inst(t, 1.0, if t % 2 == 0 { "hot" } else { "cold" }));
        }
        let keys_before = batch.attr_arena().interned_keys();
        let cap_before = batch.attr_arena().entry_capacity();
        assert!(keys_before >= 3, "temp/label/hot interned");

        batch.reset();
        assert!(batch.is_empty());
        assert_eq!(batch.attr_arena().rows(), 0);
        assert_eq!(
            batch.attr_arena().interned_keys(),
            keys_before,
            "reset keeps the key interner"
        );
        assert_eq!(
            batch.attr_arena().entry_capacity(),
            cap_before,
            "reset keeps value capacity"
        );

        // A second fill over the same key/event universe reuses the
        // interners and still materializes bit-identically.
        let again = inst(3, 2.0, "cold");
        let row = batch.push(&again);
        assert_eq!(batch.attr_arena().interned_keys(), keys_before);
        assert_eq!(batch.materialize(row), again);
    }

    #[test]
    fn ingest_stamps_ride_the_row_and_reset() {
        let mut batch = ColumnarBatch::new();
        let plain = batch.push(&inst(1, 0.0, "hot"));
        let stamped = batch.push_at(&inst(2, 1.0, "hot"), None, 42);
        let timed = batch.push_at(&inst(3, 1.5, "hot"), Some(TimePoint::new(90)), 43);
        assert_eq!(batch.ingest_stamp(plain), 0, "push is the untraced path");
        assert_eq!(batch.eval_at(plain), None, "push evaluates at t^g");
        assert_eq!(batch.ingest_stamp(stamped), 42);
        assert_eq!(batch.eval_at(stamped), None);
        assert_eq!(batch.ingest_stamp(timed), 43);
        assert_eq!(batch.eval_at(timed), Some(TimePoint::new(90)));
        batch.reset();
        // A recycled chunk must not leak the previous fill's per-row
        // values into rows pushed after the reset.
        let again = batch.push_at(&inst(4, 2.0, "hot"), None, 7);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.ingest_stamp(again), 7, "stamps cleared by reset");
        assert_eq!(
            batch.eval_at(again),
            None,
            "evaluation times cleared by reset"
        );
        let timed_again = batch.push_at(&inst(5, 2.5, "hot"), Some(TimePoint::new(7)), 0);
        assert_eq!(timed_again, 1, "reset rewinds every column together");
        assert_eq!(batch.eval_at(timed_again), Some(TimePoint::new(7)));
    }

    #[test]
    fn eval_at_never_changes_the_materialized_instance() {
        let mut batch = ColumnarBatch::new();
        let original = inst(6, 3.0, "hot");
        let plain = batch.push(&original);
        let timed = batch.push_at(&original, Some(TimePoint::new(1_000)), 5);
        // The evaluation time is routing metadata, not part of the
        // instance: both rows rebuild the pushed instance bit for bit.
        assert_eq!(batch.materialize(plain), original);
        assert_eq!(batch.materialize(timed), original);
    }

    #[test]
    fn arena_rows_are_independent_ranges() {
        let mut arena = AttrArena::new();
        let a = Attributes::new().with("x", 1.0);
        let b = Attributes::new().with("x", 2.0).with("y", "b");
        let ra = arena.push_row(&a);
        let rb = arena.push_row(&b);
        let empty = arena.push_row(&Attributes::new());
        assert_eq!(arena.materialize_row(ra), a);
        assert_eq!(arena.materialize_row(rb), b);
        assert_eq!(arena.materialize_row(empty), Attributes::new());
        assert_eq!(arena.interned_keys(), 2, "x interned once across rows");
    }
}
