//! The shard router: spatial partitioning, interest tracking, batching.

use crate::batch::{Batch, BatchItem, ItemTrace};
use crate::config::ShardId;
use crate::metrics::RouterMetrics;
use crate::plan::PlanId;
use crate::shard_map::{Grid, ShardMap};
use std::sync::Arc;
use stem_core::{ColumnarBatch, Layer, TraceClock};
use stem_spatial::{Bvh, Field, Point, Rect, SpatialExtent};
use stem_temporal::TimePoint;

/// The bit for a model layer in an [`Interest`]'s layer mask.
fn layer_bit(layer: Layer) -> u8 {
    1 << (layer as u8)
}

/// The mask for a subscription's layer filter (`None` = every layer).
fn layer_mask(layers: Option<&[Layer]>) -> u8 {
    layers.map_or(u8::MAX, |list| {
        list.iter().fold(0, |mask, &l| mask | layer_bit(l))
    })
}

/// One registered detector plan as the router sees it: the union of
/// its subscribers' routing scopes (exact extents for precision
/// checks, plus their cheaper union bounding box) and the plan's layer
/// filter as a bitmask — everything the worker's own candidate filter
/// would reject is already rejected here, at enqueue time. A plan with
/// many subscribers costs one interest entry, so mega-tenancy
/// registration leaves the routing tables plan-sized; the worker
/// re-applies each subscriber's own scope at fan-out, keeping the
/// union's pruning exact.
#[derive(Debug, Clone)]
struct Interest {
    id: PlanId,
    /// Union bounding box over `scopes`.
    bbox: Rect,
    /// Every distinct subscriber scope attached to the plan (the engine
    /// dedupes identical scopes before they reach the router).
    scopes: Vec<SpatialExtent>,
    layers: u8,
}

/// Routes instances to shards and accumulates per-shard batches.
///
/// Every instance goes to each shard that is home to a subscription
/// whose layer filter and routing scope cover it — and, under durable
/// logging, unconditionally to the shard that *owns* its location
/// under the [`ShardMap`]. A subscription lives on exactly one home
/// shard (the owner of its scope's center, or of the home hint clamped
/// into the scope), so detector state is never split and the match
/// multiset is independent of the shard count.
#[derive(Debug)]
pub struct ShardRouter {
    map: ShardMap,
    batch_size: usize,
    /// Per home shard: interests of resident plans (one entry per
    /// plan, however many subscribers share it).
    interests: Vec<Vec<Interest>>,
    /// Per home shard: the BVH over the resident scope bounding boxes,
    /// built once the interest count crosses `bvh_threshold` (item
    /// index = position in `interests[shard]`). `None` = linear scan.
    bvhs: Vec<Option<Bvh>>,
    /// Interest count per home shard at which the precision pass
    /// switches to the BVH ([`ShardRouter::BVH_THRESHOLD`] outside the
    /// unit tests, which pin each side).
    bvh_threshold: usize,
    /// Candidate buffer reused across BVH point queries.
    scratch: Vec<u32>,
    /// The interest index resolution: a fixed fine quadtree grid,
    /// independent of the (coarser) shard-territory grid so broadcast
    /// stays confined to actual region boundaries.
    interest_grid: Grid,
    /// Per interest-grid leaf: bitmask of shards homing a subscription
    /// whose bounding box touches the leaf. Routing is then O(1) per
    /// instance regardless of the subscription count; workers re-check
    /// exact region coverage, so the leaf granularity only costs an
    /// occasional extra delivery, never a missed one.
    leaf_masks: Vec<u64>,
    /// Per shard: the accumulating batch.
    pending: Vec<Vec<BatchItem>>,
    /// Maximum generation time seen across the whole stream.
    high_water: Option<TimePoint>,
    /// The next global ingest sequence number (instances and silence
    /// probes each consume one, in arrival order).
    next_seq: u64,
    /// Per shard: the high-water mark last handed off in a batch, so
    /// heartbeat-only batches are cut only when the stream clock
    /// actually advanced for that shard (see [`ShardRouter::needs_heartbeat`]).
    heartbeat_sent: Vec<Option<TimePoint>>,
    /// Whether the territorial owner receives every instance even with
    /// no covering subscription. Required under durable logging (each
    /// operation must reach some shard's write-ahead log); without it,
    /// an instance nothing subscribes to is dropped at enqueue time
    /// instead of riding a shard's reorder buffer to a no-op dispatch.
    retain_owner: bool,
    /// The engine-wide trace clock (None with tracing off): the router
    /// takes each item's `route` stamp when it consumes the item's
    /// sequence number, and each batch's `enqueue` stamp at handoff.
    trace_clock: Option<Arc<TraceClock>>,
    metrics: RouterMetrics,
}

impl ShardRouter {
    /// Interest-index depth: `4^6 = 4096` leaves (32 KiB of masks),
    /// fine enough that a subscription's interest footprint hugs its
    /// actual bounding box instead of whole shard territories.
    const INTEREST_DEPTH: u32 = 6;

    /// Resident plan interests on one home shard at which the precision
    /// pass switches from the linear exact-scope scan to the per-shard
    /// BVH. The router picks the side from the count it observes, and
    /// both sides answer identically: the threshold only trades index
    /// build cost against scan cost.
    const BVH_THRESHOLD: usize = 16;

    /// Creates a router over `map`, flushing batches at `batch_size`.
    /// `retain_owner` keeps the territorial-owner delivery even for
    /// instances no subscription covers (durable-logging mode; see
    /// [`ShardRouter::target_mask`]).
    #[must_use]
    pub(crate) fn new(map: ShardMap, batch_size: usize, retain_owner: bool) -> Self {
        Self::with_bvh_threshold(map, batch_size, Self::BVH_THRESHOLD, retain_owner)
    }

    /// [`ShardRouter::new`] with an explicit BVH switch-over count, so
    /// tests can force either side of the precision pass (`0` always
    /// uses the BVH, `usize::MAX` never does).
    fn with_bvh_threshold(
        map: ShardMap,
        batch_size: usize,
        bvh_threshold: usize,
        retain_owner: bool,
    ) -> Self {
        let shards = map.shard_count();
        let interest_grid = Grid::new(map.bounds(), Self::INTEREST_DEPTH);
        let leaves = interest_grid.leaf_count();
        ShardRouter {
            map,
            batch_size: batch_size.max(1),
            interests: vec![Vec::new(); shards],
            bvhs: vec![None; shards],
            bvh_threshold,
            scratch: Vec::new(),
            interest_grid,
            leaf_masks: vec![0; leaves],
            pending: vec![Vec::new(); shards],
            high_water: None,
            next_seq: 0,
            heartbeat_sent: vec![None; shards],
            retain_owner,
            trace_clock: None,
            metrics: RouterMetrics::default(),
        }
    }

    /// Attaches the engine-wide trace clock: routed items gain
    /// ingest/route stamps and batches gain enqueue stamps.
    pub(crate) fn set_trace_clock(&mut self, clock: Arc<TraceClock>) {
        self.trace_clock = Some(clock);
    }

    /// The shard map in use.
    #[cfg(test)]
    fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The router's global high-water mark.
    #[must_use]
    pub fn high_water(&self) -> Option<TimePoint> {
        self.high_water
    }

    /// The next global ingest sequence number.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.next_seq
    }

    /// Consumes and returns one global ingest sequence number (the
    /// engine stamps silence probes from the same counter as instances,
    /// so the union of the per-shard logs is totally ordered).
    pub(crate) fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Seeds the sequence counter and high-water mark after a crash
    /// recovery, so the resumed stream continues exactly where the
    /// durable prefix ended.
    ///
    /// The per-shard heartbeat memory is seeded too: every shard is
    /// treated as already knowing the recovered mark. Each shard
    /// relearns its *own* watermark from its own log during replay —
    /// pushing the global mark at it beforehand would race the replay
    /// and late-drop the entire durable prefix.
    pub(crate) fn seed_recovery(&mut self, next_seq: u64, high_water: Option<TimePoint>) {
        self.next_seq = next_seq;
        self.high_water = high_water;
        self.heartbeat_sent.fill(high_water);
    }

    /// The home shard a scope + hint pair resolves to: the owner of
    /// `home_hint` — clamped into the scope's bounding box, so a scoped
    /// plan always homes inside its own scope — or of the scope's
    /// center without a hint. Pure: registration uses exactly this
    /// computation, so the engine can derive a subscription's home (a
    /// plan-key ingredient) before deciding whether the plan already
    /// exists.
    #[must_use]
    pub fn home_for(&self, scope: &SpatialExtent, home_hint: Option<Point>) -> ShardId {
        let bbox = scope.bounding_box();
        let anchor = home_hint.map_or_else(
            || bbox.center(),
            |hint| {
                Point::new(
                    hint.x.clamp(bbox.min().x, bbox.max().x),
                    hint.y.clamp(bbox.min().y, bbox.max().y),
                )
            },
        );
        self.map.shard_for_point(anchor)
    }

    /// Registers a plan's first routing scope and returns its home
    /// shard (see [`ShardRouter::home_for`]).
    pub(crate) fn subscribe(
        &mut self,
        id: PlanId,
        scope: SpatialExtent,
        layers: Option<&[Layer]>,
        home_hint: Option<Point>,
    ) -> ShardId {
        let bbox = scope.bounding_box();
        let home = self.home_for(&scope, home_hint);
        if !bbox.contains_rect(&self.map.bounds()) {
            self.metrics.scoped_subscriptions += 1;
        }
        self.interests[home].push(Interest {
            id,
            bbox,
            scopes: vec![scope],
            layers: layer_mask(layers),
        });
        if let Some(bvh) = &mut self.bvhs[home] {
            bvh.insert(bbox);
        } else if self.interests[home].len() >= self.bvh_threshold.max(1) {
            self.rebuild_bvh(home);
        }
        self.mark_leaves(home, self.interests[home].len() - 1);
        home
    }

    /// Widens an existing plan's interest with a further subscriber's
    /// scope: the scope joins the precision list, the union bounding
    /// box grows, and the layer mask widens. The engine only calls this
    /// for scopes the plan has not seen yet, so a million structurally
    /// identical subscriptions over one region cost the router exactly
    /// one interest entry with one scope.
    pub(crate) fn add_scope(&mut self, id: PlanId, scope: SpatialExtent, layers: Option<&[Layer]>) {
        let Some((home, pos)) = self.locate(id) else {
            return;
        };
        let grew = {
            let interest = &mut self.interests[home][pos];
            let bbox = interest.bbox.union(&scope.bounding_box());
            let grew = bbox != interest.bbox;
            interest.bbox = bbox;
            interest.layers |= layer_mask(layers);
            interest.scopes.push(scope);
            grew
        };
        if grew {
            // BVH item boxes are immutable once inserted; a widened
            // union bbox needs the home shard's index rebuilt.
            self.rebuild_bvh(home);
        }
        self.mark_leaves(home, pos);
    }

    /// Sets the interest-grid leaf bits for the newest scope of
    /// `interests[home][pos]`.
    fn mark_leaves(&mut self, home: ShardId, pos: usize) {
        let scope = self.interests[home][pos]
            .scopes
            .last()
            .expect("interest holds at least one scope");
        for (leaf, cell) in self
            .interest_grid
            .leaf_rects_for_rect(&scope.bounding_box())
        {
            // Exact-coverage refinement: a bounding box overstates a
            // circular or polygonal scope by up to its whole corner
            // area, and at leaf granularity that marks interest on
            // cells the scope can never match. Testing the scope
            // against each cell keeps the mask tight, so points in the
            // uncovered residue route on the leaf lookup alone —
            // no precision query at all.
            if scope.intersects(&SpatialExtent::field(Field::rect(cell))) {
                self.leaf_masks[leaf] |= 1 << home;
            }
        }
    }

    /// The `(home shard, list position)` of a registered plan.
    fn locate(&self, id: PlanId) -> Option<(ShardId, usize)> {
        self.interests
            .iter()
            .enumerate()
            .find_map(|(shard, list)| list.iter().position(|i| i.id == id).map(|pos| (shard, pos)))
    }

    /// (Re)builds a home shard's BVH over its resident scope boxes, or
    /// drops it when the count fell back below the threshold.
    fn rebuild_bvh(&mut self, shard: ShardId) {
        let list = &self.interests[shard];
        self.bvhs[shard] = if list.len() >= self.bvh_threshold.max(1) {
            let rects: Vec<Rect> = list.iter().map(|i| i.bbox).collect();
            Some(Bvh::build(&rects))
        } else {
            None
        };
    }

    /// The home shard of a registered plan, if known.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn home_of(&self, id: PlanId) -> Option<ShardId> {
        self.locate(id).map(|(shard, _)| shard)
    }

    /// Forgets a plan (its last subscriber left); returns its home
    /// shard if it was known.
    pub(crate) fn unsubscribe(&mut self, id: PlanId) -> Option<ShardId> {
        let (shard, pos) = self.locate(id)?;
        self.interests[shard].remove(pos);
        self.rebuild_leaf_masks();
        self.rebuild_bvh(shard);
        Some(shard)
    }

    /// Recomputes the leaf interest masks from scratch (unsubscribe is
    /// rare; ingestion never pays for this).
    fn rebuild_leaf_masks(&mut self) {
        for mask in &mut self.leaf_masks {
            *mask = 0;
        }
        for (shard, list) in self.interests.iter().enumerate() {
            for interest in list {
                for scope in &interest.scopes {
                    for (leaf, cell) in self
                        .interest_grid
                        .leaf_rects_for_rect(&scope.bounding_box())
                    {
                        // Same exact-coverage refinement as `mark_leaves`.
                        if scope.intersects(&SpatialExtent::field(Field::rect(cell))) {
                            self.leaf_masks[leaf] |= 1 << shard;
                        }
                    }
                }
            }
        }
    }

    /// Whether some plan homed on `shard` accepts the layer and has a
    /// subscriber routing scope *exactly* covering the point (leaf
    /// masks are bounding-box granular; this is the precision pass that
    /// trims the broadcast fan-out). Served by the per-shard BVH once
    /// the shard's interest count crossed the threshold, by the linear
    /// scan below it — both answer identically.
    fn covered_by_interest(&mut self, shard: ShardId, p: Point, layer: u8) -> bool {
        let covers = |i: &Interest| i.scopes.iter().any(|s| s.covers(p));
        if let Some(bvh) = &self.bvhs[shard] {
            self.scratch.clear();
            self.metrics.bvh_nodes_visited += bvh.query_point(p, &mut self.scratch);
            let list = &self.interests[shard];
            self.scratch
                .iter()
                .map(|&i| &list[i as usize])
                .any(|i| i.layers & layer != 0 && covers(i))
        } else {
            self.interests[shard]
                .iter()
                .any(|i| i.layers & layer != 0 && i.bbox.contains(p) && covers(i))
        }
    }

    /// A trace-clock stamp, or 0 with tracing off.
    pub(crate) fn trace_stamp(&self) -> u64 {
        self.trace_clock.as_ref().map_or(0, |c| c.now())
    }

    /// Routes every row of a shared ingest chunk into the per-shard
    /// pending batches, iterating the chunk's dense representative-point,
    /// evaluation-time, and generation-time columns instead of walking
    /// per-instance heap structures. Each row's stream-clock sample (the
    /// high-water input and reorder key) is its evaluation time when the
    /// ingest call supplied one, its generation time otherwise. Shards
    /// receive `(chunk, row)` references; the full instance is only
    /// re-materialized downstream for rows that reach evaluation or
    /// durable logging.
    ///
    /// Returns the shards whose pending batch reached the flush
    /// threshold, deduplicated, in shard order.
    pub fn route_batch(&mut self, batch: &Arc<ColumnarBatch>) -> Vec<ShardId> {
        let mut full_mask: u64 = 0;
        // One route stamp per chunk, shared by every row: a per-row
        // clock read costs more than the routing itself, and the rows'
        // ingest stamps (taken at chunk fill, all before this call) stay
        // `<=` the shared stamp.
        let route = self.trace_stamp();
        for row in 0..batch.len() {
            let location = batch.representatives()[row];
            let t = batch.eval_at(row).unwrap_or(batch.generation_times()[row]);
            let targets = self.target_mask(location, layer_bit(batch.layer(row)));
            let (seq, prefix_high_water, trace) = self.stamp(t, batch.ingest_stamp(row), route);
            let mut bits = targets;
            while bits != 0 {
                let shard = bits.trailing_zeros() as ShardId;
                bits &= bits - 1;
                let pending = &mut self.pending[shard];
                pending.push(BatchItem {
                    seq,
                    chunk: Arc::clone(batch),
                    row: row as u32,
                    prefix_high_water,
                    trace,
                });
                if pending.len() >= self.batch_size {
                    full_mask |= 1 << shard;
                }
            }
        }
        let mut full = Vec::with_capacity(full_mask.count_ones() as usize);
        while full_mask != 0 {
            full.push(full_mask.trailing_zeros() as ShardId);
            full_mask &= full_mask - 1;
        }
        full
    }

    /// Advances the stream clock past `t` and consumes one sequence
    /// number, returning `(seq, prefix_high_water, trace)` for the
    /// routed item. The caller supplies the `route` stamp (taken once
    /// per chunk) so `ingest..route` measures the real gap between
    /// engine entry and routing without a clock read per routed copy.
    fn stamp(
        &mut self,
        t: TimePoint,
        ingest: u64,
        route: u64,
    ) -> (u64, Option<TimePoint>, Option<ItemTrace>) {
        // The high-water mark over the strict prefix: stamped onto the
        // routed item so shard drop decisions replay the global run.
        let prefix_high_water = self.high_water;
        self.high_water = Some(self.high_water.map_or(t, |h| h.max(t)));
        self.metrics.routed += 1;
        let trace = self
            .trace_clock
            .as_ref()
            .map(|_| ItemTrace { ingest, route });
        (self.take_seq(), prefix_high_water, trace)
    }

    /// The delivery bitmask for an instance at `location` on `layer`
    /// (as a [`layer_bit`]): every interested shard that survives the
    /// precision pass, plus — under durable logging — the territorial
    /// owner unconditionally.
    ///
    /// The precision pass drops, at enqueue time, every shard whose
    /// resident subscriptions either sit on other layers or do not
    /// exactly cover the point. Workers re-check both anyway, so a skip
    /// can never lose a match — it only saves the delivery. Without
    /// `retain_owner` the owner is pruned like any other shard: an
    /// instance nobody subscribes to routes nowhere (the stream clock
    /// and sequence still advance, so watermark/late-drop decisions on
    /// the rest of the stream are untouched). With it, the owner always
    /// receives a copy so the operation reaches its shard's
    /// write-ahead log.
    fn target_mask(&mut self, location: Point, layer: u8) -> u64 {
        let owner = self.map.shard_for_point(location);
        let leaf = self.interest_grid.leaf_for_point(location);
        let mask = self.leaf_masks[leaf];
        if mask == 0 {
            self.metrics.owner_only += 1;
        }
        let mut targets = mask;
        let mut bits = if self.retain_owner {
            // The owner receives regardless; don't bill a precision
            // skip for a shard that stays in the mask.
            mask & !(1 << owner)
        } else {
            mask
        };
        while bits != 0 {
            let shard = bits.trailing_zeros() as ShardId;
            bits &= bits - 1;
            if !self.covered_by_interest(shard, location, layer) {
                self.metrics.precision_skipped += 1;
                targets &= !(1 << shard);
            }
        }
        if self.retain_owner {
            targets |= 1 << owner;
        }
        self.metrics.fanout += u64::from(targets.count_ones());
        targets
    }

    /// Takes the pending batch for `shard`, stamped with the current
    /// high-water mark and the number of operations in the stream's
    /// strict prefix.
    ///
    /// The stamp is `next_seq` — an *exclusive* bound ("this heartbeat
    /// summarizes every operation with `seq < stamp`") — not the last
    /// consumed sequence. The previous `next_seq - 1` (saturating)
    /// labelled a heartbeat cut before any ingest with seq 0, colliding
    /// with the first real operation's sequence in WAL replay ordering:
    /// a reader could not tell "covers operation 0" from "covers
    /// nothing". With the exclusive bound, 0 unambiguously means an
    /// empty prefix.
    pub fn take_batch(&mut self, shard: ShardId) -> Batch {
        self.metrics.batches_sent += 1;
        self.heartbeat_sent[shard] = self.high_water;
        Batch {
            instances: std::mem::take(&mut self.pending[shard]),
            high_water: self.high_water,
            seq: self.next_seq,
            enqueue: self.trace_stamp(),
        }
    }

    /// Whether `shard` would learn anything from a heartbeat-only batch:
    /// `true` when the global high-water mark advanced past the last one
    /// handed to it. Cutting heartbeats only on stream-clock advance is
    /// what amortizes the all-shard flush round to once per simulation
    /// tick instead of once per delivery — a repeated heartbeat is a
    /// semantic no-op for the shard's reorder buffer.
    #[must_use]
    pub fn needs_heartbeat(&self, shard: ShardId) -> bool {
        self.high_water.is_some() && self.heartbeat_sent[shard] != self.high_water
    }

    /// Number of instances pending for `shard`.
    #[must_use]
    pub fn pending_len(&self, shard: ShardId) -> usize {
        self.pending[shard].len()
    }

    /// Records a heartbeat-only flush elided because its target shard
    /// was idle and held nothing reordering.
    pub(crate) fn note_suppressed_heartbeat(&mut self) {
        self.metrics.heartbeats_suppressed += 1;
    }

    /// A live view of the counters (telemetry sampling reads routed /
    /// fanout / BVH traversal totals mid-run without disturbing them).
    #[must_use]
    pub fn metrics(&self) -> &RouterMetrics {
        &self.metrics
    }

    /// Surrenders the counters.
    pub(crate) fn take_metrics(&mut self) -> RouterMetrics {
        std::mem::take(&mut self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use stem_core::{EventId, EventInstance, Layer, MoteId, ObserverId};
    use stem_spatial::{Circle, Field};

    fn world(shards: usize) -> ShardMap {
        ShardMap::build(
            Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
            shards,
        )
    }

    fn router(shards: usize, bvh_threshold: usize) -> ShardRouter {
        ShardRouter::with_bvh_threshold(world(shards), 1, bvh_threshold, true)
    }

    impl ShardRouter {
        /// Routes one instance as a one-row chunk and returns the shards
        /// whose batch just reached the flush threshold — with the test
        /// routers' batch size of 1, exactly its targets.
        fn route(&mut self, instance: EventInstance) -> Vec<ShardId> {
            let mut chunk = ColumnarBatch::with_capacity(1);
            chunk.push(&instance);
            self.route_batch(&Arc::new(chunk))
        }
    }

    fn inst(t: u64, x: f64, y: f64) -> EventInstance {
        EventInstance::builder(
            ObserverId::Mote(MoteId::new(1)),
            EventId::new("e"),
            Layer::Sensor,
        )
        .generated(TimePoint::new(t), Point::new(x, y))
        .build()
    }

    fn rect_scope(x0: f64, y0: f64, x1: f64, y1: f64) -> SpatialExtent {
        SpatialExtent::field(Field::rect(Rect::new(
            Point::new(x0, y0),
            Point::new(x1, y1),
        )))
    }

    /// The empty-prefix case: a heartbeat cut before any ingest must
    /// not share a stamp with the first real operation. The batch stamp
    /// is the exclusive prefix bound — 0 means "covers nothing", and
    /// after the first operation (seq 0) the stamp is 1.
    #[test]
    fn watermark_stamp_is_unambiguous_on_an_empty_prefix() {
        let mut r = router(1, usize::MAX);
        let pre_ingest = r.take_batch(0);
        assert_eq!(pre_ingest.seq, 0, "empty prefix stamps 0");
        assert!(pre_ingest.high_water.is_none());

        let targets = r.route(inst(10, 5.0, 5.0));
        assert_eq!(targets, vec![0]);
        let first = r.take_batch(0);
        assert_eq!(first.instances[0].seq, 0, "the first operation is seq 0");
        assert_eq!(
            first.seq, 1,
            "a heartbeat covering operation 0 stamps the exclusive bound 1, \
             never colliding with the operation's own sequence"
        );
        assert_eq!(r.seq(), 1);
    }

    /// A row's ingest-provided evaluation time, not its generation time,
    /// is the stream-clock sample: it advances the high-water mark and
    /// stamps the next row's prefix.
    #[test]
    fn eval_at_drives_the_stream_clock() {
        let mut r = router(1, usize::MAX);
        let mut chunk = ColumnarBatch::new();
        chunk.push_at(&inst(10, 5.0, 5.0), Some(TimePoint::new(100)), 0);
        chunk.push(&inst(20, 5.0, 5.0));
        r.route_batch(&Arc::new(chunk));
        assert_eq!(r.high_water(), Some(TimePoint::new(100)));
        let batch = r.take_batch(0);
        assert_eq!(
            batch.instances[1].prefix_high_water,
            Some(TimePoint::new(100))
        );
    }

    /// A scoped subscription's home hint is clamped into its scope, so
    /// the home shard always lies inside the scope's bounding box.
    #[test]
    fn scoped_home_hint_is_clamped_into_the_scope() {
        let mut r = router(4, usize::MAX);
        // Scope is the lower-left quadrant; the hint points at the
        // opposite corner of the world.
        let scope = rect_scope(0.0, 0.0, 40.0, 40.0);
        let home = r.subscribe(PlanId(0), scope, None, Some(Point::new(99.0, 99.0)));
        assert_eq!(
            home,
            r.map().shard_for_point(Point::new(40.0, 40.0)),
            "the hint clamps to the scope's nearest corner"
        );
        assert_eq!(r.take_metrics().scoped_subscriptions, 1);
    }

    /// BVH-backed and linear precision passes answer identically and
    /// the BVH path reports its traversal cost.
    #[test]
    fn bvh_precision_pass_matches_linear_scan() {
        let subscribe_all = |r: &mut ShardRouter| {
            for i in 0..12u64 {
                let f = i as f64;
                r.subscribe(
                    PlanId(i),
                    rect_scope(f * 8.0, f * 8.0, f * 8.0 + 6.0, f * 8.0 + 6.0),
                    None,
                    // One shared home so the precision scan sees all 12.
                    Some(Point::new(1.0, 1.0)),
                );
            }
        };
        let mut linear = router(4, usize::MAX);
        let mut bvh = router(4, 1);
        subscribe_all(&mut linear);
        subscribe_all(&mut bvh);
        for i in 0..200u64 {
            let p = Point::new((i as f64 * 7.3) % 100.0, (i as f64 * 3.1) % 100.0);
            let a = linear.route(inst(i, p.x, p.y));
            let b = bvh.route(inst(i, p.x, p.y));
            assert_eq!(a, b, "targets diverged at {p:?}");
        }
        let lm = linear.take_metrics();
        let bm = bvh.take_metrics();
        assert_eq!(lm.fanout, bm.fanout);
        assert_eq!(lm.precision_skipped, bm.precision_skipped);
        assert_eq!(lm.bvh_nodes_visited, 0, "linear side never descends");
        assert!(bm.bvh_nodes_visited > 0, "the BVH side reports its cost");
    }

    /// A plan whose interest unions two subscriber scopes routes every
    /// point exactly as two separate single-scope plans on the same
    /// home would: the union is a compaction of the routing tables, not
    /// a loss of precision. (Both scopes here resolve to the same home
    /// shard — sharing never *moves* a home, it only merges interests
    /// that already landed together.)
    #[test]
    fn union_scope_interest_routes_like_separate_interests() {
        let hint = Some(Point::new(1.0, 1.0));
        let mut split = router(4, usize::MAX);
        split.subscribe(PlanId(0), rect_scope(0.0, 0.0, 20.0, 20.0), None, hint);
        split.subscribe(PlanId(1), rect_scope(25.0, 25.0, 45.0, 45.0), None, hint);

        let mut shared = router(4, usize::MAX);
        shared.subscribe(PlanId(0), rect_scope(0.0, 0.0, 20.0, 20.0), None, hint);
        shared.add_scope(PlanId(0), rect_scope(25.0, 25.0, 45.0, 45.0), None);

        for i in 0..200u64 {
            let p = Point::new((i as f64 * 7.3) % 100.0, (i as f64 * 3.1) % 100.0);
            let a = split.route(inst(i, p.x, p.y));
            let b = shared.route(inst(i, p.x, p.y));
            assert_eq!(a, b, "targets diverged at {p:?}");
        }
        // The gap between the two scopes stays pruned: the union
        // *bounding box* covers (22.5, 22.5) but no exact scope does.
        assert!(!shared.covered_by_interest(
            shared.home_of(PlanId(0)).unwrap(),
            Point::new(22.5, 22.5),
            layer_bit(Layer::Sensor)
        ));
        assert_eq!(shared.unsubscribe(PlanId(0)), Some(0));
        assert!(shared.home_of(PlanId(0)).is_none());
    }

    proptest! {
        /// BVH-backed routing is indistinguishable from the linear
        /// exact-scope scan: the same targets for every instance, the
        /// same fanout and `precision_skipped`, across random scope sets
        /// and streams — only the traversal-cost counter differs. The
        /// linear and BVH sides are each forced through the threshold;
        /// the default router picks its side from the count it sees.
        #[test]
        fn bvh_routing_matches_linear_scan(
            regions in proptest::collection::vec(
                (0.0f64..90.0, 0.0f64..90.0, 2.0f64..25.0), 1..24),
            points in proptest::collection::vec(
                (0.0f64..100.0, 0.0f64..100.0), 1..120),
            shards in 1usize..5,
            retain_owner in proptest::bool::ANY,
        ) {
            let mut linear =
                ShardRouter::with_bvh_threshold(world(shards), 1, usize::MAX, retain_owner);
            let mut bvh = ShardRouter::with_bvh_threshold(world(shards), 1, 0, retain_owner);
            let mut default = ShardRouter::new(world(shards), 1, retain_owner);
            for (i, &(x, y, r)) in regions.iter().enumerate() {
                let scope = SpatialExtent::field(Field::circle(Circle::new(Point::new(x, y), r)));
                for router in [&mut linear, &mut bvh, &mut default] {
                    router.subscribe(PlanId(i as u64), scope.clone(), None, None);
                }
            }
            prop_assert!(
                bvh.interests.iter().zip(&bvh.bvhs).all(|(i, b)| i.is_empty() || b.is_some()),
                "the BVH side must index every home shard"
            );
            for (i, &(x, y)) in points.iter().enumerate() {
                let a = linear.route(inst(i as u64, x, y));
                prop_assert_eq!(&a, &bvh.route(inst(i as u64, x, y)), "targets diverged");
                prop_assert_eq!(&a, &default.route(inst(i as u64, x, y)), "targets diverged");
            }
            let (lm, bm, dm) = (linear.take_metrics(), bvh.take_metrics(), default.take_metrics());
            for m in [&bm, &dm] {
                prop_assert_eq!(lm.fanout, m.fanout);
                prop_assert_eq!(lm.precision_skipped, m.precision_skipped);
                prop_assert_eq!(lm.scoped_subscriptions, m.scoped_subscriptions);
            }
            prop_assert_eq!(lm.bvh_nodes_visited, 0, "the linear side never descends");
        }
    }
}
