//! The shard router: spatial partitioning, interest tracking, batching.

use crate::batch::{Batch, BatchItem, Hit, ItemTrace, RoutedChunk, RowRef};
use crate::config::ShardId;
use crate::metrics::RouterMetrics;
use crate::plan::PlanId;
use crate::shard_map::{Grid, ShardMap};
use std::ops::Range;
use std::sync::Arc;
use stem_core::{EventInstance, Layer, TraceClock};
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

/// One registered detector plan as the router sees it: its subscribers'
/// distinct routing scopes (exact extents for the precision pass, plus
/// their cheaper union bounding box) and the plan's layer filter as a
/// bitmask. A plan with many subscribers costs one interest entry. A
/// scope's position in `scopes` is its *slot*: each subscriber carries
/// its own scope's slot, and the precision pass reports hits by slot.
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

/// Sets `home`'s bit on every interest-grid leaf `scope` touches.
fn mark_scope(masks: &mut [u64], grid: &Grid, scope: &SpatialExtent, home: ShardId) {
    for (leaf, cell) in grid.leaf_rects_for_rect(&scope.bounding_box()) {
        // Exact-coverage refinement: a bounding box overstates a
        // circular or polygonal scope by up to its whole corner area,
        // and at leaf granularity that marks interest on cells the
        // scope can never match. Testing the scope against each cell
        // keeps the mask tight, so points in the uncovered residue
        // route on the leaf lookup alone — no precision query at all.
        if scope.intersects(&SpatialExtent::field(Field::rect(cell))) {
            masks[leaf] |= 1 << home;
        }
    }
}

/// One routed `(row, shard)` copy of the chunk being routed: a
/// [`BatchItem`] waiting for the chunk, which is shared only once every
/// row's hits are in its hit column.
#[derive(Debug)]
struct Staged {
    shard: ShardId,
    row: u32,
    hits: Range<u32>,
    seq: u64,
    prefix_high_water: Option<TimePoint>,
    trace: Option<ItemTrace>,
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
    /// Routed copies of the chunk being routed, waiting for the chunk
    /// to be shared (reused across chunks).
    staged: Vec<Staged>,
    /// The interest index resolution: a fixed fine quadtree grid,
    /// independent of the (coarser) shard-territory grid so broadcast
    /// stays confined to actual region boundaries.
    interest_grid: Grid,
    /// Per interest-grid leaf: bitmask of shards homing a subscription
    /// whose scope touches the leaf — the cheap prefilter in front of
    /// the precision pass, which then decides each named shard exactly.
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
            staged: Vec::new(),
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
    /// scope: the scope joins the precision list at the next slot, the
    /// union bounding box grows, and the layer mask widens. The engine
    /// only calls this for scopes the plan has not seen yet, so a million
    /// structurally identical subscriptions over one region cost the
    /// router exactly one interest entry with one scope.
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
        mark_scope(&mut self.leaf_masks, &self.interest_grid, scope, home);
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
            for scope in list.iter().flat_map(|i| &i.scopes) {
                mark_scope(&mut self.leaf_masks, &self.interest_grid, scope, shard);
            }
        }
    }

    /// The precision pass — the engine's one point-in-scope test.
    /// Appends to `out` every `(plan, slot)` pair homed on `shard` whose
    /// plan accepts `layer` (a [`layer_bit`]) and whose scope at `slot`
    /// *exactly* covers `p`, sorted by `(plan, slot)`, and returns
    /// whether it appended anything. Served by the per-shard BVH once
    /// the shard's interest count crossed the threshold, by the linear
    /// scan below it; both produce the same list.
    fn collect_hits(&mut self, shard: ShardId, p: Point, layer: u8, out: &mut Vec<Hit>) -> bool {
        let start = out.len();
        let mut push = |interest: &Interest| {
            if interest.layers & layer != 0 {
                for (slot, scope) in interest.scopes.iter().enumerate() {
                    if scope.covers(p) {
                        out.push(Hit {
                            plan: interest.id,
                            slot: slot as u32,
                        });
                    }
                }
            }
        };
        let list = &self.interests[shard];
        if let Some(bvh) = &self.bvhs[shard] {
            self.scratch.clear();
            self.metrics.bvh_nodes_visited += bvh.query_point(p, &mut self.scratch);
            // Interests sit in plan-id order, so candidate positions in
            // order are hits in plan order.
            self.scratch.sort_unstable();
            for &i in &self.scratch {
                push(&list[i as usize]);
            }
        } else {
            for interest in list.iter().filter(|i| i.bbox.contains(p)) {
                push(interest);
            }
        }
        out.len() > start
    }

    /// Packs instances bound for `shard` into chunks of up to
    /// `batch_size` rows, one [`RowRef`] per instance in input order with
    /// its hits from the precision pass: how recovery rebuilds a shard's
    /// log tail and held rows. Packed rows carry no evaluation time (the
    /// caller holds each reorder key) and no trace stamps.
    pub(crate) fn pack_rows<'a>(
        &mut self,
        shard: ShardId,
        batch_size: usize,
        instances: impl IntoIterator<Item = &'a EventInstance>,
    ) -> Vec<RowRef> {
        let mut instances = instances.into_iter().peekable();
        let mut packed = Vec::new();
        while instances.peek().is_some() {
            let mut chunk = RoutedChunk::default();
            let mut ranges = Vec::new();
            for (row, instance) in instances.by_ref().take(batch_size.max(1)).enumerate() {
                chunk.rows.push(instance);
                let (p, layer) = (chunk.rows.representative(row), chunk.rows.layer(row));
                let start = chunk.hits.len() as u32;
                self.collect_hits(shard, p, layer_bit(layer), &mut chunk.hits);
                ranges.push(start..chunk.hits.len() as u32);
            }
            let chunk = Arc::new(chunk);
            packed.extend(ranges.into_iter().enumerate().map(|(index, hits)| RowRef {
                chunk: Arc::clone(&chunk),
                index: index as u32,
                hits,
            }));
        }
        packed
    }

    /// A trace-clock stamp, or 0 with tracing off.
    pub(crate) fn trace_stamp(&self) -> u64 {
        self.trace_clock.as_ref().map_or(0, |c| c.now())
    }

    /// Routes every row of an ingest chunk into the per-shard pending
    /// batches, iterating the chunk's dense columns. Each row's
    /// stream-clock sample (the high-water input and reorder key) is its
    /// evaluation time when the ingest call supplied one, its generation
    /// time otherwise.
    ///
    /// Every shard the row's leaf mask names gets the precision pass
    /// ([`ShardRouter::collect_hits`]); a shard with no hit is dropped at
    /// enqueue time. Each routed `(row, shard)` copy's hits go to the
    /// chunk's hit column and are the worker's whole candidate set: the
    /// row's only spatial decision. Without `retain_owner` an instance
    /// nobody subscribes to routes nowhere (the stream clock and sequence
    /// still advance); with it, the owner always receives a copy for its
    /// write-ahead log, with an empty hit list when nothing covers it.
    /// The chunk is shared once every row is routed, and shards receive
    /// [`RowRef`]s into it.
    ///
    /// Returns the shared chunk and the shards whose pending batch
    /// reached the flush threshold, deduplicated, in shard order.
    pub(crate) fn route_batch(
        &mut self,
        mut chunk: RoutedChunk,
    ) -> (Arc<RoutedChunk>, Vec<ShardId>) {
        // One route stamp per chunk, shared by every row: a per-row
        // clock read costs more than the routing itself, and the rows'
        // ingest stamps (taken at chunk fill, all before this call) stay
        // `<=` the shared stamp.
        let route = self.trace_stamp();
        let mut staged = std::mem::take(&mut self.staged);
        for row in 0..chunk.rows.len() {
            let rows = &chunk.rows;
            let location = rows.representatives()[row];
            let t = rows.eval_at(row).unwrap_or(rows.generation_times()[row]);
            let layer = layer_bit(rows.layer(row));
            let (seq, prefix_high_water, trace) = self.stamp(t, rows.ingest_stamp(row), route);
            let mask = self.leaf_masks[self.interest_grid.leaf_for_point(location)];
            if mask == 0 {
                self.metrics.owner_only += 1;
            }
            let owner = self
                .retain_owner
                .then(|| self.map.shard_for_point(location));
            let mut bits = mask | owner.map_or(0, |o| 1 << o);
            while bits != 0 {
                let shard = bits.trailing_zeros() as ShardId;
                bits &= bits - 1;
                let start = chunk.hits.len() as u32;
                if mask & (1 << shard) != 0
                    && self.collect_hits(shard, location, layer, &mut chunk.hits)
                    || owner == Some(shard)
                {
                    self.metrics.fanout += 1;
                    staged.push(Staged {
                        shard,
                        row: row as u32,
                        hits: start..chunk.hits.len() as u32,
                        seq,
                        prefix_high_water,
                        trace,
                    });
                } else {
                    self.metrics.precision_skipped += 1;
                }
            }
        }
        let chunk = Arc::new(chunk);
        let mut full_mask: u64 = 0;
        for s in staged.drain(..) {
            let pending = &mut self.pending[s.shard];
            pending.push(BatchItem {
                seq: s.seq,
                row: RowRef {
                    chunk: Arc::clone(&chunk),
                    index: s.row,
                    hits: s.hits,
                },
                prefix_high_water: s.prefix_high_water,
                trace: s.trace,
            });
            if pending.len() >= self.batch_size {
                full_mask |= 1 << s.shard;
            }
        }
        self.staged = staged;
        let mut full = Vec::with_capacity(full_mask.count_ones() as usize);
        while full_mask != 0 {
            full.push(full_mask.trailing_zeros() as ShardId);
            full_mask &= full_mask - 1;
        }
        (chunk, full)
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
            let mut chunk = RoutedChunk::default();
            chunk.rows.push(&instance);
            self.route_batch(chunk).1
        }

        /// Routes one instance and returns each target shard with the
        /// hit list its copy carries.
        fn route_hits(&mut self, instance: EventInstance) -> Vec<(ShardId, Vec<Hit>)> {
            let targets = self.route(instance);
            let hits = |batch: Batch| batch.instances[0].row.hits().to_vec();
            targets
                .into_iter()
                .map(|s| (s, hits(self.take_batch(s))))
                .collect()
        }
    }

    fn hit(plan: usize, slot: usize) -> Hit {
        Hit {
            plan: PlanId(plan as u64),
            slot: slot as u32,
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
        let mut chunk = RoutedChunk::default();
        let rows = &mut chunk.rows;
        rows.push_at(&inst(10, 5.0, 5.0), Some(TimePoint::new(100)), 0);
        rows.push(&inst(20, 5.0, 5.0));
        let _ = r.route_batch(chunk);
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
        let home = shared.home_of(PlanId(0)).unwrap();
        let sensor = layer_bit(Layer::Sensor);
        let mut hits = Vec::new();
        assert!(!shared.collect_hits(home, Point::new(22.5, 22.5), sensor, &mut hits));
        // A point in the second scope names that scope's slot.
        assert!(shared.collect_hits(home, Point::new(30.0, 30.0), sensor, &mut hits));
        assert_eq!(hits, [hit(0, 1)]);
        assert_eq!(shared.unsubscribe(PlanId(0)), Some(0));
        assert!(shared.home_of(PlanId(0)).is_none());
    }

    proptest! {
        /// The precision pass lists exactly the covering `(plan, slot)`
        /// pairs. For every routed `(row, shard)` copy, the linear scan,
        /// the BVH and the default router (which picks its side from the
        /// count it sees) carry the sorted hit list a brute-force scan
        /// over every scope predicts, and agree on targets, fanout and
        /// `precision_skipped`; only the traversal-cost counter differs.
        /// Clustered circles all overlap and crowd onto one home, so a
        /// point hits several plans there; extra scopes joined with
        /// `add_scope` give plans several slots.
        #[test]
        fn bvh_routing_matches_linear_scan(
            regions in proptest::collection::vec(
                (0.0f64..90.0, 0.0f64..90.0, 2.0f64..25.0), 1..24),
            extra in proptest::collection::vec(
                (0usize..24, 0.0f64..90.0, 0.0f64..90.0, 2.0f64..25.0), 0..12),
            points in proptest::collection::vec(
                (0.0f64..100.0, 0.0f64..100.0), 1..120),
            shards in 1usize..5,
            retain_owner in proptest::bool::ANY,
            clustered in proptest::bool::ANY,
        ) {
            let circle = |x: f64, y: f64, r: f64| {
                let (x, y) = if clustered { (40.0 + x / 10.0, 40.0 + y / 10.0) } else { (x, y) };
                SpatialExtent::field(Field::circle(Circle::new(Point::new(x, y), r)))
            };
            let mut scopes: Vec<Vec<SpatialExtent>> =
                regions.iter().map(|&(x, y, r)| vec![circle(x, y, r)]).collect();
            for &(plan, x, y, r) in &extra {
                let n = scopes.len();
                scopes[plan % n].push(circle(x, y, r));
            }
            let mut linear =
                ShardRouter::with_bvh_threshold(world(shards), 1, usize::MAX, retain_owner);
            let mut bvh = ShardRouter::with_bvh_threshold(world(shards), 1, 0, retain_owner);
            let mut default = ShardRouter::new(world(shards), 1, retain_owner);
            for router in [&mut linear, &mut bvh, &mut default] {
                for (i, list) in scopes.iter().enumerate() {
                    router.subscribe(PlanId(i as u64), list[0].clone(), None, None);
                }
                for (i, list) in scopes.iter().enumerate() {
                    for scope in &list[1..] {
                        router.add_scope(PlanId(i as u64), scope.clone(), None);
                    }
                }
            }
            prop_assert!(
                bvh.interests.iter().zip(&bvh.bvhs).all(|(i, b)| i.is_empty() || b.is_some()),
                "the BVH side must index every home shard"
            );
            let homes: Vec<ShardId> = (0..scopes.len())
                .map(|i| linear.home_of(PlanId(i as u64)).expect("registered"))
                .collect();
            for (i, &(x, y)) in points.iter().enumerate() {
                let p = Point::new(x, y);
                let owner = linear.map.shard_for_point(p);
                let mut expected: Vec<(ShardId, Vec<Hit>)> =
                    (0..shards).map(|shard| (shard, Vec::new())).collect();
                for (plan, list) in scopes.iter().enumerate() {
                    for (slot, _) in list.iter().enumerate().filter(|(_, s)| s.covers(p)) {
                        expected[homes[plan]].1.push(hit(plan, slot));
                    }
                }
                expected.retain(|(shard, hits)| !hits.is_empty() || (retain_owner && *shard == owner));
                let a = linear.route_hits(inst(i as u64, x, y));
                prop_assert_eq!(&a, &expected, "linear hits diverged from brute force");
                prop_assert_eq!(&a, &bvh.route_hits(inst(i as u64, x, y)), "BVH hits diverged");
                prop_assert_eq!(&a, &default.route_hits(inst(i as u64, x, y)), "hits diverged");
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
