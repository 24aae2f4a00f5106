//! Shard workers: reorder, evaluate, notify.

use crate::batch::Batch;
use crate::config::ShardId;
use crate::metrics::ShardMetrics;
use crate::plan::PlanId;
use crate::subscription::{
    EventSink, Notification, NotificationKind, SilenceSpec, Subscription, SubscriptionId,
    SustainedValue,
};
use crate::trace::WorkerTrace;
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use stem_cep::{CompositeDetector, ReorderBuffer, SustainedDetector, SustainedEvent};
use stem_core::codec::{self, CodecError, CodecResult, StateCodec};
use stem_core::timing::{Clock, SpanToken};
use stem_core::{
    Bindings, CcuId, ColumnarBatch, ConditionExpr, ConditionObserver, Constituent, DropVerdict,
    EntityName, EventDefinition, EventId, EventInstance, Layer, ObserverId, Provenance,
    StageStamps, TraceId,
};
use stem_obs::{ObsRegistry, Recorder, Stage, TraceConstituent, TraceRecord};
use stem_snap::ShardSnapshot;
use stem_spatial::{Bvh, Rect, SpatialExtent};
use stem_temporal::{Duration, TimePoint};
use stem_wal::{ShardWal, WalRecord};

/// A shard worker's telemetry state: a plain cumulative [`Recorder`]
/// mutated lock-free on the hot path, a span clock (wall nanos in
/// threaded runs, deterministic virtual ticks in deterministic runs),
/// and per-batch stage accumulators flushed into the recorder once per
/// batch — one histogram sample per stage per batch, not per instance.
pub(crate) struct WorkerObs {
    registry: Arc<ObsRegistry>,
    clock: Clock,
    recorder: Recorder,
    /// Nanos (or virtual ticks) accumulated per stage within the
    /// current batch.
    acc: [u64; Stage::COUNT],
    /// Batches since the last publish into the registry slot.
    batches_since_publish: u64,
}

impl WorkerObs {
    /// How many batches may elapse between slot publishes (syncs,
    /// checkpoints, and shutdown always publish immediately).
    const PUBLISH_EVERY: u64 = 8;

    pub(crate) fn new(registry: Arc<ObsRegistry>, clock: Clock) -> Self {
        WorkerObs {
            registry,
            clock,
            recorder: Recorder::new(),
            acc: [0; Stage::COUNT],
            batches_since_publish: 0,
        }
    }
}

/// Snapshot epochs each shard keeps. Compaction stops at the *oldest*
/// retained snapshot, so two is the least that lets a snapshot torn
/// mid-write fall back to the previous epoch plus its log tail.
const SNAPSHOT_RETAIN: usize = 2;

/// What travels over a shard's input channel.
pub(crate) enum ShardMessage {
    /// Instances plus the router's watermark heartbeat.
    Batch(Batch),
    /// A subscription homed on this shard (boxed: it is much larger
    /// than the other variants).
    Subscribe(Box<SubscriptionState>),
    /// Retire a subscription.
    Unsubscribe(SubscriptionId),
    /// Silence heartbeat for one sustained subscription: feed its
    /// inactive sample if no input arrived for its configured timeout.
    SilenceProbe {
        /// The sustained subscription to probe.
        id: SubscriptionId,
        /// The probe's observer-local time.
        at: TimePoint,
        /// The probe's global ingest sequence number.
        seq: u64,
        /// The router's high-water mark over the stream's strict prefix
        /// at probe time, observed before the staleness check so the
        /// accept/drop decision never depends on heartbeat delivery
        /// (heartbeats to clean shards are suppressed entirely).
        prefix_high_water: Option<TimePoint>,
    },
    /// Crash recovery: restore the newest valid checkpoint snapshot (if
    /// any), then replay this shard's durable log *tail* to rebuild
    /// reorder/detector state (re-delivering the tail's notifications to
    /// the freshly registered sinks; notifications the snapshot already
    /// covers are not re-delivered — they are compressed into state).
    Recover {
        /// The shard's newest valid snapshot (`None` = full-log replay).
        snapshot: Option<Box<ShardSnapshot>>,
        /// The shard's recovered tail records, in append order (the full
        /// log without a snapshot).
        records: Vec<WalRecord>,
        /// The largest ingest sequence the shard is durable through
        /// (snapshot coverage included): later re-fed operations at or
        /// below it are duplicates and are skipped.
        durable_seq: Option<u64>,
        /// Torn-tail truncations the recovery reader repaired.
        torn: u64,
        /// Rows per chunk the recovered and restored instances are
        /// packed into (the engine's `batch_size`).
        batch_size: usize,
    },
    /// Cut a checkpoint snapshot: the barrier guarantees everything
    /// routed before this message has been evaluated and journaled, so
    /// the serialized state is a consistent compression of the log
    /// prefix below `next_seq`.
    Checkpoint {
        /// The checkpoint epoch (names the snapshot file).
        epoch: u64,
        /// The engine's global ingest sequence at the barrier.
        next_seq: u64,
        /// The router's stream-clock high-water mark at the barrier.
        high_water: Option<TimePoint>,
        /// Acknowledged once the snapshot is durably on disk (and
        /// retention + compaction have run).
        ack: std::sync::mpsc::Sender<()>,
    },
    /// Recovery replay is complete: resume live input (silence probes
    /// are accepted again).
    EndRecovery,
    /// Stream horizon: drain the reorder buffer and close any open
    /// sustained episodes at the given time.
    Finalize(TimePoint),
}

/// Bound on a sustained detector's remembered constituents: the most
/// recent accepted samples are what a lineage reader wants for an
/// episode notification; the full episode can span millions.
const SUSTAINED_CONSTITUENTS: usize = 8;

/// A sustained detector resident on a shard, with its sampling rules.
struct SustainedState {
    detector: SustainedDetector,
    value: SustainedValue,
    negate: bool,
    silence: Option<SilenceSpec>,
    /// When the last input sample arrived (silence-staleness clock).
    last_input: Option<TimePoint>,
    /// The most recent accepted samples' trace identities (bounded at
    /// [`SUSTAINED_CONSTITUENTS`]; empty with tracing off).
    constituents: VecDeque<Constituent>,
}

impl SustainedState {
    /// Remembers an accepted sample's identity for episode provenance.
    fn push_constituent(&mut self, c: Constituent) {
        if self.constituents.len() == SUSTAINED_CONSTITUENTS {
            self.constituents.pop_front();
        }
        self.constituents.push_back(c);
    }
}

/// How a subscription's stream is evaluated on its home shard.
enum EvalKind {
    /// Deliver condition-passing instances directly.
    Plain,
    /// Feed a pattern detector; deliver derived instances (boxed:
    /// far larger than the other variants).
    Pattern(Box<CompositeDetector>),
    /// Feed a sustained detector; deliver episode notifications.
    Sustained(SustainedState),
}

/// A [`Subscription`] compiled for residence on one shard, tagged with
/// the plan it instantiates. The worker splits it on arrival: the first
/// subscriber of a plan donates the template (filters + detector), and
/// every subscriber contributes its identity row (id, scope, sink,
/// delivered count).
pub(crate) struct SubscriptionState {
    id: SubscriptionId,
    /// The plan this subscription instantiates (assigned by the
    /// engine's canonicalizer; a non-shareable subscription gets a plan
    /// of its own).
    plan: PlanId,
    region: SpatialExtent,
    bbox: Rect,
    /// The explicit routing scope with its bounding box, when one was
    /// set: instances outside it are pruned before any other filter
    /// (out-of-scope work the router's leaf granularity let through).
    scope: Option<(Rect, SpatialExtent)>,
    event_filter: Option<EventId>,
    layers: Option<Vec<Layer>>,
    /// The per-instance condition (for `Plain` / `Sustained`; a pattern
    /// subscription's condition lives inside its detector where it is
    /// evaluated over the match's bindings).
    condition: Option<ConditionExpr>,
    /// Entity names the condition binds (all bound to the candidate
    /// instance).
    entities: Vec<EntityName>,
    kind: EvalKind,
    sink: Box<dyn EventSink>,
    /// Notifications delivered to this subscription's sink so far.
    /// Persisted in checkpoint snapshots as the "already delivered"
    /// count a resumed run will not re-deliver.
    delivered: u64,
}

impl SubscriptionState {
    /// Compiles `sub` for residence on its home shard.
    pub(crate) fn compile(id: SubscriptionId, plan: PlanId, sub: Subscription) -> Self {
        let bbox = sub.region.bounding_box();
        let scope = sub.scope.clone().map(|scope| (scope.bounding_box(), scope));
        let (kind, condition) = if let Some(spec) = sub.pattern {
            // The definition override carries the registrant's estimation
            // policies and projections; without one, the composite
            // condition (empty conjunction = always true) is evaluated
            // over pattern-match bindings by a default cyber definition.
            let definition = sub.definition.unwrap_or_else(|| {
                let condition = sub
                    .condition
                    .unwrap_or_else(|| ConditionExpr::And(Vec::new()));
                EventDefinition::new(sub.name.clone(), Layer::Cyber, condition)
            });
            // Without an observer override, the identity is keyed by
            // subscription (not by shard) so derived instances are
            // identical whatever the shard count — the
            // sharding-equivalence tests rely on it.
            let observer = sub.observer.unwrap_or_else(|| {
                ConditionObserver::new(
                    ObserverId::Ccu(CcuId::new(u32::try_from(id.raw()).unwrap_or(u32::MAX))),
                    bbox.center(),
                    1.0,
                )
            });
            let detector =
                CompositeDetector::new(definition, spec.pattern, spec.mode, spec.horizon, observer);
            (EvalKind::Pattern(Box::new(detector)), None)
        } else if let Some(spec) = sub.sustained {
            (
                EvalKind::Sustained(SustainedState {
                    detector: SustainedDetector::new(spec.config),
                    value: spec.value,
                    negate: spec.negate,
                    silence: spec.silence,
                    last_input: None,
                    constituents: VecDeque::new(),
                }),
                sub.condition,
            )
        } else {
            (EvalKind::Plain, sub.condition)
        };
        let entities = condition
            .as_ref()
            .map(ConditionExpr::entity_names)
            .unwrap_or_default();
        SubscriptionState {
            id,
            plan,
            region: sub.region,
            bbox,
            scope,
            event_filter: sub.event_filter,
            layers: sub.layers,
            condition,
            entities,
            kind,
            sink: sub.sink,
            delivered: 0,
        }
    }
}

/// One subscriber of a shared plan: everything that stays per-identity
/// after the template is deduplicated — who to tell, where their scope
/// gate sits, and how much they have already been told.
struct Subscriber {
    id: SubscriptionId,
    /// The subscriber's routing scope (re-checked at fan-out so shared
    /// evaluation prunes exactly what per-subscription evaluation did;
    /// stateful plans carry the scope in their key, so their
    /// subscribers' scopes agree and the detector's input is gated
    /// identically).
    scope: Option<(Rect, SpatialExtent)>,
    sink: Box<dyn EventSink>,
    /// Notifications delivered to this subscriber's sink so far
    /// (persisted per subscriber in checkpoint snapshots).
    delivered: u64,
}

/// One shared detector plan resident on a shard: the template filters
/// and detector state, evaluated once per instance, plus the subscriber
/// list its output fans out to.
struct PlanState {
    id: PlanId,
    region: SpatialExtent,
    bbox: Rect,
    event_filter: Option<EventId>,
    layers: Option<Vec<Layer>>,
    condition: Option<ConditionExpr>,
    entities: Vec<EntityName>,
    kind: EvalKind,
    subscribers: Vec<Subscriber>,
}

impl PlanState {
    /// Creates a plan from its first subscriber's compiled state.
    fn new(state: SubscriptionState) -> Self {
        PlanState {
            id: state.plan,
            region: state.region,
            bbox: state.bbox,
            event_filter: state.event_filter,
            layers: state.layers,
            condition: state.condition,
            entities: state.entities,
            kind: state.kind,
            subscribers: vec![Subscriber {
                id: state.id,
                scope: state.scope,
                sink: state.sink,
                delivered: state.delivered,
            }],
        }
    }
}

/// The memoized result of evaluating one plan against one instance:
/// computed at the first matched subscriber, fanned out to the rest.
/// Owned data only — fan-out re-borrows the plan for its subscriber
/// rows after evaluation releases the detector.
enum PlanOutcome {
    /// Evaluation errored (counted once per subscriber).
    Error,
    /// A plain condition that held: deliver the instance.
    PlainPass,
    /// A plain condition that did not hold.
    PlainFail,
    /// Derived instances a pattern detector completed, each with its
    /// resolved constituents.
    Derived(Vec<(EventInstance, Vec<Constituent>)>),
    /// A sustained detector's episode event (if the sample closed one),
    /// with the episode's remembered constituents.
    Sustained(Option<(SustainedEvent, Vec<Constituent>)>),
}

/// Evaluates a per-instance condition with every entity bound to the
/// instance. `None` when evaluation errored.
fn eval_condition(
    condition: &Option<ConditionExpr>,
    entities: &[EntityName],
    instance: &EventInstance,
) -> Option<bool> {
    let Some(cond) = condition else {
        return Some(true);
    };
    let mut bindings = Bindings::new();
    for name in entities {
        bindings.bind(name.clone(), instance.entity_data());
    }
    cond.eval(&bindings).ok()
}

/// Trace bookkeeping riding one reorder-buffer item: the operation's
/// global ingest sequence plus the stage stamps accumulated before the
/// worker. All stamps are 0 with tracing off, for recovery-replayed
/// records, and for items restored from a snapshot — a recovered run's
/// fresh trace clock restarts near zero, so zeroed early stamps are
/// what keep the notify-stage stamps monotone.
#[derive(Debug, Clone, Copy, Default)]
struct ItemMeta {
    /// Global ingest sequence (the trace identity).
    seq: u64,
    /// Engine-entry stamp.
    ingest: u64,
    /// Router stamp.
    route: u64,
    /// Batch-handoff stamp.
    enqueue: u64,
    /// Stamped by the worker when the reorder buffer releases the item.
    release: u64,
}

/// One entry in a shard's reorder buffer, keyed by its observer-local
/// time so the evaluation stream replays in station-clock order.
enum StreamItem {
    /// An instance to evaluate at `at` (ingest-provided, defaulting to
    /// the generation time): row `row` of a shared ingest chunk. The
    /// filter pass reads the chunk's columns, and a standalone instance
    /// is only materialized for rows that actually match a
    /// subscription.
    Instance {
        at: TimePoint,
        chunk: Arc<ColumnarBatch>,
        row: u32,
        meta: ItemMeta,
    },
    /// A queued silence probe: probes travel through the same reorder
    /// buffer as instances — feeding the sustained detector directly on
    /// message arrival would run it out of time order whenever earlier
    /// samples are still held behind the watermark slack.
    Probe {
        id: SubscriptionId,
        at: TimePoint,
        /// The probe's global ingest sequence (its trace identity).
        seq: u64,
    },
}

const SUB_TAG_PLAIN: u8 = 0;
const SUB_TAG_PATTERN: u8 = 1;
const SUB_TAG_SUSTAINED: u8 = 2;

const ITEM_TAG_INSTANCE: u8 = 0;
const ITEM_TAG_PROBE: u8 = 1;

/// Encodes one reorder-buffer payload for a checkpoint snapshot.
///
/// Only the trace *identity* (the ingest seq) persists: stage stamps
/// are clock-relative and a restored run's fresh clock restarts near
/// zero, so they decode as zeros — minimal, and monotone under the new
/// clock.
fn encode_stream_item(item: &StreamItem, buf: &mut Vec<u8>) {
    match item {
        StreamItem::Instance {
            at,
            chunk,
            row,
            meta,
        } => {
            codec::put_u8(buf, ITEM_TAG_INSTANCE);
            codec::encode_time_point(*at, buf);
            codec::put_u64(buf, meta.seq);
            // Snapshots hold standalone instances (rows materialize
            // bit-identically), keeping the format stable.
            codec::encode_instance(&chunk.materialize(*row as usize), buf);
        }
        StreamItem::Probe { id, at, seq } => {
            codec::put_u8(buf, ITEM_TAG_PROBE);
            codec::put_u64(buf, id.raw());
            codec::encode_time_point(*at, buf);
            codec::put_u64(buf, *seq);
        }
    }
}

/// A reorder-buffer payload as a checkpoint snapshot stores it: a held
/// instance is standalone until restore packs it into a chunk.
enum HeldItem {
    /// An instance held at `at`, with its global ingest sequence.
    Instance(TimePoint, u64, EventInstance),
    /// A queued silence probe (restored as is).
    Probe(StreamItem),
}

/// Decodes one reorder-buffer payload from a checkpoint snapshot.
fn decode_stream_item(bytes: &mut &[u8]) -> CodecResult<HeldItem> {
    match codec::get_u8(bytes)? {
        ITEM_TAG_INSTANCE => {
            let at = codec::decode_time_point(bytes)?;
            let seq = codec::get_u64(bytes)?;
            let instance = codec::decode_instance(bytes)?;
            Ok(HeldItem::Instance(at, seq, instance))
        }
        ITEM_TAG_PROBE => {
            let id = SubscriptionId(codec::get_u64(bytes)?);
            let at = codec::decode_time_point(bytes)?;
            let seq = codec::get_u64(bytes)?;
            Ok(HeldItem::Probe(StreamItem::Probe { id, at, seq }))
        }
        tag => Err(CodecError::BadTag {
            what: "StreamItem",
            tag,
        }),
    }
}

/// Packs instances into shared chunks of up to `batch_size` rows and
/// returns one `(chunk, row)` handle per instance, in input order: how
/// recovered log records and restored snapshot items rejoin the one
/// columnar data path. Packed rows carry no evaluation time (the
/// caller already holds each reorder key) and no trace stamps (a
/// recovered run's fresh clock restarts near zero).
fn pack_rows<'a>(
    batch_size: usize,
    instances: impl IntoIterator<Item = &'a EventInstance>,
) -> Vec<(Arc<ColumnarBatch>, u32)> {
    let batch_size = batch_size.max(1);
    let mut instances = instances.into_iter().peekable();
    let mut rows = Vec::new();
    while instances.peek().is_some() {
        let mut chunk = ColumnarBatch::with_capacity(instances.size_hint().0.clamp(1, batch_size));
        for instance in instances.by_ref().take(batch_size) {
            chunk.push(instance);
        }
        let chunk = Arc::new(chunk);
        rows.extend((0..chunk.len() as u32).map(|row| (Arc::clone(&chunk), row)));
    }
    rows
}

/// Builds one notification's provenance and pushes its `Notify` ring
/// record (notifications enter the ring under every policy except
/// `Off`, which never constructs a [`WorkerTrace`] at all).
fn notify_provenance(
    wt: &mut WorkerTrace,
    shard: ShardId,
    sub: SubscriptionId,
    mut constituents: Vec<Constituent>,
    meta: ItemMeta,
    evaluate: u64,
) -> Box<Provenance> {
    constituents.sort_unstable();
    constituents.dedup_by_key(|c| c.trace);
    let stamps = StageStamps {
        ingest: meta.ingest,
        route: meta.route,
        enqueue: meta.enqueue,
        release: meta.release,
        evaluate,
        notify: wt.clock.now(),
    };
    let record = TraceRecord::Notify {
        shard: shard as u64,
        id: wt.take_notify_id(),
        sub: sub.raw(),
        stamps: stamps.as_array(),
        constituents: constituents
            .iter()
            .map(|c| TraceConstituent {
                trace: c.trace.raw(),
                shard: u64::from(c.shard),
                seq: c.seq,
            })
            .collect(),
    };
    wt.record(record);
    Box::new(Provenance {
        constituents,
        stamps,
        shard: u32::try_from(shard).unwrap_or(u32::MAX),
        verdicts: wt.take_drops(),
    })
}

/// Records a near-miss drop verdict: remembered for the next
/// notification's provenance, and ring-recorded when the policy samples
/// drops.
fn note_drop(wt: &mut WorkerTrace, shard: ShardId, trace: TraceId, verdict: DropVerdict) {
    wt.note_drop(trace, verdict);
    if wt.samples_drops() {
        wt.record(TraceRecord::Drop {
            shard: shard as u64,
            trace: trace.raw(),
            verdict: match verdict {
                DropVerdict::Late => stem_obs::TraceDropKind::Late,
                DropVerdict::ScopePruned => stem_obs::TraceDropKind::Scope,
            },
        });
    }
}

/// One shard: a reorder buffer, the resident subscriptions, an optional
/// write-ahead log, and counters.
pub(crate) struct ShardWorker {
    shard: ShardId,
    slack: Duration,
    reorder: ReorderBuffer<StreamItem>,
    /// Probes pushed through the reorder buffer (excluded from the
    /// instance-release counter).
    probes: u64,
    /// The resident shared plans, in creation order. Every subscription
    /// lives inside exactly one plan's subscriber list.
    plans: Vec<PlanState>,
    /// Plan id → index into `plans` (registration-path lookup; dispatch
    /// never touches it).
    plan_index: BTreeMap<u64, usize>,
    /// The shard's write-ahead log (None without durability).
    wal: Option<ShardWal>,
    /// Snapshot directory, shared with the WAL (None without
    /// durability; present whenever the engine has a WAL — manual
    /// checkpoints work even under [`crate::CheckpointPolicy::Never`]).
    snap_dir: Option<PathBuf>,
    /// Records between durability checkpoints.
    checkpoint_every: u64,
    /// Records appended since the last checkpoint.
    since_checkpoint: u64,
    /// The largest ingest sequence known durable in this shard's log:
    /// re-fed operations at or below it (the post-recovery resume
    /// overlap) were already replayed from the log and are skipped.
    durable_seq: Option<u64>,
    /// The last high-water mark appended as a heartbeat record (repeats
    /// carry no information, so they are not logged).
    logged_high_water: Option<TimePoint>,
    metrics: ShardMetrics,
    /// Telemetry state (None with [`crate::TelemetryPolicy::Off`]: the
    /// hot path pays one branch per site and nothing else).
    obs: Option<WorkerObs>,
    /// Causal tracing state (None with [`crate::TracePolicy::Off`]:
    /// same single-branch discipline as `obs`).
    trace: Option<WorkerTrace>,
    /// Matched `(subscriber registration order, plan index, subscriber
    /// index)` tuples for the instance being dispatched, sorted by the
    /// first field before fan-out so the global delivery order is
    /// exactly what per-subscription evaluation produced (reused across
    /// dispatches).
    match_scratch: Vec<(u64, u32, u32)>,
    /// Dense bounding-box column parallel to `plans`: the filter pass
    /// probes this flat array instead of chasing each plan record for
    /// its bbox.
    plan_bboxes: Vec<Rect>,
    /// Filter-pass candidate index: plan indices bucketed by event
    /// filter, so dispatch walks only plans whose filter can match the
    /// instance's event.
    by_event: BTreeMap<EventId, Vec<usize>>,
    /// Plans with no event filter (always candidates).
    wildcard: Vec<usize>,
    /// The BVH over `plan_bboxes` (item index = plan index), built once
    /// the resident count crosses
    /// [`ShardWorker::DISPATCH_BVH_THRESHOLD`]: dispatch then probes
    /// the tree with the instance's point instead of walking every
    /// event-matching candidate — on dense shards almost all residents
    /// are spatially disjoint from any one instance, and the linear
    /// scan was the dominant per-delivery cost. `None` = linear merge
    /// of the event buckets (small resident sets; also what a BVH
    /// degenerates to).
    sub_bvh: Option<Bvh>,
    /// Candidate buffer reused across BVH dispatch queries.
    cand_scratch: Vec<u32>,
}

impl ShardWorker {
    pub(crate) fn new(
        shard: ShardId,
        slack: Duration,
        wal: Option<ShardWal>,
        snap_dir: Option<PathBuf>,
        checkpoint_every: u64,
        obs: Option<WorkerObs>,
        trace: Option<WorkerTrace>,
    ) -> Self {
        ShardWorker {
            shard,
            slack,
            reorder: ReorderBuffer::new(slack),
            probes: 0,
            plans: Vec::new(),
            plan_index: BTreeMap::new(),
            wal,
            snap_dir,
            checkpoint_every: checkpoint_every.max(1),
            since_checkpoint: 0,
            durable_seq: None,
            logged_high_water: None,
            metrics: ShardMetrics {
                shard,
                ..ShardMetrics::default()
            },
            obs,
            trace,
            match_scratch: Vec::new(),
            plan_bboxes: Vec::new(),
            by_event: BTreeMap::new(),
            wildcard: Vec::new(),
            sub_bvh: None,
            cand_scratch: Vec::new(),
        }
    }

    /// Resident-plan count at which dispatch switches from the linear
    /// candidate merge to the point-query BVH over region bounding
    /// boxes. Below it a cache-resident linear scan wins.
    const DISPATCH_BVH_THRESHOLD: usize = 16;

    /// Rebuilds the filter-pass candidate index (bbox column + event
    /// buckets + the dispatch BVH on dense shards) and the plan-id
    /// lookup. Runs when a plan is created or retired — registration is
    /// cold, dispatch is hot, and adding a subscriber to an existing
    /// plan changes none of it.
    fn rebuild_filter_index(&mut self) {
        self.plan_bboxes.clear();
        self.plan_bboxes.extend(self.plans.iter().map(|p| p.bbox));
        self.by_event.clear();
        self.wildcard.clear();
        self.plan_index.clear();
        for (idx, plan) in self.plans.iter().enumerate() {
            self.plan_index.insert(plan.id.raw(), idx);
            match &plan.event_filter {
                Some(event) => self.by_event.entry(event.clone()).or_default().push(idx),
                None => self.wildcard.push(idx),
            }
        }
        self.sub_bvh = if self.plans.len() >= Self::DISPATCH_BVH_THRESHOLD {
            Some(Bvh::build(&self.plan_bboxes))
        } else {
            None
        };
    }

    /// Total resident subscribers across every plan.
    fn subscriber_count(&self) -> usize {
        self.plans.iter().map(|p| p.subscribers.len()).sum()
    }

    /// Opens a telemetry span (None with telemetry off).
    fn obs_start(&self) -> Option<SpanToken> {
        self.obs.as_ref().map(|o| o.clock.start())
    }

    /// Opens a span on the worker's clock for a caller that wants to
    /// measure time spent *inside* this worker — the slot's steal path
    /// uses it to report how much of a barrier was relocated work
    /// rather than coordination.
    pub(crate) fn busy_span(&self) -> Option<SpanToken> {
        self.obs_start()
    }

    /// Closes a [`ShardWorker::busy_span`] token, in nanoseconds (0
    /// with telemetry off).
    pub(crate) fn busy_elapsed(&self, token: &Option<SpanToken>) -> u64 {
        match (self.obs.as_ref(), token) {
            (Some(o), Some(t)) => o.clock.elapsed(t),
            _ => 0,
        }
    }

    /// Closes a telemetry span into the current batch's accumulator.
    fn obs_acc(&mut self, stage: Stage, token: Option<SpanToken>) {
        if let (Some(o), Some(t)) = (self.obs.as_mut(), token) {
            o.acc[stage.index()] = o.acc[stage.index()].saturating_add(o.clock.elapsed(&t));
        }
    }

    /// Flushes the batch's stage accumulators (one histogram sample per
    /// stage that ran), refreshes the gauges, and publishes the
    /// recorder into the registry slot when due (or on `force` —
    /// barriers and shutdown want fresh data).
    fn obs_flush(&mut self, force: bool) {
        let pending = self.reorder.pending() as u64;
        let released = self.reorder.released().saturating_sub(self.probes);
        let late = self.reorder.late_dropped();
        let wal_metrics = self.wal.as_ref().map(ShardWal::metrics);
        let notifications = self.metrics.notifications;
        let subs = self.subscriber_count() as u64;
        let plans = self.plans.len() as u64;
        let Some(o) = self.obs.as_mut() else {
            return;
        };
        for stage in Stage::ALL {
            let ns = std::mem::take(&mut o.acc[stage.index()]);
            if ns > 0 {
                o.recorder.record_stage(stage, ns);
            }
        }
        o.recorder.set_gauge("reorder_depth", pending);
        o.recorder.set_gauge("released", released);
        o.recorder.set_gauge("late_dropped", late);
        o.recorder.set_gauge("notifications", notifications);
        o.recorder.set_gauge("subscriptions", subs);
        o.recorder.set_gauge("plans", plans);
        if let Some(m) = wal_metrics {
            o.recorder.set_gauge("wal_bytes", m.bytes);
            o.recorder.set_gauge("wal_records", m.records);
            o.recorder.set_gauge("wal_fsyncs", m.syncs);
        }
        o.batches_since_publish += 1;
        if force || o.batches_since_publish >= WorkerObs::PUBLISH_EVERY {
            o.batches_since_publish = 0;
            o.registry.publish_shard(self.shard, &o.recorder);
        }
    }

    pub(crate) fn handle(&mut self, message: ShardMessage) {
        if let Some(o) = self.obs.as_mut() {
            o.recorder.inc("msgs_processed", 1);
        }
        match message {
            ShardMessage::Batch(batch) => self.process_batch(batch),
            ShardMessage::Subscribe(state) => {
                // The first subscriber of a plan donates the template;
                // later subscribers join its fan-out list (and change
                // nothing the dispatch index reads).
                match self.plan_index.get(&state.plan.raw()).copied() {
                    Some(idx) => self.plans[idx].subscribers.push(Subscriber {
                        id: state.id,
                        scope: state.scope,
                        sink: state.sink,
                        delivered: state.delivered,
                    }),
                    None => {
                        self.plans.push(PlanState::new(*state));
                        self.rebuild_filter_index();
                    }
                }
            }
            ShardMessage::Unsubscribe(id) => {
                let mut retired_plan = false;
                for i in 0..self.plans.len() {
                    let plan = &mut self.plans[i];
                    if let Some(pos) = plan.subscribers.iter().position(|s| s.id == id) {
                        plan.subscribers.remove(pos);
                        if plan.subscribers.is_empty() {
                            self.plans.remove(i);
                            retired_plan = true;
                        }
                        break;
                    }
                }
                if retired_plan {
                    self.rebuild_filter_index();
                }
            }
            ShardMessage::SilenceProbe {
                id,
                at,
                seq,
                prefix_high_water,
            } => self.queue_silence_probe(id, at, seq, prefix_high_water),
            ShardMessage::Recover {
                snapshot,
                records,
                durable_seq,
                torn,
                batch_size,
            } => self.recover(snapshot, records, durable_seq, torn, batch_size),
            ShardMessage::Checkpoint {
                epoch,
                next_seq,
                high_water,
                ack,
            } => {
                let token = self.obs_start();
                self.checkpoint(epoch, next_seq, high_water);
                self.obs_acc(Stage::SnapshotCut, token);
                self.obs_flush(true);
                let _ = ack.send(());
            }
            ShardMessage::EndRecovery => self.reorder.end_recovery(),
            ShardMessage::Finalize(at) => self.finalize(at),
        }
    }

    /// Appends one record to the shard's log without applying the
    /// fsync policy (no-op without a WAL), cutting a durability
    /// checkpoint every `checkpoint_every` records. The caller follows
    /// a run of appends with one [`ShardWorker::wal_commit`] — group
    /// commit: under [`stem_wal::FsyncPolicy::Always`] the whole run
    /// costs one `fdatasync` instead of one per record.
    ///
    /// Appends happen *before* the evaluation they cover — that is what
    /// makes the log write-ahead: a crash between append and evaluation
    /// re-evaluates on recovery, never loses the record.
    fn wal_append(&mut self, record: &WalRecord) {
        let Some(wal) = self.wal.as_mut() else {
            return;
        };
        wal.append_deferred(record)
            .unwrap_or_else(|e| panic!("shard {} wal append failed: {e}", self.shard));
        self.since_checkpoint += 1;
        // A checkpoint's seq is an *inclusive* durable claim, so it is
        // derived via `durable_seq` (a heartbeat's stamp is the
        // exclusive prefix bound); a record proving nothing durable
        // defers the checkpoint to the next append.
        if self.since_checkpoint >= self.checkpoint_every {
            if let Some(durable) = record.durable_seq() {
                self.since_checkpoint = 0;
                let checkpoint = WalRecord::Watermark {
                    seq: durable,
                    watermark: self.reorder.watermark(),
                    emitted: self.metrics.notifications,
                };
                let wal = self.wal.as_mut().expect("checked above");
                wal.append_deferred(&checkpoint)
                    .unwrap_or_else(|e| panic!("shard {} wal checkpoint failed: {e}", self.shard));
            }
        }
    }

    /// Applies the fsync policy to every append since the last commit.
    fn wal_commit(&mut self) {
        if let Some(wal) = self.wal.as_mut() {
            wal.commit_appends()
                .unwrap_or_else(|e| panic!("shard {} wal commit failed: {e}", self.shard));
        }
    }

    /// Logs the batch heartbeat if the global high-water mark advanced
    /// past the last logged one (repeats are semantic no-ops).
    fn wal_note_heartbeat(&mut self, seq: u64, high_water: TimePoint) {
        if self.wal.is_some() && self.logged_high_water.is_none_or(|h| high_water > h) {
            self.logged_high_water = Some(high_water);
            self.wal_append(&WalRecord::Heartbeat { seq, high_water });
        }
    }

    pub(crate) fn process_batch(&mut self, batch: Batch) {
        self.metrics.batches += 1;
        self.metrics.ingested += batch.instances.len() as u64;
        if let Some(hw) = batch.high_water {
            // How far this shard's view of finalized time trailed the
            // router's when the batch arrived.
            let local_max = self
                .reorder
                .watermark()
                .map_or(0, |w| w.ticks().saturating_add(self.slack.ticks()));
            let lag = hw.ticks().saturating_sub(local_max);
            self.metrics.watermark_lag_max = self.metrics.watermark_lag_max.max(lag);
            if let Some(o) = self.obs.as_mut() {
                // The full distribution, not just the max: one sample
                // per batch into the named histogram surfaced as
                // `watermark_lag_p99` in the run summary.
                o.recorder.record("watermark_lag", lag);
            }
        }
        // Write-ahead, group-committed: every fresh operation the batch
        // carries (and the heartbeat) is journaled and the whole run is
        // committed in one fsync *before* any evaluation — under
        // `FsyncPolicy::Always` the batch, not the record, is the
        // durability unit, which is what removes the ~2× per-record
        // fsync overhead while keeping the log strictly write-ahead.
        let append_token = if self.wal.is_some() {
            self.obs_start()
        } else {
            None
        };
        let mut fresh = Vec::with_capacity(batch.instances.len());
        for item in batch.instances {
            if self.durable_seq.is_some_and(|d| item.seq <= d) {
                // Post-recovery resume overlap: the log already held
                // (and recovery already replayed) this operation.
                self.metrics.wal.deduped += 1;
                continue;
            }
            let stamps = item.trace.unwrap_or_default();
            let meta = ItemMeta {
                seq: item.seq,
                ingest: stamps.ingest,
                route: stamps.route,
                enqueue: batch.enqueue,
                release: 0,
            };
            if self.wal.is_some() {
                // The log holds standalone instances: the row
                // materializes one for its record and itself continues
                // to evaluation.
                let row = item.row as usize;
                self.wal_append(&WalRecord::Instance {
                    seq: item.seq,
                    eval_at: item.chunk.eval_at(row),
                    prefix_high_water: item.prefix_high_water,
                    instance: item.chunk.materialize(row),
                });
            }
            fresh.push((item, meta));
        }
        if let Some(hw) = batch.high_water {
            self.wal_note_heartbeat(batch.seq, hw);
        }
        self.obs_acc(Stage::WalAppend, append_token);
        let fsync_token = if self.wal.is_some() {
            self.obs_start()
        } else {
            None
        };
        self.wal_commit();
        self.obs_acc(Stage::WalFsync, fsync_token);
        for (item, meta) in fresh {
            // Replaying the global watermark before each push keeps
            // accept/late-drop decisions identical to a 1-shard run
            // even when disorder exceeds the slack.
            if let Some(hw) = item.prefix_high_water {
                let token = self.obs_start();
                let released = self.reorder.observe(hw);
                self.obs_acc(Stage::ReorderRelease, token);
                self.dispatch_all(released);
            }
            let row = item.row as usize;
            let key = item
                .chunk
                .eval_at(row)
                .unwrap_or_else(|| item.chunk.generation_time(row));
            let token = self.obs_start();
            let released = self.push_instance(key, item.chunk, item.row, meta);
            self.obs_acc(Stage::ReorderRelease, token);
            self.dispatch_all(released);
        }
        if let Some(hw) = batch.high_water {
            let token = self.obs_start();
            let released = self.reorder.observe(hw);
            self.obs_acc(Stage::ReorderRelease, token);
            self.dispatch_all(released);
        }
        self.obs_flush(false);
    }

    /// Crash recovery: restores the newest valid snapshot (when one was
    /// found) and replays the shard's durable log *tail* through the
    /// normal evaluation path, rebuilding reorder-buffer and detector
    /// state and re-delivering the tail's notifications to the (freshly
    /// registered) sinks. Without a snapshot the tail is the whole log
    /// — the full-replay fallback, bit-identical. Nothing is
    /// re-appended — the records are already on disk. Recovered and
    /// restored instances are packed into chunks of up to `batch_size`
    /// rows and travel the same data path as live ingest.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's state does not match the re-registered
    /// subscription set — a configuration error (the recovery contract
    /// requires re-registering the original subscriptions in order),
    /// not a torn file (those were already rejected by the reader).
    fn recover(
        &mut self,
        snapshot: Option<Box<ShardSnapshot>>,
        records: Vec<WalRecord>,
        durable_seq: Option<u64>,
        torn: u64,
        batch_size: usize,
    ) {
        self.reorder.begin_recovery();
        self.durable_seq = durable_seq;
        self.metrics.wal.torn_truncations += torn;
        let mut snap_next = 0;
        if let Some(snap) = snapshot {
            self.restore_state(&snap.state, batch_size)
                .unwrap_or_else(|e| {
                    panic!(
                        "shard {}: snapshot epoch {} does not match the re-registered \
                         subscription set ({e}) — re-register the original subscriptions \
                         in the original order before resuming",
                        self.shard, snap.epoch,
                    )
                });
            snap_next = snap.next_seq;
            self.metrics.snap.snapshots_loaded += 1;
        }
        // The boundary segment holds records on both sides of the cut:
        // everything below the snapshot's sequence watermark is already
        // folded into the restored state. A heartbeat's stamp is the
        // *exclusive* bound of the prefix it summarizes, so one stamped
        // exactly at the cut is covered too.
        let mut tail = records;
        let logged = tail.len();
        tail.retain(|record| match record {
            WalRecord::Heartbeat { seq, .. } => *seq > snap_next,
            other => other.seq() >= snap_next,
        });
        self.metrics.snap.tail_skipped += (logged - tail.len()) as u64;
        self.metrics.wal.records_recovered += tail.len() as u64;
        let instances = tail.iter().filter_map(|record| match record {
            WalRecord::Instance { instance, .. } => Some(instance),
            _ => None,
        });
        let mut rows = pack_rows(batch_size, instances).into_iter();
        for record in tail {
            match record {
                WalRecord::Instance {
                    seq,
                    eval_at,
                    prefix_high_water,
                    ..
                } => {
                    if let Some(hw) = prefix_high_water {
                        let released = self.reorder.observe(hw);
                        self.dispatch_all(released);
                    }
                    let (chunk, row) = rows.next().expect("one packed row per instance record");
                    let key = eval_at.unwrap_or_else(|| chunk.generation_time(row as usize));
                    // Replayed records keep their trace identity but
                    // zero pre-release stamps: the recovered run's fresh
                    // clock restarts near zero.
                    let released = self.push_instance(
                        key,
                        chunk,
                        row,
                        ItemMeta {
                            seq,
                            ..ItemMeta::default()
                        },
                    );
                    self.dispatch_all(released);
                }
                WalRecord::Probe {
                    seq,
                    subscription,
                    at,
                    prefix_high_water,
                } => {
                    // Replay the probe's prefix stamp exactly the way the
                    // live path observes it: the staleness decision must
                    // not depend on heartbeat records (which are only
                    // appended when the mark advances).
                    if let Some(hw) = prefix_high_water {
                        let released = self.reorder.observe(hw);
                        self.dispatch_all(released);
                    }
                    self.enqueue_probe(SubscriptionId(subscription), at, seq);
                }
                WalRecord::Heartbeat { high_water, .. } => {
                    self.logged_high_water = Some(
                        self.logged_high_water
                            .map_or(high_water, |h| h.max(high_water)),
                    );
                    let released = self.reorder.observe(high_water);
                    self.dispatch_all(released);
                }
                // Checkpoints are markers for the recovery *reader*;
                // they carry no stream state to rebuild.
                WalRecord::Watermark { .. } => {}
            }
        }
    }

    /// Cuts a checkpoint snapshot: syncs the log (the snapshot may not
    /// claim coverage of records that could still be lost), serializes
    /// the shard's full evaluation state, writes it atomically, prunes
    /// old epochs, and retires WAL segments behind the oldest retained
    /// snapshot.
    ///
    /// # Panics
    ///
    /// Panics on filesystem failures — a checkpoint was requested and
    /// cannot be provided, the same contract as WAL appends.
    fn checkpoint(&mut self, epoch: u64, next_seq: u64, high_water: Option<TimePoint>) {
        let Some(dir) = self.snap_dir.clone() else {
            return; // no durability: nothing to snapshot
        };
        let wal = self.wal.as_mut().expect("snap dir implies a wal");
        wal.sync()
            .unwrap_or_else(|e| panic!("shard {} wal sync at checkpoint failed: {e}", self.shard));
        let active_segment = wal.active_segment();
        // A recovered shard can be durable *past* the barrier: its own
        // tail replay already folded records the post-recovery re-feed
        // has not reached yet (those re-fed duplicates are deduped, so
        // they will never be re-appended past this snapshot). Claim the
        // larger coverage — recording only the barrier sequence would
        // understate the state, and a second recovery from this epoch
        // would re-evaluate the difference on top of state that already
        // contains it.
        let next_seq = next_seq.max(self.durable_seq.map_or(0, |d| d + 1));
        let snapshot = ShardSnapshot {
            shard: self.shard,
            epoch,
            next_seq,
            high_water,
            active_segment,
            subs_delivered: self
                .plans
                .iter()
                .flat_map(|p| p.subscribers.iter().map(|s| (s.id.raw(), s.delivered)))
                .collect(),
            state: self.snapshot_state(),
        };
        let bytes = stem_snap::write_snapshot(&dir, &snapshot)
            .unwrap_or_else(|e| panic!("shard {} snapshot write failed: {e}", self.shard));
        self.metrics.snap.snapshots_written += 1;
        self.metrics.snap.snapshot_bytes += bytes;
        // Retention, then compaction behind the *oldest retained*
        // snapshot — never the one just written, so a torn next epoch
        // can still fall back.
        let bound = stem_snap::prune_snapshots(&dir, self.shard, SNAPSHOT_RETAIN)
            .unwrap_or_else(|e| panic!("shard {} snapshot prune failed: {e}", self.shard));
        if let Some(bound) = bound {
            let retired = stem_wal::retire_segments_below(&dir, self.shard, bound)
                .unwrap_or_else(|e| panic!("shard {} wal compaction failed: {e}", self.shard));
            self.metrics.snap.segments_retired += retired;
        }
    }

    /// Serializes the shard's full evaluation state over the
    /// [`StateCodec`] seam: the reorder buffer (with every in-flight
    /// instance and queued silence probe), the stream bookkeeping, and
    /// the plan store — each plan's detector state written ONCE however
    /// many subscribers share it, followed by the subscriber list's
    /// identity rows (id + delivered count). This is the
    /// [`stem_snap::SNAPSHOT_VERSION`] 2 layout; version-1 snapshots
    /// (one detector copy per subscription) are rejected by the reader
    /// and recovery falls back to full-log replay.
    fn snapshot_state(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.reorder.save_state(&mut buf, encode_stream_item);
        codec::put_u64(&mut buf, self.probes);
        codec::encode_opt_time_point(self.logged_high_water, &mut buf);
        codec::put_u64(&mut buf, self.since_checkpoint);
        codec::put_u32(
            &mut buf,
            u32::try_from(self.plans.len()).unwrap_or(u32::MAX),
        );
        for plan in &self.plans {
            codec::put_u64(&mut buf, plan.id.raw());
            match &plan.kind {
                EvalKind::Plain => codec::put_u8(&mut buf, SUB_TAG_PLAIN),
                EvalKind::Pattern(detector) => {
                    codec::put_u8(&mut buf, SUB_TAG_PATTERN);
                    detector.save_state(&mut buf);
                }
                EvalKind::Sustained(state) => {
                    codec::put_u8(&mut buf, SUB_TAG_SUSTAINED);
                    state.detector.save_state(&mut buf);
                    codec::encode_opt_time_point(state.last_input, &mut buf);
                    // The episode's bounded constituent memory restores
                    // with the detector, so an episode closed after
                    // recovery still names its pre-crash samples.
                    codec::put_u32(
                        &mut buf,
                        u32::try_from(state.constituents.len()).unwrap_or(u32::MAX),
                    );
                    for c in &state.constituents {
                        codec::put_u64(&mut buf, c.trace.raw());
                        codec::put_u32(&mut buf, c.shard);
                        codec::put_u64(&mut buf, c.seq);
                    }
                }
            }
            codec::put_u32(
                &mut buf,
                u32::try_from(plan.subscribers.len()).unwrap_or(u32::MAX),
            );
            for s in &plan.subscribers {
                codec::put_u64(&mut buf, s.id.raw());
                codec::put_u64(&mut buf, s.delivered);
            }
        }
        buf
    }

    /// Restores state saved by [`ShardWorker::snapshot_state`] into
    /// this worker's freshly re-registered plan store (the recovery
    /// contract — re-registering the original subscriptions in the
    /// original order — re-derives the same plan ids and subscriber
    /// lists, so plans and subscribers resolve by id). Held instances
    /// are packed into chunks of up to `batch_size` rows.
    fn restore_state(&mut self, state: &[u8], batch_size: usize) -> CodecResult<()> {
        // A chunk is shared only once it holds all its rows, so the
        // held instances are decoded twice: the first pass collects and
        // packs them, the second restores the buffer around the packed
        // rows (restore is cold; the held set is bounded by the slack).
        let mut held = Vec::new();
        ReorderBuffer::<()>::default().load_state(&mut &state[..], |bytes| {
            if let HeldItem::Instance(_, _, instance) = decode_stream_item(bytes)? {
                held.push(instance);
            }
            Ok(())
        })?;
        let mut rows = pack_rows(batch_size, &held).into_iter();
        let bytes = &mut &state[..];
        self.reorder.load_state(bytes, |bytes| {
            Ok(match decode_stream_item(bytes)? {
                HeldItem::Instance(at, seq, _) => {
                    let (chunk, row) = rows.next().expect("both passes decode the same items");
                    StreamItem::Instance {
                        at,
                        chunk,
                        row,
                        meta: ItemMeta {
                            seq,
                            ..ItemMeta::default()
                        },
                    }
                }
                HeldItem::Probe(probe) => probe,
            })
        })?;
        self.probes = codec::get_u64(bytes)?;
        self.logged_high_water = codec::decode_opt_time_point(bytes)?;
        self.since_checkpoint = codec::get_u64(bytes)?;
        let n = codec::get_u32(bytes)? as usize;
        for _ in 0..n {
            let id = codec::get_u64(bytes)?;
            let tag = codec::get_u8(bytes)?;
            let Some(&idx) = self.plan_index.get(&id) else {
                return Err(CodecError::Invalid("snapshot plan missing"));
            };
            let plan = &mut self.plans[idx];
            match (tag, &mut plan.kind) {
                (SUB_TAG_PLAIN, EvalKind::Plain) => {}
                (SUB_TAG_PATTERN, EvalKind::Pattern(detector)) => detector.load_state(bytes)?,
                (SUB_TAG_SUSTAINED, EvalKind::Sustained(state)) => {
                    state.detector.load_state(bytes)?;
                    state.last_input = codec::decode_opt_time_point(bytes)?;
                    state.constituents.clear();
                    let n = codec::get_u32(bytes)? as usize;
                    for _ in 0..n {
                        let trace = TraceId(codec::get_u64(bytes)?);
                        let shard = codec::get_u32(bytes)?;
                        let seq = codec::get_u64(bytes)?;
                        state.push_constituent(Constituent { trace, shard, seq });
                    }
                }
                _ => return Err(CodecError::Invalid("snapshot plan shape")),
            }
            let m = codec::get_u32(bytes)? as usize;
            for _ in 0..m {
                let sub = codec::get_u64(bytes)?;
                let delivered = codec::get_u64(bytes)?;
                let Some(row) = plan.subscribers.iter_mut().find(|s| s.id.raw() == sub) else {
                    return Err(CodecError::Invalid("snapshot subscriber missing"));
                };
                row.delivered = delivered;
            }
        }
        if !bytes.is_empty() {
            return Err(CodecError::Invalid("snapshot state trailing bytes"));
        }
        Ok(())
    }

    /// Pushes one instance into the reorder buffer, mirroring the
    /// buffer's late-drop rule (`key < watermark`) beforehand so a drop
    /// is recorded with a `Late` verdict — the buffer itself only
    /// counts.
    fn push_instance(
        &mut self,
        key: TimePoint,
        chunk: Arc<ColumnarBatch>,
        row: u32,
        meta: ItemMeta,
    ) -> Vec<StreamItem> {
        if let Some(wt) = self.trace.as_mut() {
            if self.reorder.watermark().is_some_and(|w| key < w) {
                note_drop(wt, self.shard, TraceId(meta.seq), DropVerdict::Late);
            }
        }
        let item = StreamItem::Instance {
            at: key,
            chunk,
            row,
            meta,
        };
        self.reorder.push_at(key, item)
    }

    fn dispatch_all(&mut self, released: Vec<StreamItem>) {
        // One release stamp per release wave: every item the watermark
        // freed together left the reorder buffer at the same moment,
        // and a clock read per item is measurable on the hot path.
        let release = self.trace.as_ref().map_or(0, |wt| wt.clock.now());
        for item in released {
            match item {
                StreamItem::Instance {
                    at,
                    chunk,
                    row,
                    mut meta,
                } => {
                    if let Some(wt) = self.trace.as_mut() {
                        meta.release = release;
                        if wt.samples_instance(TraceId(meta.seq)) {
                            // The ring's `seq` field mirrors the trace id
                            // rather than materializing a columnar row
                            // just to read the observer-assigned number.
                            wt.record(TraceRecord::Instance {
                                shard: self.shard as u64,
                                trace: meta.seq,
                                seq: meta.seq,
                                stamps: [meta.ingest, meta.route, meta.enqueue, meta.release],
                            });
                        }
                    }
                    self.dispatch(at, &chunk, row as usize, meta);
                }
                StreamItem::Probe { id, at, seq } => {
                    let mut meta = ItemMeta {
                        seq,
                        ..ItemMeta::default()
                    };
                    if self.trace.is_some() {
                        meta.release = release;
                    }
                    self.silence_probe(id, at, meta);
                }
            }
        }
    }

    /// Offers one in-order instance to every resident plan, evaluating
    /// at the instance's observer-local time `at`.
    ///
    /// Two passes over the resident set: a *filter* pass over the
    /// candidate index (a point query against the dispatch BVH on
    /// dense shards, or the event buckets merged with the filter-less
    /// residue below the threshold — then per-subscriber scope gates,
    /// layer filters, and exact region coverage, all reads of immutable
    /// plan fields and flat payload columns) collecting the matching
    /// `(subscriber order, plan, subscriber)` tuples into the reused
    /// scratch vector, then an *eval* pass running each matched plan's
    /// detector ONCE (memoized per dispatch) and fanning its output out
    /// to the matched subscribers in global registration order — so the
    /// delivery stream is bit-identical to evaluating one detector per
    /// subscription. The row is only materialized into a standalone
    /// instance when the filter pass matched something, so non-matching
    /// rows never touch the attribute arena. The split is
    /// what lets the filter cost (`scope_prune`) and the evaluation
    /// cost (`evaluate`) be timed as separate stages; it is
    /// behavior-preserving because the filters never read state the
    /// evaluators mutate. (`scope_skipped` counts scoped-out instances
    /// among *event-matching candidates* — and on BVH shards a
    /// candidate must additionally be a spatial hit, so the counter's
    /// absolute value depends on which index served the dispatch; only
    /// its being nonzero is portable.)
    fn dispatch(&mut self, at: TimePoint, chunk: &ColumnarBatch, row: usize, meta: ItemMeta) {
        let location = chunk.representative(row);
        let layer = chunk.layer(row);
        let event = chunk.event(row);
        let shard = self.shard;
        let mut matched = std::mem::take(&mut self.match_scratch);
        matched.clear();
        let prune_token = self.obs_start();
        // Candidate enumeration: on dense shards, a point query against
        // the BVH over region bounding boxes; below the threshold, the
        // event buckets merged with the filter-less residue. The BVH
        // path applies the event filter per candidate instead of up
        // front — with a handful of spatial hits that is cheaper than
        // it reads.
        let via_bvh = self.sub_bvh.is_some();
        let mut cands = std::mem::take(&mut self.cand_scratch);
        cands.clear();
        if let Some(bvh) = &self.sub_bvh {
            bvh.query_point(location, &mut cands);
            cands.sort_unstable();
        } else {
            let bucket = self.by_event.get(event).map_or(&[][..], Vec::as_slice);
            let (mut i, mut j) = (0, 0);
            loop {
                match (bucket.get(i), self.wildcard.get(j)) {
                    (Some(&a), Some(&b)) => {
                        if a < b {
                            i += 1;
                            cands.push(a as u32);
                        } else {
                            j += 1;
                            cands.push(b as u32);
                        }
                    }
                    (Some(&a), None) => {
                        i += 1;
                        cands.push(a as u32);
                    }
                    (None, Some(&b)) => {
                        j += 1;
                        cands.push(b as u32);
                    }
                    (None, None) => break,
                }
            }
        }
        let mut scope_pruned = false;
        for &cand in &cands {
            let idx = cand as usize;
            let plan = &self.plans[idx];
            if via_bvh {
                // The buckets pre-filtered by event on the linear path;
                // spatial hits check it here instead.
                if let Some(filter) = &plan.event_filter {
                    if filter != event {
                        continue;
                    }
                }
            }
            // Per-subscriber scope gates before the plan-level filters:
            // a scoped subscriber never sees (or pays any filter for)
            // an instance outside its routing scope — the worker-side
            // half of what the router's precision pass prunes at
            // enqueue time, reproduced per subscriber so shared
            // evaluation prunes exactly what per-subscription
            // evaluation did.
            let gate_from = matched.len();
            for (member, sub) in plan.subscribers.iter().enumerate() {
                if let Some((scope_bbox, scope)) = &sub.scope {
                    if !scope_bbox.contains(location) || !scope.covers(location) {
                        self.metrics.scope_skipped += 1;
                        scope_pruned = true;
                        continue;
                    }
                }
                matched.push((sub.id.raw(), cand, member as u32));
            }
            let plan_passes = 'plan: {
                if let Some(layers) = &plan.layers {
                    if !layers.contains(&layer) {
                        break 'plan false;
                    }
                }
                // A BVH hit already proved bbox containment.
                if !via_bvh && !self.plan_bboxes[idx].contains(location) {
                    break 'plan false;
                }
                plan.region.covers(location)
            };
            if !plan_passes {
                matched.truncate(gate_from);
            }
        }
        self.cand_scratch = cands;
        // Global registration order: the fan-out below must deliver in
        // exactly the order one-detector-per-subscription dispatch did,
        // however subscribers interleave across plans.
        matched.sort_unstable();
        self.obs_acc(Stage::ScopePrune, prune_token);
        // A scope-prune verdict is only a *near miss* when nothing else
        // matched the instance — an instance one subscription pruned
        // but another evaluated did contribute, and is no drop.
        if scope_pruned && matched.is_empty() {
            if let Some(wt) = self.trace.as_mut() {
                note_drop(wt, self.shard, TraceId(meta.seq), DropVerdict::ScopePruned);
            }
        }
        let eval_token = self.obs_start();
        if matched.is_empty() {
            // On dense streams most operations match no subscription:
            // they never materialize and skip the evaluate clock read.
            self.obs_acc(Stage::Evaluate, eval_token);
            self.match_scratch = matched;
            return;
        }
        // One evaluate stamp per matched released operation, taken
        // before the detectors run (every notification this dispatch
        // produces shares it; their notify stamps then order them).
        let evaluate = self.trace.as_ref().map_or(0, |wt| wt.clock.now());
        // One materialization per matched row, shared by every matched
        // plan.
        let instance = &chunk.materialize(row);
        let shard32 = u32::try_from(shard).unwrap_or(u32::MAX);
        // Each plan evaluates once per dispatch, at its first matched
        // subscriber; the memo serves the rest. Matched plans per
        // instance are few, so a linear-scanned pair list beats a map.
        let mut memo: Vec<(u32, PlanOutcome)> = Vec::new();
        for &(_, cand, member) in &matched {
            let plan_idx = cand as usize;
            let outcome = match memo.iter().position(|(c, _)| *c == cand) {
                Some(i) => &memo[i].1,
                None => {
                    let plan = &mut self.plans[plan_idx];
                    let outcome = match &mut plan.kind {
                        EvalKind::Plain => {
                            match eval_condition(&plan.condition, &plan.entities, instance) {
                                Some(true) => PlanOutcome::PlainPass,
                                Some(false) => PlanOutcome::PlainFail,
                                None => PlanOutcome::Error,
                            }
                        }
                        EvalKind::Pattern(detector) => {
                            // The trace tag threads through the pattern
                            // store so each completed match comes back
                            // with the ingest sequences of every
                            // constituent it bound.
                            match detector.process_traced_at(instance, at, meta.seq) {
                                Ok(derived) => PlanOutcome::Derived(
                                    derived
                                        .into_iter()
                                        .map(|(d, tags)| {
                                            let constituents = tags
                                                .iter()
                                                .map(|&(tag, seq)| Constituent {
                                                    trace: TraceId(tag),
                                                    shard: shard32,
                                                    seq,
                                                })
                                                .collect();
                                            (d, constituents)
                                        })
                                        .collect(),
                                ),
                                Err(_) => PlanOutcome::Error,
                            }
                        }
                        EvalKind::Sustained(state) => {
                            let episode = match &state.value {
                                SustainedValue::Attribute(attr) => {
                                    match instance.attributes().get_f64(attr) {
                                        Some(value) => {
                                            state.last_input = Some(at);
                                            let v = if state.negate { -value } else { value };
                                            Some(state.detector.update_value(at, v))
                                        }
                                        None => None,
                                    }
                                }
                                SustainedValue::DistanceTo(reference) => {
                                    state.last_input = Some(at);
                                    let d = location.distance(*reference);
                                    let v = if state.negate { -d } else { d };
                                    Some(state.detector.update_value(at, v))
                                }
                                SustainedValue::Condition => {
                                    match eval_condition(&plan.condition, &plan.entities, instance)
                                    {
                                        Some(holds) => {
                                            state.last_input = Some(at);
                                            Some(state.detector.update(at, holds))
                                        }
                                        None => None,
                                    }
                                }
                            };
                            match episode {
                                None => PlanOutcome::Error,
                                Some(event) => {
                                    if self.trace.is_some() {
                                        // Every accepted sample (the
                                        // arms above all set
                                        // `last_input`) joins the
                                        // episode's bounded constituent
                                        // memory.
                                        state.push_constituent(Constituent {
                                            trace: TraceId(meta.seq),
                                            shard: shard32,
                                            seq: instance.seq().raw(),
                                        });
                                    }
                                    PlanOutcome::Sustained(
                                        event.map(|e| {
                                            (e, state.constituents.iter().copied().collect())
                                        }),
                                    )
                                }
                            }
                        }
                    };
                    memo.push((cand, outcome));
                    &memo.last().expect("just pushed").1
                }
            };
            // Fan-out: re-attach this subscriber's identity (its own
            // subscription id, delivered count, provenance records) to
            // the memoized template output. Counters stay
            // per-subscriber: one evaluation (and error) per
            // subscription, as the DES reference counts them.
            self.metrics.evaluated += 1;
            match outcome {
                PlanOutcome::Error => self.metrics.eval_errors += 1,
                PlanOutcome::PlainFail | PlanOutcome::Sustained(None) => {}
                PlanOutcome::PlainPass => {
                    let sub = &mut self.plans[plan_idx].subscribers[member as usize];
                    let provenance = self.trace.as_mut().map(|wt| {
                        let c = Constituent {
                            trace: TraceId(meta.seq),
                            shard: shard32,
                            seq: instance.seq().raw(),
                        };
                        notify_provenance(wt, shard, sub.id, vec![c], meta, evaluate)
                    });
                    sub.sink.deliver(Notification {
                        subscription: sub.id,
                        shard,
                        kind: NotificationKind::Match(instance.clone()),
                        provenance,
                    });
                    self.metrics.notifications += 1;
                    sub.delivered += 1;
                }
                PlanOutcome::Derived(items) => {
                    for (d, constituents) in items {
                        let sub = &mut self.plans[plan_idx].subscribers[member as usize];
                        self.metrics.derived += 1;
                        self.metrics.notifications += 1;
                        sub.delivered += 1;
                        let provenance = self.trace.as_mut().map(|wt| {
                            notify_provenance(
                                wt,
                                shard,
                                sub.id,
                                constituents.clone(),
                                meta,
                                evaluate,
                            )
                        });
                        sub.sink.deliver(Notification {
                            subscription: sub.id,
                            shard,
                            kind: NotificationKind::Derived(d.clone()),
                            provenance,
                        });
                    }
                }
                PlanOutcome::Sustained(Some((event, constituents))) => {
                    let sub = &mut self.plans[plan_idx].subscribers[member as usize];
                    self.metrics.notifications += 1;
                    sub.delivered += 1;
                    let event = *event;
                    let provenance = self.trace.as_mut().map(|wt| {
                        notify_provenance(wt, shard, sub.id, constituents.clone(), meta, evaluate)
                    });
                    sub.sink.deliver(Notification {
                        subscription: sub.id,
                        shard,
                        kind: NotificationKind::Sustained(event),
                        provenance,
                    });
                }
            }
        }
        self.obs_acc(Stage::Evaluate, eval_token);
        matched.clear();
        self.match_scratch = matched;
    }

    /// Accepts a live silence probe: logs it write-ahead, then enqueues
    /// it.
    ///
    /// Two guards protect recovery correctness: a probe arriving while
    /// the log is still being replayed is dropped (the log carries every
    /// probe that fired before the crash — accepting a live one
    /// mid-replay would double-fire its inactive sample, see
    /// [`ReorderBuffer::is_recovering`]), and a re-fed probe the log
    /// already holds is a duplicate like any other resumed operation.
    fn queue_silence_probe(
        &mut self,
        id: SubscriptionId,
        at: TimePoint,
        seq: u64,
        prefix_high_water: Option<TimePoint>,
    ) {
        if self.reorder.is_recovering() || self.durable_seq.is_some_and(|d| seq <= d) {
            self.metrics.wal.deduped += 1;
            return;
        }
        self.wal_append(&WalRecord::Probe {
            seq,
            subscription: id.raw(),
            at,
            prefix_high_water,
        });
        self.wal_commit();
        // Observe the probe's prefix stamp before the staleness check:
        // the accept/drop decision then never depends on whether a
        // separate heartbeat was delivered first — which is what lets
        // the engine suppress heartbeats to clean shards entirely.
        if let Some(hw) = prefix_high_water {
            let released = self.reorder.observe(hw);
            self.dispatch_all(released);
        }
        self.enqueue_probe(id, at, seq);
    }

    /// Enqueues a silence probe into the reorder buffer so it reaches
    /// the sustained detector in stream order. Probes already behind
    /// the watermark are stale — the stream has moved past them — and
    /// are discarded (with a `Late` verdict when tracing).
    fn enqueue_probe(&mut self, id: SubscriptionId, at: TimePoint, seq: u64) {
        if self.reorder.watermark().is_some_and(|w| at < w) {
            if let Some(wt) = self.trace.as_mut() {
                note_drop(wt, self.shard, TraceId(seq), DropVerdict::Late);
            }
            return;
        }
        self.probes += 1;
        let released = self.reorder.push_at(at, StreamItem::Probe { id, at, seq });
        self.dispatch_all(released);
    }

    /// Feeds a sustained subscription its inactive sample if its input
    /// has been silent for the configured timeout.
    ///
    /// Probes are addressed per subscription id; silence-policied
    /// sustained plans never share (the canonicalizer keys them by
    /// subscription), so the addressed subscriber is the plan's only
    /// one — but the fan-out still resolves the row by id rather than
    /// assuming it.
    fn silence_probe(&mut self, id: SubscriptionId, at: TimePoint, meta: ItemMeta) {
        let shard = self.shard;
        let Some(plan) = self
            .plans
            .iter_mut()
            .find(|p| p.subscribers.iter().any(|s| s.id == id))
        else {
            return;
        };
        let PlanState {
            kind, subscribers, ..
        } = plan;
        let EvalKind::Sustained(state) = kind else {
            return;
        };
        let Some(silence) = &state.silence else {
            return;
        };
        let stale = state
            .last_input
            .is_none_or(|t| at.duration_since(t).is_some_and(|d| d >= silence.timeout));
        if !stale {
            return;
        }
        let evaluate = self.trace.as_ref().map_or(0, |wt| wt.clock.now());
        if let Some(event) = state.detector.update_value(at, silence.inactive_value) {
            // The probe itself is a constituent (it is the operation
            // that closed the episode), alongside the episode's
            // remembered samples.
            let mut constituents: Vec<Constituent> = state.constituents.iter().copied().collect();
            constituents.push(Constituent {
                trace: TraceId(meta.seq),
                shard: u32::try_from(shard).unwrap_or(u32::MAX),
                seq: meta.seq,
            });
            let sub = subscribers
                .iter_mut()
                .find(|s| s.id == id)
                .expect("probe matched this plan by subscriber id");
            self.metrics.notifications += 1;
            sub.delivered += 1;
            let provenance = self
                .trace
                .as_mut()
                .map(|wt| notify_provenance(wt, shard, sub.id, constituents, meta, evaluate));
            sub.sink.deliver(Notification {
                subscription: sub.id,
                shard,
                kind: NotificationKind::Sustained(event),
                provenance,
            });
        }
    }

    /// Stream horizon: releases everything still reordering, then closes
    /// open sustained episodes at `at`.
    ///
    /// Each sustained plan's detector closes ONCE; the resulting event
    /// fans out to its subscribers, interleaved across plans in global
    /// registration order — the order one-detector-per-subscription
    /// finalization delivered in.
    fn finalize(&mut self, at: TimePoint) {
        let remaining = self.reorder.flush();
        self.dispatch_all(remaining);
        let shard = self.shard;
        let mut closed: Vec<(usize, SustainedEvent, Vec<Constituent>)> = Vec::new();
        for (idx, plan) in self.plans.iter_mut().enumerate() {
            if let EvalKind::Sustained(state) = &mut plan.kind {
                if let Some(event) = state.detector.finish(at) {
                    closed.push((idx, event, state.constituents.iter().copied().collect()));
                }
            }
        }
        let mut deliveries: Vec<(u64, usize, usize)> = Vec::new();
        for (ci, (plan_idx, _, _)) in closed.iter().enumerate() {
            for (member, sub) in self.plans[*plan_idx].subscribers.iter().enumerate() {
                deliveries.push((sub.id.raw(), ci, member));
            }
        }
        deliveries.sort_unstable();
        for (_, ci, member) in deliveries {
            let (plan_idx, event, constituents) = &closed[ci];
            let evaluate = self.trace.as_ref().map_or(0, |wt| wt.clock.now());
            let sub = &mut self.plans[*plan_idx].subscribers[member];
            self.metrics.notifications += 1;
            sub.delivered += 1;
            let provenance = self.trace.as_mut().map(|wt| {
                // The horizon is an engine-driven close, not an
                // operation: its pre-evaluate stamps are zero.
                notify_provenance(
                    wt,
                    shard,
                    sub.id,
                    constituents.clone(),
                    ItemMeta::default(),
                    evaluate,
                )
            });
            sub.sink.deliver(Notification {
                subscription: sub.id,
                shard,
                kind: NotificationKind::Sustained(*event),
                provenance,
            });
        }
    }

    /// Drains the reorder buffer, closes the log durably, and returns
    /// the final counters.
    pub(crate) fn finish(mut self) -> ShardMetrics {
        let remaining = self.reorder.flush();
        self.dispatch_all(remaining);
        if let Some(wal) = self.wal.as_mut() {
            wal.sync()
                .unwrap_or_else(|e| panic!("shard {} wal close failed: {e}", self.shard));
            let m = wal.metrics();
            self.metrics.wal.records_appended = m.records;
            self.metrics.wal.bytes_appended = m.bytes;
            self.metrics.wal.segments_created = m.segments;
            self.metrics.wal.fsyncs = m.syncs;
        }
        // Probes ride the reorder buffer but are not instances.
        self.metrics.released = self.reorder.released() - self.probes;
        self.metrics.late_dropped = self.reorder.late_dropped();
        self.metrics.watermark = self.reorder.watermark();
        self.metrics.subscriptions = self.subscriber_count();
        self.metrics.plans = self.plans.len();
        self.obs_flush(true);
        self.metrics
    }

    /// Instances and probes still held in the reorder buffer — the
    /// engine's heartbeat-suppression gate for deterministic runs.
    pub(crate) fn reorder_pending(&self) -> usize {
        self.reorder.pending()
    }

    /// Forces a telemetry publish. The engine calls this after draining
    /// a shard inline at a barrier — it samples right after, and a
    /// stale slot would under-report.
    pub(crate) fn publish_obs(&mut self) {
        self.obs_flush(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchItem;
    use crate::subscription::{
        Collector, SilenceSpec, Subscription, SustainedSpec, SustainedValue,
    };
    use stem_cep::SustainedConfig;
    use stem_spatial::{Field, Point, Rect};

    fn reading(t: u64, v: f64) -> EventInstance {
        EventInstance::builder(
            ObserverId::Mote(stem_core::MoteId::new(1)),
            EventId::new("reading"),
            Layer::Sensor,
        )
        .generated(TimePoint::new(t), Point::new(5.0, 5.0))
        .attributes(stem_core::Attributes::new().with("v", v))
        .build()
    }

    /// Active samples at t=10 and t=30 as rows of one chunk, routed as
    /// operations 0 and 1.
    fn two_readings() -> Batch {
        let mut chunk = ColumnarBatch::new();
        chunk.push(&reading(10, 2.0));
        chunk.push(&reading(30, 2.0));
        let chunk = Arc::new(chunk);
        let item = |seq: u64, prefix_high_water| BatchItem {
            seq,
            chunk: Arc::clone(&chunk),
            row: seq as u32,
            prefix_high_water,
            trace: None,
        };
        Batch {
            instances: vec![item(0, None), item(1, Some(TimePoint::new(10)))],
            high_water: Some(TimePoint::new(30)),
            seq: 2,
            enqueue: 0,
        }
    }

    fn sustained_worker(collector: &Collector) -> ShardWorker {
        let region = SpatialExtent::field(Field::rect(Rect::new(
            Point::new(0.0, 0.0),
            Point::new(100.0, 100.0),
        )));
        let sub =
            Subscription::new("episode", region, collector.sink()).sustained_spec(SustainedSpec {
                config: SustainedConfig {
                    min_duration: Duration::new(10),
                    enter_threshold: 1.0,
                    exit_threshold: 0.5,
                },
                value: SustainedValue::Attribute("v".to_owned()),
                negate: false,
                silence: Some(SilenceSpec {
                    timeout: Duration::new(5),
                    inactive_value: 0.0,
                }),
            });
        let mut worker = ShardWorker::new(0, Duration::ZERO, None, None, 1024, None, None);
        worker.handle(ShardMessage::Subscribe(Box::new(
            SubscriptionState::compile(SubscriptionId(0), PlanId(0), sub),
        )));
        worker
    }

    /// The recovery guard (see `ReorderBuffer::is_recovering`): a live
    /// silence probe racing the log replay is dropped — the log already
    /// carries every probe that fired before the crash, so accepting it
    /// would double-fire the inactive sample and close the episode
    /// twice.
    #[test]
    fn live_silence_probes_are_suppressed_while_recovering() {
        let collector = Collector::new();
        let mut worker = sustained_worker(&collector);
        // Active samples at t=10 and t=30 open a qualifying episode
        // (episodes end at their last active sample, so a single sample
        // would make a zero-length, unreported episode).
        worker.handle(ShardMessage::Batch(two_readings()));
        worker.handle(ShardMessage::Recover {
            snapshot: None,
            records: Vec::new(),
            durable_seq: None,
            torn: 0,
            batch_size: 4,
        });
        // Dropped: the shard is still replaying its log.
        worker.handle(ShardMessage::SilenceProbe {
            id: SubscriptionId(0),
            at: TimePoint::new(100),
            seq: 2,
            prefix_high_water: None,
        });
        worker.handle(ShardMessage::EndRecovery);
        // Accepted: recovery is over, the stale probe closes the episode.
        worker.handle(ShardMessage::SilenceProbe {
            id: SubscriptionId(0),
            at: TimePoint::new(100),
            seq: 3,
            prefix_high_water: None,
        });
        let metrics = worker.finish();
        assert_eq!(metrics.wal.deduped, 1, "the mid-recovery probe was dropped");
        let ended: Vec<_> = collector
            .take()
            .into_iter()
            .filter(|n| {
                matches!(
                    n.kind,
                    NotificationKind::Sustained(stem_cep::SustainedEvent::Ended { .. })
                )
            })
            .collect();
        assert_eq!(ended.len(), 1, "the episode must close exactly once");
    }

    /// Re-fed operations the log already holds (the resume overlap) are
    /// deduplicated by sequence number, instances and probes alike.
    #[test]
    fn resume_overlap_is_deduplicated_by_sequence() {
        let collector = Collector::new();
        let mut worker = sustained_worker(&collector);
        worker.handle(ShardMessage::Recover {
            snapshot: None,
            records: vec![
                WalRecord::Instance {
                    seq: 0,
                    eval_at: None,
                    prefix_high_water: None,
                    instance: reading(10, 2.0),
                },
                WalRecord::Instance {
                    seq: 1,
                    eval_at: None,
                    prefix_high_water: Some(TimePoint::new(10)),
                    instance: reading(30, 2.0),
                },
            ],
            durable_seq: Some(1),
            torn: 0,
            batch_size: 4,
        });
        worker.handle(ShardMessage::EndRecovery);
        // The upstream re-feeds from sequence 0: the shard already has
        // both samples.
        worker.handle(ShardMessage::Batch(two_readings()));
        // Fresh work (seq 2) processes normally and closes the episode.
        worker.handle(ShardMessage::SilenceProbe {
            id: SubscriptionId(0),
            at: TimePoint::new(100),
            seq: 2,
            prefix_high_water: None,
        });
        let metrics = worker.finish();
        assert_eq!(metrics.wal.deduped, 2);
        assert_eq!(metrics.wal.records_recovered, 2);
        let ended = collector
            .take()
            .into_iter()
            .filter(|n| {
                matches!(
                    n.kind,
                    NotificationKind::Sustained(stem_cep::SustainedEvent::Ended { .. })
                )
            })
            .count();
        assert_eq!(ended, 1, "replay + dedup must evaluate the sample once");
    }

    fn ended_count(collector: &Collector) -> usize {
        collector
            .take()
            .into_iter()
            .filter(|n| {
                matches!(
                    n.kind,
                    NotificationKind::Sustained(stem_cep::SustainedEvent::Ended { .. })
                )
            })
            .count()
    }

    /// The full worker state — open episode, a silence probe still held
    /// in the reorder buffer, watermark clock — survives a checkpoint
    /// cut and restore, and the `recovering` guard still suppresses
    /// live probes while the restored shard finishes its recovery: the
    /// buffered probe closes the episode exactly once.
    #[test]
    fn snapshot_round_trip_preserves_the_silence_probe_guard() {
        let dir =
            std::env::temp_dir().join(format!("stem-worker-snap-boundary-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = |shard| {
            Some(ShardWal::open(&dir, shard, 1 << 20, stem_wal::FsyncPolicy::Never).unwrap())
        };
        let snap = Some(dir.clone());

        // A live worker with watermark slack, so pushed items (and the
        // probe) are still *pending* when the checkpoint cuts.
        let collector = Collector::new();
        let region = SpatialExtent::field(Field::rect(Rect::new(
            Point::new(0.0, 0.0),
            Point::new(100.0, 100.0),
        )));
        let spec = SustainedSpec {
            config: SustainedConfig {
                min_duration: Duration::new(10),
                enter_threshold: 1.0,
                exit_threshold: 0.5,
            },
            value: SustainedValue::Attribute("v".to_owned()),
            negate: false,
            silence: Some(SilenceSpec {
                timeout: Duration::new(5),
                inactive_value: 0.0,
            }),
        };
        let mut worker =
            ShardWorker::new(0, Duration::new(50), wal(0), snap.clone(), 1024, None, None);
        let sub = Subscription::new("episode", region.clone(), collector.sink())
            .sustained_spec(spec.clone());
        worker.handle(ShardMessage::Subscribe(Box::new(
            SubscriptionState::compile(SubscriptionId(0), PlanId(0), sub),
        )));
        worker.handle(ShardMessage::Batch(two_readings()));
        worker.handle(ShardMessage::SilenceProbe {
            id: SubscriptionId(0),
            at: TimePoint::new(100),
            seq: 2,
            prefix_high_water: None,
        });
        // Cut the checkpoint: samples and the probe are all behind the
        // 50-tick slack, so the snapshot carries them as pending items.
        let (ack, done) = std::sync::mpsc::channel();
        worker.handle(ShardMessage::Checkpoint {
            epoch: 0,
            next_seq: 3,
            high_water: Some(TimePoint::new(30)),
            ack,
        });
        done.recv().unwrap();
        drop(worker); // the crash: everything in memory is gone

        // A fresh worker restores the snapshot the way recovery does.
        let survivor = Collector::new();
        let snapshot = stem_snap::load_latest(&dir, 0).unwrap().snapshot.unwrap();
        assert_eq!(snapshot.next_seq, 3);
        let mut worker = ShardWorker::new(0, Duration::new(50), wal(0), snap, 1024, None, None);
        let sub = Subscription::new("episode", region, survivor.sink()).sustained_spec(spec);
        worker.handle(ShardMessage::Subscribe(Box::new(
            SubscriptionState::compile(SubscriptionId(0), PlanId(0), sub),
        )));
        worker.handle(ShardMessage::Recover {
            snapshot: Some(Box::new(snapshot)),
            records: Vec::new(),
            durable_seq: Some(2),
            torn: 0,
            batch_size: 4,
        });
        // A live probe racing the recovery window is still suppressed
        // across the snapshot boundary...
        worker.handle(ShardMessage::SilenceProbe {
            id: SubscriptionId(0),
            at: TimePoint::new(120),
            seq: 3,
            prefix_high_water: None,
        });
        worker.handle(ShardMessage::EndRecovery);
        // ...and the horizon releases the *restored* pending probe,
        // which closes the restored open episode exactly once.
        worker.handle(ShardMessage::Finalize(TimePoint::new(200)));
        let metrics = worker.finish();
        assert_eq!(metrics.snap.snapshots_loaded, 1);
        assert_eq!(metrics.wal.deduped, 1, "the mid-recovery probe was dropped");
        assert_eq!(ended_count(&survivor), 1, "the episode closes exactly once");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
