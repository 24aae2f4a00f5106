//! Shard workers: reorder, evaluate, notify.

use crate::batch::{Batch, RowRef};
use crate::config::ShardId;
use crate::metrics::ShardMetrics;
use crate::plan::PlanId;
use crate::subscription::{
    EventSink, Notification, NotificationKind, SilenceSpec, Subscription, SubscriptionId,
    SustainedValue,
};
use crate::trace::WorkerTrace;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;
use stem_cep::{CompositeDetector, ReorderBuffer, SustainedDetector, SustainedEvent};
use stem_core::codec::{self, CodecError, CodecResult, StateCodec};
use stem_core::timing::{Clock, SpanToken};
use stem_core::{
    Bindings, CcuId, ConditionExpr, ConditionObserver, Constituent, DropVerdict, EntityName,
    EventDefinition, EventId, EventInstance, Layer, ObserverId, Provenance, StageStamps, TraceId,
};
use stem_obs::{ObsRegistry, Recorder, Stage, TraceConstituent, TraceRecord};
use stem_snap::ShardSnapshot;
use stem_spatial::{Point, SpatialExtent};
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
    /// A subscription that opens a new plan on this shard, compiled as a
    /// plan with one member at scope slot 0 (boxed: it is much larger
    /// than the other variants).
    Subscribe(Box<PlanState>),
    /// A subscription that joins a resident plan: only its member record
    /// travels, into the group of its scope slot.
    Join {
        /// The resident plan joined.
        plan: PlanId,
        /// The joiner's scope slot in the plan's router interest.
        slot: u32,
        /// The joiner's record.
        member: Member,
    },
    /// Retire a subscription.
    Unsubscribe {
        /// The subscription to retire.
        id: SubscriptionId,
        /// The plan it rides.
        plan: PlanId,
    },
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
    /// The engine packs the instances into routed rows with hit lists.
    Recover {
        /// The shard's newest valid snapshot (`None` = full-log replay).
        snapshot: Option<Box<ShardSnapshot>>,
        /// The snapshot's held reorder-buffer instances as routed rows,
        /// in buffer order (see [`held_instances`]).
        held: Vec<RowRef>,
        /// The shard's log tail past the snapshot's cut, in append order
        /// (the full log without a snapshot).
        records: Vec<WalRecord>,
        /// One routed row per instance record in `records`, in order.
        rows: Vec<RowRef>,
        /// Log records the snapshot already covered (dropped from
        /// `records`).
        tail_skipped: u64,
        /// The largest ingest sequence the shard is durable through
        /// (snapshot coverage included): later re-fed operations at or
        /// below it are duplicates and are skipped.
        durable_seq: Option<u64>,
        /// Torn-tail truncations the recovery reader repaired.
        torn: u64,
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

/// One subscriber of a shared plan: everything that stays per-identity
/// after the template is deduplicated — who to tell, from which ingest
/// sequence on, and how much they have already been told. Where the
/// subscriber's scope gate sits is not stored: the member lives in the
/// group of its scope slot ([`PlanState::groups`]).
pub(crate) struct Member {
    id: SubscriptionId,
    /// The first ingest sequence the subscriber observes. Never
    /// decreases as the id grows, so the members of a group eligible
    /// for a row are a prefix of it.
    since: u64,
    /// Notifications delivered to this subscriber's sink so far
    /// (persisted per subscriber in checkpoint snapshots as the count a
    /// resumed run will not re-deliver).
    delivered: u64,
    sink: Box<dyn EventSink>,
}

// The per-tenant record: 100k tenants cost 40 bytes each here.
const _: () = assert!(std::mem::size_of::<Member>() <= 40);

impl Member {
    /// A subscriber that observes instances with ingest sequence `since`
    /// and later.
    pub(crate) fn new(id: SubscriptionId, since: u64, sink: Box<dyn EventSink>) -> Self {
        Member {
            id,
            since,
            delivered: 0,
            sink,
        }
    }
}

/// One shared detector plan resident on a shard: the template filters
/// and detector state, evaluated once per instance, plus the members
/// its output fans out to. A subscription that opens a plan travels to
/// its home shard as a plan with one member; later subscribers of the
/// plan travel as a [`ShardMessage::Join`].
pub(crate) struct PlanState {
    /// Assigned by the engine's canonicalizer (a non-shareable
    /// subscription gets a plan of its own).
    id: PlanId,
    region: SpatialExtent,
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
    /// The members, grouped by the slot of their routing scope in the
    /// plan's router interest (indexed by slot), each group in id
    /// order. A row reaches a group only when its hits name the slot
    /// (stateful plans key on the scope, so their members share slot 0
    /// and the detector's input is gated identically). A group whose
    /// members all left stays, empty, so slots keep their index.
    groups: Vec<Vec<Member>>,
}

impl PlanState {
    /// Compiles `sub` for residence on its home shard as the first
    /// member of `plan`, at scope slot 0, observing instances with
    /// ingest sequence `since` and later.
    pub(crate) fn compile(id: SubscriptionId, plan: PlanId, since: u64, sub: Subscription) -> Self {
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
                    sub.region.bounding_box().center(),
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
        PlanState {
            id: plan,
            region: sub.region,
            event_filter: sub.event_filter,
            layers: sub.layers,
            condition,
            entities,
            kind,
            // Exactly sized: most plans keep their one subscriber.
            groups: vec![vec![Member::new(id, since, sub.sink)]],
        }
    }

    /// Adds `member` to the group of scope slot `slot`. Subscription ids
    /// ascend and `since` never decreases in registration order, so the
    /// group stays in id order and its eligible members a prefix.
    fn join(&mut self, slot: u32, member: Member) {
        let slot = slot as usize;
        if self.groups.len() <= slot {
            self.groups.resize_with(slot + 1, Vec::new);
        }
        let group = &mut self.groups[slot];
        debug_assert!(
            group
                .last()
                .is_none_or(|m| m.id < member.id && m.since <= member.since),
            "a group's ids ascend and its `since` never decreases"
        );
        group.push(member);
    }

    /// Removes the member `id`; `false` if it does not ride this plan.
    fn leave(&mut self, id: SubscriptionId) -> bool {
        let Some((slot, pos)) = locate(&self.groups, id) else {
            return false;
        };
        self.groups[slot].remove(pos);
        true
    }

    /// Members across every group.
    fn members(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }
}

/// How many members of `group` observe the operation with ingest
/// sequence `seq`: a prefix, since `since` never decreases within a
/// group (all of it once the newest member is eligible).
fn eligible(group: &[Member], seq: u64) -> usize {
    if group.last().is_none_or(|m| m.since <= seq) {
        group.len()
    } else {
        group.partition_point(|m| m.since <= seq)
    }
}

/// Where the member `id` sits among a plan's slot groups, as `(slot,
/// position)`: a binary search in each id-ordered group.
fn locate(groups: &[Vec<Member>], id: SubscriptionId) -> Option<(usize, usize)> {
    groups.iter().enumerate().find_map(|(slot, group)| {
        let pos = group.binary_search_by_key(&id, |m| m.id).ok()?;
        Some((slot, pos))
    })
}

/// One fan-out source: the members `pos..end` of the group of scope
/// slot `slot` of the plan at index `plan`, all owed the caller's
/// `source`-th outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Cursor {
    source: u32,
    plan: u32,
    slot: u32,
    pos: u32,
    end: u32,
}

/// The fan-out cursors of one merge, each keyed by the id of the member
/// it points at, smallest on top.
type Merge = BinaryHeap<Reverse<(SubscriptionId, Cursor)>>;

/// Adds a non-empty cursor to `merge`.
fn push_cursor(plans: &[PlanState], merge: &mut Merge, c: Cursor) {
    let id = plans[c.plan as usize].groups[c.slot as usize][c.pos as usize].id;
    merge.push(Reverse((id, c)));
}

/// Adds one cursor per non-empty group of the plan at index `plan`,
/// covering every member, owed outcome `source`.
fn plan_cursors(plans: &[PlanState], plan: usize, source: u32, merge: &mut Merge) {
    for (slot, group) in plans[plan].groups.iter().enumerate() {
        if !group.is_empty() {
            let c = Cursor {
                source,
                plan: plan as u32,
                slot: slot as u32,
                pos: 0,
                end: group.len() as u32,
            };
            push_cursor(plans, merge, c);
        }
    }
}

/// Pops the member with the smallest subscription id across the
/// merge's cursors: a k-way merge of id-ordered groups, which yields
/// exactly the global registration order one detector per subscription
/// delivered in. The heap keeps it at O(log k) per member for k
/// cursors; a lone cursor is re-keyed in place.
fn next_member(plans: &[PlanState], merge: &mut Merge) -> Option<Cursor> {
    let mut top = merge.peek_mut()?;
    let Reverse((_, c)) = *top;
    if c.pos + 1 == c.end {
        PeekMut::pop(top);
    } else {
        let next = Cursor {
            pos: c.pos + 1,
            ..c
        };
        let id = plans[c.plan as usize].groups[c.slot as usize][next.pos as usize].id;
        *top = Reverse((id, next));
    }
    Some(c)
}

/// A plan the row's hits list, that passed its filters and has members
/// to evaluate for: `hits` is its range of the row's hit list, `listed`
/// the eligible members of the listed groups, and `outcome` what its
/// one evaluation produced.
struct Listed {
    plan: u32,
    hits: Range<usize>,
    listed: u64,
    outcome: Option<PlanOutcome>,
}

/// The result of evaluating one plan against one instance, computed
/// once and fanned out to every eligible listed member. Owned data
/// only — fan-out re-borrows the plan for its members after evaluation
/// releases the detector.
enum PlanOutcome {
    /// Evaluation errored (counted once per eligible listed member).
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

impl PlanOutcome {
    /// Whether every member owed this outcome gets a notification.
    fn delivers(&self) -> bool {
        match self {
            PlanOutcome::Error | PlanOutcome::PlainFail | PlanOutcome::Sustained(None) => false,
            PlanOutcome::PlainPass | PlanOutcome::Sustained(Some(_)) => true,
            PlanOutcome::Derived(items) => !items.is_empty(),
        }
    }
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
    /// the generation time): a routed row with its hits for this shard,
    /// only materialized if it matches a subscription.
    Instance {
        at: TimePoint,
        row: RowRef,
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
        StreamItem::Instance { at, row, meta } => {
            codec::put_u8(buf, ITEM_TAG_INSTANCE);
            codec::encode_time_point(*at, buf);
            codec::put_u64(buf, meta.seq);
            // Snapshots hold standalone instances (rows materialize
            // bit-identically), keeping the format stable.
            codec::encode_instance(&row.chunk.rows.materialize(row.index as usize), buf);
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
/// instance is standalone until recovery packs it into a routed row.
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

/// The instances a checkpoint snapshot's reorder buffer holds, in
/// buffer order: what recovery packs into routed rows before the worker
/// restores the buffer around them. Stops at the first item that does
/// not decode; [`ShardWorker::restore_state`] then reports the error.
pub(crate) fn held_instances(state: &[u8]) -> Vec<EventInstance> {
    let mut held = Vec::new();
    let _ = ReorderBuffer::<()>::default().load_state(&mut &state[..], |bytes| {
        if let HeldItem::Instance(_, _, instance) = decode_stream_item(bytes)? {
            held.push(instance);
        }
        Ok(())
    });
    held
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

/// Delivers one notification to `member` (with its provenance when
/// tracing) and counts it in the member's delivered total.
fn notify(
    member: &mut Member,
    shard: ShardId,
    trace: Option<&mut WorkerTrace>,
    kind: NotificationKind,
    constituents: &[Constituent],
    meta: ItemMeta,
    evaluate: u64,
) {
    let provenance = trace
        .map(|wt| notify_provenance(wt, shard, member.id, constituents.to_vec(), meta, evaluate));
    member.sink.deliver(Notification {
        subscription: member.id,
        shard,
        kind,
        provenance,
    });
    member.delivered += 1;
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
    /// The resident shared plans, in creation order — which is
    /// increasing [`PlanId`] order, so a binary search finds a plan.
    /// Every subscription lives inside exactly one plan's subscriber
    /// list.
    plans: Vec<PlanState>,
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
    /// The plans the row being dispatched evaluates (reused across
    /// dispatches).
    listed: Vec<Listed>,
    /// The fan-out merge of the row being dispatched (reused across
    /// dispatches).
    cursors: Merge,
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
            listed: Vec::new(),
            cursors: Merge::new(),
        }
    }

    /// The index of the resident plan `id` in `plans`.
    fn plan_position(&self, id: PlanId) -> Option<usize> {
        self.plans.binary_search_by_key(&id, |p| p.id).ok()
    }

    /// Total resident subscribers across every plan.
    fn subscriber_count(&self) -> usize {
        self.plans.iter().map(PlanState::members).sum()
    }

    /// `(raw id, delivered)` of every member of the plan at index
    /// `plan`, in id order: the plan's rows in a checkpoint snapshot.
    fn members_in_id_order(&self, plan: usize) -> Vec<(u64, u64)> {
        let mut cursors = Merge::new();
        plan_cursors(&self.plans, plan, 0, &mut cursors);
        let mut rows = Vec::with_capacity(self.plans[plan].members());
        while let Some(c) = next_member(&self.plans, &mut cursors) {
            let m = &self.plans[plan].groups[c.slot as usize][c.pos as usize];
            rows.push((m.id.raw(), m.delivered));
        }
        rows
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
                // Plans open in increasing id order, so a new one goes
                // last.
                debug_assert!(self.plans.last().is_none_or(|p| p.id < state.id));
                self.plans.push(*state);
            }
            ShardMessage::Join { plan, slot, member } => {
                let idx = self
                    .plan_position(plan)
                    .expect("a joined plan is resident on its home shard");
                self.plans[idx].join(slot, member);
            }
            ShardMessage::Unsubscribe { id, plan } => {
                if let Some(idx) = self.plan_position(plan) {
                    let state = &mut self.plans[idx];
                    if state.leave(id) && state.members() == 0 {
                        self.plans.remove(idx);
                    }
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
                held,
                records,
                rows,
                tail_skipped,
                durable_seq,
                torn,
            } => {
                self.metrics.snap.tail_skipped += tail_skipped;
                self.recover(snapshot, held, records, rows, durable_seq, torn);
            }
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
                let (rows, at) = (&item.row.chunk.rows, item.row.index as usize);
                self.wal_append(&WalRecord::Instance {
                    seq: item.seq,
                    eval_at: rows.eval_at(at),
                    prefix_high_water: item.prefix_high_water,
                    instance: rows.materialize(at),
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
            let key = item.row.key();
            let token = self.obs_start();
            let released = self.push_instance(key, item.row, meta);
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
    /// re-appended — the records are already on disk. Restored (`held`)
    /// and recovered (`rows`) instances arrive packed into routed rows
    /// and travel the same data path as live ingest.
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
        held: Vec<RowRef>,
        records: Vec<WalRecord>,
        rows: Vec<RowRef>,
        durable_seq: Option<u64>,
        torn: u64,
    ) {
        self.reorder.begin_recovery();
        self.durable_seq = durable_seq;
        self.metrics.wal.torn_truncations += torn;
        if let Some(snap) = snapshot {
            self.restore_state(&snap.state, held).unwrap_or_else(|e| {
                panic!(
                    "shard {}: snapshot epoch {} does not match the re-registered \
                         subscription set ({e}) — re-register the original subscriptions \
                         in the original order before resuming",
                    self.shard, snap.epoch,
                )
            });
            self.metrics.snap.snapshots_loaded += 1;
        }
        self.metrics.wal.records_recovered += records.len() as u64;
        let mut rows = rows.into_iter();
        for record in records {
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
                    let row = rows.next().expect("one packed row per instance record");
                    let key = eval_at.unwrap_or_else(|| row.key());
                    // Replayed records keep their trace identity but
                    // zero pre-release stamps: the recovered run's fresh
                    // clock restarts near zero.
                    let released = self.push_instance(
                        key,
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
            subs_delivered: (0..self.plans.len())
                .flat_map(|idx| self.members_in_id_order(idx))
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
    /// many subscribers share it, followed by its members' identity rows
    /// (id + delivered count) in id order across slot groups. This is the
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
        for (idx, plan) in self.plans.iter().enumerate() {
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
            codec::put_u32(&mut buf, u32::try_from(plan.members()).unwrap_or(u32::MAX));
            for (id, delivered) in self.members_in_id_order(idx) {
                codec::put_u64(&mut buf, id);
                codec::put_u64(&mut buf, delivered);
            }
        }
        buf
    }

    /// Restores state saved by [`ShardWorker::snapshot_state`] into
    /// this worker's freshly re-registered plan store (the recovery
    /// contract — re-registering the original subscriptions in the
    /// original order — re-derives the same plan ids and subscriber
    /// lists, so plans and subscribers resolve by id). The buffer's held
    /// instances arrive already packed into routed rows (`held`, one per
    /// held instance in buffer order — see [`held_instances`]).
    fn restore_state(&mut self, state: &[u8], held: Vec<RowRef>) -> CodecResult<()> {
        let mut held = held.into_iter();
        let bytes = &mut &state[..];
        self.reorder.load_state(bytes, |bytes| {
            Ok(match decode_stream_item(bytes)? {
                HeldItem::Instance(at, seq, _) => {
                    let row = held
                        .next()
                        .ok_or(CodecError::Invalid("snapshot held row missing"))?;
                    StreamItem::Instance {
                        at,
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
            let Some(idx) = self.plan_position(PlanId(id)) else {
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
                let Some((slot, pos)) = locate(&plan.groups, SubscriptionId(sub)) else {
                    return Err(CodecError::Invalid("snapshot subscriber missing"));
                };
                plan.groups[slot][pos].delivered = delivered;
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
    fn push_instance(&mut self, key: TimePoint, row: RowRef, meta: ItemMeta) -> Vec<StreamItem> {
        if let Some(wt) = self.trace.as_mut() {
            if self.reorder.watermark().is_some_and(|w| key < w) {
                note_drop(wt, self.shard, TraceId(meta.seq), DropVerdict::Late);
            }
        }
        let item = StreamItem::Instance { at: key, row, meta };
        self.reorder.push_at(key, item)
    }

    fn dispatch_all(&mut self, released: Vec<StreamItem>) {
        // One release stamp per release wave: every item the watermark
        // freed together left the reorder buffer at the same moment,
        // and a clock read per item is measurable on the hot path.
        let release = self.trace.as_ref().map_or(0, |wt| wt.clock.now());
        for item in released {
            match item {
                StreamItem::Instance { at, row, mut meta } => {
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
                    self.dispatch(at, &row, meta);
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

    /// Offers one in-order instance to the plans its hit list names,
    /// evaluating at the instance's observer-local time `at`.
    ///
    /// The router's precision pass made the row's one spatial decision:
    /// the hits name every `(plan, scope slot)` on this shard whose
    /// scope covers the location. The *filter* pass finds each listed
    /// plan by binary search (one retired since routing is skipped) and
    /// checks its event filter, layer filter and region. A passing plan
    /// is evaluated when a group of a listed slot has a member that
    /// registered before the row's ingest. Those eligible members are a
    /// prefix of each group, so the pass counts them, and for
    /// `scope_skipped` the eligible members of the unlisted groups,
    /// without visiting a member. The *eval* pass runs each such plan's
    /// detector ONCE and adds its eligible count to `evaluated` (and to
    /// `eval_errors` on an error). Only an outcome that notifies fans
    /// out, as a k-way merge of the eligible prefixes by subscription id
    /// ([`next_member`]): deliveries interleave across plans and slots
    /// in global registration order, bit-identical to one detector per
    /// subscription. Only rows some plan evaluates are materialized. The
    /// split times filtering (`scope_prune`) apart from evaluation and
    /// fan-out (`evaluate`), and the filters read no state the
    /// evaluators mutate.
    fn dispatch(&mut self, at: TimePoint, row: &RowRef, meta: ItemMeta) {
        let (rows, i) = (&row.chunk.rows, row.index as usize);
        let location = rows.representative(i);
        let layer = rows.layer(i);
        let event = rows.event(i);
        let shard = self.shard;
        let hits = row.hits();
        let mut listed = std::mem::take(&mut self.listed);
        let prune_token = self.obs_start();
        let mut scope_pruned = false;
        let mut start = 0;
        for plan_hits in hits.chunk_by(|a, b| a.plan == b.plan) {
            let range = start..start + plan_hits.len();
            start = range.end;
            let Some(idx) = self.plan_position(plan_hits[0].plan) else {
                continue;
            };
            let plan = &self.plans[idx];
            let plan_passes = plan.event_filter.as_ref().is_none_or(|f| f == event)
                && plan.layers.as_ref().is_none_or(|l| l.contains(&layer))
                && plan.region.covers(location);
            if !plan_passes {
                continue;
            }
            let in_listed: usize = plan_hits
                .iter()
                .filter_map(|h| plan.groups.get(h.slot as usize))
                .map(|group| eligible(group, meta.seq))
                .sum();
            let eligible: usize = plan.groups.iter().map(|g| eligible(g, meta.seq)).sum();
            if eligible > in_listed {
                self.metrics.scope_skipped += (eligible - in_listed) as u64;
                scope_pruned = true;
            }
            if in_listed > 0 {
                listed.push(Listed {
                    plan: idx as u32,
                    hits: range,
                    listed: in_listed as u64,
                    outcome: None,
                });
            }
        }
        self.obs_acc(Stage::ScopePrune, prune_token);
        // A scope-prune verdict is only a *near miss* when nothing else
        // matched the instance — an instance one subscription pruned
        // but another evaluated did contribute, and is no drop.
        if scope_pruned && listed.is_empty() {
            if let Some(wt) = self.trace.as_mut() {
                note_drop(wt, self.shard, TraceId(meta.seq), DropVerdict::ScopePruned);
            }
        }
        let eval_token = self.obs_start();
        if listed.is_empty() {
            // On dense streams most operations match no subscription:
            // they never materialize and skip the evaluate clock read.
            self.obs_acc(Stage::Evaluate, eval_token);
            self.listed = listed;
            return;
        }
        // One evaluate stamp per matched released operation, taken
        // before the detectors run (every notification this dispatch
        // produces shares it; their notify stamps then order them).
        let evaluate = self.trace.as_ref().map_or(0, |wt| wt.clock.now());
        // One materialization per matched row, shared by every plan.
        let instance = &rows.materialize(i);
        let shard32 = u32::try_from(shard).unwrap_or(u32::MAX);
        let mut cursors = std::mem::take(&mut self.cursors);
        for (source, entry) in listed.iter_mut().enumerate() {
            let idx = entry.plan as usize;
            let outcome = self.evaluate_plan(idx, instance, at, location, meta);
            // Counters stay per subscriber: one evaluation (and error)
            // per eligible listed member, as the DES reference counts
            // them.
            self.metrics.evaluated += entry.listed;
            if matches!(outcome, PlanOutcome::Error) {
                self.metrics.eval_errors += entry.listed;
            }
            if outcome.delivers() {
                let plan = &self.plans[idx];
                for h in &hits[entry.hits.clone()] {
                    let Some(group) = plan.groups.get(h.slot as usize) else {
                        continue;
                    };
                    let end = eligible(group, meta.seq);
                    if end > 0 {
                        let c = Cursor {
                            source: source as u32,
                            plan: entry.plan,
                            slot: h.slot,
                            pos: 0,
                            end: end as u32,
                        };
                        push_cursor(&self.plans, &mut cursors, c);
                    }
                }
            }
            entry.outcome = Some(outcome);
        }
        // Fan-out: re-attach each member's identity (its subscription
        // id, delivered count, provenance record) to its plan's output.
        while let Some(c) = next_member(&self.plans, &mut cursors) {
            let member = &mut self.plans[c.plan as usize].groups[c.slot as usize][c.pos as usize];
            match &listed[c.source as usize].outcome {
                Some(PlanOutcome::PlainPass) => {
                    let constituent = Constituent {
                        trace: TraceId(meta.seq),
                        shard: shard32,
                        seq: instance.seq().raw(),
                    };
                    self.metrics.notifications += 1;
                    notify(
                        member,
                        shard,
                        self.trace.as_mut(),
                        NotificationKind::Match(instance.clone()),
                        &[constituent],
                        meta,
                        evaluate,
                    );
                }
                Some(PlanOutcome::Derived(items)) => {
                    for (d, constituents) in items {
                        self.metrics.derived += 1;
                        self.metrics.notifications += 1;
                        notify(
                            member,
                            shard,
                            self.trace.as_mut(),
                            NotificationKind::Derived(d.clone()),
                            constituents,
                            meta,
                            evaluate,
                        );
                    }
                }
                Some(PlanOutcome::Sustained(Some((event, constituents)))) => {
                    self.metrics.notifications += 1;
                    notify(
                        member,
                        shard,
                        self.trace.as_mut(),
                        NotificationKind::Sustained(*event),
                        constituents,
                        meta,
                        evaluate,
                    );
                }
                // No cursor is made for an outcome that notifies nobody.
                _ => {}
            }
        }
        self.obs_acc(Stage::Evaluate, eval_token);
        listed.clear();
        self.listed = listed;
        self.cursors = cursors;
    }

    /// Runs the plan at index `idx` once over `instance`, at its
    /// observer-local time `at`.
    fn evaluate_plan(
        &mut self,
        idx: usize,
        instance: &EventInstance,
        at: TimePoint,
        location: Point,
        meta: ItemMeta,
    ) -> PlanOutcome {
        let shard32 = u32::try_from(self.shard).unwrap_or(u32::MAX);
        let tracing = self.trace.is_some();
        let plan = &mut self.plans[idx];
        match &mut plan.kind {
            EvalKind::Plain => match eval_condition(&plan.condition, &plan.entities, instance) {
                Some(true) => PlanOutcome::PlainPass,
                Some(false) => PlanOutcome::PlainFail,
                None => PlanOutcome::Error,
            },
            EvalKind::Pattern(detector) => {
                // The trace tag threads through the pattern store so
                // each completed match comes back with the ingest
                // sequences of every constituent it bound.
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
                    SustainedValue::Attribute(attr) => match instance.attributes().get_f64(attr) {
                        Some(value) => {
                            state.last_input = Some(at);
                            let v = if state.negate { -value } else { value };
                            Some(state.detector.update_value(at, v))
                        }
                        None => None,
                    },
                    SustainedValue::DistanceTo(reference) => {
                        state.last_input = Some(at);
                        let d = location.distance(*reference);
                        let v = if state.negate { -d } else { d };
                        Some(state.detector.update_value(at, v))
                    }
                    SustainedValue::Condition => {
                        match eval_condition(&plan.condition, &plan.entities, instance) {
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
                        if tracing {
                            // Every accepted sample (the arms above all
                            // set `last_input`) joins the episode's
                            // bounded constituent memory.
                            state.push_constituent(Constituent {
                                trace: TraceId(meta.seq),
                                shard: shard32,
                                seq: instance.seq().raw(),
                            });
                        }
                        PlanOutcome::Sustained(
                            event.map(|e| (e, state.constituents.iter().copied().collect())),
                        )
                    }
                }
            }
        }
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
        let probe = StreamItem::Probe { id, at, seq };
        let released = self.reorder.push_at(at, probe);
        self.dispatch_all(released);
    }

    /// Feeds a sustained subscription its inactive sample if its input
    /// has been silent for the configured timeout.
    ///
    /// Probes are addressed per subscription id; silence-policied
    /// sustained plans never share (the canonicalizer keys them by
    /// subscription), so the addressed subscriber is the plan's only
    /// one — but the fan-out still resolves the member by id rather
    /// than assuming it: each plan's groups are binary-searched for the
    /// id. A probe that left since it was sent finds no member and does
    /// nothing.
    fn silence_probe(&mut self, id: SubscriptionId, at: TimePoint, meta: ItemMeta) {
        let shard = self.shard;
        let Some((idx, (slot, pos))) = self
            .plans
            .iter()
            .enumerate()
            .find_map(|(idx, p)| Some((idx, locate(&p.groups, id)?)))
        else {
            return;
        };
        let PlanState { kind, groups, .. } = &mut self.plans[idx];
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
            self.metrics.notifications += 1;
            notify(
                &mut groups[slot][pos],
                shard,
                self.trace.as_mut(),
                NotificationKind::Sustained(event),
                &constituents,
                meta,
                evaluate,
            );
        }
    }

    /// Stream horizon: releases everything still reordering, then closes
    /// open sustained episodes at `at`.
    ///
    /// Each sustained plan's detector closes ONCE; the resulting event
    /// fans out to its members, merged across plans in global
    /// registration order — the order one-detector-per-subscription
    /// finalization delivered in.
    fn finalize(&mut self, at: TimePoint) {
        let remaining = self.reorder.flush();
        self.dispatch_all(remaining);
        let shard = self.shard;
        let mut closed: Vec<(SustainedEvent, Vec<Constituent>)> = Vec::new();
        let mut cursors = Merge::new();
        for idx in 0..self.plans.len() {
            if let EvalKind::Sustained(state) = &mut self.plans[idx].kind {
                if let Some(event) = state.detector.finish(at) {
                    let source = closed.len() as u32;
                    closed.push((event, state.constituents.iter().copied().collect()));
                    plan_cursors(&self.plans, idx, source, &mut cursors);
                }
            }
        }
        while let Some(c) = next_member(&self.plans, &mut cursors) {
            let (event, constituents) = &closed[c.source as usize];
            let evaluate = self.trace.as_ref().map_or(0, |wt| wt.clock.now());
            self.metrics.notifications += 1;
            // The horizon is an engine-driven close, not an operation:
            // its pre-evaluate stamps are zero.
            notify(
                &mut self.plans[c.plan as usize].groups[c.slot as usize][c.pos as usize],
                shard,
                self.trace.as_mut(),
                NotificationKind::Sustained(*event),
                constituents,
                ItemMeta::default(),
                evaluate,
            );
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
    use crate::batch::RoutedChunk;
    use crate::router::ShardRouter;
    use crate::shard_map::ShardMap;
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

    fn region() -> SpatialExtent {
        SpatialExtent::field(Field::rect(Rect::new(
            Point::new(0.0, 0.0),
            Point::new(100.0, 100.0),
        )))
    }

    /// A one-shard router homing plan 0 over [`region`]: rows routed or
    /// packed through it carry plan 0's hit.
    fn plan_router() -> ShardRouter {
        let mut router = ShardRouter::new(ShardMap::build(region().bounding_box(), 1), 4, true);
        router.subscribe(PlanId(0), region(), None, None);
        router
    }

    /// Active samples at t=10 and t=30 as rows of one chunk, routed as
    /// operations 0 and 1.
    fn two_readings() -> Batch {
        let mut router = plan_router();
        let mut chunk = RoutedChunk::default();
        chunk.rows.push(&reading(10, 2.0));
        chunk.rows.push(&reading(30, 2.0));
        let _ = router.route_batch(chunk);
        router.take_batch(0)
    }

    fn sustained_worker(collector: &Collector) -> ShardWorker {
        let sub = Subscription::new("episode", region(), collector.sink()).sustained_spec(
            SustainedSpec {
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
            },
        );
        let mut worker = ShardWorker::new(0, Duration::ZERO, None, None, 1024, None, None);
        worker.handle(ShardMessage::Subscribe(Box::new(PlanState::compile(
            SubscriptionId(0),
            PlanId(0),
            0,
            sub,
        ))));
        worker
    }

    /// Many notifying (plan, slot) groups at once: the merge pops every
    /// member exactly once, in ascending subscription id, with ids
    /// interleaved across 40 plans and three slots each.
    #[test]
    fn merge_yields_members_in_id_order_across_many_groups() {
        const PLANS: u64 = 40;
        const MEMBERS: u64 = 6;
        let collector = Collector::new();
        let plans: Vec<PlanState> = (0..PLANS)
            .map(|p| {
                let sub = Subscription::new("plain", region(), collector.sink());
                let mut plan = PlanState::compile(SubscriptionId(p), PlanId(p), 0, sub);
                for m in 1..MEMBERS {
                    let id = SubscriptionId(p + m * PLANS);
                    plan.join((m % 3) as u32, Member::new(id, 0, collector.sink()));
                }
                plan
            })
            .collect();
        let mut merge = Merge::new();
        for idx in 0..plans.len() {
            plan_cursors(&plans, idx, idx as u32, &mut merge);
        }
        let mut popped = Vec::new();
        while let Some(c) = next_member(&plans, &mut merge) {
            assert_eq!(c.source, c.plan);
            popped.push(plans[c.plan as usize].groups[c.slot as usize][c.pos as usize].id);
        }
        let expected: Vec<SubscriptionId> = (0..PLANS * MEMBERS).map(SubscriptionId).collect();
        assert_eq!(popped, expected);
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
            held: Vec::new(),
            records: Vec::new(),
            rows: Vec::new(),
            tail_skipped: 0,
            durable_seq: None,
            torn: 0,
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
        let samples = [reading(10, 2.0), reading(30, 2.0)];
        let records = vec![
            WalRecord::Instance {
                seq: 0,
                eval_at: None,
                prefix_high_water: None,
                instance: samples[0].clone(),
            },
            WalRecord::Instance {
                seq: 1,
                eval_at: None,
                prefix_high_water: Some(TimePoint::new(10)),
                instance: samples[1].clone(),
            },
        ];
        worker.handle(ShardMessage::Recover {
            snapshot: None,
            held: Vec::new(),
            rows: plan_router().pack_rows(0, 4, &samples),
            records,
            tail_skipped: 0,
            durable_seq: Some(1),
            torn: 0,
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
        let sub =
            Subscription::new("episode", region(), collector.sink()).sustained_spec(spec.clone());
        worker.handle(ShardMessage::Subscribe(Box::new(PlanState::compile(
            SubscriptionId(0),
            PlanId(0),
            0,
            sub,
        ))));
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
        let sub = Subscription::new("episode", region(), survivor.sink()).sustained_spec(spec);
        worker.handle(ShardMessage::Subscribe(Box::new(PlanState::compile(
            SubscriptionId(0),
            PlanId(0),
            0,
            sub,
        ))));
        let held = plan_router().pack_rows(0, 4, &held_instances(&snapshot.state));
        worker.handle(ShardMessage::Recover {
            snapshot: Some(Box::new(snapshot)),
            held,
            records: Vec::new(),
            rows: Vec::new(),
            tail_skipped: 0,
            durable_seq: Some(2),
            torn: 0,
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
