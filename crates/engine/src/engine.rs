//! The engine facade: lifecycle, ingestion, subscription management,
//! crash recovery.

use crate::config::{
    CheckpointPolicy, Durability, EngineConfig, ExecutionMode, ShardId, TelemetryPolicy,
    TracePolicy, WatchPolicy,
};
use crate::metrics::EngineReport;
use crate::plan::{plan_key, PlanId};
use crate::router::ShardRouter;
use crate::shard_map::ShardMap;
use crate::slot::ShardSlot;
use crate::subscription::{Subscription, SubscriptionId};
use crate::trace::{FlightRing, TraceHandle, TraceReport, WorkerTrace};
use crate::worker::{ShardMessage, ShardWorker, SubscriptionState, WorkerObs};
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use stem_core::timing::{Clock, SpanToken};
use stem_core::TraceClock;
use stem_core::{ColumnarBatch, EventInstance, InstanceSource};
use stem_obs::{ObsRegistry, Recorder, Stage};
use stem_snap::ShardSnapshot;
use stem_temporal::TimePoint;
use stem_wal::{read_shard_tail, wal_shards, RecoveredShard, ShardWal, WalRecord};
use stem_watch::{HealthHandle, Watcher};

/// The engine thread's telemetry state: its own recorder (routing and
/// barrier spans) plus the sampling cadence. (Queue-depth gauges come
/// from the engine's per-shard sent counters, which live on the engine
/// itself — the barrier needs them with telemetry off too.)
struct EngineObs {
    registry: Arc<ObsRegistry>,
    clock: Clock,
    recorder: Recorder,
    every_batches: u64,
    batches_since_sample: u64,
}

/// Routed chunks the ingest pool keeps alive waiting for shard
/// references to drop; beyond this the oldest is released to the
/// allocator.
const POOL_DEPTH: usize = 8;

/// How shard workers are driven.
enum Backend {
    /// Workers run inline on the caller's thread, in shard order.
    Inline(Vec<ShardWorker>),
    /// One thread per shard behind a steal-queue slot (see
    /// [`ShardSlot`]): barriers skip clean shards entirely and drain
    /// dirty ones inline instead of waiting for a wakeup.
    Threaded {
        slots: Vec<Arc<ShardSlot>>,
        handles: Vec<JoinHandle<crate::metrics::ShardMetrics>>,
    },
}

/// One live shared detector plan in the engine's registry: the
/// canonical template every structurally-identical subscription on the
/// same home shard collapses into. The entry tracks how many
/// subscribers ride the plan (last-out retires it) and which routing
/// scopes the plan's router interest already unions.
struct PlanEntry {
    /// The canonical template key ([`plan_key`]) — removed from the
    /// dedupe map when the last subscriber leaves.
    key: String,
    /// The plan's home shard (every subscriber of the plan lives here).
    home: ShardId,
    /// Live subscriber count.
    subscribers: u64,
    /// Debug-rendered scopes already added to the router interest, so
    /// identical scopes don't rebuild the BVH or re-union the bbox.
    scopes: BTreeSet<String>,
}

/// The streaming runtime. See the crate docs for the architecture.
///
/// Lifecycle: [`Engine::start`] → [`Engine::subscribe`] /
/// [`Engine::ingest`] (interleaved freely) → [`Engine::finish`].
pub struct Engine {
    config: EngineConfig,
    router: ShardRouter,
    backend: Backend,
    next_subscription: u64,
    /// Canonical template key → shared plan (the dedupe map).
    plan_keys: HashMap<String, PlanId>,
    /// Live plans by raw id.
    plan_entries: BTreeMap<u64, PlanEntry>,
    /// Subscription → its plan (unsubscribe / silence-probe lookup).
    sub_plans: HashMap<u64, PlanId>,
    /// Next plan id — dense, allocated in registration order so a
    /// recovery replaying the same subscriptions re-derives the same
    /// ids.
    next_plan: u64,
    /// Messages sent per shard over the engine's lifetime. Compared
    /// against each slot's processed counter: equality proves the shard
    /// clean, and [`Engine::sync`] skips it without any cross-thread
    /// traffic — the amortization that makes a barrier per delivery
    /// affordable on the station ingest path. (Also the queue-depth
    /// numerator for telemetry sampling.)
    sent_msgs: Vec<u64>,
    /// First ingest sequence *not* guaranteed durable across every
    /// shard log (0 without recovery): where an upstream re-feed must
    /// resume after [`Engine::recover`].
    resume_seq: u64,
    /// The next checkpoint epoch (continues past a recovered
    /// directory's largest epoch, torn files included, so a snapshot
    /// file name is never reused).
    epoch: u64,
    /// Batches handed to shard workers since the last checkpoint
    /// ([`CheckpointPolicy::EveryNBatches`]).
    batches_since_checkpoint: u64,
    /// The stream-clock high-water mark at the last checkpoint
    /// ([`CheckpointPolicy::EveryTicks`]).
    checkpoint_high_water: Option<TimePoint>,
    started: Instant,
    /// Telemetry state (None with [`TelemetryPolicy::Off`]).
    obs: Option<EngineObs>,
    /// Routed ingest chunks, oldest first, waiting for every shard to
    /// drop its rows so [`Engine::ingest_rows`] can refill them (at
    /// most [`POOL_DEPTH`] + 1).
    pool: Vec<Arc<ColumnarBatch>>,
    /// Per-shard flight-recorder rings (empty with [`TracePolicy::Off`]);
    /// the workers write, [`Engine::trace`] and shutdown read.
    trace_rings: Vec<Arc<Mutex<FlightRing>>>,
    /// The self-monitoring watchdog (`None` with [`WatchPolicy::Off`]):
    /// fed every telemetry snapshot [`Engine::sample`] cuts, shared
    /// with [`Engine::health`] handles.
    watch: Option<Arc<Mutex<Watcher>>>,
    /// Which run over this durable state this is: 0 for a fresh start,
    /// bumped by every [`Engine::recover`] (persisted in the WAL
    /// directory's `run-epoch` file). Stamped into exported telemetry,
    /// trace, and alert records so consumers can key on `(epoch, seq)`
    /// across restarts instead of trusting raw seq continuity.
    run_epoch: u64,
}

impl Engine {
    /// Builds the shard map, spawns the workers (or arranges them
    /// inline in deterministic mode), and starts the clock.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid ([`EngineConfig::validate`]).
    #[must_use]
    pub fn start(config: EngineConfig) -> Self {
        let problems = config.validate();
        assert!(problems.is_empty(), "invalid EngineConfig: {problems:?}");
        let map = ShardMap::build(config.world_bounds, config.shard_count);
        // Each shard's owned region — the union of its Z-order cells —
        // is where the watcher locates that shard's meta events. Read
        // off the map before the router takes ownership of it.
        let shard_regions: Vec<stem_spatial::Rect> = match config.watch {
            WatchPolicy::Off => Vec::new(),
            WatchPolicy::Enabled { .. } => (0..config.shard_count)
                .map(|shard| {
                    map.cells_of_shard(shard)
                        .into_iter()
                        .reduce(|a, b| a.union(&b))
                        .unwrap_or(config.world_bounds)
                })
                .collect(),
        };
        // Under durable logging every operation must reach its owner
        // shard's write-ahead log; without it the router may drop
        // deliveries nothing subscribes to at enqueue time.
        let retain_owner = matches!(config.durability, Durability::Wal { .. });
        let mut router = ShardRouter::new(map, config.batch_size, retain_owner);
        // The trace clock mirrors the telemetry clock split: wall nanos
        // in threaded mode, one shared virtual counter in deterministic
        // mode so stage stamps are bit-reproducible.
        let trace_clock = match (config.trace, config.mode) {
            (TracePolicy::Off, _) => None,
            (_, ExecutionMode::Deterministic) => Some(Arc::new(TraceClock::deterministic())),
            (_, ExecutionMode::Threaded) => Some(Arc::new(TraceClock::wall())),
        };
        let trace_rings: Vec<Arc<Mutex<FlightRing>>> = if trace_clock.is_some() {
            (0..config.shard_count)
                .map(|_| Arc::new(Mutex::new(FlightRing::new(config.trace_ring))))
                .collect()
        } else {
            Vec::new()
        };
        if let Some(clock) = &trace_clock {
            router.set_trace_clock(Arc::clone(clock));
        }
        // Deterministic runs time spans on per-producer virtual clocks
        // (each span counts the clock events it encloses), so the
        // telemetry output itself is bit-reproducible; threaded runs
        // use wall nanos.
        let make_clock = || match config.mode {
            ExecutionMode::Deterministic => Clock::virtual_ticks(),
            ExecutionMode::Threaded => Clock::wall(),
        };
        let registry = match &config.telemetry {
            TelemetryPolicy::Off => None,
            TelemetryPolicy::Sampled { ring, export, .. } => Some(Arc::new(
                ObsRegistry::new(config.shard_count, *ring, export.as_deref())
                    .unwrap_or_else(|e| panic!("open telemetry exporter: {e}")),
            )),
        };
        let make_worker = |shard: ShardId| {
            let (wal, snap_dir) = match &config.durability {
                Durability::None => (None, None),
                Durability::Wal { dir, fsync } => (
                    Some(
                        ShardWal::open(dir, shard, config.wal_segment_bytes, *fsync)
                            .unwrap_or_else(|e| panic!("open wal for shard {shard}: {e}")),
                    ),
                    Some(dir.clone()),
                ),
            };
            let worker_obs = registry
                .as_ref()
                .map(|r| WorkerObs::new(Arc::clone(r), make_clock()));
            let worker_trace = trace_clock.as_ref().map(|clock| {
                WorkerTrace::new(
                    Arc::clone(clock),
                    config.trace,
                    Arc::clone(&trace_rings[shard]),
                )
            });
            ShardWorker::new(
                shard,
                config.watermark_slack,
                wal,
                snap_dir,
                config.wal_checkpoint_every,
                worker_obs,
                worker_trace,
            )
        };
        let backend = match config.mode {
            ExecutionMode::Deterministic => {
                Backend::Inline((0..config.shard_count).map(make_worker).collect())
            }
            ExecutionMode::Threaded => {
                let mut slots = Vec::with_capacity(config.shard_count);
                let mut handles = Vec::with_capacity(config.shard_count);
                for shard in 0..config.shard_count {
                    let slot = Arc::new(ShardSlot::new(make_worker(shard), config.queue_capacity));
                    let runner = Arc::clone(&slot);
                    let handle = std::thread::Builder::new()
                        .name(format!("stem-engine-shard-{shard}"))
                        .spawn(move || runner.run())
                        .expect("spawn shard worker");
                    slots.push(slot);
                    handles.push(handle);
                }
                Backend::Threaded { slots, handles }
            }
        };
        let watch = match &config.watch {
            WatchPolicy::Off => None,
            WatchPolicy::Enabled { ring, export } => {
                let mut specs =
                    stem_watch::builtin_watchers(config.checkpoint != CheckpointPolicy::Never);
                specs.extend(config.watch_specs.iter().cloned());
                Some(Arc::new(Mutex::new(
                    Watcher::new(
                        specs,
                        *ring,
                        export.as_deref(),
                        shard_regions,
                        config.world_bounds,
                    )
                    .unwrap_or_else(|e| panic!("open alert exporter: {e}")),
                )))
            }
        };
        let sent_msgs = vec![0; config.shard_count];
        let obs = registry.map(|registry| {
            let every_batches = match &config.telemetry {
                TelemetryPolicy::Sampled { every_batches, .. } => (*every_batches).max(1),
                TelemetryPolicy::Off => unreachable!("registry implies Sampled"),
            };
            EngineObs {
                registry,
                clock: make_clock(),
                recorder: Recorder::new(),
                every_batches,
                batches_since_sample: 0,
            }
        });
        Engine {
            config,
            router,
            backend,
            next_subscription: 0,
            plan_keys: HashMap::new(),
            plan_entries: BTreeMap::new(),
            sub_plans: HashMap::new(),
            next_plan: 0,
            sent_msgs,
            resume_seq: 0,
            epoch: 0,
            batches_since_checkpoint: 0,
            checkpoint_high_water: None,
            started: Instant::now(),
            obs,
            pool: Vec::new(),
            trace_rings,
            watch,
            run_epoch: 0,
        }
    }

    /// The live health view — the watchdog's alert ring and eviction
    /// count — for out-of-band consumers (a `stemtop`-style alert pane)
    /// and end-of-run inspection. `None` with [`WatchPolicy::Off`].
    #[must_use]
    pub fn health(&self) -> Option<HealthHandle> {
        self.watch
            .as_ref()
            .map(|w| HealthHandle::new(Arc::clone(w)))
    }

    /// Which run over this durable state this is (0 for a fresh start;
    /// [`Engine::recover`] bumps it). Exported telemetry, trace, and
    /// alert records carry it so downstream consumers key on
    /// `(epoch, seq)`.
    #[must_use]
    pub fn run_epoch(&self) -> u64 {
        self.run_epoch
    }

    /// Propagates a recovered run epoch into every exporter that stamps
    /// records with it.
    fn set_run_epoch(&mut self, epoch: u64) {
        self.run_epoch = epoch;
        if let Some(o) = &self.obs {
            o.registry.set_epoch(epoch);
        }
        if let Some(watch) = &self.watch {
            watch.lock().expect("watcher poisoned").set_epoch(epoch);
        }
    }

    /// The live flight-recorder view, for out-of-band consumers (a
    /// `stemtop`-style lineage pane polling the rings). `None` with
    /// [`TracePolicy::Off`].
    #[must_use]
    pub fn trace(&self) -> Option<TraceHandle> {
        (!self.trace_rings.is_empty()).then(|| TraceHandle::new(self.trace_rings.clone()))
    }

    /// The live telemetry registry, for out-of-band consumers (a
    /// `stemtop`-style monitor polling [`ObsRegistry::latest`], or the
    /// scenario driver recording its fold-back spans). `None` with
    /// [`TelemetryPolicy::Off`].
    #[must_use]
    pub fn obs(&self) -> Option<Arc<ObsRegistry>> {
        self.obs.as_ref().map(|o| Arc::clone(&o.registry))
    }

    /// Opens an engine-thread telemetry span.
    fn obs_span(&self) -> Option<SpanToken> {
        self.obs.as_ref().map(|o| o.clock.start())
    }

    /// Closes an engine-thread telemetry span: one histogram sample.
    fn obs_record(&mut self, stage: Stage, token: Option<SpanToken>) {
        self.obs_record_minus(stage, token, 0);
    }

    /// Closes a span but discounts `minus` nanoseconds — the barrier
    /// path uses it to subtract stolen shard work (already recorded
    /// under its real stages on the worker recorders) so `barrier_wait`
    /// measures coordination, not relocated evaluation.
    fn obs_record_minus(&mut self, stage: Stage, token: Option<SpanToken>, minus: u64) {
        if let (Some(o), Some(t)) = (self.obs.as_mut(), token) {
            let elapsed = o.clock.elapsed(&t).saturating_sub(minus);
            o.recorder.record_stage(stage, elapsed);
        }
    }

    /// Cuts a telemetry snapshot if enough batches went out since the
    /// last one: refreshes the engine gauges from the router's live
    /// counters, publishes the engine recorder, and has the registry
    /// merge every slot into the ring (and the exporter, if attached).
    fn maybe_sample(&mut self) {
        let due = self
            .obs
            .as_ref()
            .is_some_and(|o| o.batches_since_sample >= o.every_batches);
        if due {
            self.sample();
        }
    }

    /// The live plan-registry stats: `(plans_active, plan_subscribers,
    /// plan_subscribers_max)`. `subscribers / active` is the engine's
    /// dedupe ratio.
    fn plan_stats(&self) -> (u64, u64, u64) {
        let active = self.plan_entries.len() as u64;
        let mut subscribers = 0u64;
        let mut max = 0u64;
        for entry in self.plan_entries.values() {
            subscribers += entry.subscribers;
            max = max.max(entry.subscribers);
        }
        (active, subscribers, max)
    }

    /// Unconditionally cuts a telemetry snapshot (no-op with telemetry
    /// off).
    fn sample(&mut self) {
        let high_water = self.router.high_water();
        let router_metrics = self.router.metrics();
        let routed = router_metrics.routed;
        let fanout = router_metrics.fanout;
        let bvh_nodes = router_metrics.bvh_nodes_visited;
        let precision_skipped = router_metrics.precision_skipped;
        let (plans_active, plan_subscribers, plan_subscribers_max) = self.plan_stats();
        let sent = self.sent_msgs.clone();
        // How far the stream clock has run past the last completed
        // checkpoint — what the snapshot-age watcher reads.
        let checkpoint_age = match self.config.checkpoint {
            CheckpointPolicy::Never => None,
            _ => Some(high_water.map_or(0, |hw| {
                let last = self.checkpoint_high_water.map_or(0, TimePoint::ticks);
                hw.ticks().saturating_sub(last)
            })),
        };
        let Some(o) = self.obs.as_mut() else {
            return;
        };
        o.batches_since_sample = 0;
        o.recorder.set_gauge("routed", routed);
        o.recorder.set_gauge("fanout", fanout);
        o.recorder.set_gauge("bvh_nodes", bvh_nodes);
        o.recorder.set_gauge("precision_skipped", precision_skipped);
        o.recorder.set_gauge("plans_active", plans_active);
        o.recorder.set_gauge("plan_subscribers", plan_subscribers);
        o.recorder
            .set_gauge("plan_subscribers_max", plan_subscribers_max);
        if let Some(age) = checkpoint_age {
            o.recorder.set_gauge("checkpoint_age_ticks", age);
        }
        o.registry.publish_engine(&o.recorder);
        let snapshot = o.registry.sample(high_water.map(TimePoint::ticks), &sent);
        // The watchdog runs here, at sampling cadence, on the snapshot
        // just cut: zero cost on the per-event hot path, and the seq
        // time axis keeps deterministic runs bit-identical.
        if let Some(watch) = &self.watch {
            let _ = watch.lock().expect("watcher poisoned").observe(&snapshot);
        }
    }

    /// The configuration the engine runs with.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Registers a subscription on its home shard (the owner of its
    /// routing scope's center, or of the home hint clamped into the
    /// scope) and returns its id.
    ///
    /// Ordering: the subscription observes every instance its home
    /// shard's reorder buffer releases after this call — all later
    /// ingests, plus any earlier ones that actually reached the shard
    /// and are still held behind the watermark at registration time.
    /// (Without durable logging the router drops deliveries no
    /// then-registered subscription covers, so a late subscriber only
    /// sees held instances that some earlier interest — or the owner
    /// copy kept by [`Durability::Wal`] — brought to its home shard.)
    pub fn subscribe(&mut self, subscription: Subscription) -> SubscriptionId {
        let id = SubscriptionId(self.next_subscription);
        self.next_subscription += 1;
        let scope = subscription.routing_scope().clone();
        let home = self.router.home_for(&scope, subscription.home_hint);
        let key = plan_key(&subscription, home, id);
        let plan = match self.plan_keys.get(&key) {
            Some(&plan) => {
                // Join an existing plan: one more subscriber on the
                // same detector instance. Widen the router interest
                // only if this scope is genuinely new to the plan.
                let entry = self
                    .plan_entries
                    .get_mut(&plan.raw())
                    .expect("keyed plan has an entry");
                entry.subscribers += 1;
                if entry.scopes.insert(format!("{scope:?}")) {
                    self.router
                        .add_scope(plan, scope, subscription.layers.as_deref());
                }
                plan
            }
            None => {
                let plan = PlanId(self.next_plan);
                self.next_plan += 1;
                let scope_tag = format!("{scope:?}");
                let routed_home = self.router.subscribe(
                    plan,
                    scope,
                    subscription.layers.as_deref(),
                    subscription.home_hint,
                );
                debug_assert_eq!(routed_home, home, "home_for disagrees with subscribe");
                self.plan_keys.insert(key.clone(), plan);
                self.plan_entries.insert(
                    plan.raw(),
                    PlanEntry {
                        key,
                        home,
                        subscribers: 1,
                        scopes: BTreeSet::from([scope_tag]),
                    },
                );
                plan
            }
        };
        self.sub_plans.insert(id.raw(), plan);
        let state = SubscriptionState::compile(id, plan, subscription);
        // Flush anything already routed so registration order is
        // preserved relative to the instance stream.
        self.flush_shard(home);
        self.send(home, ShardMessage::Subscribe(Box::new(state)));
        id
    }

    /// Retires a subscription. Returns `false` if the id is unknown.
    ///
    /// Instances still held behind the watermark at this point are
    /// forfeited: they release after the retirement takes effect and
    /// the subscription no longer observes them.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        let Some(plan) = self.sub_plans.remove(&id.raw()) else {
            return false;
        };
        let entry = self
            .plan_entries
            .get_mut(&plan.raw())
            .expect("subscribed plan has an entry");
        entry.subscribers -= 1;
        let home = entry.home;
        if entry.subscribers == 0 {
            // Last subscriber out retires the shared plan: drop the
            // dedupe key and the router interest with it.
            let entry = self
                .plan_entries
                .remove(&plan.raw())
                .expect("entry checked above");
            self.plan_keys.remove(&entry.key);
            let removed = self.router.unsubscribe(plan);
            debug_assert_eq!(removed, Some(home), "router lost a live plan interest");
        }
        self.flush_shard(home);
        self.send(home, ShardMessage::Unsubscribe(id));
        true
    }

    /// Ingests one instance: routes it (owner shard + broadcast to
    /// interested shards) and hands off any batch that filled up.
    pub fn ingest(&mut self, instance: EventInstance) {
        self.ingest_rows(std::iter::once((instance, None)));
    }

    /// Ingests one instance with an explicit observer-local evaluation
    /// time: `at` becomes the stream-clock sample, the reorder key, and
    /// the clock pattern/sustained evaluation runs on — the station
    /// ingest path, where instances arrive (and are evaluated) later
    /// than they were generated upstream.
    pub fn ingest_at(&mut self, instance: EventInstance, at: TimePoint) {
        self.ingest_rows(std::iter::once((instance, Some(at))));
    }

    /// Ingests an entire stream. This and the other entry points —
    /// [`Engine::ingest`], [`Engine::ingest_at`], [`Engine::pump`] —
    /// share one path: instances, each with its optional evaluation
    /// time, are gathered into arena-backed [`ColumnarBatch`] chunks,
    /// and the router, the interest masks, and the precision pass
    /// iterate each chunk's flat columns instead of touching each
    /// instance's heap allocations. A chunk is routed as soon as it
    /// holds `batch_size` rows, and a partial chunk before the call
    /// returns, so every call routes everything it was given. Shard
    /// workers receive shared references into the chunk and only
    /// re-materialize the rows that actually reach evaluation or the
    /// write-ahead log. The engine keeps routed chunks in a small pool
    /// and refills one once every shard has dropped its reference, so
    /// steady-state ingest reuses the same arenas instead of
    /// reallocating per chunk.
    ///
    /// Accepts owned instances or references: the columnar build only
    /// *reads* each instance (columns and arena rows are copies), so a
    /// caller that keeps its stream can pass `stream.iter()` and skip
    /// a full deep-clone pass.
    pub fn ingest_all<I>(&mut self, instances: I)
    where
        I: IntoIterator,
        I::Item: Borrow<EventInstance>,
    {
        self.ingest_rows(instances.into_iter().map(|instance| (instance, None)));
    }

    /// Drains an [`InstanceSource`] through the ingest path, each
    /// instance evaluated at its recorded arrival time (as
    /// [`Engine::ingest_at`] would): the replay path for recorded
    /// station streams.
    pub fn pump<S: InstanceSource>(&mut self, source: &mut S) {
        let timed = std::iter::from_fn(|| source.next_timed());
        self.ingest_rows(timed.map(|timed| (timed.instance, Some(timed.at))));
    }

    /// The one ingest path every entry point wraps (see
    /// [`Engine::ingest_all`]): fills pooled chunks from `rows`, routing
    /// each at `batch_size` rows and the last partial one before
    /// returning.
    fn ingest_rows<T: Borrow<EventInstance>>(
        &mut self,
        rows: impl Iterator<Item = (T, Option<TimePoint>)>,
    ) {
        let chunk_rows = self.config.batch_size.max(1);
        let mut rows = rows.peekable();
        while rows.peek().is_some() {
            // One ingest stamp per chunk fill, carried in the chunk's
            // stamp column: all rows of a chunk entered the engine in
            // the same call, and a clock read per row is the dominant
            // tracing cost on this path.
            let ingest_stamp = self.router.trace_stamp();
            let reset_token = self.obs_span();
            let mut chunk = self.recycled_chunk(rows.size_hint().0.clamp(1, chunk_rows));
            self.obs_record(Stage::BatchReset, reset_token);
            let build_token = self.obs_span();
            for (instance, eval_at) in rows.by_ref().take(chunk_rows) {
                chunk.push_at(instance.borrow(), eval_at, ingest_stamp);
            }
            self.obs_record(Stage::BatchBuild, build_token);
            let shared = Arc::new(chunk);
            let ingest_token = self.obs_span();
            let route_token = self.obs_span();
            let full = self.router.route_batch(&shared);
            self.obs_record(Stage::Route, route_token);
            for shard in full {
                self.flush_shard(shard);
            }
            self.obs_record(Stage::Ingest, ingest_token);
            self.pool.push(shared);
            self.maybe_checkpoint();
            self.maybe_sample();
        }
    }

    /// An empty chunk to fill: the first pooled chunk every shard has
    /// let go of, reset (keeping its arena capacity and interners), or
    /// a fresh one with `rows` rows reserved up front. `try_unwrap`
    /// cannot race: this thread holds the only other clone.
    fn recycled_chunk(&mut self, rows: usize) -> ColumnarBatch {
        if let Some(idx) = self.pool.iter().position(|c| Arc::strong_count(c) == 1) {
            if let Ok(mut chunk) = Arc::try_unwrap(self.pool.swap_remove(idx)) {
                chunk.reset();
                return chunk;
            }
        }
        if self.pool.len() > POOL_DEPTH {
            // Nothing reclaimable: stop pinning the oldest chunk
            // ourselves (it frees once its shards drop it).
            self.pool.remove(0);
        }
        // One reserve per column instead of geometric growth re-paid on
        // every chunk (with lazily-woken workers, whole ingest runs can
        // pass before anything is reclaimable).
        ColumnarBatch::with_capacity(rows)
    }

    /// Re-feeds a recorded operation stream ([`stem_wal::Replay::records`])
    /// through the live ingest path: instances via
    /// [`Engine::ingest_at`] / [`Engine::ingest`], silence probes via
    /// [`Engine::probe_silence`]. Against subscriptions registered in
    /// the original order, a full-stream replay reproduces the original
    /// detection multiset bit-for-bit in deterministic mode; after
    /// [`Engine::recover`], the tail from [`Engine::resume_from`]
    /// resumes the run (overlap with shard logs deduplicates per
    /// shard).
    ///
    /// # Panics
    ///
    /// Panics if the stream has a sequence gap (an operation lost to a
    /// torn shard log — resume from a complete upstream copy instead)
    /// or if a probe references a subscription that was not
    /// re-registered.
    pub fn replay_records<'a>(&mut self, records: impl IntoIterator<Item = &'a WalRecord>) {
        for record in records {
            assert_eq!(
                record.seq(),
                self.router.seq(),
                "replay stream has a gap at sequence {} — the log is missing \
                 operations (torn shard?); resume from a complete upstream copy",
                self.router.seq(),
            );
            match record {
                WalRecord::Instance {
                    eval_at, instance, ..
                } => match eval_at {
                    Some(at) => self.ingest_at(instance.clone(), *at),
                    None => self.ingest(instance.clone()),
                },
                WalRecord::Probe {
                    subscription, at, ..
                } => {
                    assert!(
                        self.probe_silence(SubscriptionId(*subscription), *at),
                        "replayed probe for unknown subscription {subscription} — \
                         re-register the original subscriptions in order before replaying",
                    );
                }
                // Heartbeats and checkpoints are derived by the live
                // path; Replay::records never yields them.
                WalRecord::Heartbeat { .. } | WalRecord::Watermark { .. } => {}
            }
        }
    }

    /// The first ingest sequence *not* guaranteed durable across every
    /// shard log: where an upstream re-feed should resume after
    /// [`Engine::recover`] (0 for an engine that did not recover).
    #[must_use]
    pub fn resume_from(&self) -> u64 {
        self.resume_seq
    }

    /// Begins crash recovery from the write-ahead logs (and checkpoint
    /// snapshots) named by `config.durability` (which must be
    /// [`Durability::Wal`]; the directory holds a previous run's logs
    /// and snapshots — possibly torn by the crash).
    ///
    /// Recovery is a three-step handshake, because replay can only
    /// deliver into registered subscriptions:
    ///
    /// 1. `Engine::recover(config)` picks the **checkpoint floor** —
    ///    the newest snapshot epoch valid on *every* shard (a file torn
    ///    by a crash mid-checkpoint fails its checksum and degrades the
    ///    floor to the previous epoch; no snapshots at all degrades to
    ///    full-log replay) — then reads only each shard's WAL *tail*
    ///    from the floor snapshot's segment on, repairs torn tails
    ///    (truncating them on disk), and computes the resume point;
    /// 2. the caller re-registers its subscriptions on the returned
    ///    [`Recovery`] **in the original registration order** (ids are
    ///    reassigned deterministically, so logged probe records and
    ///    snapshot detector state resolve);
    /// 3. [`Recovery::resume`] restores each shard's snapshot state and
    ///    replays its tail records through the normal evaluation path —
    ///    rebuilding reorder and detector state and re-delivering the
    ///    *tail's* notifications into the fresh sinks (notifications
    ///    the snapshot covers are compressed into state, not
    ///    re-delivered; see [`Recovery::snapshot_delivered`]) — and
    ///    returns the live engine. In deterministic mode the resumed
    ///    engine continues bit-identically to an uninterrupted run fed
    ///    the same stream, with or without a usable snapshot.
    ///
    /// The upstream should then re-feed everything from
    /// [`Engine::resume_from`] on; operations the snapshots or shard
    /// logs already hold are deduplicated per shard by sequence number.
    ///
    /// Every shard restores from the *same* epoch so the snapshot set
    /// is a consistent cut of the global operation stream: mixing
    /// epochs would seed the recovered stream clock with keys from
    /// operations past the resume point and skew late-drop decisions.
    ///
    /// # Errors
    ///
    /// Returns a [`RecoverError`] when scanning or reading the WAL
    /// directory or the snapshot epochs fails — a transient I/O
    /// failure or format corruption, distinguishable from "no durable
    /// state" (an absent or empty directory recovers cleanly with
    /// `resume_from() == 0`). Torn tails and torn snapshots are
    /// *fallbacks*, not errors.
    ///
    /// # Panics
    ///
    /// Panics only on invariant violations: a configuration without a
    /// WAL or failing [`EngineConfig::validate`], a directory written
    /// with more shards than configured, or a compacted segment chain
    /// no retained snapshot covers (damage beyond the single-crash
    /// fault model).
    pub fn recover(config: EngineConfig) -> Result<Recovery, RecoverError> {
        let Durability::Wal { dir, .. } = &config.durability else {
            panic!("Engine::recover requires Durability::Wal");
        };
        let dir = dir.clone();
        let found = wal_shards(&dir).map_err(RecoverError::Wal)?;
        assert!(
            found.iter().all(|&s| s < config.shard_count),
            "wal at {} was written with more shards than the config's {}",
            dir.display(),
            config.shard_count,
        );
        // Validate every retained snapshot per shard (a handful of
        // small files), rejecting torn/corrupt/mismatched ones. Only
        // the *scan* can fail hard; an unreadable snapshot file is a
        // torn-write fallback.
        let mut snapshots_rejected = 0;
        let mut per_shard: Vec<Vec<ShardSnapshot>> = Vec::with_capacity(config.shard_count);
        for shard in 0..config.shard_count {
            let chain = stem_snap::list_snapshots(&dir, shard).map_err(RecoverError::Snap)?;
            let mut valid = Vec::new();
            for (epoch, path) in chain {
                match stem_snap::read_snapshot(&path) {
                    Ok(s) if s.shard == shard && s.epoch == epoch => valid.push(s),
                    _ => snapshots_rejected += 1,
                }
            }
            per_shard.push(valid);
        }
        // The checkpoint floor: the newest epoch every shard holds a
        // valid snapshot for. A crash tears at most the epoch being
        // written, and retention keeps >= 2 epochs, so within the
        // single-crash fault model the floor is the newest or the
        // previous epoch; with no common epoch every shard replays its
        // full log (which compaction has provably not touched yet).
        let floor: Option<u64> = per_shard
            .first()
            .into_iter()
            .flat_map(|v| v.iter().rev())
            .map(|s| s.epoch)
            .find(|epoch| {
                per_shard[1..]
                    .iter()
                    .all(|v| v.iter().any(|s| s.epoch == *epoch))
            });
        // Read and repair *before* Engine::start opens fresh segments,
        // so repair never mistakes them for post-torn history. With a
        // floor snapshot, only the tail from its active segment on is
        // read at all — the bounded-time part of bounded-time recovery.
        let mut plan: Vec<ShardPlan> = Vec::with_capacity(per_shard.len());
        for (shard, mut valid) in per_shard.into_iter().enumerate() {
            let snapshot = floor.and_then(|epoch| {
                valid
                    .iter()
                    .position(|s| s.epoch == epoch)
                    .map(|i| valid.swap_remove(i))
            });
            let from_segment = snapshot.as_ref().map_or(0, |s| s.active_segment);
            let recovered =
                read_shard_tail(&dir, shard, true, from_segment).map_err(RecoverError::Wal)?;
            // A segment chain starting above the requested bound
            // means compaction retired segments this recovery needs
            // (damage beyond a single crash — e.g. an older
            // snapshot corrupted independently of the crash that
            // tore the newest). Refuse loudly: resuming would
            // silently drop part of the durable history.
            if let Some(first) = recovered.first_segment {
                assert!(
                    first <= from_segment,
                    "shard {shard}: recovery needs wal segments from {from_segment} \
                     but the chain starts at {first} — compaction already retired \
                     them and no valid snapshot covers them; the snapshot fallback \
                     chain at {} is broken beyond single-crash repair",
                    dir.display(),
                );
            }
            let durable_seq = snapshot
                .as_ref()
                .and_then(|s| s.next_seq.checked_sub(1))
                .into_iter()
                .chain(recovered.durable_seq)
                .max();
            plan.push(ShardPlan {
                snapshot,
                recovered,
                durable_seq,
            });
        }
        // Resume where the *least* durable shard ends: everything below
        // is provably covered — by the shard's snapshot (a compressed
        // prefix of its log) or by the log itself (appends are ordered,
        // so a shard's log holds every operation routed to it up to its
        // own durable maximum).
        let resume_seq = plan
            .iter()
            .map(|p| p.durable_seq.map_or(0, |d| d + 1))
            .min()
            .unwrap_or(0);
        // Seed the router's stream clock with what it had seen by the
        // resume point, so re-fed operations get their original prefix
        // high-water stamps (bit-identical late-drop decisions). The
        // floor snapshot's high-water mark summarizes everything below
        // its cut (`next_seq <= resume_seq` because every shard is
        // durable at least through the shared floor); tail records
        // strictly below the resume point supply the rest.
        let mut high_water: Option<TimePoint> = None;
        let mut note = |t: TimePoint| {
            high_water = Some(high_water.map_or(t, |h| h.max(t)));
        };
        for p in &plan {
            if let Some(hw) = p.snapshot.as_ref().and_then(|s| s.high_water) {
                note(hw);
            }
        }
        for record in plan.iter().flat_map(|p| &p.recovered.records) {
            match record {
                WalRecord::Instance {
                    seq,
                    eval_at,
                    instance,
                    ..
                } if *seq < resume_seq => {
                    note(eval_at.unwrap_or_else(|| instance.generation_time()));
                }
                // A heartbeat's seq is the exclusive bound of the
                // prefix it summarizes (ops with seq strictly below
                // it), so it may seed the clock exactly when that whole
                // prefix is below the resume point.
                WalRecord::Heartbeat {
                    seq,
                    high_water: hw,
                } if *seq <= resume_seq => note(*hw),
                _ => {}
            }
        }
        let stats = RecoveryStats {
            resume_seq,
            records: plan.iter().map(|p| p.recovered.records.len() as u64).sum(),
            torn_truncations: plan.iter().map(|p| p.recovered.torn_truncations).sum(),
            snapshot_epoch: floor,
            snapshots_loaded: plan.iter().filter(|p| p.snapshot.is_some()).count() as u64,
            snapshots_rejected,
        };
        let mut engine = Engine::start(config);
        engine.router.seed_recovery(resume_seq, high_water);
        engine.resume_seq = resume_seq;
        engine.checkpoint_high_water = high_water;
        // Telemetry/trace/alert seqs restart at 0 in the recovered run,
        // so bare seq continuity across a recovery is a lie. Stamp which
        // run this is — read the previous run's epoch from the WAL
        // directory (fresh runs are epoch 0 and write no file), bump
        // it, and thread it into every exporter so consumers key on
        // `(epoch, seq)`.
        let run_epoch = std::fs::read_to_string(dir.join("run-epoch"))
            .ok()
            .and_then(|text| text.trim().parse::<u64>().ok())
            .map_or(1, |prev| prev + 1);
        std::fs::write(dir.join("run-epoch"), format!("{run_epoch}\n"))
            .unwrap_or_else(|e| panic!("write run-epoch in {}: {e}", dir.display()));
        engine.set_run_epoch(run_epoch);
        // Continue epoch numbering past everything on disk (torn files
        // included) so a snapshot file name is never reused.
        engine.epoch = stem_snap::max_epoch(&dir)
            .map_err(RecoverError::Snap)?
            .map_or(0, |e| e + 1);
        Ok(Recovery {
            engine,
            plan,
            stats,
        })
    }

    /// Sends a silence heartbeat to one sustained subscription (see
    /// [`crate::SilenceSpec`]): if its input has been quiet for the
    /// configured timeout, the inactive sample is fed at `at` so open
    /// episodes can close. Returns `false` for unknown ids.
    ///
    /// The probe rides the home shard's reorder buffer like any other
    /// stream entry: it reaches the detector in stream order (earlier
    /// samples still held behind the watermark slack evaluate first),
    /// advances that shard's stream clock to `at`, and is discarded as
    /// stale if the watermark has already passed `at`.
    pub fn probe_silence(&mut self, id: SubscriptionId, at: TimePoint) -> bool {
        let Some(home) = self
            .sub_plans
            .get(&id.raw())
            .and_then(|plan| self.plan_entries.get(&plan.raw()))
            .map(|entry| entry.home)
        else {
            return false;
        };
        // Flush first so the probe lands after everything routed so far.
        self.flush_shard(home);
        // Probes consume ingest sequence numbers from the same counter
        // as instances, so the write-ahead logs carry a total order over
        // all operations. The prefix stamp rides along so the worker's
        // staleness check does not depend on heartbeat delivery (which
        // clean-shard suppression may elide).
        let seq = self.router.take_seq();
        let prefix_high_water = self.router.high_water();
        self.send(
            home,
            ShardMessage::SilenceProbe {
                id,
                at,
                seq,
                prefix_high_water,
            },
        );
        self.maybe_checkpoint();
        self.maybe_sample();
        true
    }

    /// Fires a checkpoint if the configured policy says one is due.
    fn maybe_checkpoint(&mut self) {
        let due = match self.config.checkpoint {
            CheckpointPolicy::Never => false,
            CheckpointPolicy::EveryNBatches(n) => self.batches_since_checkpoint >= n.max(1),
            CheckpointPolicy::EveryTicks(t) => match self.router.high_water() {
                None => false,
                Some(hw) => {
                    let last = self.checkpoint_high_water.map_or(0, TimePoint::ticks);
                    hw.ticks().saturating_sub(last) >= t.max(1)
                }
            },
        };
        if due {
            self.checkpoint();
        }
    }

    /// Cuts a consistent checkpoint across every shard, synchronously:
    /// flushes pending batches, then has each shard worker — behind the
    /// same barrier semantics as [`Engine::sync`] — make its log
    /// durable, serialize its full evaluation state (reorder buffer,
    /// watermark clock, per-subscription detector/sustained state) into
    /// an atomically-written, checksummed snapshot file, prune old
    /// epochs, and retire WAL segments wholly behind the oldest
    /// retained snapshot. All shards snapshot the same stream-clock
    /// epoch: the barrier guarantees each shard's state is exactly the
    /// evaluation of the global operation prefix routed to it.
    ///
    /// Checkpoints fire automatically per [`CheckpointPolicy`]; calling
    /// this directly cuts one on demand (e.g. before a planned
    /// shutdown, so the next start recovers in bounded time).
    ///
    /// # Panics
    ///
    /// Panics without [`Durability::Wal`] (a snapshot is a compressed
    /// log prefix; there is nothing to compress), and on filesystem
    /// failures while writing.
    pub fn checkpoint(&mut self) {
        assert!(
            matches!(self.config.durability, Durability::Wal { .. }),
            "Engine::checkpoint requires Durability::Wal"
        );
        self.flush();
        let epoch = self.epoch;
        self.epoch += 1;
        let next_seq = self.router.seq();
        let high_water = self.router.high_water();
        let (ack, done) = std::sync::mpsc::channel();
        for shard in 0..self.config.shard_count {
            self.send(
                shard,
                ShardMessage::Checkpoint {
                    epoch,
                    next_seq,
                    high_water,
                    ack: ack.clone(),
                },
            );
        }
        drop(ack);
        // Steal-drain every shard inline (snapshot writes included), so
        // the ack loop below returns without parking; inline workers
        // already ran synchronously and their acks are queued. Either
        // way the barrier is total, so every shard is clean afterwards.
        // `barrier_wait` records the coordination remainder: the stolen
        // work times itself on the worker clocks (snapshot writes as
        // `snapshot_cut`, evaluation as its usual stages).
        let token = self.obs_span();
        let mut stolen_ns = 0u64;
        if let Backend::Threaded { slots, .. } = &self.backend {
            for slot in slots {
                stolen_ns = stolen_ns.saturating_add(slot.steal());
            }
        }
        while done.recv().is_ok() {}
        self.obs_record_minus(Stage::BarrierWait, token, stolen_ns);
        self.batches_since_checkpoint = 0;
        self.checkpoint_high_water = high_water;
    }

    /// Flushes every pending batch and, in threaded mode, blocks until
    /// every shard worker has processed everything sent so far. After
    /// `sync` returns, every prior ingest has been evaluated and its
    /// notifications delivered — except instances a nonzero watermark
    /// slack still holds for reordering, which notify once the
    /// watermark passes them. The station ingest path (zero slack)
    /// relies on this for synchronous fold-back of derived instances.
    ///
    /// The barrier is wait-free: a *clean* shard — one whose processed
    /// counter already matches everything the engine sent it — costs
    /// two atomic loads and no cross-thread traffic at all, and a dirty
    /// shard's remaining queue is *stolen* from its steal-queue slot and
    /// drained inline on the calling thread instead of parking on an ack
    /// round trip. No sync messages, no wakeups, no context switches.
    /// The flush underneath still cuts heartbeat-only batches only when
    /// the stream clock advanced and the shard might act on it (a
    /// heartbeat to an idle shard with an empty reorder buffer is
    /// suppressed), so a caller syncing once per delivery pays for
    /// exactly the shards that delivery touched.
    pub fn sync(&mut self) {
        self.flush();
        let dirty: Vec<usize> = match &self.backend {
            Backend::Inline(_) => return,
            Backend::Threaded { slots, .. } => slots
                .iter()
                .enumerate()
                .filter(|(shard, slot)| slot.processed() < self.sent_msgs[*shard])
                .map(|(shard, _)| shard)
                .collect(),
        };
        if dirty.is_empty() {
            return;
        }
        // One `barrier_wait` sample per sync that had anything to steal.
        // The stolen work's own stages land on the worker recorders as
        // usual, and its time is subtracted here: what remains is the
        // true synchronization cost (locks, queue ops, waiting) — a
        // sync that merely relocates evaluation onto this thread is not
        // a barrier tax.
        let token = self.obs_span();
        let mut stolen_ns = 0u64;
        if let Backend::Threaded { slots, .. } = &self.backend {
            for shard in dirty {
                stolen_ns = stolen_ns.saturating_add(slots[shard].steal());
            }
        }
        self.obs_record_minus(Stage::BarrierWait, token, stolen_ns);
    }

    /// Flushes every partially-filled batch without shutting down,
    /// and sends the current watermark heartbeat to *every* shard — a
    /// shard whose territory has gone quiet otherwise holds reordered
    /// instances until [`Engine::finish`]. Live-stream drivers should
    /// call this periodically.
    pub fn flush(&mut self) {
        for shard in 0..self.config.shard_count {
            self.flush_shard(shard);
        }
    }

    /// Flushes remaining batches, drains every shard's reorder buffer,
    /// joins the workers, and returns the run's report.
    ///
    /// # Panics
    ///
    /// Panics if a shard worker panicked.
    #[must_use]
    pub fn finish(mut self) -> EngineReport {
        self.flush();
        self.shutdown()
    }

    /// Like [`Engine::finish`], but first finalizes the stream at the
    /// given horizon: every shard drains its reorder buffer and closes
    /// open sustained episodes at `horizon` (scenario end — the paper's
    /// simulation horizon), delivering their `Ended` notifications
    /// before shutdown.
    ///
    /// # Panics
    ///
    /// Panics if a shard worker panicked.
    #[must_use]
    pub fn finish_at(mut self, horizon: TimePoint) -> EngineReport {
        self.flush();
        for shard in 0..self.config.shard_count {
            self.send(shard, ShardMessage::Finalize(horizon));
        }
        self.shutdown()
    }

    /// Joins the workers and assembles the report.
    fn shutdown(mut self) -> EngineReport {
        let shards: Vec<crate::metrics::ShardMetrics> = match std::mem::replace(
            &mut self.backend,
            Backend::Threaded {
                slots: Vec::new(),
                handles: Vec::new(),
            },
        ) {
            Backend::Inline(workers) => workers.into_iter().map(ShardWorker::finish).collect(),
            Backend::Threaded { slots, handles } => {
                // Closing the slots ends the worker loops; each worker
                // drains its remaining queue, flushes, and returns its
                // counters.
                for slot in &slots {
                    slot.close();
                }
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard worker panicked"))
                    .collect()
            }
        };
        // Workers are joined (every slot holds its final publish):
        // cut the closing snapshot, then fold the registry down.
        self.sample();
        let obs = self.obs.take().map(|o| o.registry.report());
        // Workers are quiesced, so the rings hold their final contents:
        // fold them into the report (shard order) and drain them to the
        // export file if one is configured.
        let trace = (!self.trace_rings.is_empty()).then(|| {
            let mut report = TraceReport::default();
            for ring in &self.trace_rings {
                let ring = ring.lock().expect("trace ring poisoned");
                report.records.extend(ring.snapshot());
                report.evicted += ring.evicted();
            }
            report
        });
        if let (Some(report), Some(path)) = (&trace, &self.config.trace_export) {
            let mut out = String::new();
            for record in &report.records {
                out.push_str(&record.to_json_line_at(self.run_epoch));
                out.push('\n');
            }
            std::fs::write(path, out)
                .unwrap_or_else(|e| panic!("write trace export {}: {e}", path.display()));
        }
        // The closing sample above already ran through the watcher, so
        // its report carries any alert the final snapshot confirmed.
        let health = self
            .watch
            .take()
            .map(|w| w.lock().expect("watcher poisoned").report());
        let (plans_active, plan_subscribers, plan_subscribers_max) = self.plan_stats();
        EngineReport {
            shards,
            router: self.router.take_metrics(),
            elapsed: self.started.elapsed(),
            obs,
            trace,
            health,
            plans_active,
            plan_subscribers,
            plan_subscribers_max,
        }
    }

    /// Whether `shard` has processed everything sent to it *and* holds
    /// nothing in its reorder buffer — a shard a watermark heartbeat
    /// could not cause to release anything.
    fn shard_idle_and_empty(&self, shard: ShardId) -> bool {
        match &self.backend {
            Backend::Inline(workers) => workers[shard].reorder_pending() == 0,
            Backend::Threaded { slots, .. } => {
                let slot = &slots[shard];
                slot.processed() == self.sent_msgs[shard] && slot.held() == 0
            }
        }
    }

    /// Hands the pending batch for `shard` to its worker (blocking while
    /// the shard's queue is full). A batch that would carry neither instances
    /// nor a heartbeat the shard hasn't already seen is not cut at all
    /// — and a heartbeat-*only* batch is suppressed entirely when the
    /// shard is idle and holds nothing reordering: advancing an empty
    /// shard's clock releases nothing, late-drop decisions ride each
    /// item's own prefix stamp, and silence probes carry their own
    /// stamp too, so the heartbeat's only effect would be the
    /// cross-thread traffic itself. This is what keeps a quiet shard's
    /// cost at zero across fold-back syncs.
    fn flush_shard(&mut self, shard: ShardId) {
        if self.router.pending_len(shard) == 0 {
            if !self.router.needs_heartbeat(shard) {
                return;
            }
            if self.shard_idle_and_empty(shard) {
                self.router.note_suppressed_heartbeat();
                return;
            }
        }
        let batch = self.router.take_batch(shard);
        self.batches_since_checkpoint += 1;
        if let Some(o) = self.obs.as_mut() {
            o.batches_since_sample += 1;
        }
        // `enqueue` is the handoff cost: the channel send (plus
        // backpressure blocking) in threaded mode, the whole inline
        // evaluation in deterministic mode (where spans count virtual
        // clock events, not time).
        let token = self.obs_span();
        self.send(shard, ShardMessage::Batch(batch));
        self.obs_record(Stage::Enqueue, token);
    }

    fn send(&mut self, shard: ShardId, message: ShardMessage) {
        self.sent_msgs[shard] += 1;
        match &mut self.backend {
            Backend::Inline(workers) => workers[shard].handle(message),
            Backend::Threaded { slots, .. } => slots[shard].send(message),
        }
    }
}

/// One shard's recovery inputs: the floor snapshot (if any) plus the
/// WAL tail past it.
struct ShardPlan {
    snapshot: Option<ShardSnapshot>,
    recovered: RecoveredShard,
    /// The largest ingest sequence the shard is durable through,
    /// snapshot coverage included.
    durable_seq: Option<u64>,
}

/// Why [`Engine::recover`] could not scan the durable state on disk.
///
/// These are *environmental* failures — a transient I/O error or
/// on-disk corruption while scanning the WAL directory or snapshot
/// epochs — and are returned so callers can retry, alert, or fall back,
/// instead of conflating them with "no durable state" (which recovers
/// cleanly) or with invariant violations (which still panic).
#[derive(Debug)]
pub enum RecoverError {
    /// Scanning the WAL directory or reading a shard's segment chain
    /// failed (torn tails are repaired, not errors; this is an
    /// unreadable directory, an I/O failure mid-read, or mid-file
    /// format corruption).
    Wal(stem_wal::WalError),
    /// Scanning the snapshot epochs failed (an individual torn or
    /// corrupt snapshot file is a fallback, not an error; this is an
    /// unreadable directory listing).
    Snap(stem_snap::SnapError),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Wal(e) => write!(f, "recovery could not scan the wal: {e}"),
            RecoverError::Snap(e) => write!(f, "recovery could not scan the snapshots: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoverError::Wal(e) => Some(e),
            RecoverError::Snap(e) => Some(e),
        }
    }
}

/// What [`Engine::recover`] found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// First ingest sequence not guaranteed durable on every shard —
    /// where the upstream re-feed resumes.
    pub resume_seq: u64,
    /// Intact records read across all shard log *tails* (with a
    /// checkpoint floor, segments behind it are never opened; without
    /// one this is the whole log).
    pub records: u64,
    /// Torn-tail truncations repaired across all shard logs.
    pub torn_truncations: u64,
    /// The checkpoint floor: the snapshot epoch every shard restores
    /// from (`None` = full-log replay).
    pub snapshot_epoch: Option<u64>,
    /// Shards restoring from a snapshot.
    pub snapshots_loaded: u64,
    /// Snapshot files rejected as torn, corrupt, or mismatched.
    pub snapshots_rejected: u64,
}

/// The subscription-registration window of a crash recovery: the engine
/// exists but has not replayed its logs yet (see [`Engine::recover`]).
pub struct Recovery {
    engine: Engine,
    plan: Vec<ShardPlan>,
    stats: RecoveryStats,
}

impl Recovery {
    /// Re-registers a subscription. Call in the original registration
    /// order so ids — which logged probe records and snapshot detector
    /// state reference — line up.
    pub fn subscribe(&mut self, subscription: Subscription) -> SubscriptionId {
        self.engine.subscribe(subscription)
    }

    /// What recovery found on disk.
    #[must_use]
    pub fn stats(&self) -> RecoveryStats {
        self.stats
    }

    /// Per-subscription notification counts the floor snapshots cover
    /// (`raw subscription id → delivered`): what the resumed engine
    /// will *not* re-deliver, because those notifications are
    /// compressed into restored detector state rather than replayed.
    /// A driver lining the resumed delivery stream up against an
    /// uninterrupted run drops exactly this many leading notifications
    /// per subscription. Empty without a checkpoint floor (full replay
    /// re-delivers everything).
    #[must_use]
    pub fn snapshot_delivered(&self) -> std::collections::BTreeMap<u64, u64> {
        let mut out = std::collections::BTreeMap::new();
        for plan in &self.plan {
            if let Some(snapshot) = &plan.snapshot {
                // A subscription lives on exactly one home shard, so
                // the union across shards has no collisions.
                out.extend(snapshot.subs_delivered.iter().copied());
            }
        }
        out
    }

    /// Restores every shard's snapshot state, replays its durable tail
    /// records, and returns the live engine, ready for the upstream
    /// re-feed from [`Engine::resume_from`].
    #[must_use]
    pub fn resume(mut self) -> Engine {
        for plan in self.plan {
            let shard = plan.recovered.shard;
            self.engine.send(
                shard,
                ShardMessage::Recover {
                    snapshot: plan.snapshot.map(Box::new),
                    records: plan.recovered.records,
                    durable_seq: plan.durable_seq,
                    torn: plan.recovered.torn_truncations,
                    batch_size: self.engine.config.batch_size,
                },
            );
            self.engine.send(shard, ShardMessage::EndRecovery);
        }
        self.engine
    }
}

impl std::fmt::Debug for Recovery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recovery")
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("subscriptions", &self.next_subscription)
            .finish_non_exhaustive()
    }
}
