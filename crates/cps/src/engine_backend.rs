//! The engine side of the ingest/evaluation seam: scenario app
//! conditions compiled into [`stem_engine`] subscriptions.
//!
//! [`crate::CpsSystem`] still runs the physical world, sensing, WSN,
//! and dispatch on the DES kernel; with
//! [`crate::EvalBackend::Engine`] the sink- and CCU-layer evaluation is
//! served by a sharded streaming [`Engine`] instead of inline
//! detectors:
//!
//! * every sink detector, CCU detector, and sustained spec of the
//!   [`CpsApplication`] becomes one engine [`Subscription`] (patterns
//!   carry the definition's estimation policies and the station's
//!   observer identity, so derived instances are bit-identical to the
//!   DES path's);
//! * station routing follows the paper's layering (Fig. 2): sensor-layer
//!   instances feed the sink subscriptions, cyber-physical and cyber
//!   instances feed the CCU subscriptions;
//! * each simulation delivery is pumped via [`Engine::ingest_at`] with
//!   the station's observer-local clock and synchronously folded back
//!   ([`Engine::sync`]), so ECA rules, feedback composition, and
//!   database stores keep their DES-time semantics;
//! * at the scenario horizon [`Engine::finish_at`] drains the reorder
//!   buffers and closes open sustained episodes.

use crate::app::{CpsApplication, SustainedSource};
use crate::scenario::ScenarioConfig;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::sync::Arc;
use stem_core::timing::Clock;
use stem_core::{
    ConditionObserver, EventId, EventInstance, InstancePump, Layer, PumpEvent, PumpOutput,
};
use stem_engine::{
    Collector, Engine, EngineConfig, EngineReport, EventSink, NotificationKind, SilenceSpec,
    Subscription, SubscriptionId, SustainedValue, TelemetryPolicy,
};
use stem_obs::{ObsRegistry, Stage};
use stem_spatial::{Field, Point, Rect, SpatialExtent};
use stem_temporal::TimePoint;

/// The exact bounding rectangle of a motion model's trajectory: every
/// built-in model interpolates linearly between stored vertices
/// (waypoints, pre-generated walk steps, or a single static point), so
/// the vertex bounding box covers every position the model can ever
/// return — no time sampling, no excursions missed between samples.
fn trajectory_bounds(model: &stem_physical::MotionModel) -> Rect {
    use stem_physical::MotionModel;
    match model {
        MotionModel::Static(s) => Rect::new(s.0, s.0),
        MotionModel::Waypoints(path) => {
            let points: Vec<Point> = path.waypoints().iter().map(|&(_, p)| p).collect();
            Rect::bounding(&points).expect("a waypoint path has at least one waypoint")
        }
        MotionModel::Walk(walk) => {
            Rect::bounding(walk.positions()).expect("a random walk has at least one step")
        }
    }
}

/// The world rectangle handed to the engine's shard map: the bounding
/// box of the deployment, the actors, and (when the application tracks
/// a target) the target's trajectory, inflated enough to keep
/// localization fixes in comfortably partitionable territory
/// (out-of-bounds points still route — they clamp to the nearest shard
/// cell).
#[must_use]
pub fn scenario_world_bounds(config: &ScenarioConfig, app: &CpsApplication) -> Rect {
    let topology = config.build_topology();
    let mut min = Point::new(f64::MAX, f64::MAX);
    let mut max = Point::new(f64::MIN, f64::MIN);
    let mut extend = |p: Point| {
        min = Point::new(min.x.min(p.x), min.y.min(p.y));
        max = Point::new(max.x.max(p.x), max.y.max(p.y));
    };
    for (_, p) in topology.positions() {
        extend(p);
    }
    for &p in &config.actors {
        extend(p);
    }
    extend(config.sink_near);
    if let Some(tracking) = &app.tracking {
        let path = trajectory_bounds(&tracking.target);
        extend(path.min());
        extend(path.max());
    }
    let width = (max.x - min.x).max(1.0);
    let height = (max.y - min.y).max(1.0);
    let margin_x = (width * 0.25).max(10.0);
    let margin_y = (height * 0.25).max(10.0);
    Rect::new(
        Point::new(min.x - margin_x, min.y - margin_y),
        Point::new(max.x + margin_x, max.y + margin_y),
    )
}

/// A region covering every location an instance can carry: station
/// subscriptions replicate the DES stations, which see their entire
/// arrival stream with no spatial pre-filter — the *semantic* region
/// stays unbounded, and the [`StationScopes`] carry the physical
/// arrival footprint that routing actually needs.
fn everywhere() -> SpatialExtent {
    SpatialExtent::field(Field::rect(Rect::new(
        Point::new(-1e15, -1e15),
        Point::new(1e15, 1e15),
    )))
}

/// Fixed safety slack added around every compiled station scope,
/// metres: covers estimation jitter (trilateration residuals, aggregate
/// centroids on region boundaries) without ever being load-bearing for
/// correctness — the scopes below are built from conservative unions
/// first.
const SCOPE_MARGIN: f64 = 5.0;

/// The per-station routing scopes a scenario's subscriptions compile
/// with: conservative over-approximations of where each station's
/// arrival stream can physically occur, so pruning against them never
/// drops a delivery the DES path would have evaluated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StationScopes {
    /// Sensor-layer arrivals at the sink: the deployment's sensing
    /// extent (every mote's position — field samples and range
    /// readings are generated there), padded by the fixed 5 m
    /// `SCOPE_MARGIN`.
    pub sink: Rect,
    /// Cyber-physical / cyber arrivals at the CCU: derived composite
    /// extents (aggregates of in-deployment constituents), station
    /// positions (episode and feedback instances), and — when the
    /// application tracks a mobile target — the exact bound of the
    /// target's trajectory, all padded by the mobility slack (the
    /// ranging radius, within which localization fixes land) plus the
    /// fixed 5 m `SCOPE_MARGIN`.
    pub ccu: Rect,
}

/// Computes the [`StationScopes`] for a scenario: the actual regions of
/// interest (sensing extent ∪ pattern/derived extents ∪ mobile-target
/// trajectory, padded by mobility slack) that replace the implicit
/// whole-world scope, so sharding buys pruning instead of just
/// parallelism.
#[must_use]
pub fn station_scopes(config: &ScenarioConfig, app: &CpsApplication) -> StationScopes {
    let topology = config.build_topology();
    let positions: Vec<Point> = topology.positions().map(|(_, p)| p).collect();
    let mote_bbox = Rect::bounding(&positions).expect("topology is non-empty");
    let sink = mote_bbox.inflated(SCOPE_MARGIN);

    let sink_id = topology
        .nearest(config.sink_near)
        .expect("topology is non-empty");
    let sink_position = topology.position(sink_id).expect("sink in topology");
    // The CCU shares the sink's position (see `station_observers`), and
    // episode/feedback instances are generated there.
    let mut ccu = mote_bbox.union(&Rect::new(sink_position, sink_position));
    let mut mobility = 0.0f64;
    if let Some(tracking) = &app.tracking {
        // Localization fixes trail the target; every anchor that ranged
        // it sits within `max_range`, so fixes land inside the
        // trajectory's exact vertex bound padded by the ranging radius
        // — the mobility slack. The bound is exact (not time-sampled),
        // so no excursion between samples can escape the scope.
        mobility = tracking.max_range;
        ccu = ccu.union(&trajectory_bounds(&tracking.target));
    }
    StationScopes {
        sink,
        ccu: ccu.inflated(mobility + SCOPE_MARGIN),
    }
}

/// Compiles a [`CpsApplication`]'s sink/CCU stack into engine
/// subscriptions, in canonical registration order: sink detectors, CCU
/// detectors, then sustained specs. Each subscription keeps the
/// station's unbounded semantic region (a station evaluates its whole
/// logical stream, like the DES path) but is *scoped* to its station's
/// physical arrival footprint from `scopes`, so the router and the
/// per-shard scans prune out-of-scope work. `world` spreads the
/// subscriptions' home shards across the deployment; `sink_factory`
/// supplies each subscription's notification sink.
pub fn engine_subscriptions(
    app: &CpsApplication,
    sink_observer: &ConditionObserver,
    ccu_observer: &ConditionObserver,
    world: Rect,
    scopes: &StationScopes,
    mut sink_factory: impl FnMut() -> Box<dyn EventSink>,
) -> Vec<Subscription> {
    let sink_scope = SpatialExtent::field(Field::rect(scopes.sink));
    let ccu_scope = SpatialExtent::field(Field::rect(scopes.ccu));
    let total =
        (app.sink_detectors.len() + app.ccu_detectors.len() + app.sustained.len()).max(1) as f64;
    // Spread home shards along the world diagonal: station subscriptions
    // watch everywhere, so without a hint they would all home on the
    // owner of the same region center.
    let hint = |index: usize| {
        let f = (index as f64 + 0.5) / total;
        Point::new(
            world.min().x + world.width() * f,
            world.min().y + world.height() * f,
        )
    };
    // Structurally identical detector specs reuse the *first*
    // occurrence's diagonal slot: a distinct hint per registration
    // would scatter identical templates across home shards and defeat
    // the engine's shared-plan dedupe (the home is a plan-key
    // ingredient). Distinct templates keep distinct slots, so load
    // still spreads.
    let mut first_slot: HashMap<String, usize> = HashMap::new();
    let mut slot_for = move |tag: String, index: usize| *first_slot.entry(tag).or_insert(index);
    let mut subs = Vec::new();
    for spec in &app.sink_detectors {
        subs.push(
            Subscription::new(spec.definition.id.clone(), everywhere(), sink_factory())
                .scoped_to(sink_scope.clone())
                .at_layers(vec![Layer::Sensor])
                .matching(spec.pattern.clone(), spec.mode, spec.horizon)
                .with_definition(spec.definition.clone())
                .observed_by(sink_observer.clone())
                .homed_near(hint(slot_for(format!("sink|{spec:?}"), subs.len()))),
        );
    }
    for spec in &app.ccu_detectors {
        subs.push(
            Subscription::new(spec.definition.id.clone(), everywhere(), sink_factory())
                .scoped_to(ccu_scope.clone())
                .at_layers(vec![Layer::CyberPhysical, Layer::Cyber])
                .matching(spec.pattern.clone(), spec.mode, spec.horizon)
                .with_definition(spec.definition.clone())
                .observed_by(ccu_observer.clone())
                .homed_near(hint(slot_for(format!("ccu|{spec:?}"), subs.len()))),
        );
    }
    for spec in &app.sustained {
        let value = match &spec.source {
            SustainedSource::Attribute(key) => SustainedValue::Attribute(key.clone()),
            SustainedSource::DistanceTo { x, y } => SustainedValue::DistanceTo(Point::new(*x, *y)),
        };
        subs.push(
            Subscription::new(spec.output.clone(), everywhere(), sink_factory())
                .scoped_to(ccu_scope.clone())
                .for_event(spec.input.clone())
                .at_layers(vec![Layer::CyberPhysical, Layer::Cyber])
                .sustained_spec(stem_engine::SustainedSpec {
                    config: spec.transformed_config(),
                    value,
                    negate: spec.negates(),
                    silence: Some(SilenceSpec {
                        timeout: spec.silence_timeout,
                        inactive_value: spec.inactive_value(),
                    }),
                })
                .homed_near(hint(slot_for(format!("sus|{spec:?}"), subs.len()))),
        );
    }
    subs
}

/// The station observers a scenario's engine subscriptions evaluate
/// with, reconstructed from the configuration (identical to what
/// [`crate::CpsSystem::run`] derives, so a replay generates
/// bit-identical derived instances).
#[must_use]
pub fn scenario_observers(config: &ScenarioConfig) -> (ConditionObserver, ConditionObserver) {
    let topology = config.build_topology();
    let sink_id = topology
        .nearest(config.sink_near)
        .expect("topology is non-empty");
    let sink_position = topology.position(sink_id).expect("sink in topology");
    station_observers(sink_id, sink_position)
}

/// The station observers for an elected sink: the single source of
/// truth [`crate::CpsSystem::run`] and [`scenario_observers`] share, so
/// the live run and a later replay can never drift apart.
#[must_use]
pub fn station_observers(
    sink_id: stem_core::MoteId,
    sink_position: Point,
) -> (ConditionObserver, ConditionObserver) {
    (
        ConditionObserver::new(stem_core::ObserverId::Sink(sink_id), sink_position, 1.0),
        ConditionObserver::new(
            stem_core::ObserverId::Ccu(stem_core::CcuId::new(0)),
            Point::new(sink_position.x, sink_position.y),
            1.0,
        ),
    )
}

/// Re-runs a recorded scenario WAL (see [`ScenarioConfig::record_dir`])
/// through freshly compiled subscriptions for `app` — the *same*
/// application for a full-fidelity audit replay, or a *new* one to
/// re-analyse history under different app conditions — without
/// re-simulating the physical world or the WSN.
///
/// The full operation stream (instances *and* silence probes) re-feeds
/// a deterministic engine in recorded order and the stream is closed at
/// the scenario horizon, so sustained episodes resolve exactly as live.
/// Returns every notification the subscriptions delivered plus the
/// replay engine's report.
///
/// A recording whose prefix was retired by checkpoint compaction (see
/// [`stem_wal::Replay::first_seq`]) is *not* refused: re-analysis
/// resumes from the checkpoint floor through [`Engine::recover`]'s
/// floor selection, exactly like crash recovery would — the retired
/// prefix is compressed into the floor snapshots' detector state, so
/// only post-floor notifications are delivered. This path replays each
/// shard's durable records in place, so it requires the *same* app
/// shape and `shards` count the recording ran with (re-analysis under
/// a **new** app still needs complete history: a new subscription set
/// cannot restore another app's snapshot state).
///
/// # Panics
///
/// Panics if the WAL cannot be read, or — when replaying probes into a
/// *new* app — if the new subscription set has fewer sustained
/// detectors than the probes reference (record/replay app shapes must
/// agree on the sustained list; composite detectors may change freely).
#[must_use]
pub fn replay_recorded(
    config: &ScenarioConfig,
    app: &CpsApplication,
    dir: &std::path::Path,
    shards: usize,
) -> (Vec<stem_engine::Notification>, EngineReport) {
    let replay = stem_wal::Replay::open(dir)
        .unwrap_or_else(|e| panic!("open recorded wal at {}: {e}", dir.display()));
    assert_eq!(
        replay.missing_ops(),
        0,
        "recorded wal at {} has mid-stream gaps (torn by a crash?) — \
         a scenario re-analysis needs complete history",
        dir.display(),
    );
    let world = scenario_world_bounds(config, app);
    let scopes = station_scopes(config, app);
    let (sink_observer, ccu_observer) = scenario_observers(config);
    let collector = Collector::new();
    let subs = engine_subscriptions(app, &sink_observer, &ccu_observer, world, &scopes, || {
        collector.sink()
    });
    let horizon = stem_temporal::TimePoint::EPOCH + config.duration;
    // `missing_ops` only sees gaps *between* surviving records: a
    // prefix uniformly retired by checkpoint compaction leaves no gap,
    // just a stream that starts late (a recording always begins at
    // sequence 0). Such history re-analyses through the recovery path:
    // restore the checkpoint floor, replay the durable tail.
    if replay.first_seq().unwrap_or(0) > 0 {
        let mut recovery = Engine::recover(
            EngineConfig::new(world)
                .with_shards(shards)
                .with_batch_size(1)
                .with_wal(dir)
                .deterministic(),
        )
        .unwrap_or_else(|e| panic!("recover recorded wal at {}: {e}", dir.display()));
        for sub in subs {
            recovery.subscribe(sub);
        }
        let report = recovery.resume().finish_at(horizon);
        return (collector.take(), report);
    }
    let mut engine = Engine::start(
        EngineConfig::new(world)
            .with_shards(shards)
            .with_batch_size(1)
            .deterministic(),
    );
    for sub in subs {
        engine.subscribe(sub);
    }
    engine.replay_records(replay.records());
    let report = engine.finish_at(horizon);
    (collector.take(), report)
}

/// Shared engine state behind the station pumps.
struct EngineShared {
    engine: Option<Engine>,
    collector: Collector,
    /// Sustained registration index → engine subscription id (silence
    /// probes address detectors by index across the seam).
    sustained_ids: Vec<SubscriptionId>,
    /// Subscription id → the episode output event id (for folding
    /// sustained notifications back into instances).
    sustained_outputs: BTreeMap<u64, EventId>,
    report: Option<EngineReport>,
    /// The engine's telemetry registry plus the driver's own span clock
    /// (None with telemetry off): fold-back cost is recorded into the
    /// registry's external slot as `notify_foldback`.
    obs: Option<(Arc<ObsRegistry>, Clock)>,
    /// Provenance taken off each drained notification before fold-back
    /// (the seam's `EventInstance` has no provenance slot, so lineage
    /// would be lost at the station boundary otherwise). Surfaces in the
    /// scenario report for offline joins against the recorded WAL.
    provenance: Vec<stem_core::Provenance>,
}

impl EngineShared {
    /// Drains everything the engine delivered since the last drain and
    /// folds it into seam events, ordered by subscription registration —
    /// for a single fed instance this reproduces the DES path's
    /// detector-list evaluation order whatever shard the work ran on.
    fn drain(&mut self) -> PumpOutput {
        // The overwhelmingly common case: the delivery matched nothing,
        // the collector is empty, and the fold-back costs one lock —
        // no span bookkeeping, no sort, no allocation. Cross-tick
        // amortization lives here: per-delivery sync is already
        // near-free (wait-free barrier, heartbeat suppression), so the
        // fold-back loop only pays real work on ticks that delivered.
        if self.collector.is_empty() {
            return PumpOutput::default();
        }
        let token = self.obs.as_ref().map(|(_, clock)| clock.start());
        let mut notes = self.collector.take();
        notes.sort_by_key(|n| n.subscription.raw());
        let mut out = PumpOutput::default();
        for mut note in notes {
            if let Some(p) = note.provenance.take() {
                self.provenance.push(*p);
            }
            match note.kind {
                NotificationKind::Derived(instance) => {
                    out.events.push(PumpEvent::Derived(instance));
                }
                NotificationKind::Sustained(event) => {
                    let output = self
                        .sustained_outputs
                        .get(&note.subscription.raw())
                        .expect("sustained notification from unknown subscription");
                    out.events.push(crate::seam::episode_event(output, event));
                }
                // Station subscriptions are all pattern or sustained.
                NotificationKind::Match(_) => {}
            }
        }
        if let (Some((registry, clock)), Some(token)) = (self.obs.as_ref(), token) {
            let elapsed = clock.elapsed(&token);
            registry.with_external(|r| r.record_stage(Stage::NotifyFoldback, elapsed));
        }
        out
    }
}

/// A station handle over the shared engine. Both Fig. 1 stations (sink,
/// CCU) feed the same engine; layer filters on the subscriptions keep
/// their streams apart.
pub(crate) struct EnginePump {
    inner: Rc<RefCell<EngineShared>>,
}

impl EnginePump {
    /// Builds the engine, registers the application's subscriptions, and
    /// returns the station pump plus a handle for retrieving the
    /// engine's report after the run.
    pub(crate) fn start(
        config: &ScenarioConfig,
        app: &CpsApplication,
        sink_observer: &ConditionObserver,
        ccu_observer: &ConditionObserver,
        shards: usize,
        deterministic: bool,
    ) -> Self {
        let world = scenario_world_bounds(config, app);
        let mut engine_config = EngineConfig::new(world)
            .with_shards(shards)
            .with_batch_size(1);
        if deterministic {
            engine_config = engine_config.deterministic();
        }
        if let Some(dir) = &config.record_dir {
            // Journal the station evaluation stream: instances and
            // silence probes become durable before evaluation, so the
            // recorded scenario replays without re-simulating.
            engine_config = engine_config.with_wal(dir);
            if let Some(ticks) = config.checkpoint_every_ticks {
                // Snapshots every `ticks` of simulated stream-clock
                // progress: the recorded run recovers in bounded time
                // and retains bounded disk instead of unbounded log.
                engine_config =
                    engine_config.with_checkpoint(stem_engine::CheckpointPolicy::EveryTicks(ticks));
            }
        }
        if let Some(dir) = &config.telemetry_dir {
            // Live telemetry: sample the registry as batches go out and
            // export JSON lines next to whatever else the run writes.
            let export = std::path::Path::new(dir).join("telemetry.jsonl");
            engine_config = engine_config.with_telemetry(
                TelemetryPolicy::every_batches(256)
                    .with_ring(512)
                    .with_export(export),
            );
        }
        if let Some(dir) = &config.trace_dir {
            // Flight-recorder export: the shard rings drain to JSON
            // lines at shutdown, joinable offline against the recorded
            // WAL via stem-trace. The policy stays the engine default
            // (notifications only), so every station notification's
            // provenance is exported with near-zero hot-path cost.
            let export = std::path::Path::new(dir).join("trace.jsonl");
            engine_config = engine_config.with_trace_export(export);
        }
        if let Some(dir) = &config.watch_dir {
            // Self-monitoring: the built-in watchdog set evaluates every
            // telemetry snapshot and exports its alerts. The watcher
            // *consumes* snapshots, so a run without telemetry_dir gets
            // sampling enabled (ring only, no telemetry export).
            if config.telemetry_dir.is_none() {
                engine_config = engine_config
                    .with_telemetry(TelemetryPolicy::every_batches(256).with_ring(512));
            }
            let export = std::path::Path::new(dir).join("alerts.jsonl");
            engine_config =
                engine_config.with_watch(stem_engine::WatchPolicy::enabled().with_export(export));
        }
        let mut engine = Engine::start(engine_config);
        let obs = engine.obs().map(|registry| {
            let clock = if deterministic {
                Clock::virtual_ticks()
            } else {
                Clock::wall()
            };
            (registry, clock)
        });
        let collector = Collector::new();
        let scopes = station_scopes(config, app);
        let subs = engine_subscriptions(app, sink_observer, ccu_observer, world, &scopes, || {
            collector.sink()
        });
        let n_composite = app.sink_detectors.len() + app.ccu_detectors.len();
        let mut sustained_ids = Vec::new();
        let mut sustained_outputs = BTreeMap::new();
        for (index, sub) in subs.into_iter().enumerate() {
            let output = sub.name.clone();
            let id = engine.subscribe(sub);
            if index >= n_composite {
                sustained_ids.push(id);
                sustained_outputs.insert(id.raw(), output);
            }
        }
        EnginePump {
            inner: Rc::new(RefCell::new(EngineShared {
                engine: Some(engine),
                collector,
                sustained_ids,
                sustained_outputs,
                report: None,
                obs,
                provenance: Vec::new(),
            })),
        }
    }

    /// A second station handle over the same engine.
    pub(crate) fn station(&self) -> EnginePump {
        EnginePump {
            inner: Rc::clone(&self.inner),
        }
    }

    /// The engine's report, available after [`InstancePump::finish`].
    pub(crate) fn take_report(&self) -> Option<EngineReport> {
        self.inner.borrow_mut().report.take()
    }

    /// The provenance of every notification the engine delivered during
    /// the run, in drain order.
    pub(crate) fn take_provenance(&self) -> Vec<stem_core::Provenance> {
        std::mem::take(&mut self.inner.borrow_mut().provenance)
    }
}

impl InstancePump for EnginePump {
    fn feed(&mut self, at: TimePoint, instance: &EventInstance) -> PumpOutput {
        let mut inner = self.inner.borrow_mut();
        let Some(engine) = inner.engine.as_mut() else {
            return PumpOutput::default();
        };
        engine.ingest_at(instance.clone(), at);
        engine.sync();
        inner.drain()
    }

    fn tick(&mut self, at: TimePoint, detector: usize) -> PumpOutput {
        let mut inner = self.inner.borrow_mut();
        let Some(id) = inner.sustained_ids.get(detector).copied() else {
            return PumpOutput::default();
        };
        let Some(engine) = inner.engine.as_mut() else {
            return PumpOutput::default();
        };
        engine.probe_silence(id, at);
        engine.sync();
        inner.drain()
    }

    fn finish(&mut self, horizon: TimePoint) -> PumpOutput {
        let mut inner = self.inner.borrow_mut();
        let Some(engine) = inner.engine.take() else {
            return PumpOutput::default();
        };
        let report = engine.finish_at(horizon);
        let mut out = inner.drain();
        // Engine-side evaluation errors surface once, at the horizon;
        // the totals match the DES path's per-feed accounting.
        out.errors += report.shards.iter().map(|s| s.eval_errors).sum::<u64>();
        inner.report = Some(report);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::DetectorSpec;
    use crate::scenario::EvalBackend;
    use crate::system::CpsSystem;
    use stem_cep::Pattern;
    use stem_core::{dsl, EventDefinition};
    use stem_engine::NotificationKind;
    use stem_physical::{HotSpot, WorldField};
    use stem_temporal::Duration;

    fn hotspot(seed: u64) -> (ScenarioConfig, CpsApplication) {
        let config = ScenarioConfig {
            seed,
            world: WorldField::HotSpot(HotSpot {
                center: Point::new(30.0, 30.0),
                peak: 60.0,
                sigma: 12.0,
                ambient: 20.0,
                onset: stem_temporal::TimePoint::new(2_000),
            }),
            sampling_period: Duration::new(500),
            duration: Duration::new(10_000),
            backend: EvalBackend::Engine {
                shards: 2,
                deterministic: true,
            },
            ..ScenarioConfig::default()
        };
        let app = CpsApplication::new()
            .with_sensor_definition(EventDefinition::new(
                "hot-reading",
                Layer::Sensor,
                dsl::parse("x.temp > 45").unwrap(),
            ))
            .with_sink_detector(DetectorSpec::new(
                EventDefinition::new(
                    "hot-area",
                    Layer::CyberPhysical,
                    dsl::parse("dist(loc(a), loc(b)) < 40").unwrap(),
                ),
                Pattern::atom("a", "hot-reading").then(Pattern::atom("b", "hot-reading")),
                Duration::new(2_000),
            ))
            .with_ccu_detector(DetectorSpec::new(
                EventDefinition::new(
                    "heat-alarm",
                    Layer::Cyber,
                    dsl::parse("x.temp > 0").unwrap(),
                ),
                Pattern::atom("x", "hot-area"),
                Duration::new(5_000),
            ));
        (config, app)
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("stem-cps-record-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn recorded_scenario_replays_bit_for_bit_without_resimulating() {
        let dir = temp_dir("fidelity");
        let (config, app) = hotspot(33);
        let config = ScenarioConfig {
            record_dir: Some(dir.to_string_lossy().into_owned()),
            ..config
        };
        let report = CpsSystem::run(config.clone(), app.clone());
        // The record run's derived instances, in fold order: for a
        // pattern-only app these are exactly the engine's Derived
        // notifications.
        let mut recorded: Vec<String> = report
            .instances
            .iter()
            .filter(|i| matches!(i.layer(), Layer::CyberPhysical | Layer::Cyber))
            .map(|i| format!("{i:?}"))
            .collect();
        assert!(!recorded.is_empty(), "scenario must detect something");

        let (notes, replay_report) = replay_recorded(&config, &app, &dir, 2);
        let mut replayed: Vec<String> = notes
            .into_iter()
            .filter_map(|n| match n.kind {
                NotificationKind::Derived(inst) => Some(format!("{inst:?}")),
                _ => None,
            })
            .collect();
        recorded.sort();
        replayed.sort();
        assert_eq!(replayed, recorded, "replay must be bit-identical");
        assert_eq!(replay_report.total_late_dropped(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The scenario checkpoint knob: snapshots are cut during the run
    /// at the simulated-tick cadence, without perturbing detection —
    /// the checkpointed run's instance log is bit-identical to the
    /// uncheckpointed engine run — and the recorded directory then
    /// recovers from the snapshots instead of full-log replay.
    #[test]
    fn scenario_checkpoints_cut_snapshots_without_perturbing_detection() {
        let dir = temp_dir("checkpointed");
        let (config, app) = hotspot(35);
        let baseline = CpsSystem::run(config.clone(), app.clone());
        let checkpointed_config = ScenarioConfig {
            record_dir: Some(dir.to_string_lossy().into_owned()),
            checkpoint_every_ticks: Some(2_000),
            ..config
        };
        let report = CpsSystem::run(checkpointed_config.clone(), app.clone());
        let engine = report.engine.as_ref().expect("engine report");
        let snap = engine.total_snap();
        assert!(
            snap.snapshots_written >= 2 * 4,
            "a 10k-tick run at 2k-tick cadence cuts several epochs across \
             2 shards: {snap:?}"
        );
        let baseline_log: Vec<String> = baseline
            .instances
            .iter()
            .map(|i| format!("{i:?}"))
            .collect();
        let log: Vec<String> = report.instances.iter().map(|i| format!("{i:?}")).collect();
        assert_eq!(baseline_log, log, "checkpointing must not change detection");

        // The recorded directory recovers through the snapshot path:
        // both shards restore from a common checkpoint floor.
        let world = scenario_world_bounds(&checkpointed_config, &app);
        let recovery = stem_engine::Engine::recover(
            stem_engine::EngineConfig::new(world)
                .with_shards(2)
                .with_batch_size(1)
                .with_wal(&dir)
                .deterministic(),
        )
        .expect("recover from durable state");
        let stats = recovery.stats();
        assert!(stats.snapshot_epoch.is_some(), "a checkpoint floor exists");
        assert_eq!(stats.snapshots_loaded, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The scenario trace knob: `trace_dir` on the engine backend
    /// surfaces every notification's provenance in the report, exports
    /// a joinable trace.jsonl, and — run alongside `record_dir` — the
    /// offline reconstruction over the recorded WAL resolves exactly
    /// the constituent set the live run reported.
    #[test]
    fn scenario_trace_dir_exports_provenance_joinable_against_the_recording() {
        let dir = temp_dir("traced");
        let (config, app) = hotspot(37);
        let baseline = CpsSystem::run(config.clone(), app.clone());
        // The flight recorder defaults to notifications-only, so even
        // without `trace_dir` the report carries lineage — the knob
        // only adds the export file.
        assert!(!baseline.provenance.is_empty(), "lineage on by default");
        let traced_config = ScenarioConfig {
            record_dir: Some(dir.to_string_lossy().into_owned()),
            trace_dir: Some(dir.to_string_lossy().into_owned()),
            ..config
        };
        let report = CpsSystem::run(traced_config, app);
        // Tracing must not perturb detection...
        let print = |r: &crate::CpsReport| -> Vec<String> {
            r.instances.iter().map(|i| format!("{i:?}")).collect()
        };
        assert_eq!(print(&baseline), print(&report));
        // ...and every delivered notification carries usable lineage.
        assert!(!report.provenance.is_empty(), "provenance folded back");
        let mut live = std::collections::BTreeSet::new();
        for p in &report.provenance {
            assert!(!p.constituents.is_empty(), "at least one constituent");
            assert!(p.stamps.is_monotone(), "stage stamps monotone: {p:?}");
            for c in &p.constituents {
                live.insert((c.trace.raw(), u64::from(c.shard), c.seq));
            }
        }
        // The export joins against the recorded WAL: same constituent
        // set, and every reference resolves to a durable instance op.
        let rec = stem_trace::reconstruct_files(&dir.join("trace.jsonl"), &dir)
            .expect("reconstruct the traced run");
        assert_eq!(rec.constituent_set(), live, "offline join == live ring");
        assert_eq!(
            rec.unresolved(),
            0,
            "every constituent resolves against the recording"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `missing_ops` only sees gaps between surviving records; a prefix
    /// uniformly retired by checkpoint compaction leaves no gap. The
    /// re-analysis entry point used to refuse such history — now it
    /// resumes from the durable floor through the recovery path and
    /// re-evaluates the surviving tail.
    #[test]
    fn replay_recorded_resumes_a_compaction_truncated_prefix() {
        let dir = temp_dir("truncated-prefix");
        // A hand-built "recording" whose stream starts at sequence 5 —
        // exactly what per-shard compaction leaves after retiring every
        // segment below the oldest retained snapshot.
        let mut wal =
            stem_wal::ShardWal::open(&dir, 0, 1 << 20, stem_wal::FsyncPolicy::Never).unwrap();
        for seq in 5..8u64 {
            wal.append(&stem_wal::WalRecord::Instance {
                seq,
                eval_at: Some(stem_temporal::TimePoint::new(100 + seq)),
                prefix_high_water: None,
                instance: stem_core::EventInstance::builder(
                    stem_core::ObserverId::Mote(stem_core::MoteId::new(1)),
                    stem_core::EventId::new("hot-reading"),
                    Layer::Sensor,
                )
                .generated(stem_temporal::TimePoint::new(seq), Point::new(1.0, 1.0))
                .build(),
            })
            .unwrap();
        }
        drop(wal);
        let (config, app) = hotspot(36);
        // The recovery replay runs each shard's records in place, so
        // the shard count must match the recording's (one shard here).
        let (notes, report) = replay_recorded(&config, &app, &dir, 1);
        // Three surviving hot-readings at one point: the sink detector's
        // a-then-b pairs all satisfy dist < 40 and derive "hot-area".
        assert!(
            !notes.is_empty(),
            "the durable tail must re-evaluate: {report:?}"
        );
        assert!(notes.iter().all(
            |n| matches!(&n.kind, NotificationKind::Derived(i) if i.event().as_str() == "hot-area")
        ));
        assert_eq!(report.total_late_dropped(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recorded_scenario_reanalyses_under_new_app_conditions() {
        let dir = temp_dir("reanalysis");
        let (config, app) = hotspot(34);
        let config = ScenarioConfig {
            record_dir: Some(dir.to_string_lossy().into_owned()),
            ..config
        };
        let _ = CpsSystem::run(config.clone(), app.clone());
        let (original_notes, _) = replay_recorded(&config, &app, &dir, 2);

        // Tighten the pairing condition: a stricter app over the same
        // recorded history detects at most as much, with zero
        // re-simulation.
        let (stricter_config, stricter_app) = {
            let (c, _) = hotspot(34);
            let app = CpsApplication::new()
                .with_sensor_definition(EventDefinition::new(
                    "hot-reading",
                    Layer::Sensor,
                    dsl::parse("x.temp > 45").unwrap(),
                ))
                .with_sink_detector(DetectorSpec::new(
                    EventDefinition::new(
                        "hot-area",
                        Layer::CyberPhysical,
                        dsl::parse("dist(loc(a), loc(b)) < 5").unwrap(),
                    ),
                    Pattern::atom("a", "hot-reading").then(Pattern::atom("b", "hot-reading")),
                    Duration::new(2_000),
                ));
            (c, app)
        };
        let (stricter_notes, _) = replay_recorded(&stricter_config, &stricter_app, &dir, 2);
        assert!(
            stricter_notes.len() <= original_notes.len(),
            "a stricter condition cannot detect more over the same history"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
