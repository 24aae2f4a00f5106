//! Backend equivalence: a scenario evaluated through the engine-backed
//! ingest path must detect exactly what the inline DES path detects.
//!
//! A seeded property sweeps seeds × three scenario shapes (composite
//! hotspot, cyber-from-cyber escalation with a cyclic rule, tracking
//! with a below-threshold sustained episode) × shard counts, and checks
//! the engine backend in both execution modes:
//!
//! * deterministic mode must be *bit-for-bit* identical to the DES path
//!   (every instance, in order, plus actions and key metrics);
//! * threaded mode must agree on the same records (the per-delivery
//!   sync barrier makes even its fold order deterministic).

use proptest::prelude::*;
use stem::cep::{Pattern, SustainedConfig};
use stem::core::{dsl, EventDefinition, EventId, Layer};
use stem::cps::{
    metrics, ActorSelector, CpsApplication, CpsSystem, DetectorSpec, EcaRule, EvalBackend,
    ScenarioConfig, SustainedSource, SustainedSpec, ThresholdMode, TopologySpec, TrackingSpec,
};
use stem::physical::{HotSpot, MotionModel, UniformField, WaypointPath, WorldField};
use stem::spatial::Point;
use stem::temporal::{Duration, TimePoint};
use stem::wsn::SensorNoise;

/// Shortened hotspot pipeline: sensor threshold → sink pairing → CCU
/// alarm → fan rule.
fn hotspot(seed: u64) -> (ScenarioConfig, CpsApplication) {
    let config = ScenarioConfig {
        seed,
        topology: TopologySpec::Grid {
            nx: 4,
            ny: 4,
            spacing: 15.0,
            jitter: 0.0,
        },
        actors: vec![Point::new(30.0, 30.0), Point::new(55.0, 55.0)],
        world: WorldField::HotSpot(HotSpot {
            center: Point::new(30.0, 30.0),
            peak: 60.0,
            sigma: 12.0,
            ambient: 20.0,
            onset: TimePoint::new(2_000),
        }),
        sampling_period: Duration::new(500),
        duration: Duration::new(12_000),
        ..ScenarioConfig::default()
    };
    let app = CpsApplication::new()
        .with_sensor_definition(
            EventDefinition::new(
                "hot-reading",
                Layer::Sensor,
                dsl::parse("x.temp > 45").unwrap(),
            )
            .with_projection(stem::core::AttrProjection::new(
                "temp",
                stem::core::AttrAggregate::Average,
                "temp",
            )),
        )
        .with_sink_detector(DetectorSpec::new(
            EventDefinition::new(
                "hot-area",
                Layer::CyberPhysical,
                dsl::parse("dist(loc(a), loc(b)) < 40").unwrap(),
            )
            .with_projection(stem::core::AttrProjection::new(
                "temp",
                stem::core::AttrAggregate::Average,
                "temp",
            )),
            Pattern::atom("a", "hot-reading").then(Pattern::atom("b", "hot-reading")),
            Duration::new(2_000),
        ))
        .with_ccu_detector(DetectorSpec::new(
            EventDefinition::new(
                "heat-alarm",
                Layer::Cyber,
                dsl::parse("x.temp > 40").unwrap(),
            ),
            Pattern::atom("x", "hot-area"),
            Duration::new(5_000),
        ))
        .with_rule(EcaRule::new(
            "heat-alarm",
            "fan-on",
            ActorSelector::NearestToEvent,
        ));
    (config, app)
}

/// Hotspot plus cyber-from-cyber composition: escalation over alarm
/// pairs and a cyclic echo detector exercising the feedback bound.
fn escalation(seed: u64) -> (ScenarioConfig, CpsApplication) {
    let (config, app) = hotspot(seed);
    let app = app
        .with_ccu_detector(DetectorSpec::new(
            EventDefinition::new(
                "heat-escalation",
                Layer::Cyber,
                dsl::parse("time(a) before time(b)").unwrap(),
            ),
            Pattern::atom("a", "heat-alarm").then(Pattern::atom("b", "heat-alarm")),
            Duration::new(6_000),
        ))
        .with_ccu_detector(DetectorSpec::new(
            EventDefinition::new("echo", Layer::Cyber, dsl::parse("conf(x) >= 0").unwrap()),
            Pattern::atom("x", "heat-alarm").or(Pattern::atom("x", "echo")),
            Duration::new(6_000),
        ));
    (config, app)
}

/// Tracking: motes range a moving user, the sink trilaterates, a
/// below-threshold sustained spec detects "user nearby the window"
/// (with silence timeouts closing the episode after departure).
fn nearby_window(seed: u64) -> (ScenarioConfig, CpsApplication) {
    let window = Point::new(30.0, 30.0);
    let user_path = WaypointPath::new(
        vec![
            (TimePoint::new(0), Point::new(0.0, 0.0)),
            (TimePoint::new(3_000), Point::new(29.0, 29.0)),
            (TimePoint::new(10_000), Point::new(31.0, 31.0)),
            (TimePoint::new(13_000), Point::new(70.0, 70.0)),
            (TimePoint::new(16_000), Point::new(70.0, 70.0)),
        ],
        false,
    )
    .expect("valid path");
    let config = ScenarioConfig {
        seed,
        topology: TopologySpec::Grid {
            nx: 5,
            ny: 5,
            spacing: 15.0,
            jitter: 0.0,
        },
        sink_near: window,
        actors: vec![window],
        world: WorldField::Uniform(UniformField { value: 21.0 }),
        duration: Duration::new(16_000),
        ..ScenarioConfig::default()
    };
    let app = CpsApplication::new()
        .with_tracking(TrackingSpec {
            target: MotionModel::Waypoints(user_path),
            max_range: 25.0,
            noise: SensorNoise {
                sigma: 0.4,
                bias: 0.0,
                quantization: 0.0,
            },
            period: Duration::new(500),
            reading_event: EventId::new("range-reading"),
            position_event: EventId::new("user-position"),
            min_anchors: 3,
        })
        .with_sustained(SustainedSpec {
            input: EventId::new("user-position"),
            output: EventId::new("user-nearby-window"),
            source: SustainedSource::DistanceTo {
                x: window.x,
                y: window.y,
            },
            threshold_mode: ThresholdMode::Below,
            config: SustainedConfig {
                min_duration: Duration::new(4_000),
                enter_threshold: 5.0,
                exit_threshold: 7.0,
            },
            silence_timeout: Duration::new(2_000),
        })
        .with_rule(EcaRule::new(
            "user-nearby-window",
            "blind-down",
            ActorSelector::NearestToEvent,
        ));
    (config, app)
}

fn scenario(index: usize, seed: u64) -> (ScenarioConfig, CpsApplication) {
    match index {
        0 => hotspot(seed),
        1 => escalation(seed),
        _ => nearby_window(seed),
    }
}

/// Everything the equivalence claim covers, rendered comparably: the
/// full instance log in generation order, the executed actions, and the
/// per-layer counters.
fn fingerprint(
    config: &ScenarioConfig,
    app: &CpsApplication,
    backend: EvalBackend,
) -> (Vec<String>, Vec<String>, Vec<u64>) {
    let config = ScenarioConfig {
        backend,
        ..config.clone()
    };
    let report = CpsSystem::run(config, app.clone());
    if let EvalBackend::Engine { .. } = backend {
        let engine = report.engine.as_ref().expect("engine report present");
        assert_eq!(
            engine.total_late_dropped(),
            0,
            "station streams are in order"
        );
    } else {
        assert!(report.engine.is_none());
    }
    (
        report.instances.iter().map(|i| format!("{i:?}")).collect(),
        report.executed.iter().map(|a| format!("{a:?}")).collect(),
        vec![
            report.metrics.counter(metrics::CP_EVENTS),
            report.metrics.counter(metrics::CYBER_EVENTS),
            report.metrics.counter(metrics::ACTIONS),
            report.metrics.counter(metrics::EVAL_ERRORS),
            report.metrics.counter(metrics::SINK_RECEIVED),
            report.metrics.counter(metrics::CCU_RECEIVED),
        ],
    )
}

proptest! {
    /// DES vs engine backend, both engine modes, across scenario shapes,
    /// seeds, and shard counts.
    #[test]
    fn engine_backend_matches_des(
        seed in 1u64..1_000,
        shape in 0usize..3,
        shards in 1usize..5,
    ) {
        let (config, app) = scenario(shape, seed);
        let des = fingerprint(&config, &app, EvalBackend::Des);
        prop_assert!(!des.0.is_empty(), "scenario must generate instances");
        let deterministic = fingerprint(
            &config,
            &app,
            EvalBackend::Engine { shards, deterministic: true },
        );
        prop_assert_eq!(
            &des, &deterministic,
            "deterministic engine backend diverged from DES (shape {}, seed {}, {} shards)",
            shape, seed, shards
        );
        let threaded = fingerprint(
            &config,
            &app,
            EvalBackend::Engine { shards, deterministic: false },
        );
        prop_assert_eq!(
            &des, &threaded,
            "threaded engine backend diverged from DES (shape {}, seed {}, {} shards)",
            shape, seed, shards
        );
    }
}

/// Replay determinism across every scenario shape: a live deterministic
/// engine run (recording its station stream), a record-then-replay run,
/// and a crash-then-recover run all produce identical detection
/// multisets — and recording does not perturb the live run itself.
#[test]
fn record_replay_and_crash_recovery_agree_across_shapes() {
    use stem::engine::{Collector, Durability, Engine, EngineConfig, FsyncPolicy, Subscription};

    const SHARDS: usize = 2;
    let note_multiset = |notes: Vec<stem::engine::Notification>| {
        let mut out: Vec<String> = notes
            .into_iter()
            .map(|n| format!("{}:{:?}", n.subscription.raw(), n.kind))
            .collect();
        out.sort();
        out
    };
    for shape in 0..3 {
        let (config, app) = scenario(shape, 77);
        let record_dir = std::env::temp_dir().join(format!(
            "stem-equivalence-record-{shape}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&record_dir);

        // Live engine-backed run with recording: bit-identical to DES,
        // so journaling is free of observable side effects.
        let des = fingerprint(&config, &app, EvalBackend::Des);
        let recording = ScenarioConfig {
            record_dir: Some(record_dir.to_string_lossy().into_owned()),
            backend: EvalBackend::Engine {
                shards: SHARDS,
                deterministic: true,
            },
            ..config.clone()
        };
        let live = CpsSystem::run(recording.clone(), app.clone());
        let live_print: Vec<String> = live.instances.iter().map(|i| format!("{i:?}")).collect();
        assert_eq!(
            des.0, live_print,
            "shape {shape}: recording perturbed the live run"
        );
        let wal = live.engine.as_ref().expect("engine report").total_wal();
        assert!(wal.records_appended > 0, "shape {shape}: nothing journaled");

        // Record-then-replay: the full op stream (instances + probes)
        // into freshly compiled subscriptions.
        let (replay_notes, _) = stem::cps::replay_recorded(&recording, &app, &record_dir, SHARDS);
        let replayed = note_multiset(replay_notes);
        assert!(
            !replayed.is_empty(),
            "shape {shape}: replay detected nothing"
        );

        // Crash-then-recover: tear a copy of the log, recover into the
        // same subscription set, resume from the durable watermark with
        // the intact log standing in for the upstream.
        let crash_dir = std::env::temp_dir().join(format!(
            "stem-equivalence-crash-{shape}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&crash_dir);
        std::fs::create_dir_all(&crash_dir).unwrap();
        let mut files: Vec<_> = std::fs::read_dir(&record_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        for file in &files {
            std::fs::copy(file, crash_dir.join(file.file_name().unwrap())).unwrap();
        }
        let victim = crash_dir.join(files[shape % files.len()].file_name().unwrap());
        let len = std::fs::metadata(&victim).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&victim)
            .unwrap()
            .set_len(len - len / 3 - 1)
            .unwrap();

        let world = stem::cps::scenario_world_bounds(&recording, &app);
        let scopes = stem::cps::station_scopes(&recording, &app);
        let (sink_observer, ccu_observer) = stem::cps::scenario_observers(&recording);
        let engine_config = EngineConfig::new(world)
            .with_shards(SHARDS)
            .with_batch_size(1)
            .with_durability(Durability::Wal {
                dir: crash_dir.clone(),
                fsync: FsyncPolicy::Never,
            })
            .deterministic();
        let survivor = Collector::new();
        let mut recovery = Engine::recover(engine_config).expect("recover from durable state");
        let subs: Vec<Subscription> = stem::cps::engine_subscriptions(
            &app,
            &sink_observer,
            &ccu_observer,
            world,
            &scopes,
            || survivor.sink(),
        );
        for sub in subs {
            recovery.subscribe(sub);
        }
        let mut engine = recovery.resume();
        let resume = engine.resume_from();
        let tail = stem::wal::Replay::open(&record_dir)
            .unwrap()
            .from_seq(resume);
        engine.replay_records(tail.records());
        let _ = engine.finish_at(stem::temporal::TimePoint::EPOCH + recording.duration);
        assert_eq!(
            note_multiset(survivor.take()),
            replayed,
            "shape {shape}: crash-then-recover diverged from record-then-replay"
        );

        let _ = std::fs::remove_dir_all(&record_dir);
        let _ = std::fs::remove_dir_all(&crash_dir);
    }
}

/// Scoped-vs-unscoped equivalence on the production compile path: the
/// scoped compilation (the default — station subscriptions carry their
/// actual arrival footprint) must deliver exactly what a scope-stripped
/// compilation of the same subscriptions delivers over the same
/// recorded history. Pruning never drops an in-scope delivery; it only
/// reduces routing work.
#[test]
fn scoped_compilation_prunes_without_dropping_deliveries() {
    use stem::engine::{Collector, Engine, EngineConfig};

    const SHARDS: usize = 4;
    let note_multiset = |notes: Vec<stem::engine::Notification>| {
        let mut out: Vec<String> = notes
            .into_iter()
            .map(|n| format!("{}:{:?}", n.subscription.raw(), n.kind))
            .collect();
        out.sort();
        out
    };
    // The composite hotspot and the mobile-target tracking shape (the
    // one whose scope is genuinely padded by mobility slack).
    for shape in [0usize, 2] {
        let (config, app) = scenario(shape, 99);
        let record_dir = std::env::temp_dir().join(format!(
            "stem-equivalence-scoped-{shape}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&record_dir);
        let recording = ScenarioConfig {
            record_dir: Some(record_dir.to_string_lossy().into_owned()),
            backend: EvalBackend::Engine {
                shards: SHARDS,
                deterministic: true,
            },
            ..config
        };
        let _ = CpsSystem::run(recording.clone(), app.clone());

        // Scoped replay: the default compile path.
        let (scoped_notes, scoped_report) =
            stem::cps::replay_recorded(&recording, &app, &record_dir, SHARDS);
        if shape == 0 {
            // The hotspot's stations are prunable-scoped. The tracking
            // shape's scope is padded by the target's mobility slack
            // until it covers the world — honest: a detector following
            // a roaming target genuinely needs the whole field, and the
            // metric only counts scopes sharding can prune for.
            assert!(
                scoped_report.router.scoped_subscriptions > 0,
                "shape {shape}: station subscriptions must compile scoped"
            );
        }

        // Unscoped replay: identical subscriptions, scopes stripped —
        // the pre-scoping whole-world routing.
        let world = stem::cps::scenario_world_bounds(&recording, &app);
        let scopes = stem::cps::station_scopes(&recording, &app);
        let (sink_observer, ccu_observer) = stem::cps::scenario_observers(&recording);
        let mut engine = Engine::start(
            EngineConfig::new(world)
                .with_shards(SHARDS)
                .with_batch_size(1)
                .deterministic(),
        );
        let collector = Collector::new();
        for mut sub in stem::cps::engine_subscriptions(
            &app,
            &sink_observer,
            &ccu_observer,
            world,
            &scopes,
            || collector.sink(),
        ) {
            sub.scope = None;
            engine.subscribe(sub);
        }
        let replay = stem::wal::Replay::open(&record_dir).unwrap();
        engine.replay_records(replay.records());
        let unscoped_report =
            engine.finish_at(stem::temporal::TimePoint::EPOCH + recording.duration);
        assert_eq!(
            note_multiset(collector.take()),
            note_multiset(scoped_notes),
            "shape {shape}: scope pruning dropped an in-scope delivery"
        );
        assert_eq!(unscoped_report.router.scoped_subscriptions, 0);
        assert!(
            scoped_report.router.fanout <= unscoped_report.router.fanout,
            "shape {shape}: scoping must never increase fanout \
             (scoped {} vs unscoped {})",
            scoped_report.router.fanout,
            unscoped_report.router.fanout,
        );
        let _ = std::fs::remove_dir_all(&record_dir);
    }
}

/// A pinned non-property case so a plain `cargo test backend` run hits
/// the equivalence path even with `PROPTEST_CASES=0`.
#[test]
fn pinned_hotspot_engine_equivalence() {
    let (config, app) = hotspot(42);
    let des = fingerprint(&config, &app, EvalBackend::Des);
    for shards in [1, 4] {
        let engine = fingerprint(
            &config,
            &app,
            EvalBackend::Engine {
                shards,
                deterministic: true,
            },
        );
        assert_eq!(des, engine, "{shards}-shard engine backend diverged");
    }
}
