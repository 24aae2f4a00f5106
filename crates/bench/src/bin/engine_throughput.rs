//! BENCH-ENGINE: streaming-engine ingest throughput vs. shard count.
//!
//! Two workloads:
//!
//! * **micro** — synthetic per-mote generators through `stem-engine`
//!   with a dense layer of spatial subscriptions; end-to-end ingest
//!   throughput (instances/sec from first `ingest` to drained shutdown)
//!   at shard counts 1 / 2 / 4 / 8.
//! * **scenario** — the production path: the reference hotspot scenario
//!   run with `EvalBackend::Engine`, its notification multiset checked
//!   bit-for-bit against the DES backend, then its recorded sensor
//!   stream replayed through engine-compiled app subscriptions at
//!   several shard counts (`cargo run ... -- scenario` runs only this
//!   part, as the CI smoke test).
//! * **wal** — durability: the synthetic workload with the write-ahead
//!   log on (per fsync policy) vs off for append overhead, the recorded
//!   log replayed into a fresh engine for replay throughput, and a
//!   record→replay→diff of the hotspot scenario (`cargo run ... -- wal`
//!   runs only this part and merges a `wal` block into
//!   `BENCH_engine.json`).
//! * **scoped** — the wide-area workload: 144 district stations over
//!   one shared engine, compiled unscoped (every station's home shard
//!   receives the whole stream) vs scoped to their districts (the
//!   router's BVH-backed interest index prunes out-of-scope routing at
//!   enqueue time). Asserts `scoped_subscriptions > 0`, fanout strictly
//!   below the unscoped baseline, and delivery equality with the
//!   regional reference; merges a `scoped` block into
//!   `BENCH_engine.json` (`cargo run ... -- scoped` runs only this
//!   part, as the CI pruning check).
//! * **trace** — provenance: the synthetic workload at each
//!   flight-recorder sampling policy (`off` / `notifications_only` /
//!   `one_in_16` / `always`), asserting the lineage contract on every
//!   traced delivery and recording the throughput cost of causal
//!   tracing relative to hard-off (`cargo run ... -- trace` runs only
//!   this part and merges a `trace` block into `BENCH_engine.json`).
//! * **watch** — self-monitoring: the synthetic workload with telemetry
//!   sampling on, watchdog off vs on (built-in rules), asserting the
//!   watchdog's throughput cost stays under 2% — it runs only at
//!   snapshot cadence — then a stall-injected deterministic leg proving
//!   the alert path end to end (`cargo run ... -- watch` runs only this
//!   part and merges a `watch` block into `BENCH_engine.json`).
//! * **tenancy** — multi-tenancy: ≥100k structurally identical tenant
//!   subscriptions over the 144-district grid. Asserts the dedupe
//!   contract (one plan per district, ≤1% as many plans as
//!   subscriptions, dedupe ratio > 10x) and records throughput and
//!   registration rate (`cargo run ... -- tenancy` runs only this part
//!   and merges a `tenancy` block into `BENCH_engine.json`).
//!
//! Results go to `BENCH_engine.json` (full, `wal`, `snap`, `scoped`,
//! `trace`, `watch`, and `tenancy` runs).
//!
//! Why sharding pays even on a single core: each shard only scans the
//! subscriptions homed on it, so the per-instance evaluation scan
//! shrinks from K to ~K/S while routing stays O(1) via the leaf
//! interest index. On multi-core hosts the shard workers additionally
//! run in parallel.

use rand::Rng;
use stem_bench::{banner, hotspot_scenario, Table};
use stem_core::{
    dsl, Attributes, ConditionObserver, EventId, EventInstance, Layer, MoteId, ObserverId, SeqNo,
    TimedInstance,
};
use stem_cps::{
    engine_subscriptions, replay_recorded, scenario_world_bounds, station_scopes, CpsSystem,
    EvalBackend, ScenarioConfig,
};
use stem_des::stream;
use stem_engine::{
    Collector, Durability, Engine, EngineConfig, FsyncPolicy, NotificationKind, Subscription,
    TelemetryPolicy, TracePolicy, WatchPolicy,
};
use stem_obs::Stage;
use stem_spatial::{Circle, Field, Point, Rect, SpatialExtent};
use stem_temporal::{Duration, TimePoint};

const SEED: u64 = 17;
const WORLD: f64 = 1_000.0;
const GENERATORS: u64 = 64;
const INSTANCES: u64 = 120_000;
const SUBSCRIPTIONS_PER_SIDE: usize = 20; // 20x20 = 400 subscriptions
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const RUNS_PER_COUNT: usize = 3;

fn bounds() -> Rect {
    Rect::new(Point::new(0.0, 0.0), Point::new(WORLD, WORLD))
}

/// The synthetic workload: `GENERATORS` motes emitting readings whose
/// generation times interleave with bounded disorder across motes.
fn synthetic_stream() -> Vec<EventInstance> {
    let mut rng = stream(SEED, 1);
    (0..INSTANCES)
        .map(|i| {
            let t = 2 * i + rng.gen_range(0u64..8);
            let x = rng.gen_range(0.0..WORLD);
            let y = rng.gen_range(0.0..WORLD);
            let temp = rng.gen_range(10.0..80.0);
            EventInstance::builder(
                ObserverId::Mote(MoteId::new((i % GENERATORS) as u32)),
                EventId::new("reading"),
                Layer::Sensor,
            )
            .seq(SeqNo::new(i))
            .generated(TimePoint::new(t), Point::new(x, y))
            .attributes(Attributes::new().with("temp", temp))
            .build()
        })
        .collect()
}

/// A dense grid of circular hot-spot subscriptions covering the world.
fn register_subscriptions(engine: &mut Engine, collector: &Collector) {
    let step = WORLD / SUBSCRIPTIONS_PER_SIDE as f64;
    for gy in 0..SUBSCRIPTIONS_PER_SIDE {
        for gx in 0..SUBSCRIPTIONS_PER_SIDE {
            let center = Point::new((gx as f64 + 0.5) * step, (gy as f64 + 0.5) * step);
            engine.subscribe(
                Subscription::new(
                    format!("hot-{gx}-{gy}"),
                    SpatialExtent::field(Field::circle(Circle::new(center, step * 0.3))),
                    collector.sink(),
                )
                .for_event("reading")
                .when(dsl::parse("x.temp > 45").unwrap()),
            );
        }
    }
}

struct RunResult {
    shards: usize,
    elapsed_ms: f64,
    instances_per_sec: f64,
    notifications: u64,
    fanout: u64,
}

fn run_once(shards: usize, instances: &[EventInstance]) -> RunResult {
    let mut engine = Engine::start(
        EngineConfig::new(bounds())
            .with_shards(shards)
            .with_batch_size(256)
            .with_queue_capacity(32)
            .with_watermark_slack(Duration::new(16)),
    );
    let collector = Collector::new();
    register_subscriptions(&mut engine, &collector);
    engine.ingest_all(instances);
    let report = engine.finish();
    assert_eq!(report.router.routed, INSTANCES);
    assert_eq!(
        report.total_late_dropped(),
        0,
        "disorder is bounded by the slack"
    );
    RunResult {
        shards,
        elapsed_ms: report.elapsed.as_secs_f64() * 1e3,
        instances_per_sec: report.throughput(),
        notifications: report.total_notifications(),
        fanout: report.router.fanout,
    }
}

/// Best-of-N to damp scheduler noise; the match count must be identical
/// across every run and every shard count.
fn run_shard_count(shards: usize, instances: &[EventInstance]) -> RunResult {
    let mut best: Option<RunResult> = None;
    for _ in 0..RUNS_PER_COUNT {
        let r = run_once(shards, instances);
        if best
            .as_ref()
            .is_none_or(|b| r.instances_per_sec > b.instances_per_sec)
        {
            best = Some(r);
        }
    }
    best.expect("at least one run")
}

/// One scenario-replay measurement.
struct ScenarioRun {
    shards: usize,
    instances: u64,
    elapsed_ms: f64,
    instances_per_sec: f64,
    notifications: u64,
}

/// The production-path workload: engine-fed scenario equivalence plus a
/// recorded-stream replay through the compiled app subscriptions.
fn scenario_mode() -> (u64, Vec<ScenarioRun>) {
    const SCENARIO_SEED: u64 = 2026;
    const REPLAY_ROUNDS: u64 = 60;
    let (config, app) = hotspot_scenario(SCENARIO_SEED);
    println!("\n-- scenario mode: hotspot through the engine backend --\n");

    // 1. The engine backend must reproduce the DES backend bit-for-bit.
    let des = CpsSystem::run(config.clone(), app.clone());
    let des_log: Vec<String> = des.instances.iter().map(|i| format!("{i:?}")).collect();
    for shards in [1usize, 4] {
        let engine_config = stem_cps::ScenarioConfig {
            backend: EvalBackend::Engine {
                shards,
                deterministic: true,
            },
            ..config.clone()
        };
        let run = CpsSystem::run(engine_config, app.clone());
        let log: Vec<String> = run.instances.iter().map(|i| format!("{i:?}")).collect();
        assert_eq!(
            des_log, log,
            "{shards}-shard engine backend diverged from DES"
        );
        let engine = run.engine.expect("engine report");
        assert!(
            engine.router.scoped_subscriptions > 0,
            "station subscriptions must compile with their actual region of \
             interest, not the whole world: {}",
            engine.summary_line()
        );
        println!(
            "engine backend, {shards} shard(s): {} instances bit-identical to DES, \
             {} notifications, {} late-dropped, {} scoped subscriptions",
            log.len(),
            engine.total_notifications(),
            engine.total_late_dropped(),
            engine.router.scoped_subscriptions,
        );
        println!("  {}", engine.summary_line());
    }

    // 2. Replay the recorded sensor stream through the engine-compiled
    //    app subscriptions (the pure ingest path, no DES in the loop).
    let horizon = config.duration.ticks() + 1;
    let sensor_stream: Vec<EventInstance> = des.instances_at(Layer::Sensor).cloned().collect();
    let world = scenario_world_bounds(&config, &app);
    let scopes = station_scopes(&config, &app);
    let sink_observer =
        ConditionObserver::new(ObserverId::Sink(MoteId::new(0)), config.sink_near, 1.0);
    let ccu_observer = ConditionObserver::new(
        ObserverId::Ccu(stem_core::CcuId::new(0)),
        config.sink_near,
        1.0,
    );
    let replayed = REPLAY_ROUNDS * sensor_stream.len() as u64;
    println!(
        "\nreplaying {} recorded sensor instances x{REPLAY_ROUNDS} rounds \
         through the compiled subscriptions\n",
        sensor_stream.len()
    );
    // Interleave the shard counts round-robin instead of finishing all
    // repeats of one count first: clock-frequency drift over the
    // process lifetime then lands on every count equally rather than
    // systematically penalizing whichever count runs last.
    const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
    const ROUNDS: usize = 5;
    let mut bests: [Option<ScenarioRun>; SHARD_COUNTS.len()] = [None, None, None];
    for _ in 0..ROUNDS {
        for (slot, &shards) in SHARD_COUNTS.iter().enumerate() {
            let mut engine = Engine::start(
                EngineConfig::new(world)
                    .with_shards(shards)
                    .with_batch_size(256)
                    .with_queue_capacity(32),
            );
            let collector = Collector::new();
            for sub in
                engine_subscriptions(&app, &sink_observer, &ccu_observer, world, &scopes, || {
                    collector.sink()
                })
            {
                engine.subscribe(sub);
            }
            let mut source = (0..REPLAY_ROUNDS).flat_map(|round| {
                let offset = round * horizon;
                sensor_stream.iter().map(move |inst| TimedInstance {
                    at: TimePoint::new(inst.generation_time().ticks() + offset),
                    instance: inst.clone(),
                })
            });
            engine.pump(&mut source);
            let report = engine.finish();
            assert_eq!(report.router.routed, replayed);
            let run = ScenarioRun {
                shards,
                instances: replayed,
                elapsed_ms: report.elapsed.as_secs_f64() * 1e3,
                instances_per_sec: report.throughput(),
                notifications: report.total_notifications(),
            };
            if bests[slot]
                .as_ref()
                .is_none_or(|b| run.instances_per_sec > b.instances_per_sec)
            {
                bests[slot] = Some(run);
            }
        }
    }
    let runs: Vec<ScenarioRun> = bests
        .into_iter()
        .map(|b| b.expect("at least one run"))
        .collect();

    let mut table = Table::new(vec![
        "shards",
        "instances",
        "elapsed_ms",
        "instances/sec",
        "notifications",
    ]);
    for r in &runs {
        table.row(vec![
            r.shards.to_string(),
            r.instances.to_string(),
            format!("{:.1}", r.elapsed_ms),
            format!("{:.0}", r.instances_per_sec),
            r.notifications.to_string(),
        ]);
    }
    table.print();
    assert!(
        runs.iter()
            .all(|r| r.notifications == runs[0].notifications),
        "scenario replay match counts diverged across shard counts"
    );
    // Sharding the production replay path must never cost throughput:
    // the wait-free barrier keeps per-shard overhead below what the
    // smaller per-shard scans save. 10% slack absorbs timing noise on
    // a single-core runner (best-of-N interleaved runs still jitter
    // several percent); the regression this guards — the per-delivery
    // sync round trip — cost 2x, not 10%.
    let at1 = runs.first().expect("at least one shard count");
    let at4 = runs.last().expect("at least one shard count");
    assert!(
        at4.instances_per_sec >= 0.90 * at1.instances_per_sec,
        "scenario leg anti-scales: {:.0} inst/s at {} shards < {:.0} at {}",
        at4.instances_per_sec,
        at4.shards,
        at1.instances_per_sec,
        at1.shards,
    );
    (SCENARIO_SEED, runs)
}

/// One measured durability configuration.
struct WalRun {
    policy: &'static str,
    instances_per_sec: f64,
    records: u64,
    bytes: u64,
    segments: u64,
}

/// The durability workload: append overhead per fsync policy, replay
/// throughput from the recorded log, and a scenario record→replay diff.
/// Returns the `wal` JSON block for `BENCH_engine.json`.
fn wal_mode() -> String {
    const WAL_INSTANCES: usize = 40_000;
    const SHARDS: usize = 4;
    println!("\n-- wal mode: write-ahead durability --\n");
    let instances: Vec<EventInstance> =
        synthetic_stream().into_iter().take(WAL_INSTANCES).collect();
    let wal_root = std::env::temp_dir().join(format!("stem-bench-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_root);

    let run = |durability: Durability| -> (f64, stem_engine::WalMetrics) {
        let mut engine = Engine::start(
            EngineConfig::new(bounds())
                .with_shards(SHARDS)
                .with_batch_size(256)
                .with_queue_capacity(32)
                .with_watermark_slack(Duration::new(16))
                .with_durability(durability),
        );
        let collector = Collector::new();
        register_subscriptions(&mut engine, &collector);
        engine.ingest_all(instances.iter());
        let report = engine.finish();
        (report.throughput(), report.total_wal())
    };
    let mut runs = Vec::new();
    let (base_tput, _) = run(Durability::None);
    runs.push(WalRun {
        policy: "off",
        instances_per_sec: base_tput,
        records: 0,
        bytes: 0,
        segments: 0,
    });
    for (policy, fsync) in [
        ("never", FsyncPolicy::Never),
        ("every-256", FsyncPolicy::EveryN(256)),
    ] {
        let dir = wal_root.join(policy);
        let (tput, wal) = run(Durability::Wal {
            dir: dir.clone(),
            fsync,
        });
        runs.push(WalRun {
            policy,
            instances_per_sec: tput,
            records: wal.records_appended,
            bytes: wal.bytes_appended,
            segments: wal.segments_created,
        });
    }

    // Replay the `never` log into a fresh engine: historical-replay
    // throughput over the same subscriptions.
    let replay = stem_wal::Replay::open(&wal_root.join("never")).expect("open recorded wal");
    assert_eq!(replay.len(), WAL_INSTANCES, "every ingest is in the log");
    let mut engine = Engine::start(
        EngineConfig::new(bounds())
            .with_shards(SHARDS)
            .with_batch_size(256)
            .with_queue_capacity(32)
            .with_watermark_slack(Duration::new(16)),
    );
    let collector = Collector::new();
    register_subscriptions(&mut engine, &collector);
    let mut source = replay.into_instances();
    engine.pump(&mut source);
    let replay_report = engine.finish();
    let replay_tput = replay_report.throughput();

    let mut table = Table::new(vec!["wal", "instances/sec", "records", "bytes", "segments"]);
    for r in &runs {
        table.row(vec![
            r.policy.to_string(),
            format!("{:.0}", r.instances_per_sec),
            r.records.to_string(),
            r.bytes.to_string(),
            r.segments.to_string(),
        ]);
    }
    table.row(vec![
        "replay".to_string(),
        format!("{replay_tput:.0}"),
        String::new(),
        String::new(),
        String::new(),
    ]);
    table.print();
    for r in &runs[1..] {
        println!(
            "append overhead ({}): {:.1}% of in-memory throughput",
            r.policy,
            100.0 * (1.0 - r.instances_per_sec / base_tput)
        );
    }

    // Scenario smoke: record the hotspot through the engine backend,
    // replay the log through freshly compiled subscriptions, diff.
    const WAL_SCENARIO_SEED: u64 = 4242;
    let record_dir = wal_root.join("scenario");
    let (config, app) = hotspot_scenario(WAL_SCENARIO_SEED);
    let config = ScenarioConfig {
        backend: EvalBackend::Engine {
            shards: 2,
            deterministic: true,
        },
        record_dir: Some(record_dir.to_string_lossy().into_owned()),
        ..config
    };
    let report = CpsSystem::run(config.clone(), app.clone());
    let engine_report = report.engine.as_ref().expect("engine report");
    println!("\nrecord run:  {}", engine_report.summary_line());
    let mut recorded: Vec<String> = report
        .instances
        .iter()
        .filter(|i| matches!(i.layer(), Layer::CyberPhysical | Layer::Cyber))
        .map(|i| format!("{i:?}"))
        .collect();
    recorded.sort();
    let (notes, replay_scenario_report) = replay_recorded(&config, &app, &record_dir, 2);
    println!("replay run:  {}", replay_scenario_report.summary_line());
    let mut replayed: Vec<String> = notes
        .into_iter()
        .filter_map(|n| match n.kind {
            NotificationKind::Derived(inst) => Some(format!("{inst:?}")),
            _ => None,
        })
        .collect();
    replayed.sort();
    assert_eq!(
        recorded, replayed,
        "record→replay diff: the replayed detections must be bit-identical"
    );
    println!(
        "record→replay diff: {} derived detections, bit-identical",
        replayed.len()
    );
    let _ = std::fs::remove_dir_all(&wal_root);

    let mut block = String::from("{\n");
    block.push_str(&format!(
        "    \"workload\": \"{WAL_INSTANCES} synthetic instances, {SHARDS} shards, append vs replay\",\n"
    ));
    block.push_str("    \"append\": [\n");
    for (i, r) in runs.iter().enumerate() {
        block.push_str(&format!(
            "      {{\"policy\": \"{}\", \"instances_per_sec\": {:.0}, \"records\": {}, \"bytes\": {}, \"segments\": {}}}{}\n",
            r.policy,
            r.instances_per_sec,
            r.records,
            r.bytes,
            r.segments,
            if i + 1 == runs.len() { "" } else { "," }
        ));
    }
    block.push_str("    ],\n");
    block.push_str(&format!(
        "    \"replay\": {{\"instances\": {WAL_INSTANCES}, \"instances_per_sec\": {replay_tput:.0}}},\n"
    ));
    block.push_str(&format!(
        "    \"scenario_diff\": {{\"seed\": {WAL_SCENARIO_SEED}, \"detections\": {}, \"bit_identical\": true}}\n",
        replayed.len()
    ));
    block.push_str("  }");
    block
}

/// How a wide-area station subscription is compiled.
#[derive(Clone, Copy, PartialEq)]
enum StationCompile {
    /// Unbounded semantic region, no scope — the pre-scoping station
    /// compile: every station's home shard receives the whole stream.
    Unscoped,
    /// Unbounded semantic region scoped to the station's district —
    /// the production compile this PR introduces.
    Scoped,
    /// Semantic region = the district itself (a classic regional
    /// subscription): the reference for the delivery multiset.
    Regional,
}

/// One wide-area measurement.
struct ScopedRun {
    label: &'static str,
    shards: usize,
    instances_per_sec: f64,
    notifications: u64,
    fanout: u64,
    scoped_subscriptions: u64,
    plans_active: u64,
    bvh_nodes_visited: u64,
    precision_skipped: u64,
    scope_skipped: u64,
}

/// The wide-area workload: many district stations over one shared
/// engine. Each station wants its own district's readings; unscoped
/// compilation broadcasts every instance to every station's home
/// shard, scoped compilation prunes routing to the one district that
/// cares. The scoped/unscoped stations are identical templates
/// (everywhere-region, same condition) so plan sharing collapses them
/// to one plan per home shard; the regional compile keeps 144 distinct
/// plans (region is in the key) and is the leg that crosses the BVH
/// threshold. Returns the `scoped` JSON block for `BENCH_engine.json`
/// and asserts the pruning contract (scoped subscriptions registered,
/// fanout strictly below the unscoped baseline, deliveries identical
/// to the regional reference).
fn scoped_mode() -> String {
    const STATIONS_PER_SIDE: usize = 12; // 144 wide-area stations
    const SCOPED_INSTANCES: usize = 60_000;
    const SHARDS: usize = 8;
    println!("\n-- scoped mode: wide-area station scopes + BVH interest index --\n");
    let instances: Vec<EventInstance> = synthetic_stream()
        .into_iter()
        .take(SCOPED_INSTANCES)
        .collect();

    let everywhere = SpatialExtent::field(Field::rect(Rect::new(
        Point::new(-1e15, -1e15),
        Point::new(1e15, 1e15),
    )));
    let step = WORLD / STATIONS_PER_SIDE as f64;
    let district = |gx: usize, gy: usize| {
        Rect::new(
            Point::new(gx as f64 * step, gy as f64 * step),
            Point::new((gx as f64 + 1.0) * step, (gy as f64 + 1.0) * step),
        )
    };
    let run = |label: &'static str, shards: usize, compile: StationCompile| -> ScopedRun {
        let mut best: Option<ScopedRun> = None;
        for _ in 0..RUNS_PER_COUNT {
            let mut engine = Engine::start(
                EngineConfig::new(bounds())
                    .with_shards(shards)
                    .with_batch_size(256)
                    .with_queue_capacity(32)
                    .with_watermark_slack(Duration::new(16)),
            );
            let collector = Collector::new();
            for gy in 0..STATIONS_PER_SIDE {
                for gx in 0..STATIONS_PER_SIDE {
                    let rect = district(gx, gy);
                    let region = match compile {
                        StationCompile::Regional => SpatialExtent::field(Field::rect(rect)),
                        _ => everywhere.clone(),
                    };
                    let mut sub =
                        Subscription::new(format!("station-{gx}-{gy}"), region, collector.sink())
                            .for_event("reading")
                            .when(dsl::parse("x.temp > 45").unwrap())
                            .homed_near(rect.center());
                    if compile == StationCompile::Scoped {
                        sub = sub.scoped_to(SpatialExtent::field(Field::rect(rect)));
                    }
                    engine.subscribe(sub);
                }
            }
            engine.ingest_all(instances.iter());
            let report = engine.finish();
            let r = ScopedRun {
                label,
                shards,
                instances_per_sec: report.throughput(),
                notifications: report.total_notifications(),
                fanout: report.router.fanout,
                scoped_subscriptions: report.router.scoped_subscriptions,
                plans_active: report.plans_active,
                bvh_nodes_visited: report.router.bvh_nodes_visited,
                precision_skipped: report.router.precision_skipped,
                scope_skipped: report.total_scope_skipped(),
            };
            if best
                .as_ref()
                .is_none_or(|b| r.instances_per_sec > b.instances_per_sec)
            {
                best = Some(r);
            }
        }
        best.expect("at least one run")
    };

    let runs = [
        run("unscoped", SHARDS, StationCompile::Unscoped),
        run("scoped-1", 1, StationCompile::Scoped),
        run("scoped", SHARDS, StationCompile::Scoped),
        run("regional", SHARDS, StationCompile::Regional),
    ];
    let unscoped = &runs[0];
    let scoped = &runs[2];
    let regional = &runs[3];

    let mut table = Table::new(vec![
        "compile",
        "shards",
        "instances/sec",
        "notifications",
        "fanout",
        "plans",
        "bvh_nodes",
        "prec_skip",
        "scope_skip",
    ]);
    for r in &runs {
        table.row(vec![
            r.label.to_string(),
            r.shards.to_string(),
            format!("{:.0}", r.instances_per_sec),
            r.notifications.to_string(),
            r.fanout.to_string(),
            r.plans_active.to_string(),
            r.bvh_nodes_visited.to_string(),
            r.precision_skipped.to_string(),
            r.scope_skipped.to_string(),
        ]);
    }
    table.print();

    // The pruning contract, asserted where CI can see it fail.
    assert!(
        scoped.scoped_subscriptions > 0,
        "scoped compile must register scoped subscriptions"
    );
    assert!(
        scoped.fanout < unscoped.fanout,
        "scoped fanout ({}) must be strictly below the unscoped baseline ({})",
        scoped.fanout,
        unscoped.fanout,
    );
    assert!(
        unscoped.fanout - scoped.fanout + scoped.precision_skipped + scoped.scope_skipped > 0,
        "out-of-scope drops must be visible"
    );
    assert!(
        scoped.plans_active <= SHARDS as u64,
        "identical-template stations must share one plan per home shard (got {})",
        scoped.plans_active,
    );
    assert!(
        regional.bvh_nodes_visited > 0,
        "144 distinct-region stations across {SHARDS} shards cross the BVH threshold"
    );
    assert_eq!(
        scoped.notifications, regional.notifications,
        "scoped stations must deliver exactly the regional reference multiset"
    );
    println!(
        "\nfanout: scoped {} vs unscoped {} ({:.1}% of baseline); \
         speedup vs unscoped at {SHARDS} shards: {:.2}x",
        scoped.fanout,
        unscoped.fanout,
        100.0 * scoped.fanout as f64 / unscoped.fanout.max(1) as f64,
        scoped.instances_per_sec / unscoped.instances_per_sec,
    );

    let mut block = String::from("{\n");
    block.push_str(&format!(
        "    \"workload\": \"{SCOPED_INSTANCES} synthetic instances, {} wide-area \
         district stations, unscoped vs scoped vs regional compile\",\n",
        STATIONS_PER_SIDE * STATIONS_PER_SIDE,
    ));
    block.push_str("    \"results\": [\n");
    for (i, r) in runs.iter().enumerate() {
        block.push_str(&format!(
            "      {{\"compile\": \"{}\", \"shards\": {}, \"instances_per_sec\": {:.0}, \
             \"notifications\": {}, \"fanout\": {}, \"scoped_subscriptions\": {}, \
             \"plans_active\": {}, \"bvh_nodes_visited\": {}, \"precision_skipped\": {}, \
             \"scope_skipped\": {}}}{}\n",
            r.label,
            r.shards,
            r.instances_per_sec,
            r.notifications,
            r.fanout,
            r.scoped_subscriptions,
            r.plans_active,
            r.bvh_nodes_visited,
            r.precision_skipped,
            r.scope_skipped,
            if i + 1 == runs.len() { "" } else { "," }
        ));
    }
    block.push_str("    ],\n");
    block.push_str(&format!(
        "    \"fanout_vs_unscoped\": {:.4},\n",
        scoped.fanout as f64 / unscoped.fanout.max(1) as f64
    ));
    block.push_str(&format!(
        "    \"speedup_vs_unscoped\": {:.4}\n",
        scoped.instances_per_sec / unscoped.instances_per_sec
    ));
    block.push_str("  }");
    block
}

/// The multi-tenancy workload: ≥100k structurally identical station
/// subscriptions (the paper's 10⁵-observer regime — every tenant in a
/// district asks the same question, only the sink differs) over the
/// 144-district grid. Shared-plan canonicalization must collapse them
/// to one detector instance per district; asserts the dedupe contract
/// (≤1% as many plans as subscriptions, dedupe ratio > 10x) and
/// returns the `tenancy` JSON block for `BENCH_engine.json`.
fn tenancy_mode() -> String {
    const STATIONS_PER_SIDE: usize = 12; // 144 districts
    const TENANTS_PER_DISTRICT: usize = 700; // 100_800 subscriptions
    const TENANCY_INSTANCES: usize = 60_000;
    const SHARDS: usize = 8;
    println!("\n-- tenancy mode: shared detector plans at 100k subscriptions --\n");
    let instances: Vec<EventInstance> = synthetic_stream()
        .into_iter()
        .take(TENANCY_INSTANCES)
        .collect();
    let step = WORLD / STATIONS_PER_SIDE as f64;
    let district = |gx: usize, gy: usize| {
        Rect::new(
            Point::new(gx as f64 * step, gy as f64 * step),
            Point::new((gx as f64 + 1.0) * step, (gy as f64 + 1.0) * step),
        )
    };
    let mut engine = Engine::start(
        EngineConfig::new(bounds())
            .with_shards(SHARDS)
            .with_batch_size(256)
            .with_queue_capacity(32)
            .with_watermark_slack(Duration::new(16)),
    );
    let collector = Collector::new();
    let reg_started = std::time::Instant::now();
    let mut subscriptions = 0u64;
    for gy in 0..STATIONS_PER_SIDE {
        for gx in 0..STATIONS_PER_SIDE {
            let rect = district(gx, gy);
            for t in 0..TENANTS_PER_DISTRICT {
                // The template (region, filter, condition, home) is
                // identical across a district's tenants; only the name
                // and sink — subscriber identity — vary. The threshold
                // sits above the synthetic temp range so dispatch cost,
                // not delivery, is measured.
                engine.subscribe(
                    Subscription::new(
                        format!("tenant-{gx}-{gy}-{t}"),
                        SpatialExtent::field(Field::rect(rect)),
                        collector.sink(),
                    )
                    .for_event("reading")
                    .when(dsl::parse("x.temp > 99.5").unwrap())
                    .homed_near(rect.center()),
                );
                subscriptions += 1;
            }
        }
    }
    let register_per_sec = subscriptions as f64 / reg_started.elapsed().as_secs_f64();
    engine.ingest_all(instances.iter());
    let report = engine.finish();
    let (plans_active, dedupe_ratio) = (report.plans_active, report.dedupe_ratio());
    println!(
        "{subscriptions} subscriptions -> {plans_active} plans ({dedupe_ratio:.1}x dedupe); \
         {:.0} registrations/sec, {:.0} instances/sec",
        register_per_sec,
        report.throughput(),
    );

    // The dedupe contract, asserted where CI can see it fail.
    assert!(
        subscriptions >= 100_000,
        "the tenancy workload must register at least 100k subscriptions"
    );
    assert_eq!(
        plans_active,
        (STATIONS_PER_SIDE * STATIONS_PER_SIDE) as u64,
        "identical tenant templates must collapse to one plan per district"
    );
    assert!(
        plans_active * 100 <= subscriptions,
        "shared plans must number at most 1% of subscriptions \
         ({plans_active} plans for {subscriptions})",
    );
    assert!(
        dedupe_ratio > 10.0,
        "plan dedupe ratio must exceed 10x (got {dedupe_ratio:.1}x)",
    );
    assert_eq!(
        report.total_notifications(),
        0,
        "the over-threshold condition must not deliver"
    );

    format!(
        "{{\n    \"workload\": \"{subscriptions} structurally identical tenant subscriptions \
         over {} districts\",\n    \"subscriptions\": {subscriptions},\n    \
         \"plans_active\": {plans_active},\n    \"dedupe_ratio\": {dedupe_ratio:.1},\n    \
         \"max_fanout\": {},\n    \"instances\": {},\n    \"instances_per_sec\": {:.0},\n    \
         \"register_per_sec\": {register_per_sec:.0}\n  }}",
        STATIONS_PER_SIDE * STATIONS_PER_SIDE,
        report.plan_subscribers_max,
        instances.len(),
        report.throughput(),
    )
}

/// Merges a named top-level block into `BENCH_engine.json`, replacing
/// an existing one (so `-- wal` / `-- snap` refresh their numbers
/// without discarding the full run's results).
fn merge_block(key: &str, block: &str) {
    let path = "BENCH_engine.json";
    let existing = std::fs::read_to_string(path).ok();
    let json = merged_json(existing.as_deref(), key, block);
    std::fs::write(path, json).expect("write BENCH_engine.json");
    println!("\nmerged {key} block into BENCH_engine.json");
}

/// The pure merge behind [`merge_block`]: `existing` is the current
/// file contents (None = no file yet), `block` the new value for
/// `key`. Refreshing a key that already exists replaces its value *in
/// place* — everything after the old value, including blocks merged by
/// later modes, is preserved. (Brace matching ignores strings; bench
/// block values never contain braces inside string literals.)
fn merged_json(existing: Option<&str>, key: &str, block: &str) -> String {
    let marker = format!(",\n  \"{key}\":");
    match existing {
        Some(text) => match text.find(&marker) {
            Some(i) => {
                let value_start = i + marker.len();
                let open = text[value_start..]
                    .find('{')
                    .map(|o| value_start + o)
                    .expect("block value is an object");
                let mut depth = 0usize;
                let mut end = None;
                for (off, ch) in text[open..].char_indices() {
                    match ch {
                        '{' => depth += 1,
                        '}' => {
                            depth -= 1;
                            if depth == 0 {
                                end = Some(open + off + 1);
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                let end = end.expect("balanced block braces");
                format!("{},\n  \"{key}\": {block}{}", &text[..i], &text[end..])
            }
            None => {
                let last = text.rfind('}').expect("json object");
                let head = text[..last].trim_end();
                format!("{head},\n  \"{key}\": {block}\n}}\n")
            }
        },
        None => format!("{{\n  \"bench\": \"engine_throughput\",\n  \"{key}\": {block}\n}}\n"),
    }
}

/// Bytes on disk under `dir` (WAL segments + snapshots).
fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The checkpoint workload: crash recovery by full-log replay vs
/// newest-snapshot + WAL tail, and the disk footprint compaction
/// leaves behind. Also the CI smoke: record → checkpoint → kill →
/// recover → diff the resumed delivery stream against an uninterrupted
/// run. Returns the `snap` JSON block for `BENCH_engine.json`.
fn snap_mode() -> String {
    const SNAP_INSTANCES: usize = 40_000;
    const SHARDS: usize = 4;
    println!("\n-- snap mode: checkpoint snapshots + bounded-time recovery --\n");
    let instances: Vec<EventInstance> = synthetic_stream()
        .into_iter()
        .take(SNAP_INSTANCES)
        .collect();
    let snap_root = std::env::temp_dir().join(format!("stem-bench-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snap_root);

    // Record the same stream twice: once WAL-only (recovery = full
    // replay), once checkpointed (recovery = snapshot + tail). Both in
    // deterministic mode so the crash (drop) is synchronous.
    let base_config = |dir: &std::path::Path| {
        EngineConfig::new(bounds())
            .with_shards(SHARDS)
            .with_batch_size(256)
            .with_watermark_slack(Duration::new(16))
            .with_wal_segment_bytes(256 << 10)
            .with_wal(dir)
            .deterministic()
    };
    let record = |config: EngineConfig| {
        let mut engine = Engine::start(config);
        let collector = Collector::new();
        register_subscriptions(&mut engine, &collector);
        engine.ingest_all(instances.iter());
        engine.flush();
        drop(engine); // the simulated crash
        collector.take().len() as u64
    };
    let full_dir = snap_root.join("full-replay");
    let delivered_full = record(base_config(&full_dir));
    let snap_dir = snap_root.join("checkpointed");
    let delivered_snap = record(
        base_config(&snap_dir).with_checkpoint(stem_engine::CheckpointPolicy::EveryNBatches(64)),
    );
    assert_eq!(
        delivered_full, delivered_snap,
        "checkpointing must not change detection"
    );
    let full_bytes = dir_bytes(&full_dir);
    let snap_bytes = dir_bytes(&snap_dir);
    // Both runs recorded the identical stream with identical segment
    // rotation, so the segment-count delta is exactly what compaction
    // retired in the checkpointed run.
    let wal_segments = |dir: &std::path::Path| {
        std::fs::read_dir(dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_str()
                    .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
            })
            .count() as u64
    };
    let retired = wal_segments(&full_dir) - wal_segments(&snap_dir);

    // Measure recovery wall time + replay volume for both.
    let recover = |config: EngineConfig| {
        let collector = Collector::new();
        let start = std::time::Instant::now();
        let mut recovery = Engine::recover(config).expect("recover from durable state");
        register_subscriptions_recovery(&mut recovery, &collector);
        let stats = recovery.stats();
        let engine = recovery.resume();
        let report = engine.finish();
        (start.elapsed().as_secs_f64() * 1e3, stats, report)
    };
    let (full_ms, full_stats, _) = recover(base_config(&full_dir));
    let (snap_ms, snap_stats, _) = recover(
        base_config(&snap_dir).with_checkpoint(stem_engine::CheckpointPolicy::EveryNBatches(64)),
    );
    assert!(
        snap_stats.snapshot_epoch.is_some(),
        "a checkpoint floor exists"
    );
    assert_eq!(snap_stats.snapshots_loaded, SHARDS as u64);
    assert!(
        snap_stats.records < full_stats.records,
        "snapshot recovery must replay fewer records ({} vs {})",
        snap_stats.records,
        full_stats.records,
    );

    let mut table = Table::new(vec![
        "recovery",
        "records_replayed",
        "elapsed_ms",
        "disk_bytes",
        "snapshots",
    ]);
    table.row(vec![
        "full-replay".to_string(),
        full_stats.records.to_string(),
        format!("{full_ms:.1}"),
        full_bytes.to_string(),
        "0".to_string(),
    ]);
    table.row(vec![
        "snapshot+tail".to_string(),
        snap_stats.records.to_string(),
        format!("{snap_ms:.1}"),
        snap_bytes.to_string(),
        snap_stats.snapshots_loaded.to_string(),
    ]);
    table.print();
    println!(
        "tail replay is {:.1}% of the full log; compacted dir is {:.1}% of the \
         uncompacted one",
        100.0 * snap_stats.records as f64 / full_stats.records.max(1) as f64,
        100.0 * snap_bytes as f64 / full_bytes.max(1) as f64,
    );

    // CI smoke: record → checkpoint → kill → recover → diff. A short
    // crash-resume leg whose continuation must line up exactly with an
    // uninterrupted reference.
    let smoke = instances.len() / 4;
    let smoke_config = |dir: &std::path::Path| {
        base_config(dir)
            .with_batch_size(64)
            .with_checkpoint(stem_engine::CheckpointPolicy::EveryNBatches(16))
    };
    let smoke_full = snap_root.join("smoke-full");
    let reference = Collector::new();
    let mut engine = Engine::start(smoke_config(&smoke_full));
    register_subscriptions(&mut engine, &reference);
    engine.ingest_all(instances.iter().take(smoke));
    let _ = engine.finish();
    let expected = reference.take().len();

    let smoke_dir = snap_root.join("smoke-crash");
    let lost = Collector::new();
    let mut engine = Engine::start(smoke_config(&smoke_dir));
    register_subscriptions(&mut engine, &lost);
    engine.ingest_all(instances.iter().take(smoke / 2));
    engine.flush();
    drop(engine); // kill
    let survivor = Collector::new();
    let mut recovery =
        Engine::recover(smoke_config(&smoke_dir)).expect("recover from durable state");
    register_subscriptions_recovery(&mut recovery, &survivor);
    let covered: u64 = recovery.snapshot_delivered().values().sum();
    let mut engine = recovery.resume();
    let resume = usize::try_from(engine.resume_from()).unwrap();
    for inst in instances.iter().take(smoke).skip(resume) {
        engine.ingest(inst.clone());
    }
    let _ = engine.finish();
    let resumed = survivor.take().len();
    assert_eq!(
        resumed as u64 + covered,
        expected as u64,
        "resumed deliveries + snapshot-covered prefix must equal the \
         uninterrupted run"
    );
    println!(
        "\nrecord→checkpoint→kill→recover→diff: {expected} notifications \
         ({covered} covered by the snapshot, {resumed} resumed), bit-identical"
    );
    let _ = std::fs::remove_dir_all(&snap_root);

    let mut block = String::from("{\n");
    block.push_str(&format!(
        "    \"workload\": \"{SNAP_INSTANCES} synthetic instances, {SHARDS} shards, \
         crash recovery full-replay vs snapshot+tail\",\n"
    ));
    block.push_str(&format!(
        "    \"full_replay\": {{\"records\": {}, \"elapsed_ms\": {full_ms:.1}, \
         \"disk_bytes\": {full_bytes}}},\n",
        full_stats.records,
    ));
    block.push_str(&format!(
        "    \"snapshot_tail\": {{\"records\": {}, \"elapsed_ms\": {snap_ms:.1}, \
         \"disk_bytes\": {snap_bytes}, \"snapshots_loaded\": {}, \
         \"segments_retired\": {retired}}},\n",
        snap_stats.records, snap_stats.snapshots_loaded,
    ));
    block.push_str(&format!(
        "    \"smoke_diff\": {{\"notifications\": {expected}, \"snapshot_covered\": \
         {covered}, \"resumed\": {resumed}, \"bit_identical\": true}}\n"
    ));
    block.push_str("  }");
    block
}

/// Validates a telemetry export file: every line parses as JSON with
/// the versioned schema, sequence numbers are strictly monotone.
/// Returns the line count.
fn validate_export(path: &std::path::Path) -> usize {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read telemetry export {}: {e}", path.display()));
    let mut last_key = None;
    let mut lines = 0;
    for line in text.lines() {
        let v = stem_obs::json::parse(line)
            .unwrap_or_else(|e| panic!("telemetry line {lines} is not valid JSON: {e}"));
        assert_eq!(
            v.get("v").and_then(stem_obs::json::Value::as_u64),
            Some(stem_obs::SCHEMA_VERSION),
            "telemetry schema version"
        );
        let epoch = v
            .get("epoch")
            .and_then(stem_obs::json::Value::as_u64)
            .expect("telemetry line carries an epoch");
        let seq = v
            .get("seq")
            .and_then(stem_obs::json::Value::as_u64)
            .expect("telemetry line carries a seq");
        if let Some(prev) = last_key {
            assert!(
                (epoch, seq) > prev,
                "telemetry (epoch, seq) keys must be strictly monotone"
            );
        }
        last_key = Some((epoch, seq));
        assert!(v.get("stages").is_some(), "telemetry line carries stages");
        lines += 1;
    }
    assert!(lines > 0, "telemetry export must contain samples");
    lines
}

/// Renders one stage histogram as a JSON fragment (`null` if the stage
/// never ran).
fn stage_json(merged: &stem_obs::Recorder, stage: Stage) -> String {
    let h = merged.stage(stage);
    if h.is_empty() {
        "null".to_owned()
    } else {
        format!(
            "{{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
            h.count(),
            h.p50().unwrap_or(0),
            h.p90().unwrap_or(0),
            h.p99().unwrap_or(0),
            h.max()
        )
    }
}

/// The stages the `obs` block reports, in pipeline order.
const OBS_STAGES: [Stage; 12] = [
    Stage::Ingest,
    Stage::BatchBuild,
    Stage::BatchReset,
    Stage::Route,
    Stage::Enqueue,
    Stage::ReorderRelease,
    Stage::ScopePrune,
    Stage::Evaluate,
    Stage::WalAppend,
    Stage::WalFsync,
    Stage::BarrierWait,
    Stage::NotifyFoldback,
];

/// The telemetry workload: the synthetic stream with the full pipeline
/// instrumented (WAL on, periodic syncs so the barrier is exercised)
/// at 1 vs 4 shards, then the hotspot scenario through the engine
/// backend with `telemetry_dir` — where the barrier + notify fold-back
/// share of the engine's wall time makes ROADMAP item 5's anti-scaling
/// measurable. Returns the `obs` JSON block for `BENCH_engine.json`.
fn obs_mode() -> String {
    const OBS_INSTANCES: usize = 60_000;
    const SYNC_EVERY: usize = 4_096;
    println!("\n-- obs mode: live telemetry + stage latency breakdown --\n");
    let obs_root = std::env::temp_dir().join(format!("stem-bench-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&obs_root);
    let instances: Vec<EventInstance> =
        synthetic_stream().into_iter().take(OBS_INSTANCES).collect();

    let mut micro_blocks = Vec::new();
    for shards in [1usize, 4] {
        let export = obs_root.join(format!("micro-{shards}.jsonl"));
        let mut engine = Engine::start(
            EngineConfig::new(bounds())
                .with_shards(shards)
                .with_batch_size(256)
                .with_queue_capacity(32)
                .with_watermark_slack(Duration::new(16))
                .with_durability(Durability::Wal {
                    dir: obs_root.join(format!("wal-{shards}")),
                    fsync: FsyncPolicy::EveryN(256),
                })
                .with_telemetry(
                    TelemetryPolicy::every_batches(32)
                        .with_ring(256)
                        .with_export(&export),
                ),
        );
        let collector = Collector::new();
        register_subscriptions(&mut engine, &collector);
        // Columnar chunks with a periodic sync: exercises batch build /
        // arena reset and the barrier so all three have samples.
        for chunk in instances.chunks(SYNC_EVERY) {
            engine.ingest_all(chunk);
            engine.sync();
        }
        let report = engine.finish();
        let obs = report.obs.as_ref().expect("telemetry was on");
        let export_lines = validate_export(&export);
        assert!(!obs.snapshots.is_empty(), "the snapshot ring is populated");
        for stage in [
            Stage::Ingest,
            Stage::BatchBuild,
            Stage::BatchReset,
            Stage::Route,
            Stage::Enqueue,
            Stage::ReorderRelease,
            Stage::ScopePrune,
            Stage::Evaluate,
            Stage::WalAppend,
            Stage::WalFsync,
        ] {
            assert!(
                !obs.merged.stage(stage).is_empty(),
                "stage {} must have samples",
                stage.name()
            );
        }
        let lag = obs
            .merged
            .hist("watermark_lag")
            .expect("watermark lag histogram");
        let mut table = Table::new(vec![
            "stage", "count", "p50_ns", "p90_ns", "p99_ns", "max_ns",
        ]);
        for stage in OBS_STAGES {
            let h = obs.merged.stage(stage);
            if h.is_empty() {
                continue;
            }
            table.row(vec![
                stage.name().to_string(),
                h.count().to_string(),
                h.p50().unwrap_or(0).to_string(),
                h.p90().unwrap_or(0).to_string(),
                h.p99().unwrap_or(0).to_string(),
                h.max().to_string(),
            ]);
        }
        println!(
            "micro, {shards} shard(s): {:.0} instances/sec, {export_lines} export \
             lines, watermark lag p99 {} max {}",
            report.throughput(),
            lag.p99().unwrap_or(0),
            lag.max(),
        );
        table.print();
        let stages = OBS_STAGES
            .iter()
            .map(|&s| format!("\"{}\": {}", s.name(), stage_json(&obs.merged, s)))
            .collect::<Vec<_>>()
            .join(", ");
        micro_blocks.push(format!(
            "      {{\"shards\": {shards}, \"instances_per_sec\": {:.0}, \
             \"export_lines\": {export_lines}, \"watermark_lag_p99\": {}, \
             \"stages\": {{{stages}}}}}",
            report.throughput(),
            lag.p99().unwrap_or(0),
        ));
    }

    // The scenario leg: the production path where every delivery syncs,
    // so the barrier + fold-back cost dominates as shards go up (the
    // anti-scaling ROADMAP item 5 records).
    const OBS_SCENARIO_SEED: u64 = 7171;
    let (config, app) = hotspot_scenario(OBS_SCENARIO_SEED);
    let mut scenario_blocks = Vec::new();
    for shards in [1usize, 4] {
        let dir = obs_root.join(format!("scenario-{shards}"));
        let run_config = ScenarioConfig {
            backend: EvalBackend::Engine {
                shards,
                deterministic: false,
            },
            telemetry_dir: Some(dir.to_string_lossy().into_owned()),
            ..config.clone()
        };
        let run = CpsSystem::run(run_config, app.clone());
        let engine = run.engine.expect("engine report");
        let obs = engine.obs.as_ref().expect("telemetry was on");
        validate_export(&dir.join("telemetry.jsonl"));
        let elapsed_ns = engine.elapsed.as_nanos() as f64;
        let barrier_ns = obs.merged.stage(Stage::BarrierWait).sum() as f64;
        let foldback_ns = obs.merged.stage(Stage::NotifyFoldback).sum() as f64;
        let share = (barrier_ns + foldback_ns) / elapsed_ns.max(1.0);
        println!(
            "scenario, {shards} shard(s): engine wall {:.1} ms, barrier wait \
             {:.1} ms, notify fold-back {:.1} ms — {:.1}% of engine time at the \
             barrier or folding back",
            elapsed_ns / 1e6,
            barrier_ns / 1e6,
            foldback_ns / 1e6,
            100.0 * share,
        );
        scenario_blocks.push(format!(
            "      {{\"shards\": {shards}, \"engine_elapsed_ms\": {:.1}, \
             \"barrier_wait_ms\": {:.1}, \"notify_foldback_ms\": {:.1}, \
             \"barrier_foldback_share\": {share:.4}}}",
            elapsed_ns / 1e6,
            barrier_ns / 1e6,
            foldback_ns / 1e6,
        ));
        // The wait-free barrier + fold-back fast path hold the combined
        // share well under the pre-optimization ~37%: regressions fail
        // the bench, not just drift in the JSON.
        assert!(
            share < 0.15,
            "barrier + fold-back share at {shards} shard(s) regressed: \
             {share:.4} >= 0.15"
        );
    }
    let _ = std::fs::remove_dir_all(&obs_root);

    let mut block = String::from("{\n");
    block.push_str(&format!(
        "    \"workload\": \"{OBS_INSTANCES} synthetic instances (wal + periodic \
         sync) and the hotspot scenario, stage latency via stem-obs\",\n"
    ));
    block.push_str(&format!("    \"schema\": {},\n", stem_obs::SCHEMA_VERSION));
    block.push_str("    \"exporter_valid\": true,\n");
    block.push_str("    \"micro\": [\n");
    block.push_str(&micro_blocks.join(",\n"));
    block.push_str("\n    ],\n");
    block.push_str("    \"scenario\": [\n");
    block.push_str(&scenario_blocks.join(",\n"));
    block.push_str("\n    ]\n");
    block.push_str("  }");
    block
}

/// The provenance workload: the synthetic leg at each flight-recorder
/// sampling policy, measured against the hard-off baseline so the
/// cost of causal tracing is a number, not a feeling. Every traced
/// run also proves the lineage contract — each delivered notification
/// carries a provenance with at least one constituent and monotone
/// stage stamps. Returns the `trace` JSON block for
/// `BENCH_engine.json`.
fn trace_mode() -> String {
    const TRACE_SHARDS: usize = 4;
    // Overhead ratios need tighter noise damping than the shard-count
    // sweep: a few percent is the whole signal.
    const TRACE_RUNS: usize = 5;
    println!("\n-- trace mode: flight-recorder overhead per sampling policy --\n");
    let instances = synthetic_stream();
    let policies: [(&str, TracePolicy); 4] = [
        ("off", TracePolicy::Off),
        ("notifications_only", TracePolicy::NotificationsOnly),
        ("one_in_16", TracePolicy::OneInN(16)),
        ("always", TracePolicy::Always),
    ];

    struct TraceRun {
        name: &'static str,
        instances_per_sec: f64,
        notifications: usize,
        ring_records: usize,
        ring_evicted: u64,
    }

    let mut runs: Vec<TraceRun> = Vec::new();
    for (name, policy) in policies {
        let mut best: Option<TraceRun> = None;
        for _ in 0..TRACE_RUNS {
            let mut engine = Engine::start(
                EngineConfig::new(bounds())
                    .with_shards(TRACE_SHARDS)
                    .with_batch_size(256)
                    .with_queue_capacity(32)
                    .with_watermark_slack(Duration::new(16))
                    .with_trace(policy)
                    .with_trace_ring(4_096),
            );
            let collector = Collector::new();
            register_subscriptions(&mut engine, &collector);
            engine.ingest_all(&instances);
            let report = engine.finish();
            assert_eq!(report.router.routed, INSTANCES);
            let notes = collector.take();
            let traced = !matches!(policy, TracePolicy::Off);
            assert_eq!(report.trace.is_some(), traced);
            // The lineage contract, checked on every traced delivery.
            for note in &notes {
                match (&note.provenance, traced) {
                    (Some(p), true) => {
                        assert!(!p.constituents.is_empty(), "constituents present");
                        assert!(p.stamps.is_monotone(), "stage stamps monotone");
                    }
                    (None, false) => {}
                    (p, _) => panic!(
                        "policy {name}: provenance presence {} diverged from policy",
                        p.is_some()
                    ),
                }
            }
            let (ring_records, ring_evicted) = report
                .trace
                .as_ref()
                .map_or((0, 0), |t| (t.records.len(), t.evicted));
            let r = TraceRun {
                name,
                instances_per_sec: report.throughput(),
                notifications: notes.len(),
                ring_records,
                ring_evicted,
            };
            if best
                .as_ref()
                .is_none_or(|b| r.instances_per_sec > b.instances_per_sec)
            {
                best = Some(r);
            }
        }
        runs.push(best.expect("at least one run"));
    }

    let baseline = runs[0].instances_per_sec;
    assert!(
        runs.iter()
            .all(|r| r.notifications == runs[0].notifications),
        "sampling policy must not change detection"
    );
    let mut table = Table::new(vec![
        "policy",
        "instances/sec",
        "vs_off",
        "ring_records",
        "ring_evicted",
    ]);
    for r in &runs {
        table.row(vec![
            r.name.to_string(),
            format!("{:.0}", r.instances_per_sec),
            format!("{:.3}", r.instances_per_sec / baseline),
            r.ring_records.to_string(),
            r.ring_evicted.to_string(),
        ]);
    }
    table.print();

    let mut block = String::from("{\n");
    block.push_str(&format!(
        "    \"workload\": \"{INSTANCES} synthetic instances, {TRACE_SHARDS} \
         shards, flight-recorder ring 4096, best of {TRACE_RUNS}\",\n"
    ));
    block.push_str("    \"results\": [\n");
    for (i, r) in runs.iter().enumerate() {
        block.push_str(&format!(
            "      {{\"policy\": \"{}\", \"instances_per_sec\": {:.0}, \
             \"throughput_vs_off\": {:.4}, \"notifications\": {}, \
             \"ring_records\": {}, \"ring_evicted\": {}}}{}\n",
            r.name,
            r.instances_per_sec,
            r.instances_per_sec / baseline,
            r.notifications,
            r.ring_records,
            r.ring_evicted,
            if i + 1 == runs.len() { "" } else { "," }
        ));
    }
    block.push_str("    ]\n");
    block.push_str("  }");
    block
}

/// The self-monitoring workload: the synthetic leg with telemetry
/// sampling on, watchdog off vs on (built-in rules), interleaved over
/// 5 rounds — the watchdog evaluates only at snapshot cadence, so its
/// throughput cost must stay under 2%. The asserted number is the
/// *minimum* per-round overhead: each round pairs an off and an on run
/// back to back, so cross-round machine drift (several percent on a
/// busy single-core host) cancels instead of masquerading as watchdog
/// cost. A stall-injected deterministic leg then
/// proves the alert path end to end: a frozen-clock tail raises
/// `watermark-stall` whose provenance resolves to real snapshot seqs
/// in the retained ring. Returns the `watch` JSON block for
/// `BENCH_engine.json`.
fn watch_mode() -> String {
    const WATCH_SHARDS: usize = 4;
    // Overhead ratios need the same noise damping as trace mode: the
    // whole signal is a couple of percent.
    const WATCH_RUNS: usize = 5;
    println!("\n-- watch mode: watchdog overhead at snapshot cadence --\n");
    let instances = synthetic_stream();

    // (instances/sec, notifications, alerts) — best throughput of 5.
    let mut best: [Option<(f64, usize, usize)>; 2] = [None, None];
    let mut min_overhead_pct: f64 = f64::INFINITY;
    for _ in 0..WATCH_RUNS {
        let mut round = [0.0f64; 2];
        for (arm, watch) in [false, true].into_iter().enumerate() {
            let mut config = EngineConfig::new(bounds())
                .with_shards(WATCH_SHARDS)
                .with_batch_size(256)
                .with_queue_capacity(32)
                .with_watermark_slack(Duration::new(16))
                .with_telemetry(TelemetryPolicy::every_batches(32).with_ring(256));
            if watch {
                config = config.with_watch(WatchPolicy::enabled().with_ring(256));
            }
            let mut engine = Engine::start(config);
            let collector = Collector::new();
            register_subscriptions(&mut engine, &collector);
            engine.ingest_all(&instances);
            let report = engine.finish();
            assert_eq!(report.router.routed, INSTANCES);
            assert_eq!(report.health.is_some(), watch);
            let alerts = report.health.as_ref().map_or(0, |h| h.alerts.len());
            let r = (report.throughput(), collector.take().len(), alerts);
            round[arm] = r.0;
            if best[arm].as_ref().is_none_or(|b| r.0 > b.0) {
                best[arm] = Some(r);
            }
        }
        min_overhead_pct =
            min_overhead_pct.min((100.0 * (round[0] - round[1]) / round[0]).max(0.0));
    }
    let (base, base_notes, _) = best[0].expect("baseline ran");
    let (watched, watch_notes, alerts) = best[1].expect("watched arm ran");
    assert_eq!(
        base_notes, watch_notes,
        "the watchdog must not change detection"
    );
    let overhead_pct = min_overhead_pct;
    println!(
        "telemetry only: {base:.0} instances/sec; telemetry + watch: \
         {watched:.0} instances/sec — {overhead_pct:.2}% overhead (best \
         paired round), {alerts} alert(s) on the healthy stream"
    );
    assert!(
        overhead_pct < 2.0,
        "watchdog overhead regressed: {overhead_pct:.2}% >= 2%"
    );

    // The alert path, end to end: a tail frozen at one generation tick
    // stalls the watermark, so the built-in `watermark-stall` rule must
    // fire with provenance resolving to retained snapshot seqs.
    const STALL_BASE: usize = 20_000;
    const STALL_TAIL: u64 = 8_192;
    const STALL_TICK: u64 = 1_000_000;
    let mut engine = Engine::start(
        EngineConfig::new(bounds())
            .with_shards(WATCH_SHARDS)
            .with_batch_size(256)
            .with_watermark_slack(Duration::new(16))
            .with_telemetry(TelemetryPolicy::every_batches(1).with_ring(512))
            .with_watch(WatchPolicy::enabled().with_ring(256))
            .deterministic(),
    );
    let collector = Collector::new();
    register_subscriptions(&mut engine, &collector);
    engine.ingest_all(&instances[..STALL_BASE]);
    for i in 0..STALL_TAIL {
        engine.ingest(
            EventInstance::builder(
                ObserverId::Mote(MoteId::new((i % GENERATORS) as u32)),
                EventId::new("reading"),
                Layer::Sensor,
            )
            .generated(
                TimePoint::new(STALL_TICK),
                Point::new((i % 997) as f64, (i % 499) as f64),
            )
            .attributes(Attributes::new().with("temp", 50.0))
            .build(),
        );
    }
    let report = engine.finish();
    let health = report.health.expect("watch report");
    let seqs: Vec<u64> = report
        .obs
        .as_ref()
        .expect("telemetry on")
        .snapshots
        .iter()
        .map(|s| s.seq)
        .collect();
    let stall = health
        .alerts
        .iter()
        .find(|a| a.rule == "watermark-stall")
        .expect("the frozen tail must raise watermark-stall");
    assert!(
        stall.constituents.iter().all(|seq| seqs.contains(seq)),
        "stall provenance must resolve to retained snapshot seqs: {stall:?}"
    );
    println!(
        "stall leg: {} alert(s), watermark-stall confirmed over snapshots \
         {}..={} ({} constituents, all resolved)",
        health.alerts.len(),
        stall.began_seq,
        stall.fired_seq,
        stall.constituents.len(),
    );

    let mut block = String::from("{\n");
    block.push_str(&format!(
        "    \"workload\": \"{INSTANCES} synthetic instances, {WATCH_SHARDS} \
         shards, telemetry every 32 batches, best of {WATCH_RUNS}\",\n"
    ));
    block.push_str(&format!(
        "    \"telemetry_instances_per_sec\": {base:.0},\n"
    ));
    block.push_str(&format!("    \"watch_instances_per_sec\": {watched:.0},\n"));
    block.push_str(&format!("    \"overhead_pct\": {overhead_pct:.2},\n"));
    block.push_str(&format!("    \"healthy_alerts\": {alerts},\n"));
    block.push_str(&format!(
        "    \"stall_leg\": {{\"alerts\": {}, \"rule\": \"watermark-stall\", \
         \"began_seq\": {}, \"fired_seq\": {}, \"constituents\": {}, \
         \"provenance_resolved\": true}}\n",
        health.alerts.len(),
        stall.began_seq,
        stall.fired_seq,
        stall.constituents.len(),
    ));
    block.push_str("  }");
    block
}

/// Registers the bench subscription grid on a recovery (original
/// registration order, same as [`register_subscriptions`]).
fn register_subscriptions_recovery(recovery: &mut stem_engine::Recovery, collector: &Collector) {
    let step = WORLD / SUBSCRIPTIONS_PER_SIDE as f64;
    for gy in 0..SUBSCRIPTIONS_PER_SIDE {
        for gx in 0..SUBSCRIPTIONS_PER_SIDE {
            let center = Point::new((gx as f64 + 0.5) * step, (gy as f64 + 0.5) * step);
            recovery.subscribe(
                Subscription::new(
                    format!("hot-{gx}-{gy}"),
                    SpatialExtent::field(Field::circle(Circle::new(center, step * 0.3))),
                    collector.sink(),
                )
                .for_event("reading")
                .when(dsl::parse("x.temp > 45").unwrap()),
            );
        }
    }
}

fn main() {
    let scenario_only = std::env::args().any(|a| a == "scenario");
    let wal_only = std::env::args().any(|a| a == "wal");
    let snap_only = std::env::args().any(|a| a == "snap");
    let scoped_only = std::env::args().any(|a| a == "scoped");
    let obs_only = std::env::args().any(|a| a == "obs");
    let trace_only = std::env::args().any(|a| a == "trace");
    let watch_only = std::env::args().any(|a| a == "watch");
    let tenancy_only = std::env::args().any(|a| a == "tenancy");
    banner(
        "BENCH-ENGINE",
        "streaming engine ingest throughput vs. shard count",
        SEED,
    );
    if scenario_only {
        let _ = scenario_mode();
        // The production-path smoke covers the wide-area pruning
        // contract too: scoped subscriptions registered, fanout
        // strictly below the unscoped baseline.
        let block = scoped_mode();
        merge_block("scoped", &block);
        println!("\nscenario smoke mode: only the scoped block was refreshed");
        return;
    }
    if wal_only {
        let block = wal_mode();
        merge_block("wal", &block);
        return;
    }
    if snap_only {
        let block = snap_mode();
        merge_block("snap", &block);
        return;
    }
    if scoped_only {
        let block = scoped_mode();
        merge_block("scoped", &block);
        return;
    }
    if obs_only {
        let block = obs_mode();
        merge_block("obs", &block);
        return;
    }
    if trace_only {
        let block = trace_mode();
        merge_block("trace", &block);
        return;
    }
    if watch_only {
        let block = watch_mode();
        merge_block("watch", &block);
        return;
    }
    if tenancy_only {
        let block = tenancy_mode();
        merge_block("tenancy", &block);
        return;
    }
    let instances = synthetic_stream();
    println!(
        "{} instances, {} generators, {} subscriptions, batch 256\n",
        INSTANCES,
        GENERATORS,
        SUBSCRIPTIONS_PER_SIDE * SUBSCRIPTIONS_PER_SIDE
    );

    let results: Vec<RunResult> = SHARD_COUNTS
        .iter()
        .map(|&s| run_shard_count(s, &instances))
        .collect();

    let mut table = Table::new(vec![
        "shards",
        "elapsed_ms",
        "instances/sec",
        "notifications",
        "fanout",
    ]);
    for r in &results {
        table.row(vec![
            r.shards.to_string(),
            format!("{:.1}", r.elapsed_ms),
            format!("{:.0}", r.instances_per_sec),
            r.notifications.to_string(),
            r.fanout.to_string(),
        ]);
    }
    table.print();

    let baseline = &results[0];
    for r in &results[1..] {
        println!(
            "speedup {}x shards vs 1: {:.2}",
            r.shards,
            r.instances_per_sec / baseline.instances_per_sec
        );
    }
    // Identical detection output at every shard count is part of the
    // contract, not just a bench nicety.
    assert!(
        results
            .iter()
            .all(|r| r.notifications == baseline.notifications),
        "match counts diverged across shard counts"
    );

    let (scenario_seed, scenario_runs) = scenario_mode();

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"engine_throughput\",\n");
    json.push_str(&format!("  \"seed\": {SEED},\n"));
    json.push_str(&format!("  \"instances\": {INSTANCES},\n"));
    json.push_str(&format!("  \"generators\": {GENERATORS},\n"));
    json.push_str(&format!(
        "  \"subscriptions\": {},\n",
        SUBSCRIPTIONS_PER_SIDE * SUBSCRIPTIONS_PER_SIDE
    ));
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shards\": {}, \"elapsed_ms\": {:.1}, \"instances_per_sec\": {:.0}, \"notifications\": {}, \"fanout\": {}}}{}\n",
            r.shards,
            r.elapsed_ms,
            r.instances_per_sec,
            r.notifications,
            r.fanout,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"scenario\": {\n");
    json.push_str("    \"workload\": \"hotspot sensor stream replayed through engine-compiled app subscriptions\",\n");
    json.push_str(&format!("    \"seed\": {scenario_seed},\n"));
    json.push_str("    \"des_equivalent\": true,\n");
    json.push_str("    \"results\": [\n");
    for (i, r) in scenario_runs.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"shards\": {}, \"instances\": {}, \"elapsed_ms\": {:.1}, \"instances_per_sec\": {:.0}, \"notifications\": {}}}{}\n",
            r.shards,
            r.instances,
            r.elapsed_ms,
            r.instances_per_sec,
            r.notifications,
            if i + 1 == scenario_runs.len() { "" } else { "," }
        ));
    }
    json.push_str("    ]\n  }\n}\n");
    std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
    println!("\nwrote BENCH_engine.json");

    let block = wal_mode();
    merge_block("wal", &block);
    let block = snap_mode();
    merge_block("snap", &block);
    let block = scoped_mode();
    merge_block("scoped", &block);
    let block = obs_mode();
    merge_block("obs", &block);
    let block = trace_mode();
    merge_block("trace", &block);
    let block = watch_mode();
    merge_block("watch", &block);
    let block = tenancy_mode();
    merge_block("tenancy", &block);
}

#[cfg(test)]
mod tests {
    use super::merged_json;

    const SEEDED: &str = "{\n  \"bench\": \"engine_throughput\",\n  \"wal\": {\n    \"a\": 1\n  },\n  \"snap\": {\n    \"b\": {\"c\": 2}\n  },\n  \"scoped\": {\n    \"d\": 3\n  }\n}\n";

    /// Refreshing a key in the *middle* of the file must keep every
    /// block after it (this used to truncate the tail).
    #[test]
    fn refreshing_a_middle_key_keeps_trailing_blocks() {
        let merged = merged_json(Some(SEEDED), "snap", "{\n    \"b\": 9\n  }");
        assert!(
            merged.contains("\"snap\": {\n    \"b\": 9\n  }"),
            "{merged}"
        );
        assert!(
            !merged.contains("\"c\": 2"),
            "old snap value replaced: {merged}"
        );
        assert!(merged.contains("\"wal\""), "head block kept: {merged}");
        assert!(
            merged.contains("\"scoped\": {\n    \"d\": 3\n  }"),
            "trailing block kept: {merged}"
        );
        assert!(
            merged.trim_end().ends_with('}'),
            "still one object: {merged}"
        );
    }

    #[test]
    fn new_key_appends_and_missing_file_seeds() {
        let appended = merged_json(Some(SEEDED), "tenancy", "{\n    \"e\": 4\n  }");
        for key in ["\"wal\"", "\"snap\"", "\"scoped\"", "\"tenancy\""] {
            assert!(appended.contains(key), "{appended}");
        }
        let seeded = merged_json(None, "tenancy", "{}");
        assert!(seeded.starts_with("{\n  \"bench\""), "{seeded}");
        assert!(seeded.contains("\"tenancy\": {}"), "{seeded}");
    }

    /// Refreshing the same key twice is idempotent — the second merge
    /// finds exactly one block to replace.
    #[test]
    fn refresh_is_idempotent() {
        let once = merged_json(Some(SEEDED), "wal", "{\n    \"a\": 7\n  }");
        let twice = merged_json(Some(&once), "wal", "{\n    \"a\": 7\n  }");
        assert_eq!(once, twice);
    }
}
