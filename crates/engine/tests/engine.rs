//! Behavioural tests for the streaming engine: plain, pattern, and
//! sustained subscriptions, both execution modes, reordering, and
//! lifecycle edges.

use std::collections::BTreeSet;
use stem_cep::{ConsumptionMode, Pattern, SustainedConfig, SustainedEvent};
use stem_core::{
    dsl, Attributes, CcuId, ConditionObserver, EventId, EventInstance, Layer, MoteId, ObserverId,
    SeqNo, TimedInstance,
};
use stem_engine::{Collector, Engine, EngineConfig, NotificationKind, Subscription};
use stem_spatial::{Circle, Field, Point, Rect, SpatialExtent};
use stem_temporal::{Duration, TimePoint};

fn bounds() -> Rect {
    Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
}

fn circle_region(x: f64, y: f64, r: f64) -> SpatialExtent {
    SpatialExtent::field(Field::circle(Circle::new(Point::new(x, y), r)))
}

fn mk(event: &str, seq: u64, t: u64, x: f64, y: f64, temp: f64) -> EventInstance {
    EventInstance::builder(
        ObserverId::Mote(MoteId::new(1)),
        EventId::new(event),
        Layer::Sensor,
    )
    .seq(SeqNo::new(seq))
    .generated(TimePoint::new(t), Point::new(x, y))
    .attributes(Attributes::new().with("temp", temp))
    .build()
}

#[test]
fn plain_subscription_filters_by_region_event_and_condition() {
    for threaded in [false, true] {
        let mut config = EngineConfig::new(bounds())
            .with_shards(2)
            .with_batch_size(3);
        if !threaded {
            config = config.deterministic();
        }
        let mut engine = Engine::start(config);
        let collector = Collector::new();
        engine.subscribe(
            Subscription::new("hot", circle_region(25.0, 25.0, 15.0), collector.sink())
                .for_event("reading")
                .when(dsl::parse("x.temp > 40").unwrap()),
        );
        engine.ingest(mk("reading", 0, 10, 25.0, 25.0, 50.0)); // match
        engine.ingest(mk("reading", 1, 20, 25.0, 25.0, 30.0)); // too cool
        engine.ingest(mk("reading", 2, 30, 80.0, 80.0, 99.0)); // out of region
        engine.ingest(mk("pressure", 3, 40, 25.0, 25.0, 99.0)); // wrong event
        engine.ingest(mk("reading", 4, 50, 30.0, 25.0, 41.0)); // match
        let report = engine.finish();
        let matches = collector.take();
        assert_eq!(matches.len(), 2, "threaded={threaded}");
        assert!(matches.iter().all(|n| matches!(
            &n.kind,
            NotificationKind::Match(i) if i.event().as_str() == "reading"
        )));
        assert_eq!(report.router.routed, 5);
        assert_eq!(report.total_notifications(), 2);
    }
}

#[test]
fn pattern_subscription_generates_derived_instances() {
    let mut engine = Engine::start(
        EngineConfig::new(bounds())
            .with_shards(4)
            .with_batch_size(1)
            .deterministic(),
    );
    let collector = Collector::new();
    engine.subscribe(
        Subscription::new(
            "hot-pair",
            circle_region(30.0, 30.0, 25.0),
            collector.sink(),
        )
        .when(dsl::parse("dist(loc(a), loc(b)) < 10").unwrap())
        .matching(
            Pattern::atom("a", "hot").then(Pattern::atom("b", "hot")),
            ConsumptionMode::Chronicle,
            Some(Duration::new(100)),
        ),
    );
    engine.ingest(mk("hot", 0, 10, 28.0, 30.0, 50.0));
    engine.ingest(mk("hot", 1, 20, 33.0, 30.0, 55.0)); // pairs with the first, 5 m apart
    engine.ingest(mk("hot", 2, 30, 50.0, 48.0, 60.0)); // in region but ~24 m away: pattern pairs it, condition rejects
    let report = engine.finish();
    let out = collector.take();
    assert_eq!(out.len(), 1, "one derived instance");
    match &out[0].kind {
        NotificationKind::Derived(inst) => {
            assert_eq!(inst.event().as_str(), "hot-pair");
            assert_eq!(inst.layer(), Layer::Cyber);
        }
        other => panic!("expected Derived, got {other:?}"),
    }
    assert_eq!(report.shards.iter().map(|s| s.derived).sum::<u64>(), 1);
}

#[test]
fn sustained_subscription_reports_episodes() {
    let mut engine = Engine::start(
        EngineConfig::new(bounds())
            .with_batch_size(1)
            .deterministic(),
    );
    let collector = Collector::new();
    engine.subscribe(
        Subscription::new(
            "occupied",
            circle_region(50.0, 50.0, 40.0),
            collector.sink(),
        )
        .sustained(
            SustainedConfig {
                min_duration: Duration::new(15),
                enter_threshold: 45.0,
                exit_threshold: 40.0,
            },
            Some("temp".to_string()),
        ),
    );
    // Rises above 45 at t=10, stays hot past the 15-tick minimum (last
    // observed true at t=30), falls below 40 at t=50.
    for (t, temp) in [(0, 20.0), (10, 50.0), (20, 48.0), (30, 47.0), (50, 30.0)] {
        engine.ingest(mk("reading", t, t, 50.0, 50.0, temp));
    }
    let _ = engine.finish();
    let out = collector.take();
    assert_eq!(out.len(), 2, "began + ended");
    assert!(matches!(
        out[0].kind,
        NotificationKind::Sustained(SustainedEvent::Began { since, .. })
            if since == TimePoint::new(10)
    ));
    assert!(matches!(
        out[1].kind,
        NotificationKind::Sustained(SustainedEvent::Ended { interval })
            if interval.start() == TimePoint::new(10) && interval.end() == TimePoint::new(30)
    ));
}

#[test]
fn out_of_order_instances_are_reordered_within_slack() {
    let mut engine = Engine::start(
        EngineConfig::new(bounds())
            .with_batch_size(1)
            .with_watermark_slack(Duration::new(20))
            .deterministic(),
    );
    let collector = Collector::new();
    engine.subscribe(Subscription::new(
        "all",
        circle_region(50.0, 50.0, 60.0),
        collector.sink(),
    ));
    // Arrivals disordered by < slack.
    for t in [10u64, 30, 20, 40, 35, 60, 50] {
        engine.ingest(mk("reading", t, t, 50.0, 50.0, 25.0));
    }
    let report = engine.finish();
    let times: Vec<u64> = collector
        .take()
        .iter()
        .map(|n| match &n.kind {
            NotificationKind::Match(i) => i.generation_time().ticks(),
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    assert_eq!(times, vec![10, 20, 30, 35, 40, 50, 60]);
    assert_eq!(report.total_late_dropped(), 0);
}

#[test]
fn late_instances_are_dropped_and_counted() {
    let mut engine = Engine::start(
        EngineConfig::new(bounds())
            .with_batch_size(1)
            .deterministic(),
    );
    let collector = Collector::new();
    engine.subscribe(Subscription::new(
        "all",
        circle_region(50.0, 50.0, 60.0),
        collector.sink(),
    ));
    engine.ingest(mk("reading", 0, 100, 50.0, 50.0, 25.0));
    engine.ingest(mk("reading", 1, 10, 50.0, 50.0, 25.0)); // 90 ticks late, slack 0
    let report = engine.finish();
    assert_eq!(collector.take().len(), 1);
    assert_eq!(report.total_late_dropped(), 1);
}

/// A retired subscription stops receiving, its id becomes unknown to
/// `unsubscribe` and `probe_silence` (as is an id never issued here),
/// and its plan-mate keeps the shared plan.
#[test]
fn unsubscribe_stops_deliveries() {
    let config = || {
        EngineConfig::new(bounds())
            .with_batch_size(1)
            .deterministic()
    };
    let all = |c: &Collector| Subscription::new("all", circle_region(50.0, 50.0, 60.0), c.sink());
    // An id a wider engine issued lies past this engine's index.
    let mut wide = Engine::start(config());
    let unknown = (0..3)
        .map(|_| wide.subscribe(all(&Collector::new())))
        .last()
        .unwrap();
    let _ = wide.finish();

    let mut engine = Engine::start(config());
    let (collector, mate) = (Collector::new(), Collector::new());
    let id = engine.subscribe(all(&collector));
    engine.subscribe(all(&mate));
    assert!(!engine.unsubscribe(unknown), "never issued");
    assert!(
        !engine.probe_silence(unknown, TimePoint::new(5)),
        "never issued"
    );
    engine.ingest(mk("reading", 0, 10, 50.0, 50.0, 25.0));
    assert!(engine.unsubscribe(id));
    assert!(!engine.unsubscribe(id), "second unsubscribe is a no-op");
    assert!(!engine.probe_silence(id, TimePoint::new(15)), "retired");
    engine.ingest(mk("reading", 1, 20, 50.0, 50.0, 25.0));
    let report = engine.finish();
    assert_eq!(
        collector.take().len(),
        1,
        "only the pre-unsubscribe instance"
    );
    assert_eq!(mate.take().len(), 2, "the plan-mate keeps receiving");
    assert_eq!(report.plans_active, 1);
}

#[test]
fn broadcast_reaches_subscription_homed_on_another_shard() {
    // A subscription whose region center lives on one shard must still
    // see instances whose locations other shards own.
    let mut engine = Engine::start(
        EngineConfig::new(bounds())
            .with_shards(4)
            .with_batch_size(1)
            .deterministic(),
    );
    let collector = Collector::new();
    // Region spanning the whole world: homed on one shard, overlapping
    // all four.
    engine.subscribe(Subscription::new(
        "world",
        SpatialExtent::field(Field::rect(bounds())),
        collector.sink(),
    ));
    // One instance in each quadrant.
    for (i, (x, y)) in [(20.0, 20.0), (80.0, 20.0), (20.0, 80.0), (80.0, 80.0)]
        .into_iter()
        .enumerate()
    {
        engine.ingest(mk("reading", i as u64, 10 * (i as u64 + 1), x, y, 25.0));
    }
    let report = engine.finish();
    assert_eq!(collector.take().len(), 4, "every quadrant's instance seen");
    assert!(
        report.router.fanout >= report.router.routed,
        "broadcast fans out"
    );
}

#[test]
fn threaded_backpressure_block_is_lossless() {
    let mut engine = Engine::start(
        EngineConfig::new(bounds())
            .with_shards(2)
            .with_batch_size(4)
            .with_queue_capacity(1),
    );
    let collector = Collector::new();
    engine.subscribe(Subscription::new(
        "all",
        SpatialExtent::field(Field::rect(bounds())),
        collector.sink(),
    ));
    let n = 10_000u64;
    for i in 0..n {
        let x = (i % 100) as f64;
        let y = ((i / 100) % 100) as f64;
        engine.ingest(mk("reading", i, i, x, y, 25.0));
    }
    let report = engine.finish();
    assert_eq!(collector.take().len() as u64, n, "no instance lost");
    assert_eq!(report.router.dropped_backpressure, 0);
    assert_eq!(report.total_late_dropped(), 0);
}

#[test]
fn flush_wakes_a_parked_threaded_worker() {
    // Three batches and a subscribe, far below the 64-batch queue: a
    // worker woken only by a full queue would stay parked until finish.
    let config = EngineConfig::new(bounds())
        .with_shards(1)
        .with_batch_size(4)
        .with_queue_capacity(64);
    let run = |config: EngineConfig, collector: &Collector| {
        let mut engine = Engine::start(config);
        engine.subscribe(Subscription::new(
            "near",
            circle_region(25.0, 25.0, 15.0),
            collector.sink(),
        ));
        for i in 0..10u64 {
            engine.ingest(mk("reading", i, i, 25.0, 25.0, 50.0));
        }
        engine.flush();
        engine
    };
    let reference = Collector::new();
    let inline = run(config.clone().deterministic(), &reference);
    let expected = reference.len();
    assert!(expected > 0, "the reference delivers right after flush");
    let _ = inline.finish();

    let collector = Collector::new();
    let engine = run(config, &collector);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while collector.len() < expected {
        assert!(
            std::time::Instant::now() < deadline,
            "flush left the worker parked: {} of {expected} delivered",
            collector.len()
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let _ = engine.finish();
    assert_eq!(collector.len(), expected);
}

#[test]
fn metrics_account_for_the_stream() {
    let mut engine = Engine::start(
        EngineConfig::new(bounds())
            .with_shards(2)
            .with_batch_size(5)
            .deterministic(),
    );
    let collector = Collector::new();
    engine.subscribe(
        Subscription::new("hot", circle_region(25.0, 25.0, 20.0), collector.sink())
            .when(dsl::parse("x.temp > 40").unwrap()),
    );
    for i in 0..20u64 {
        engine.ingest(mk(
            "reading",
            i,
            i,
            25.0,
            25.0,
            if i % 2 == 0 { 50.0 } else { 30.0 },
        ));
    }
    let report = engine.finish();
    assert_eq!(report.router.routed, 20);
    assert_eq!(report.total_released(), 20);
    assert_eq!(report.total_notifications(), 10);
    assert_eq!(report.shards.len(), 2);
    let evaluated: u64 = report.shards.iter().map(|s| s.evaluated).sum();
    assert_eq!(evaluated, 20, "every in-region instance evaluated once");
}

#[test]
fn ingest_at_runs_the_evaluation_clock() {
    // A pattern subscription fed via ingest_at stamps derived instances
    // with the station clock (arrival + processing), not the completing
    // constituent's generation time.
    let mut engine = Engine::start(
        EngineConfig::new(bounds())
            .with_batch_size(1)
            .deterministic(),
    );
    let collector = Collector::new();
    engine.subscribe(
        Subscription::new("pair", circle_region(30.0, 30.0, 25.0), collector.sink()).matching(
            Pattern::atom("a", "hot").then(Pattern::atom("b", "hot")),
            ConsumptionMode::Chronicle,
            None,
        ),
    );
    engine.ingest_at(mk("hot", 0, 10, 30.0, 30.0, 50.0), TimePoint::new(40));
    engine.ingest_at(mk("hot", 1, 20, 31.0, 30.0, 55.0), TimePoint::new(70));
    let _ = engine.finish();
    let out = collector.take();
    assert_eq!(out.len(), 1);
    match &out[0].kind {
        NotificationKind::Derived(inst) => {
            assert_eq!(
                inst.generation_time(),
                TimePoint::new(70),
                "derived instance stamped with the evaluation clock"
            );
        }
        other => panic!("expected Derived, got {other:?}"),
    }
}

#[test]
fn ingest_at_orders_by_evaluation_time_not_generation_time() {
    // Arrival order at a station is the evaluation order, even when the
    // upstream generation times are out of order.
    let mut engine = Engine::start(
        EngineConfig::new(bounds())
            .with_batch_size(1)
            .deterministic(),
    );
    let collector = Collector::new();
    engine.subscribe(
        Subscription::new("all", circle_region(30.0, 30.0, 40.0), collector.sink())
            .for_event("hot"),
    );
    engine.ingest_at(mk("hot", 0, 90, 30.0, 30.0, 50.0), TimePoint::new(100));
    engine.ingest_at(mk("hot", 1, 10, 30.0, 30.0, 55.0), TimePoint::new(110));
    let report = engine.finish();
    assert_eq!(report.total_late_dropped(), 0, "keyed by eval time");
    let out = collector.take();
    let gen_times: Vec<u64> = out
        .iter()
        .map(|n| match &n.kind {
            NotificationKind::Match(i) => i.generation_time().ticks(),
            other => panic!("expected Match, got {other:?}"),
        })
        .collect();
    assert_eq!(gen_times, vec![90, 10], "delivered in arrival order");
}

#[test]
fn layer_filter_keeps_station_streams_apart() {
    let mut engine = Engine::start(
        EngineConfig::new(bounds())
            .with_batch_size(1)
            .deterministic(),
    );
    let sensor_station = Collector::new();
    let cyber_station = Collector::new();
    engine.subscribe(
        Subscription::new(
            "sensor-side",
            circle_region(30.0, 30.0, 40.0),
            sensor_station.sink(),
        )
        .at_layers(vec![Layer::Sensor]),
    );
    engine.subscribe(
        Subscription::new(
            "cyber-side",
            circle_region(30.0, 30.0, 40.0),
            cyber_station.sink(),
        )
        .at_layers(vec![Layer::CyberPhysical, Layer::Cyber]),
    );
    engine.ingest(mk("reading", 0, 10, 30.0, 30.0, 50.0)); // Layer::Sensor
    let cp = EventInstance::builder(
        ObserverId::Mote(MoteId::new(2)),
        EventId::new("area"),
        Layer::CyberPhysical,
    )
    .generated(TimePoint::new(20), Point::new(30.0, 30.0))
    .build();
    engine.ingest(cp);
    let _ = engine.finish();
    assert_eq!(sensor_station.take().len(), 1);
    assert_eq!(cyber_station.take().len(), 1);
}

#[test]
fn silence_probe_closes_quiet_episodes() {
    use stem_engine::{SilenceSpec, SustainedSpec, SustainedValue};
    let mut engine = Engine::start(
        EngineConfig::new(bounds())
            .with_batch_size(1)
            .deterministic(),
    );
    let collector = Collector::new();
    let id = engine.subscribe(
        Subscription::new(
            "occupied",
            circle_region(30.0, 30.0, 25.0),
            collector.sink(),
        )
        .for_event("presence")
        .sustained_spec(SustainedSpec {
            config: SustainedConfig {
                min_duration: Duration::new(10),
                enter_threshold: 1.0,
                exit_threshold: 1.0,
            },
            value: SustainedValue::Attribute("present".into()),
            negate: false,
            silence: Some(SilenceSpec {
                timeout: Duration::new(50),
                inactive_value: 0.0,
            }),
        }),
    );
    let present = |seq: u64, t: u64| {
        EventInstance::builder(
            ObserverId::Mote(MoteId::new(1)),
            EventId::new("presence"),
            Layer::Sensor,
        )
        .seq(SeqNo::new(seq))
        .generated(TimePoint::new(t), Point::new(30.0, 30.0))
        .attributes(Attributes::new().with("present", 1.0))
        .build()
    };
    engine.ingest_at(present(0, 10), TimePoint::new(10));
    engine.ingest_at(present(1, 40), TimePoint::new(40));
    // Input recent at t=60: the probe must NOT close the episode.
    assert!(engine.probe_silence(id, TimePoint::new(60)));
    // Input stale at t=100: the probe feeds the inactive sample.
    assert!(engine.probe_silence(id, TimePoint::new(100)));
    let _ = engine.finish();
    let out = collector.take();
    let kinds: Vec<&NotificationKind> = out.iter().map(|n| &n.kind).collect();
    assert!(
        matches!(
            kinds[0],
            NotificationKind::Sustained(SustainedEvent::Began { .. })
        ),
        "episode began"
    );
    assert!(
        matches!(
            kinds[1],
            NotificationKind::Sustained(SustainedEvent::Ended { interval })
                if interval.end() == TimePoint::new(40)
        ),
        "silence probe ended the episode at the last true sample"
    );
    assert_eq!(out.len(), 2);
}

#[test]
fn finish_at_closes_open_episodes_at_the_horizon() {
    let mut engine = Engine::start(
        EngineConfig::new(bounds())
            .with_batch_size(1)
            .deterministic(),
    );
    let collector = Collector::new();
    engine.subscribe(
        Subscription::new(
            "hot-spell",
            circle_region(30.0, 30.0, 25.0),
            collector.sink(),
        )
        .for_event("reading")
        .sustained(
            SustainedConfig {
                min_duration: Duration::new(10),
                enter_threshold: 45.0,
                exit_threshold: 40.0,
            },
            Some("temp".into()),
        ),
    );
    engine.ingest(mk("reading", 0, 10, 30.0, 30.0, 50.0));
    engine.ingest(mk("reading", 1, 30, 30.0, 30.0, 55.0));
    let report = engine.finish_at(TimePoint::new(90));
    let out = collector.take();
    assert!(
        matches!(
            out.last().map(|n| &n.kind),
            Some(NotificationKind::Sustained(SustainedEvent::Ended { interval }))
                if interval.start() == TimePoint::new(10) && interval.end() == TimePoint::new(30)
        ),
        "open episode closed at the horizon: {out:?}"
    );
    assert_eq!(report.total_notifications(), out.len() as u64);
}

#[test]
fn precision_pass_skips_bounding_box_only_broadcast() {
    // A thin diagonal-ish circle's bounding box spans leaves its exact
    // region never covers; instances in those corners must not be
    // shipped to the subscription's home shard.
    let mut engine = Engine::start(
        EngineConfig::new(bounds())
            .with_shards(4)
            .with_batch_size(1)
            .deterministic(),
    );
    let collector = Collector::new();
    engine.subscribe(
        Subscription::new("ring", circle_region(50.0, 50.0, 40.0), collector.sink())
            .for_event("reading"),
    );
    // Bounding box corner (12, 12): inside the bbox, ~54 m from the
    // center. The leaf mask is scope-exact, so this one is pruned by
    // the leaf lookup alone and never reaches the precision pass.
    engine.ingest(mk("reading", 0, 10, 12.0, 12.0, 50.0));
    // Just past the rim (90.5, 50): 40.5 m out, but its interest leaf
    // grazes the circle, so the mask is set and only the precision
    // pass can reject it.
    engine.ingest(mk("reading", 1, 15, 90.5, 50.0, 50.0));
    // Center: covered, delivered.
    engine.ingest(mk("reading", 2, 20, 50.0, 50.0, 50.0));
    let report = engine.finish();
    assert_eq!(collector.take().len(), 1);
    assert!(
        report.router.precision_skipped >= 1,
        "rim instance skipped by the precision pass: {:?}",
        report.router
    );
    assert!(
        report.router.owner_only >= 1,
        "corner instance pruned by the exact leaf mask: {:?}",
        report.router
    );
}

#[test]
fn silence_probe_respects_the_reorder_buffer() {
    // With nonzero slack, a probe must not reach the sustained detector
    // ahead of earlier-keyed samples still held behind the watermark —
    // it rides the reorder buffer like any other stream entry.
    use stem_engine::{SilenceSpec, SustainedSpec, SustainedValue};
    let mut engine = Engine::start(
        EngineConfig::new(bounds())
            .with_batch_size(1)
            .with_watermark_slack(Duration::new(100))
            .deterministic(),
    );
    let collector = Collector::new();
    let id = engine.subscribe(
        Subscription::new(
            "occupied",
            circle_region(30.0, 30.0, 25.0),
            collector.sink(),
        )
        .for_event("presence")
        .sustained_spec(SustainedSpec {
            config: SustainedConfig {
                min_duration: Duration::new(10),
                enter_threshold: 1.0,
                exit_threshold: 1.0,
            },
            value: SustainedValue::Attribute("present".into()),
            negate: false,
            silence: Some(SilenceSpec {
                timeout: Duration::new(50),
                inactive_value: 0.0,
            }),
        }),
    );
    let present = |seq: u64, t: u64| {
        EventInstance::builder(
            ObserverId::Mote(MoteId::new(1)),
            EventId::new("presence"),
            Layer::Sensor,
        )
        .seq(SeqNo::new(seq))
        .generated(TimePoint::new(t), Point::new(30.0, 30.0))
        .attributes(Attributes::new().with("present", 1.0))
        .build()
    };
    // Both samples sit behind the 100-tick watermark slack when the
    // probe arrives; the probe (at t=200) must evaluate after them, and
    // must find the input fresh enough (200 - 160 < timeout) to skip
    // the inactive feed.
    engine.ingest_at(present(0, 60), TimePoint::new(60));
    engine.ingest_at(present(1, 160), TimePoint::new(160));
    assert!(engine.probe_silence(id, TimePoint::new(200)));
    // A second probe far past the silence timeout closes the episode.
    assert!(engine.probe_silence(id, TimePoint::new(400)));
    let _ = engine.finish();
    let out = collector.take();
    assert_eq!(out.len(), 2, "began + ended, no panic: {out:?}");
    assert!(matches!(
        out[0].kind,
        NotificationKind::Sustained(SustainedEvent::Began { since, .. })
            if since == TimePoint::new(60)
    ));
    assert!(matches!(
        out[1].kind,
        NotificationKind::Sustained(SustainedEvent::Ended { interval })
            if interval.end() == TimePoint::new(160)
    ));
}

// ---------------------------------------------------------------------
// Write-ahead log: record, crash, recover, resume, replay.
// ---------------------------------------------------------------------

fn wal_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("stem-engine-wal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wal_config(dir: &std::path::Path) -> EngineConfig {
    EngineConfig::new(bounds())
        .with_shards(2)
        .with_batch_size(2)
        .with_wal(dir)
        .deterministic()
}

fn hot_subscription(collector: &Collector) -> Subscription {
    Subscription::new("hot", circle_region(25.0, 25.0, 20.0), collector.sink())
        .for_event("reading")
        .when(dsl::parse("x.temp > 40").unwrap())
}

/// The synthetic op stream both runs feed: readings alternating between
/// two shards' territories, all hot inside the region.
fn wal_stream() -> Vec<EventInstance> {
    (0..40u64)
        .map(|i| {
            let (x, y) = if i % 2 == 0 {
                (20.0, 20.0)
            } else {
                (80.0, 80.0)
            };
            mk("reading", i, 10 * i, x, y, 50.0)
        })
        .collect()
}

fn notification_multiset(notes: Vec<stem_engine::Notification>) -> Vec<String> {
    let mut out: Vec<String> = notes.into_iter().map(|n| format!("{:?}", n.kind)).collect();
    out.sort();
    out
}

#[test]
fn crash_recovery_resumes_bit_identically() {
    let stream = wal_stream();

    // Uninterrupted reference run with a WAL.
    let full_dir = wal_dir("full");
    let reference = Collector::new();
    let mut engine = Engine::start(wal_config(&full_dir));
    engine.subscribe(hot_subscription(&reference));
    engine.ingest_all(stream.iter().cloned());
    let report = engine.finish();
    let wal = report.total_wal();
    // Every appended record is a routed instance, a heartbeat, or a
    // checkpoint — counted independently from the logs themselves.
    let mut heartbeats = 0u64;
    let mut checkpoints = 0u64;
    let mut instances = 0u64;
    for shard in 0..2 {
        for record in stem_wal::read_shard(&full_dir, shard, false)
            .unwrap()
            .records
        {
            match record {
                stem_wal::WalRecord::Instance { .. } => instances += 1,
                stem_wal::WalRecord::Heartbeat { .. } => heartbeats += 1,
                stem_wal::WalRecord::Watermark { .. } => checkpoints += 1,
                stem_wal::WalRecord::Probe { .. } => panic!("no probes in this stream"),
            }
        }
    }
    assert_eq!(instances, report.router.fanout, "one record per delivery");
    assert!(heartbeats > 0, "advancing high-water marks are journaled");
    assert_eq!(
        wal.records_appended,
        instances + heartbeats + checkpoints,
        "append counter accounts for every record on disk"
    );
    assert!(wal.bytes_appended > 0);
    assert!(wal.segments_created >= 2, "one segment chain per shard");

    // Crashed run: same stream, dropped mid-flight without finish().
    let crash_dir = wal_dir("crash");
    let lost = Collector::new();
    let mut engine = Engine::start(wal_config(&crash_dir));
    engine.subscribe(hot_subscription(&lost));
    engine.ingest_all(stream.iter().take(25).cloned());
    engine.flush();
    drop(engine); // the crash: notifications in `lost` are gone with it

    // Recover + re-register + resume, then re-feed from the resume point.
    let survivor = Collector::new();
    let mut recovery = Engine::recover(wal_config(&crash_dir)).expect("recover from durable state");
    recovery.subscribe(hot_subscription(&survivor));
    let stats = recovery.stats();
    assert_eq!(stats.torn_truncations, 0, "clean shutdown had no torn tail");
    let mut engine = recovery.resume();
    let resume = engine.resume_from();
    assert!(
        resume > 0 && resume <= 25,
        "resume point within the durable prefix"
    );
    for inst in stream.iter().skip(usize::try_from(resume).unwrap()) {
        engine.ingest(inst.clone());
    }
    let recovered_report = engine.finish();
    assert!(recovered_report.total_wal().records_recovered > 0);

    // Bit-identical detection multisets: recovered prefix re-delivers
    // into the fresh sink, resumed suffix continues live.
    assert_eq!(
        notification_multiset(survivor.take()),
        notification_multiset(reference.take()),
    );
    let _ = std::fs::remove_dir_all(&full_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

#[test]
fn recorded_wal_replays_into_any_subscription_set() {
    let dir = wal_dir("replay");
    let stream = wal_stream();
    let original = Collector::new();
    let mut engine = Engine::start(wal_config(&dir));
    engine.subscribe(hot_subscription(&original));
    engine.ingest_all(stream.iter().cloned());
    let _ = engine.finish();
    let original_notes = notification_multiset(original.take());

    // Full-fidelity re-run: same subscriptions, replay_records.
    let rerun = Collector::new();
    let replay = stem_wal::Replay::open(&dir).unwrap();
    assert_eq!(replay.len(), stream.len());
    let mut engine = Engine::start(EngineConfig::new(bounds()).with_shards(2).deterministic());
    engine.subscribe(hot_subscription(&rerun));
    engine.replay_records(replay.records());
    let _ = engine.finish();
    assert_eq!(notification_multiset(rerun.take()), original_notes);

    // Historical re-analysis: a *different* subscription set over the
    // recorded instances through the InstanceSource seam.
    let reanalysis = Collector::new();
    let mut engine = Engine::start(EngineConfig::new(bounds()).deterministic());
    engine.subscribe(
        Subscription::new(
            "anywhere-warm",
            circle_region(50.0, 50.0, 80.0),
            reanalysis.sink(),
        )
        .for_event("reading")
        .when(dsl::parse("x.temp > 45").unwrap()),
    );
    let mut source = stem_wal::Replay::open(&dir).unwrap().into_instances();
    engine.pump(&mut source);
    let _ = engine.finish();
    assert_eq!(
        reanalysis.take().len(),
        stream.len(),
        "the new condition matches every recorded reading"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_is_repaired_and_counted_in_the_report() {
    let dir = wal_dir("torn");
    let stream = wal_stream();
    let mut engine = Engine::start(wal_config(&dir));
    engine.subscribe(hot_subscription(&Collector::new()));
    engine.ingest_all(stream.iter().cloned());
    let _ = engine.finish();

    // Tear the tail of shard 0's last segment mid-record.
    let mut segments: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-000-"))
        })
        .collect();
    segments.sort();
    let last = segments.last().unwrap();
    let len = std::fs::metadata(last).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(last)
        .unwrap()
        .set_len(len - 3)
        .unwrap();

    let survivor = Collector::new();
    let mut recovery = Engine::recover(wal_config(&dir)).expect("recover from durable state");
    recovery.subscribe(hot_subscription(&survivor));
    assert_eq!(recovery.stats().torn_truncations, 1);
    let mut engine = recovery.resume();
    let resume = engine.resume_from();
    assert!(
        resume < stream.len() as u64,
        "the torn record pulls the resume point back"
    );
    for inst in stream.iter().skip(usize::try_from(resume).unwrap()) {
        engine.ingest(inst.clone());
    }
    let report = engine.finish();
    assert_eq!(report.total_wal().torn_truncations, 1);
    assert!(
        report.total_wal().deduped > 0,
        "the intact shard dedups the overlap"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Checkpoint snapshots (stem-snap): bounded-time recovery + compaction.
// ---------------------------------------------------------------------

fn snap_config(dir: &std::path::Path) -> EngineConfig {
    wal_config(dir)
        .with_wal_segment_bytes(512)
        .with_checkpoint(stem_engine::CheckpointPolicy::EveryNBatches(4))
}

/// Per-subscription delivery *sequences* (order matters: the snapshot
/// cut is a prefix in delivery order, not an arbitrary sub-multiset).
fn per_sub_sequences(
    notes: Vec<stem_engine::Notification>,
) -> std::collections::BTreeMap<u64, Vec<String>> {
    let mut out: std::collections::BTreeMap<u64, Vec<String>> = std::collections::BTreeMap::new();
    for n in notes {
        out.entry(n.subscription.raw())
            .or_default()
            .push(format!("{:?}", n.kind));
    }
    out
}

/// The headline acceptance path: recovery with checkpoints loads the
/// newest snapshot set, replays only the WAL tail past its watermark
/// (asserted via the snap/WAL counters), and the resumed delivery
/// stream continues the uninterrupted run exactly — the snapshot covers
/// the prefix, the resumed engine delivers the rest.
#[test]
fn checkpointed_recovery_replays_only_the_tail_bit_identically() {
    let stream = wal_stream();

    // Uninterrupted reference run with the same checkpoint config.
    let full_dir = wal_dir("snap-full");
    let reference = Collector::new();
    let mut engine = Engine::start(snap_config(&full_dir));
    engine.subscribe(hot_subscription(&reference));
    engine.ingest_all(stream.iter().cloned());
    let full_report = engine.finish();
    assert!(
        full_report.total_snap().snapshots_written >= 4,
        "the batch cadence must have cut several checkpoints: {:?}",
        full_report.total_snap(),
    );
    let expected = per_sub_sequences(reference.take());

    // Crash run: same config, killed mid-stream.
    let crash_dir = wal_dir("snap-crash");
    let lost = Collector::new();
    let mut engine = Engine::start(snap_config(&crash_dir));
    engine.subscribe(hot_subscription(&lost));
    engine.ingest_all(stream.iter().take(30).cloned());
    engine.flush();
    drop(engine); // the crash

    // What a full replay of the surviving chains would read (the
    // pre-snapshot baseline recovery cost).
    let live_log_records: u64 = (0..2)
        .map(|s| {
            stem_wal::read_shard(&crash_dir, s, false)
                .unwrap()
                .records
                .len() as u64
        })
        .sum();

    let survivor = Collector::new();
    let mut recovery =
        Engine::recover(snap_config(&crash_dir)).expect("recover from durable state");
    recovery.subscribe(hot_subscription(&survivor));
    let stats = recovery.stats();
    assert!(
        stats.snapshot_epoch.is_some(),
        "a checkpoint floor was found"
    );
    assert_eq!(stats.snapshots_loaded, 2, "both shards restore from it");
    assert!(
        stats.records < live_log_records,
        "recovery read only the tail ({} records), not the whole surviving log \
         ({live_log_records})",
        stats.records,
    );
    let skipped = recovery.snapshot_delivered();
    assert!(
        skipped.values().sum::<u64>() > 0,
        "the snapshot covers some already-delivered notifications"
    );
    let mut engine = recovery.resume();
    let resume = usize::try_from(engine.resume_from()).unwrap();
    assert!(resume > 0 && resume <= 30);
    for inst in stream.iter().skip(resume) {
        engine.ingest(inst.clone());
    }
    let report = engine.finish();
    let snap = report.total_snap();
    assert_eq!(snap.snapshots_loaded, 2);
    assert!(
        report.total_wal().records_recovered < live_log_records,
        "only tail records were replayed"
    );

    // The resumed stream is exactly the uninterrupted stream minus the
    // per-subscription prefix the snapshot compressed into state.
    let resumed = per_sub_sequences(survivor.take());
    for (sub, full_sequence) in &expected {
        let cut = usize::try_from(*skipped.get(sub).unwrap_or(&0)).unwrap();
        let got = resumed.get(sub).cloned().unwrap_or_default();
        assert_eq!(
            got,
            full_sequence[cut..],
            "sub {sub}: resumed deliveries must continue the reference run after \
             its first {cut} notifications"
        );
    }

    let _ = std::fs::remove_dir_all(&full_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

/// Compaction retires WAL segments wholly behind the oldest retained
/// snapshot, so live segment count stays bounded on a long stream.
#[test]
fn compaction_keeps_live_segment_count_bounded() {
    let dir = wal_dir("snap-compact");
    let mut engine = Engine::start(snap_config(&dir));
    engine.subscribe(hot_subscription(&Collector::new()));
    // A long stream: many segments at 512 bytes, many checkpoints.
    for round in 0..6u64 {
        for inst in wal_stream() {
            let shifted = mk(
                "reading",
                round * 40 + inst.seq().raw(),
                round * 400 + inst.generation_time().ticks(),
                inst.generation_location().x,
                inst.generation_location().y,
                50.0,
            );
            engine.ingest(shifted);
        }
    }
    let report = engine.finish();
    let snap = report.total_snap();
    let wal = report.total_wal();
    assert!(snap.snapshots_written >= 10);
    assert!(
        snap.segments_retired > 0,
        "compaction must have retired segments"
    );
    // What's live on disk is a bounded suffix, not the whole history.
    let live_segments = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_str()
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .count() as u64;
    assert_eq!(
        live_segments + snap.segments_retired,
        wal.segments_created,
        "every created segment is either live or retired"
    );
    assert!(
        live_segments < wal.segments_created / 2,
        "live segments ({live_segments}) must be a small suffix of \
         {} created",
        wal.segments_created,
    );
    // Snapshot retention: at most 2 epochs per shard remain.
    for shard in 0..2 {
        assert!(stem_snap::list_snapshots(&dir, shard).unwrap().len() <= 2);
    }
    // The compacted directory still recovers (from the snapshots).
    let survivor = Collector::new();
    let mut recovery = Engine::recover(snap_config(&dir)).expect("recover from durable state");
    recovery.subscribe(hot_subscription(&survivor));
    assert_eq!(recovery.stats().snapshots_loaded, 2);
    let engine = recovery.resume();
    let _ = engine.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot torn mid-write (the crash hits the checkpoint itself)
/// fails its checksum and recovery degrades to the previous epoch on
/// every shard — same consistent floor, same resumed deliveries.
#[test]
fn torn_newest_snapshot_falls_back_to_the_previous_epoch() {
    let stream = wal_stream();
    let dir = wal_dir("snap-torn");
    let lost = Collector::new();
    let mut engine = Engine::start(snap_config(&dir));
    engine.subscribe(hot_subscription(&lost));
    engine.ingest_all(stream.iter().take(30).cloned());
    engine.flush();
    drop(engine);

    // Find the newest epoch and tear shard 0's file for it mid-write.
    let newest = stem_snap::list_snapshots(&dir, 0).unwrap();
    let (newest_epoch, newest_path) = newest.last().unwrap().clone();
    let len = std::fs::metadata(&newest_path).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&newest_path)
        .unwrap()
        .set_len(len / 2)
        .unwrap();

    let survivor = Collector::new();
    let mut recovery = Engine::recover(snap_config(&dir)).expect("recover from durable state");
    recovery.subscribe(hot_subscription(&survivor));
    let stats = recovery.stats();
    assert_eq!(stats.snapshots_rejected, 1, "the torn file was rejected");
    assert_eq!(
        stats.snapshot_epoch,
        Some(newest_epoch - 1),
        "the floor degraded to the previous epoch on every shard"
    );
    assert_eq!(stats.snapshots_loaded, 2);
    let skipped = recovery.snapshot_delivered();
    let mut engine = recovery.resume();
    let resume = usize::try_from(engine.resume_from()).unwrap();
    for inst in stream.iter().skip(resume) {
        engine.ingest(inst.clone());
    }
    let _ = engine.finish();

    // Reference: the same uninterrupted run.
    let full_dir = wal_dir("snap-torn-full");
    let reference = Collector::new();
    let mut engine = Engine::start(snap_config(&full_dir));
    engine.subscribe(hot_subscription(&reference));
    engine.ingest_all(stream.iter().cloned());
    let _ = engine.finish();
    let expected = per_sub_sequences(reference.take());
    let resumed = per_sub_sequences(survivor.take());
    for (sub, full_sequence) in &expected {
        let cut = usize::try_from(*skipped.get(sub).unwrap_or(&0)).unwrap();
        let got = resumed.get(sub).cloned().unwrap_or_default();
        assert_eq!(
            got,
            full_sequence[cut..],
            "sub {sub} diverged after fallback"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&full_dir);
}

/// A manual checkpoint before a planned shutdown makes the next start
/// recover with an empty tail: nothing to replay, nothing re-delivered.
#[test]
fn manual_checkpoint_makes_recovery_instant() {
    let dir = wal_dir("snap-manual");
    let stream = wal_stream();
    // Policy Never: only the explicit calls checkpoint.
    let config = wal_config(&dir).with_wal_segment_bytes(512);
    let collector = Collector::new();
    let mut engine = Engine::start(config.clone());
    engine.subscribe(hot_subscription(&collector));
    engine.ingest_all(stream.iter().cloned());
    engine.checkpoint();
    engine.checkpoint(); // two epochs: the floor needs no fallback
    drop(engine);
    let delivered_live = collector.take().len() as u64;

    let survivor = Collector::new();
    let mut recovery = Engine::recover(config).expect("recover from durable state");
    recovery.subscribe(hot_subscription(&survivor));
    let stats = recovery.stats();
    assert_eq!(stats.snapshots_loaded, 2);
    assert_eq!(
        recovery.snapshot_delivered().values().sum::<u64>(),
        delivered_live,
        "the snapshot covers every live delivery"
    );
    let engine = recovery.resume();
    assert_eq!(engine.resume_from(), stream.len() as u64);
    let report = engine.finish();
    assert_eq!(
        report.total_wal().records_recovered,
        0,
        "an up-to-date snapshot leaves no tail to replay"
    );
    assert!(survivor.take().is_empty(), "nothing is re-delivered");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Damage beyond the single-crash fault model — history segments gone
/// with no snapshot covering them — must refuse recovery loudly, never
/// resume with silently-missing durable history.
#[test]
#[should_panic(expected = "the chain starts at")]
fn recovery_refuses_a_compacted_log_without_a_covering_snapshot() {
    let dir = wal_dir("snap-broken-chain");
    let mut engine = Engine::start(wal_config(&dir).with_wal_segment_bytes(512));
    engine.subscribe(hot_subscription(&Collector::new()));
    engine.ingest_all(wal_stream());
    let _ = engine.finish();
    // Delete shard 0's first segment by hand (no snapshot covers it).
    std::fs::remove_file(dir.join("wal-000-000000.log")).unwrap();
    let _ = Engine::recover(wal_config(&dir).with_wal_segment_bytes(512));
}

/// A checkpoint cut during the post-recovery re-feed overlap window
/// must not understate a shard's coverage: a shard whose own tail
/// replay reached past the barrier (its durable max exceeds the least
/// durable shard's) folds those operations into the snapshot state, so
/// a *second* recovery from that epoch must still dedup them instead
/// of evaluating them twice.
#[test]
fn checkpoint_during_resume_overlap_claims_full_coverage() {
    let stream = wal_stream();
    // Reference: deliveries of an uninterrupted run (checkpoints do
    // not change detection, so the config needs no policy).
    let dir_ref = wal_dir("overlap-ref");
    let reference = Collector::new();
    let mut engine = Engine::start(wal_config(&dir_ref));
    engine.subscribe(hot_subscription(&reference));
    engine.ingest_all(stream.iter().cloned());
    let _ = engine.finish();
    let expected = per_sub_sequences(reference.take());

    // Crash 1 at op 30; tear shard 0's log tail so the shards'
    // durability diverges and recovery leaves a wide re-feed overlap
    // on shard 1.
    let dir = wal_dir("overlap");
    let lost = Collector::new();
    let mut engine = Engine::start(wal_config(&dir));
    engine.subscribe(hot_subscription(&lost));
    engine.ingest_all(stream.iter().take(30).cloned());
    engine.flush();
    drop(engine);
    let mut shard0: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-000-"))
        })
        .collect();
    shard0.sort();
    let victim = shard0.last().unwrap();
    let len = std::fs::metadata(victim).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(victim)
        .unwrap()
        .set_len(len / 2)
        .unwrap();

    // Recovery 1: resume, re-feed only part of the overlap, then cut
    // manual checkpoints mid-overlap (the second gives the floor its
    // fallback epoch) and crash again.
    let survivor1 = Collector::new();
    let mut recovery = Engine::recover(wal_config(&dir)).expect("recover from durable state");
    recovery.subscribe(hot_subscription(&survivor1));
    let mut engine = recovery.resume();
    let resume1 = usize::try_from(engine.resume_from()).unwrap();
    assert!(resume1 < 30, "the torn shard pulls the resume point back");
    let partial = resume1 + (30 - resume1) / 2;
    for inst in stream.iter().take(partial).skip(resume1) {
        engine.ingest(inst.clone());
    }
    engine.checkpoint();
    engine.checkpoint();
    drop(engine); // crash 2

    // Recovery 2 restores from the mid-overlap epoch; the continuation
    // must line up exactly — a coverage-understating snapshot would
    // re-evaluate shard 1's overlap and deliver duplicates here.
    let survivor2 = Collector::new();
    let mut recovery = Engine::recover(wal_config(&dir)).expect("recover from durable state");
    recovery.subscribe(hot_subscription(&survivor2));
    assert!(recovery.stats().snapshot_epoch.is_some());
    let skipped = recovery.snapshot_delivered();
    let mut engine = recovery.resume();
    let resume2 = usize::try_from(engine.resume_from()).unwrap();
    for inst in stream.iter().skip(resume2) {
        engine.ingest(inst.clone());
    }
    let report = engine.finish();
    // The sharp edge: an understated snapshot would re-push shard 1's
    // already-folded overlap into the restored reorder buffer, where
    // the watermark silently late-drops it (or worse, re-delivers ties
    // at the watermark). Proper coverage dedups the overlap instead —
    // an in-order stream must see zero late drops.
    assert_eq!(
        report.total_late_dropped(),
        0,
        "re-fed overlap must be deduplicated, not re-pushed behind the watermark"
    );
    let resumed = per_sub_sequences(survivor2.take());
    for (sub, full_sequence) in &expected {
        let cut = usize::try_from(*skipped.get(sub).unwrap_or(&0)).unwrap();
        let got = resumed.get(sub).cloned().unwrap_or_default();
        assert_eq!(
            got,
            full_sequence[cut..],
            "sub {sub}: a second recovery through a mid-overlap checkpoint \
             must not duplicate or drop deliveries"
        );
    }
    let _ = std::fs::remove_dir_all(&dir_ref);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Spatial scope + BVH interest index
// ---------------------------------------------------------------------

fn everywhere() -> SpatialExtent {
    SpatialExtent::field(Field::rect(Rect::new(
        Point::new(-1e15, -1e15),
        Point::new(1e15, 1e15),
    )))
}

fn rect_extent(x0: f64, y0: f64, x1: f64, y1: f64) -> SpatialExtent {
    SpatialExtent::field(Field::rect(Rect::new(
        Point::new(x0, y0),
        Point::new(x1, y1),
    )))
}

/// A station-style subscription (unbounded semantic region) scoped to
/// one district observes exactly the in-district stream, and the router
/// prunes broadcast deliveries to its home shard at enqueue time. Runs
/// under durable logging: that is the mode that retains the territorial
/// owner's copy of every instance, so out-of-district rows on the scoped
/// home's own territory still reach that shard and its log — with an
/// empty hit list, so they are journaled but never evaluated. Then a
/// shared plain plan with two distinct subscriber scopes shows the
/// worker-side half: each row names one scope's slot, and the other
/// subscriber is gated out and counted.
#[test]
fn scope_prunes_out_of_district_work_before_evaluation() {
    let dir = wal_dir("scope-prune");
    let mut engine = Engine::start(
        EngineConfig::new(bounds())
            .with_shards(4)
            .with_batch_size(1)
            .with_wal(&dir)
            .deterministic(),
    );
    let scoped = Collector::new();
    engine.subscribe(
        Subscription::new("district", everywhere(), scoped.sink())
            .scoped_to(rect_extent(0.0, 0.0, 30.0, 30.0))
            .for_event("reading")
            .homed_near(Point::new(5.0, 5.0)),
    );
    let unscoped = Collector::new();
    engine.subscribe(
        Subscription::new("global", everywhere(), unscoped.sink())
            .for_event("reading")
            .homed_near(Point::new(95.0, 95.0)),
    );
    for i in 0..42u64 {
        // A third inside the district, a third outside it but on the
        // scoped home's own territory (reaches the shard as owner, so
        // the worker-side scan must prune it), a third far away (the
        // router prunes the delivery at enqueue time).
        let (x, y) = match i % 3 {
            0 => (10.0, 10.0),
            1 => (40.0, 40.0),
            _ => (80.0, 80.0),
        };
        engine.ingest(mk("reading", i, 10 * i, x, y, 50.0));
    }
    let report = engine.finish();
    let district = scoped.take();
    assert_eq!(district.len(), 14, "only the in-district third");
    assert_eq!(unscoped.take().len(), 42, "the unscoped control sees all");
    assert_eq!(report.router.scoped_subscriptions, 1);
    // The scoped home received the in-district third plus the owner
    // copies of the near third, and journaled every one of them...
    let home = &report.shards[district[0].shard];
    assert_eq!(home.ingested, 28, "{}", report.summary_line());
    assert!(home.wal.records_appended >= 28);
    // ...but evaluated only the district: 14 there, 42 for the control.
    let evaluated: u64 = report.shards.iter().map(|s| s.evaluated).sum();
    assert_eq!(evaluated, 14 + 42, "owner copies are never evaluated");
    assert_eq!(report.total_scope_skipped(), 0, "no listed plan was gated");
    // The out-of-district half is never copied to the scoped home shard
    // (unless it owns the territory): strictly less fanout than the
    // 2-deliveries-per-instance an unscoped pair would cost.
    assert!(
        report.router.fanout < 2 * report.router.routed,
        "scope must prune broadcast fanout: {}",
        report.summary_line()
    );

    // One plain plan, two subscribers scoped to the west and east
    // halves: the worker's slot gate is what keeps each to its half.
    let mut engine = Engine::start(
        EngineConfig::new(bounds())
            .with_shards(4)
            .with_batch_size(3)
            .deterministic(),
    );
    let (west, east) = (Collector::new(), Collector::new());
    for (collector, x0) in [(&west, 0.0), (&east, 50.0)] {
        engine.subscribe(
            Subscription::new("half", everywhere(), collector.sink())
                .scoped_to(rect_extent(x0, 0.0, x0 + 50.0, 100.0))
                .for_event("reading")
                .homed_near(Point::new(50.0, 50.0)),
        );
    }
    for i in 0..30u64 {
        let x = if i % 3 == 0 { 20.0 } else { 80.0 };
        engine.ingest(mk("reading", i, 10 * i, x, 40.0, 50.0));
    }
    let report = engine.finish();
    assert_eq!(report.plans_active, 1, "both halves share one plan");
    assert_eq!(west.take().len(), 10);
    assert_eq!(east.take().len(), 20);
    assert_eq!(
        report.total_scope_skipped(),
        30,
        "each row gates out the other half's subscriber: {}",
        report.summary_line()
    );
}

/// `Engine::recover` distinguishes "no durable state" (clean empty
/// recovery) from an unreadable directory (typed error), instead of
/// panicking on either.
#[test]
fn recover_separates_no_durable_state_from_io_failure() {
    // Absent directory: a clean, empty recovery.
    let absent = wal_dir("recover-absent");
    let _ = std::fs::remove_dir_all(&absent);
    let recovery = Engine::recover(wal_config(&absent)).expect("absent dir is no durable state");
    assert_eq!(recovery.stats(), stem_engine::RecoveryStats::default());
    let engine = recovery.resume();
    assert_eq!(engine.resume_from(), 0);
    let _ = engine.finish();
    let _ = std::fs::remove_dir_all(&absent);

    // A regular file where the directory should be: a typed scan error,
    // not a panic and not a silent empty recovery.
    let clobbered = wal_dir("recover-clobbered");
    let _ = std::fs::remove_dir_all(&clobbered);
    std::fs::write(&clobbered, b"not a directory").unwrap();
    let err = Engine::recover(wal_config(&clobbered)).expect_err("unreadable dir must error");
    assert!(
        matches!(err, stem_engine::RecoverError::Wal(_)),
        "scan failures surface as RecoverError::Wal: {err}"
    );
    assert!(err.to_string().contains("could not scan the wal"));
    let _ = std::fs::remove_file(&clobbered);
}

/// Subscriber `i` of the shared-plan oracle below. Seven subscribers,
/// three plans: plain conditions with different scopes (0–2), patterns
/// with one explicit observer (3–4), sustained specs without silence
/// (5–6).
fn oracle_subscription(i: usize, collector: &Collector) -> Subscription {
    let sink = collector.sink();
    match i {
        0..=2 => {
            // A plain plan's key leaves the scope out (each subscriber's
            // scope is re-checked at fan-out), and the shared home hint
            // lies inside every scope, so all three land on one home.
            let sub = Subscription::new("hot", circle_region(40.0, 40.0, 35.0), sink)
                .for_event("reading")
                .when(dsl::parse("x.temp > 45").unwrap())
                .homed_near(Point::new(40.0, 40.0));
            match i {
                0 => sub.scoped_to(rect_extent(0.0, 0.0, 50.0, 50.0)),
                1 => sub.scoped_to(rect_extent(30.0, 30.0, 90.0, 90.0)),
                _ => sub,
            }
        }
        3 | 4 => Subscription::new("hot-pair", circle_region(30.0, 30.0, 25.0), sink)
            .for_event("reading")
            .when(dsl::parse("avg(a.temp, b.temp) > 45").unwrap())
            .matching(
                Pattern::atom("a", "reading").then(Pattern::atom("b", "reading")),
                ConsumptionMode::Chronicle,
                Some(Duration::new(100)),
            )
            .observed_by(ConditionObserver::new(
                ObserverId::Ccu(CcuId::new(7)),
                Point::new(30.0, 30.0),
                1.0,
            )),
        _ => Subscription::new("warm", circle_region(60.0, 60.0, 40.0), sink)
            .for_event("reading")
            .sustained(
                SustainedConfig {
                    min_duration: Duration::new(20),
                    enter_threshold: 45.0,
                    exit_threshold: 40.0,
                },
                Some("temp".to_string()),
            ),
    }
}

/// The oracle for shared plans: every subscriber of a shared plan
/// receives exactly what a fresh engine running its subscription alone
/// delivers. Seven subscribers collapse onto three plans; in a second
/// run the plain and pattern plans lose their first subscriber (the one
/// whose compiled state became the plan) halfway through the stream.
/// The leavers get a strict prefix of their solo deliveries and nobody
/// else notices.
#[test]
fn shared_plan_subscribers_match_their_solo_runs() {
    const SUBSCRIBERS: usize = 7;
    const LEAVERS: [usize; 2] = [0, 3];
    let stream: Vec<EventInstance> = (0..240u64)
        .map(|i| {
            let (x, y) = ((i * 37 % 100) as f64, (i * 61 % 100) as f64);
            mk("reading", i, 10 * i, x, y, 30.0 + (i * 7 % 30) as f64)
        })
        .collect();
    let deliveries =
        |c: &Collector| -> Vec<_> { c.take().into_iter().map(|n| (n.shard, n.kind)).collect() };
    for shards in [1, 4] {
        let config = || {
            EngineConfig::new(bounds())
                .with_shards(shards)
                .with_batch_size(4)
                .deterministic()
        };
        let solo: Vec<_> = (0..SUBSCRIBERS)
            .map(|i| {
                let collector = Collector::new();
                let mut engine = Engine::start(config());
                engine.subscribe(oracle_subscription(i, &collector));
                engine.ingest_all(&stream);
                assert_eq!(engine.finish().plans_active, 1);
                deliveries(&collector)
            })
            .collect();
        for (i, d) in solo.iter().enumerate() {
            assert!(!d.is_empty(), "subscriber {i} must deliver something alone");
        }

        for leave in [false, true] {
            let collectors: Vec<Collector> = (0..SUBSCRIBERS).map(|_| Collector::new()).collect();
            let mut engine = Engine::start(config());
            let ids: Vec<_> = collectors
                .iter()
                .enumerate()
                .map(|(i, c)| engine.subscribe(oracle_subscription(i, c)))
                .collect();
            let (head, tail) = stream.split_at(stream.len() / 2);
            engine.ingest_all(head);
            if leave {
                for i in LEAVERS {
                    assert!(engine.unsubscribe(ids[i]));
                }
            }
            engine.ingest_all(tail);
            let report = engine.finish();
            let expected = if leave { (3, 5, 2) } else { (3, 7, 3) };
            assert_eq!(
                (
                    report.plans_active,
                    report.plan_subscribers,
                    report.plan_subscribers_max
                ),
                expected,
                "{shards} shards, leave={leave}: plans did not collapse as expected"
            );
            for (i, collector) in collectors.iter().enumerate() {
                let got = deliveries(collector);
                if leave && LEAVERS.contains(&i) {
                    assert!(
                        got.len() < solo[i].len() && solo[i].starts_with(&got),
                        "{shards} shards: leaver {i} must get a strict prefix of its solo run"
                    );
                } else {
                    assert_eq!(
                        got, solo[i],
                        "{shards} shards, leave={leave}: subscriber {i} diverged from its solo run"
                    );
                }
            }
        }
    }
}

/// A subscription registered mid-stream observes exactly the instances
/// ingested after `subscribe` returns, whatever else is held behind the
/// watermark or happens to reach its home shard. With a wide slack the
/// first half of the stream is still held when two late subscriptions
/// arrive: one joins the early subscription's plan with the same scope
/// (its slot is in the held rows' hit lists), the other opens a plan of
/// its own over a region only durable owner copies would have carried.
/// Both see the second half only, identically at 1 and 4 shards, with
/// and without a WAL, threaded and deterministic.
#[test]
fn late_subscriptions_observe_exactly_the_later_stream() {
    let hot = |c: &Collector, x: f64| {
        Subscription::new("hot", circle_region(x, x, 15.0), c.sink()).for_event("reading")
    };
    let stream: Vec<EventInstance> = (0..48u64)
        .map(|i| {
            let (x, y) = match i % 3 {
                0 => (25.0, 25.0),
                1 => (75.0, 75.0),
                _ => (50.0, 10.0),
            };
            mk("reading", i, 10 * i, x, y, 50.0)
        })
        .collect();
    let (head, tail) = stream.split_at(24);
    let expected = |x: f64| -> Vec<String> {
        let region = circle_region(x, x, 15.0);
        let mut out: Vec<String> = tail
            .iter()
            .filter(|i| region.covers(i.estimated_location().representative()))
            .map(|i| format!("{:?}", NotificationKind::Match(i.clone())))
            .collect();
        out.sort();
        out
    };
    for shards in [1, 4] {
        for wal in [false, true] {
            for threaded in [false, true] {
                let dir = wal_dir(&format!("late-{shards}-{wal}-{threaded}"));
                let mut config = EngineConfig::new(bounds())
                    .with_shards(shards)
                    .with_batch_size(5)
                    .with_watermark_slack(Duration::new(10_000));
                if wal {
                    config = config.with_wal(&dir);
                }
                if !threaded {
                    config = config.deterministic();
                }
                let mut engine = Engine::start(config);
                let (early, joiner, fresh) = (Collector::new(), Collector::new(), Collector::new());
                engine.subscribe(hot(&early, 25.0));
                engine.ingest_all(head);
                engine.flush();
                engine.subscribe(hot(&joiner, 25.0));
                engine.subscribe(hot(&fresh, 75.0));
                engine.ingest_all(tail);
                let report = engine.finish();
                let label = format!("{shards} shards, wal={wal}, threaded={threaded}");
                assert_eq!(report.plans_active, 2, "{label}: the joiner shares a plan");
                assert_eq!(early.take().len(), 16, "{label}");
                assert_eq!(
                    notification_multiset(joiner.take()),
                    expected(25.0),
                    "{label}: the plan joiner"
                );
                assert_eq!(
                    notification_multiset(fresh.take()),
                    expected(75.0),
                    "{label}: the fresh plan"
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

/// Subscriber `k` of the fan-out test below: twelve subscribers on two
/// shared plain plans (`k % 2` picks the condition), each plan spread
/// over three overlapping scopes (`k / 2 % 3`). Every scope holds the
/// shared home hint, so both plans live on one shard.
fn fanout_subscription(k: usize, collector: &Collector) -> Subscription {
    let scope = match k / 2 % 3 {
        0 => rect_extent(0.0, 0.0, 60.0, 60.0),
        1 => rect_extent(40.0, 40.0, 100.0, 100.0),
        _ => rect_extent(20.0, 30.0, 80.0, 70.0),
    };
    let condition = if k.is_multiple_of(2) {
        "x.temp > 45"
    } else {
        "x.temp > 40"
    };
    Subscription::new("tenant", everywhere(), collector.sink())
        .scoped_to(scope)
        .for_event("reading")
        .when(dsl::parse(condition).unwrap())
        .homed_near(Point::new(50.0, 50.0))
}

/// One delivery as `(raw subscription id, instance seq)`.
fn match_seq(n: &stem_engine::Notification) -> (u64, u64) {
    match &n.kind {
        NotificationKind::Match(instance) => (n.subscription.raw(), instance.seq().raw()),
        other => panic!("plain plans deliver matches, got {other:?}"),
    }
}

/// Fan-out across slot groups and plans keeps the global delivery
/// order and the per-subscriber counters. Twelve subscribers share one
/// collector over two plain plans with three overlapping scopes each,
/// so a row lists several slots of one plan and slots of both; four
/// join mid-stream (later `since` in groups that already have members)
/// and one leaves. The interleaved stream must be, row by row, the
/// receivers in ascending subscription id; every subscriber must get
/// exactly its solo run (same join and leave points); and `evaluated`,
/// `eval_errors` and `notifications` must be the sums of the solo runs.
#[test]
fn fan_out_merges_slot_groups_in_subscription_order() {
    const SUBSCRIBERS: usize = 12;
    const PHASES: [usize; 4] = [0, 80, 160, 240];
    let join_at = |k: usize| match k {
        8 | 9 => 80,
        10 | 11 => 160,
        _ => 0,
    };
    let leave_at = |k: usize| (k == 3).then_some(160);
    let stream: Vec<EventInstance> = (0..240u64)
        .map(|i| {
            let (x, y) = ((i * 37 % 100) as f64, (i * 61 % 100) as f64);
            if i % 11 == 5 {
                // No `temp`: every plan listing this row errors.
                EventInstance::builder(
                    ObserverId::Mote(MoteId::new(1)),
                    EventId::new("reading"),
                    Layer::Sensor,
                )
                .seq(SeqNo::new(i))
                .generated(TimePoint::new(10 * i), Point::new(x, y))
                .attributes(Attributes::new().with("humidity", 0.5))
                .build()
            } else {
                mk("reading", i, 10 * i, x, y, 30.0 + (i * 7 % 30) as f64)
            }
        })
        .collect();
    for shards in [1, 4] {
        for threaded in [false, true] {
            let label = format!("{shards} shards, threaded={threaded}");
            let config = || {
                let config = EngineConfig::new(bounds())
                    .with_shards(shards)
                    .with_batch_size(4);
                if threaded {
                    config
                } else {
                    config.deterministic()
                }
            };
            let counters = |report: &stem_engine::EngineReport| {
                (
                    report.shards.iter().map(|s| s.evaluated).sum::<u64>(),
                    report.shards.iter().map(|s| s.eval_errors).sum::<u64>(),
                    report.total_notifications(),
                )
            };
            let mut solo_sums = (0, 0, 0);
            let solo: Vec<Vec<stem_engine::Notification>> = (0..SUBSCRIBERS)
                .map(|k| {
                    let collector = Collector::new();
                    let mut engine = Engine::start(config());
                    let join = join_at(k);
                    engine.ingest_all(&stream[..join]);
                    let id = engine.subscribe(fanout_subscription(k, &collector));
                    match leave_at(k) {
                        Some(leave) => {
                            engine.ingest_all(&stream[join..leave]);
                            assert!(engine.unsubscribe(id));
                            engine.ingest_all(&stream[leave..]);
                        }
                        None => engine.ingest_all(&stream[join..]),
                    }
                    let (evaluated, errors, notes) = counters(&engine.finish());
                    solo_sums = (
                        solo_sums.0 + evaluated,
                        solo_sums.1 + errors,
                        solo_sums.2 + notes,
                    );
                    let got = collector.take();
                    assert!(!got.is_empty(), "{label}: subscriber {k} delivers alone");
                    got
                })
                .collect();
            assert!(solo_sums.1 > 0, "{label}: the stream must exercise errors");

            let shared = Collector::new();
            let mut engine = Engine::start(config());
            let mut ids = Vec::new();
            for phase in PHASES.windows(2) {
                for (k, &id) in ids.iter().enumerate() {
                    if leave_at(k) == Some(phase[0]) {
                        assert!(engine.unsubscribe(id));
                    }
                }
                for k in (0..SUBSCRIBERS).filter(|&k| join_at(k) == phase[0]) {
                    ids.push(engine.subscribe(fanout_subscription(k, &shared)));
                }
                engine.ingest_all(&stream[phase[0]..phase[1]]);
            }
            let report = engine.finish();
            assert_eq!(report.plans_active, 2, "{label}: two shared plans");
            let got = shared.take();

            // Per row, the receivers in ascending subscription id.
            let mut expected = Vec::new();
            let mut widest = (0, 0);
            for instance in &stream {
                let seq = instance.seq().raw();
                let receivers: Vec<usize> = (0..SUBSCRIBERS)
                    .filter(|&k| solo[k].iter().any(|n| match_seq(n).1 == seq))
                    .collect();
                let plans = receivers.iter().map(|k| k % 2).collect::<BTreeSet<_>>();
                let slots = receivers
                    .iter()
                    .filter(|&&k| k % 2 == 0)
                    .map(|k| k / 2 % 3)
                    .collect::<BTreeSet<_>>();
                widest = widest.max((plans.len(), slots.len()));
                expected.extend(receivers.iter().map(|&k| (ids[k].raw(), seq)));
            }
            assert_eq!(
                widest,
                (2, 3),
                "{label}: some row must list three slots of one plan and both plans"
            );
            let order: Vec<(u64, u64)> = got.iter().map(match_seq).collect();
            assert_eq!(order, expected, "{label}: global fan-out order");
            for (k, want) in solo.iter().enumerate() {
                let mine: Vec<_> = got
                    .iter()
                    .filter(|n| n.subscription == ids[k])
                    .map(|n| (n.shard, &n.kind))
                    .collect();
                let alone: Vec<_> = want.iter().map(|n| (n.shard, &n.kind)).collect();
                assert_eq!(
                    mine, alone,
                    "{label}: subscriber {k} diverged from its solo run"
                );
            }
            assert_eq!(counters(&report), solo_sums, "{label}: counters");
        }
    }
}

/// Crash recovery through the router's hit lists: 20 overlapping circles
/// and a two-scope plain plan all homed on one shard (so its precision
/// pass runs on the BVH), a pattern plan beside them, and a slack wide
/// enough that a checkpoint always finds rows held in the reorder
/// buffer. The run is killed after checkpoints; recovery packs both the
/// WAL tail and the floor snapshot's held rows with fresh hit lists, and
/// the resumed deliveries, minus what the snapshot covers, continue the
/// uninterrupted run exactly.
#[test]
fn recovery_through_router_hits_continues_the_uninterrupted_run() {
    let config = |dir: &std::path::Path| {
        EngineConfig::new(bounds())
            .with_shards(2)
            .with_batch_size(3)
            .with_watermark_slack(Duration::new(60))
            .with_wal(dir)
            .with_checkpoint(stem_engine::CheckpointPolicy::EveryNBatches(5))
            .deterministic()
    };
    let subscribe_all = |engine: &mut dyn FnMut(Subscription), c: &Collector| {
        let hint = Point::new(30.0, 30.0);
        for i in 0..20u64 {
            let f = i as f64;
            engine(
                Subscription::new(
                    format!("c{i}"),
                    circle_region(20.0 + f, 25.0 + (f * 7.0) % 11.0, 8.0 + f % 5.0),
                    c.sink(),
                )
                .for_event("reading")
                .when(dsl::parse("x.temp > 40").unwrap())
                .homed_near(hint),
            );
        }
        for (x0, x1) in [(0.0, 30.0), (25.0, 60.0)] {
            engine(
                Subscription::new("split", circle_region(30.0, 30.0, 28.0), c.sink())
                    .scoped_to(rect_extent(x0, 0.0, x1, 60.0))
                    .for_event("reading")
                    .homed_near(hint),
            );
        }
        engine(
            Subscription::new("pair", circle_region(30.0, 30.0, 20.0), c.sink())
                .for_event("reading")
                .when(dsl::parse("avg(a.temp, b.temp) > 45").unwrap())
                .matching(
                    Pattern::atom("a", "reading").then(Pattern::atom("b", "reading")),
                    ConsumptionMode::Chronicle,
                    Some(Duration::new(100)),
                )
                .observed_by(ConditionObserver::new(
                    ObserverId::Ccu(CcuId::new(9)),
                    hint,
                    1.0,
                )),
        );
    };
    // Mildly disordered times inside the slack; locations cover the
    // cluster and the far shard.
    let stream: Vec<EventInstance> = (0..150u64)
        .map(|i| {
            let t = 10 * i + (i * 13 % 5) * 7;
            let (x, y) = if i % 4 == 3 {
                (80.0, 80.0)
            } else {
                ((i * 17 % 55) as f64, (i * 29 % 50) as f64)
            };
            mk("reading", i, t, x, y, 35.0 + (i * 11 % 20) as f64)
        })
        .collect();

    let full_dir = wal_dir("hits-full");
    let reference = Collector::new();
    let mut engine = Engine::start(config(&full_dir));
    subscribe_all(
        &mut |sub| {
            engine.subscribe(sub);
        },
        &reference,
    );
    engine.ingest_all(&stream);
    let full = engine.finish();
    assert!(full.router.bvh_nodes_visited > 0, "the home's BVH served");
    assert!(full.total_scope_skipped() > 0, "the two-scope plan gated");
    let expected = per_sub_sequences(reference.take());

    let crash_dir = wal_dir("hits-crash");
    let mut engine = Engine::start(config(&crash_dir));
    subscribe_all(
        &mut |sub| {
            engine.subscribe(sub);
        },
        &Collector::new(),
    );
    engine.ingest_all(stream.iter().take(100));
    engine.flush();
    drop(engine); // the crash

    let survivor = Collector::new();
    let mut recovery = Engine::recover(config(&crash_dir)).expect("recover from durable state");
    subscribe_all(
        &mut |sub| {
            recovery.subscribe(sub);
        },
        &survivor,
    );
    assert!(
        recovery.stats().snapshot_epoch.is_some(),
        "a checkpoint floor"
    );
    let skipped = recovery.snapshot_delivered();
    let mut engine = recovery.resume();
    let resume = usize::try_from(engine.resume_from()).unwrap();
    assert!(resume > 0 && resume <= 100);
    engine.ingest_all(stream.iter().skip(resume));
    let report = engine.finish();
    assert!(
        report.total_wal().records_recovered > 0,
        "the tail replayed"
    );
    let resumed = per_sub_sequences(survivor.take());
    for (sub, full_sequence) in &expected {
        let cut = usize::try_from(*skipped.get(sub).unwrap_or(&0)).unwrap();
        assert_eq!(
            resumed.get(sub).cloned().unwrap_or_default(),
            full_sequence[cut..],
            "sub {sub}: resumed deliveries must continue the reference run"
        );
    }
    let _ = std::fs::remove_dir_all(&full_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

use proptest::prelude::*;

proptest! {
    /// Every ingest entry point — `ingest` per instance, `ingest_at` at
    /// the generation time, `pump` over a recorded source, and
    /// `ingest_all` — delivers exactly what a brute-force oracle
    /// (every instance × every circle: event filter plus coverage of
    /// the representative point) predicts, across random streams ×
    /// region sets × shard counts × chunk sizes × both execution modes,
    /// and all four agree on the routing counters.
    ///
    /// The first `crowd` circles cluster around one point and are homed
    /// near it, so runs with a crowd of 16 or more put that many plans
    /// on one home and check the router's BVH side end to end.
    #[test]
    fn every_ingest_entry_point_matches_a_brute_force_oracle(
        regions in proptest::collection::vec(
            (0.0f64..90.0, 0.0f64..90.0, 2.0f64..25.0), 1..40),
        crowd in 0usize..25,
        points in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0), 1..100),
        shards in 1usize..5,
        batch in 1usize..40,
        threaded in proptest::bool::ANY,
    ) {
        let crowd = crowd.min(regions.len());
        let circles: Vec<SpatialExtent> = regions
            .iter()
            .enumerate()
            .map(|(i, &(x, y, r))| {
                if i < crowd {
                    circle_region(40.0 + x / 10.0, 40.0 + y / 10.0, r)
                } else {
                    circle_region(x, y, r)
                }
            })
            .collect();
        // Every seventh instance carries another event id, so the
        // subscriptions' event filter is exercised too.
        let stream: Vec<EventInstance> = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| {
                let event = if i % 7 == 3 { "noise" } else { "reading" };
                mk(event, i as u64, 10 * i as u64, x, y, 50.0)
            })
            .collect();
        let mut oracle: Vec<String> = Vec::new();
        for instance in &stream {
            let p = instance.estimated_location().representative();
            for circle in &circles {
                if instance.event().as_str() == "reading" && circle.covers(p) {
                    oracle.push(format!("{:?}", NotificationKind::Match(instance.clone())));
                }
            }
        }
        oracle.sort();

        let run = |entry: &str| {
            let mut config = EngineConfig::new(bounds())
                .with_shards(shards)
                .with_batch_size(batch);
            if !threaded {
                config = config.deterministic();
            }
            let mut engine = Engine::start(config);
            let collector = Collector::new();
            for (i, circle) in circles.iter().enumerate() {
                let sub = Subscription::new(format!("r{i}"), circle.clone(), collector.sink())
                    .for_event("reading");
                engine.subscribe(if i < crowd {
                    sub.homed_near(Point::new(45.0, 45.0))
                } else {
                    sub
                });
            }
            match entry {
                "ingest" => {
                    for instance in &stream {
                        engine.ingest(instance.clone());
                    }
                }
                "ingest_at" => {
                    for instance in &stream {
                        engine.ingest_at(instance.clone(), instance.generation_time());
                    }
                }
                "pump" => {
                    let recorded: Vec<TimedInstance> = stream
                        .iter()
                        .map(|instance| TimedInstance {
                            at: instance.generation_time(),
                            instance: instance.clone(),
                        })
                        .collect();
                    engine.pump(&mut recorded.into_iter());
                }
                _ => engine.ingest_all(&stream),
            }
            let report = engine.finish();
            (notification_multiset(collector.take()), report.router)
        };
        let mut first: Option<stem_engine::RouterMetrics> = None;
        for name in ["ingest", "ingest_at", "pump", "ingest_all"] {
            let (notes, router) = run(name);
            prop_assert_eq!(&notes, &oracle, "{} diverged from the oracle", name);
            if let Some(reference) = &first {
                prop_assert_eq!(reference.routed, router.routed, "{} routed", name);
                prop_assert_eq!(reference.fanout, router.fanout, "{} fanout", name);
                prop_assert_eq!(
                    reference.precision_skipped,
                    router.precision_skipped,
                    "{} precision_skipped",
                    name
                );
            } else {
                prop_assert_eq!(router.routed, stream.len() as u64);
                if shards == 1 && circles.len() >= 16 {
                    prop_assert!(router.bvh_nodes_visited > 0, "the BVH side served");
                }
                first = Some(router);
            }
        }
    }

    /// Scoped-vs-unscoped equivalence: wrapping a subscription's region
    /// in an explicit covering scope changes nothing observable —
    /// pruning never drops an in-scope delivery.
    #[test]
    fn scope_pruning_never_drops_an_in_scope_delivery(
        regions in proptest::collection::vec(
            (0.0f64..90.0, 0.0f64..90.0, 2.0f64..25.0), 1..16),
        points in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0), 1..100),
        shards in 1usize..5,
        pad in 0.0f64..10.0,
    ) {
        let run = |scoped: bool| {
            let mut engine = Engine::start(
                EngineConfig::new(bounds())
                    .with_shards(shards)
                    .with_batch_size(4)
                    .deterministic(),
            );
            let collector = Collector::new();
            for (i, &(x, y, r)) in regions.iter().enumerate() {
                let region = circle_region(x, y, r);
                let mut sub =
                    Subscription::new(format!("r{i}"), region.clone(), collector.sink())
                        .for_event("reading");
                if scoped {
                    // Any scope covering the region is equivalent; the
                    // pad varies how much looser it is than the region.
                    sub = sub.scoped_to(SpatialExtent::field(Field::rect(
                        region.bounding_box().inflated(pad),
                    )));
                }
                engine.subscribe(sub);
            }
            for (i, &(x, y)) in points.iter().enumerate() {
                engine.ingest(mk("reading", i as u64, 10 * i as u64, x, y, 50.0));
            }
            let report = engine.finish();
            (notification_multiset(collector.take()), report)
        };
        let (unscoped_notes, _) = run(false);
        let (scoped_notes, scoped_report) = run(true);
        prop_assert_eq!(
            unscoped_notes,
            scoped_notes,
            "an in-scope delivery was dropped"
        );
        prop_assert_eq!(
            scoped_report.router.scoped_subscriptions,
            regions.len() as u64
        );
    }
}
