//! stemtop: a live terminal view of a running engine.
//!
//! A producer thread drives a threaded 4-shard engine with a synthetic
//! sensor stream while the main thread polls the telemetry registry
//! ([`stem::obs::ObsRegistry`]) four times a second and renders what a
//! `top`-style operator view would show: the stream clock, delivery
//! counters, per-shard queue and reorder-buffer depth, and the
//! per-stage latency distributions (batch build → ingest → route →
//! enqueue → reorder release → scope prune → evaluate → batch
//! reset), including the columnar batch-build and arena-reset rows
//! the ingest path pays per chunk.
//!
//! Below the stage table sits the lineage pane: the newest entries of
//! the engine's flight-recorder ring ([`stem::engine::TraceHandle`]),
//! one row per delivered notification — which shard evaluated it,
//! which subscription fired, the constituent trace ids (global ingest
//! sequences, joinable offline against a WAL via `stem::trace`), and
//! the ingest→notify latency read off the per-stage trace stamps.
//!
//! Below that sits the alert pane: the engine's self-monitoring
//! watchdog ([`stem::engine::HealthHandle`], see `stem::watch`) — the
//! built-in watcher set plus a deliberately twitchy queue-pressure
//! rule so a live run usually has something to show — with each
//! alert's rule, severity, shard, firing value, and the snapshot seqs
//! it was confirmed over.
//!
//! The run is bounded (a few seconds) so it doubles as a smoke test.
//!
//! Run with: `cargo run --release --example stemtop`
//! Options: `--poll <ms>` sets the viewer poll interval (default 250).

use std::io::IsTerminal;
use std::sync::Arc;
use std::thread;
use std::time::Duration as StdDuration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use stem::core::{dsl, Attributes, EventId, EventInstance, Layer, MoteId, ObserverId};
use stem::engine::{
    Collector, Engine, EngineConfig, HealthHandle, Metric, Severity, Subscription, TelemetryPolicy,
    TraceHandle, TracePolicy, WatchPolicy, WatchSpec,
};
use stem::obs::{ObsRegistry, ObsSnapshot, Stage, TraceRecord};
use stem::spatial::{Field, Point, Rect, SpatialExtent};
use stem::temporal::{Duration, TimePoint};

const SEED: u64 = 23;
const SHARDS: usize = 4;
const WORLD: f64 = 1000.0;
const CHUNK: usize = 1_500;
const CHUNKS: usize = 120;
const SUB_GRID: usize = 6;

fn bounds() -> Rect {
    Rect::new(Point::new(0.0, 0.0), Point::new(WORLD, WORLD))
}

/// One chunk of the synthetic stream: readings from fixed generator
/// sites with mildly out-of-order timestamps, the same shape the
/// throughput bench uses.
fn chunk(rng: &mut SmallRng, base_tick: u64) -> Vec<EventInstance> {
    (0..CHUNK)
        .map(|i| {
            let mote = rng.gen_range(0..256u32);
            let x = rng.gen_range(0.0..WORLD);
            let y = rng.gen_range(0.0..WORLD);
            let jitter = rng.gen_range(0..8u64);
            EventInstance::builder(
                ObserverId::Mote(MoteId::new(mote)),
                EventId::new("reading"),
                Layer::Sensor,
            )
            .generated(
                TimePoint::new(base_tick + i as u64 + jitter),
                Point::new(x, y),
            )
            .attributes(Attributes::new().with("temp", rng.gen_range(0.0..100.0)))
            .build()
        })
        .collect()
}

/// Renders one registry snapshot as a `top`-style block. On a real
/// terminal the screen is redrawn in place; when piped, blocks are
/// appended so the output stays greppable.
fn render(snapshot: &ObsSnapshot, clear: bool) {
    if clear {
        print!("\x1b[H\x1b[2J");
    }
    println!(
        "stemtop — snapshot #{}  stream clock t={}",
        snapshot.seq,
        snapshot
            .ticks
            .map_or_else(|| "?".to_owned(), |t| t.to_string())
    );
    println!(
        "  shard msgs {}  notifications {}  routed {}  fanout {}",
        snapshot.counter("msgs_processed"),
        snapshot.gauge("notifications"),
        snapshot.gauge("routed"),
        snapshot.gauge("fanout"),
    );
    let plans = snapshot.gauge("plans_active");
    let plan_subs = snapshot.gauge("plan_subscribers");
    println!(
        "  plans {plans}  subscribers {plan_subs}  max fanout {}  dedupe {:.1}x",
        snapshot.gauge("plan_subscribers_max"),
        if plans == 0 {
            0.0
        } else {
            plan_subs as f64 / plans as f64
        },
    );
    if let Some((_, lag)) = snapshot.hists.iter().find(|(n, _)| *n == "watermark_lag") {
        println!(
            "  watermark lag  p50 {}  p99 {}  max {} ticks",
            lag.p50, lag.p99, lag.max
        );
    }
    println!("  shard  queue  reorder  released  late_dropped");
    for row in &snapshot.shards {
        let gauge = |name: &str| {
            row.gauges
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |&(_, v)| v)
        };
        println!(
            "  {:>5}  {:>5}  {:>7}  {:>8}  {:>12}",
            row.shard,
            row.queue_depth,
            gauge("reorder_depth"),
            gauge("released"),
            gauge("late_dropped"),
        );
    }
    println!(
        "  {:<15} {:>8} {:>10} {:>10}",
        "stage", "count", "p50_ns", "p99_ns"
    );
    for &(stage, summary) in &snapshot.stages {
        println!(
            "  {:<15} {:>8} {:>10} {:>10}",
            stage.name(),
            summary.count,
            summary.p50,
            summary.p99
        );
    }
}

/// How many of the newest lineage rows the pane shows.
const LINEAGE_ROWS: usize = 5;

/// Renders the lineage pane: the newest flight-recorder notifications,
/// one causal row each.
fn render_lineage(trace: &TraceHandle) {
    let records = trace.records();
    let notifies: Vec<&TraceRecord> = records
        .iter()
        .filter(|r| matches!(r, TraceRecord::Notify { .. }))
        .collect();
    println!(
        "  lineage — flight recorder: {} record(s) retained, {} evicted",
        records.len(),
        trace.evicted()
    );
    println!(
        "  {:<5} {:>4} {:>7} {:>16}  constituents (trace ids)",
        "shard", "sub", "notify#", "ingest→notify ns"
    );
    for record in notifies.iter().rev().take(LINEAGE_ROWS).rev() {
        let TraceRecord::Notify {
            shard,
            id,
            sub,
            stamps,
            constituents,
        } = record
        else {
            continue;
        };
        let ids: Vec<String> = constituents.iter().map(|c| c.trace.to_string()).collect();
        println!(
            "  {:<5} {:>4} {:>7} {:>16}  [{}]",
            shard,
            sub,
            id,
            stamps[NOTIFY_LAST].saturating_sub(stamps[0]),
            ids.join(", "),
        );
    }
}

/// Index of the `notify` stamp in a notify record's stage array.
const NOTIFY_LAST: usize = 5;

/// How many of the newest alerts the pane shows.
const ALERT_ROWS: usize = 5;

/// Renders the alert pane: the watchdog's newest health alerts.
fn render_alerts(health: &HealthHandle) {
    let alerts = health.alerts();
    println!(
        "  health — watchdog: {} alert(s) retained, {} evicted",
        alerts.len(),
        health.evicted()
    );
    println!(
        "  {:<16} {:<8} {:>5} {:>8} {:>9}  confirmed over seqs",
        "rule", "severity", "shard", "value", "threshold"
    );
    for alert in alerts.iter().rev().take(ALERT_ROWS).rev() {
        println!(
            "  {:<16} {:<8} {:>5} {:>8} {:>9}  [{}..={}]",
            alert.rule,
            alert.severity.name(),
            alert
                .shard
                .map_or_else(|| "-".to_owned(), |s| s.to_string()),
            alert.value,
            alert.threshold,
            alert.began_seq,
            alert.fired_seq,
        );
    }
}

/// Parses `--poll <ms>` / `--poll=<ms>` from the command line (viewer
/// poll interval; default 250 ms).
fn poll_interval() -> StdDuration {
    let mut args = std::env::args().skip(1);
    let mut ms = 250u64;
    while let Some(arg) = args.next() {
        let value = if arg == "--poll" {
            args.next()
        } else {
            arg.strip_prefix("--poll=").map(str::to_owned)
        };
        if let Some(value) = value {
            ms = value
                .parse()
                .unwrap_or_else(|_| panic!("--poll wants milliseconds, got {value:?}"));
        }
    }
    StdDuration::from_millis(ms.max(1))
}

fn main() {
    let mut engine = Engine::start(
        EngineConfig::new(bounds())
            .with_shards(SHARDS)
            .with_batch_size(256)
            .with_watermark_slack(Duration::new(16))
            .with_telemetry(TelemetryPolicy::every_batches(4).with_ring(64))
            .with_trace(TracePolicy::NotificationsOnly)
            // The built-in watchers plus a queue-pressure rule twitchy
            // enough that a live producer usually trips it.
            .with_watch(WatchPolicy::enabled().with_ring(64))
            .with_watch_spec(
                WatchSpec::new("queue-pressure", Metric::ShardQueueDepth)
                    .at_least(1)
                    .sustained_for(2)
                    .severity(Severity::Info),
            ),
    );
    let registry: Arc<ObsRegistry> = engine.obs().expect("telemetry is on");
    let trace: TraceHandle = engine.trace().expect("tracing is on");
    let health: HealthHandle = engine.health().expect("watch is on");
    let poll = poll_interval();

    // A grid of hot-reading subscriptions so evaluate/scope-prune have
    // real work on every shard.
    let collector = Collector::new();
    let cell = WORLD / SUB_GRID as f64;
    for gx in 0..SUB_GRID {
        for gy in 0..SUB_GRID {
            let lo = Point::new(gx as f64 * cell, gy as f64 * cell);
            let hi = Point::new(lo.x + cell, lo.y + cell);
            engine.subscribe(
                Subscription::new(
                    format!("hot-{gx}-{gy}"),
                    SpatialExtent::field(Field::rect(Rect::new(lo, hi))),
                    collector.sink(),
                )
                .for_event("reading")
                .when(dsl::parse("x.temp > 90").expect("valid condition")),
            );
        }
    }

    // The producer: a live driver paced so the viewer below catches the
    // engine mid-flight. It flushes after every chunk, which wakes the
    // shard workers to evaluate between the periodic syncs.
    let producer = thread::spawn(move || {
        let mut rng = SmallRng::seed_from_u64(SEED);
        for c in 0..CHUNKS {
            // Columnar ingest: the whole chunk goes through pooled
            // arena batches, so the batch_build/batch_reset stage rows
            // below carry real samples.
            engine.ingest_all(chunk(&mut rng, (c * CHUNK) as u64));
            engine.flush();
            if c % 16 == 15 {
                engine.sync();
            }
            thread::sleep(StdDuration::from_millis(10));
        }
        engine.finish()
    });

    let interactive = std::io::stdout().is_terminal();
    let mut last_seq = None;
    while !producer.is_finished() {
        thread::sleep(poll);
        if let Some(snapshot) = registry.latest() {
            // Redraw only when a new sample landed.
            if last_seq != Some(snapshot.seq) {
                last_seq = Some(snapshot.seq);
                render(&snapshot, interactive);
                render_lineage(&trace);
                render_alerts(&health);
            }
        }
    }
    let report = producer.join().expect("producer thread");

    println!("\nfinal: {}", report.summary_line());
    println!("deliveries: {}", collector.take().len());
    let obs = report.obs.expect("telemetry report");
    assert!(
        last_seq.is_some(),
        "the viewer observed at least one snapshot"
    );
    assert!(
        !obs.merged.stage(Stage::Evaluate).is_empty(),
        "evaluate stage recorded samples"
    );
    assert!(
        !obs.merged.stage(Stage::BatchBuild).is_empty()
            && !obs.merged.stage(Stage::BatchReset).is_empty(),
        "columnar batch build/reset stages recorded samples"
    );
    let trace = report.trace.expect("flight recorder report");
    let notifies = trace
        .records
        .iter()
        .filter(|r| matches!(r, TraceRecord::Notify { .. }))
        .count();
    assert!(notifies > 0, "the ring retained notification lineage");
    println!("lineage records: {} ({} evicted)", notifies, trace.evicted);
    let health = report.health.expect("watch report");
    println!(
        "health alerts: {} ({} evicted)",
        health.alerts.len(),
        health.evicted
    );
    for alert in &health.alerts {
        // Every alert's provenance names real telemetry snapshots.
        assert!(alert.began_seq <= alert.fired_seq);
        assert!(!alert.constituents.is_empty(), "alerts carry provenance");
    }
}
