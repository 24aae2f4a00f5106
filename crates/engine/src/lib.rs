//! # stem-engine — a sharded, batched streaming runtime for STEM
//!
//! The rest of the workspace reproduces the event model of Tan, Vuran &
//! Goddard (ICDCS Workshops 2009) inside a single-threaded discrete-event
//! simulation. This crate is the production substrate that runs the same
//! model *online*: a multi-threaded runtime that ingests
//! [`stem_core::EventInstance`] streams and serves many concurrent
//! spatio-temporal subscriptions.
//!
//! ## Architecture
//!
//! ```text
//!    ingest, ingest_at,
//!    ingest_all, pump                            steal-queue slots (bounded)
//!  instances ──▶ ColumnarBatch ──▶ ShardRouter ──▶ shard worker 0 ──▶ sinks
//!                (one row per          │       └─▶ shard worker 1 ──▶ sinks
//!                 instance; arena-     │  quadtree-derived     ⋮
//!                 backed, pooled)      └─ ShardMap    per shard:
//!                                                     ReorderBuffer (watermark)
//!                                                     subscription registry
//!                                                     condition / pattern /
//!                                                     sustained evaluation
//! ```
//!
//! * The shard map partitions the world plane into quadtree leaves
//!   (depth chosen from the shard count) and assigns contiguous Z-order
//!   runs of leaves to shards, so each shard owns a compact region.
//! * Every ingest entry point fills pooled [`stem_core::ColumnarBatch`]
//!   chunks through one path; recovery packs its log tail and snapshot
//!   rows into chunks the same way, hit lists included.
//! * The router forwards each instance to every shard that is home to a
//!   subscription whose scope covers it — plus the shard owning its
//!   location when a write-ahead log needs a durable copy — with the
//!   covering `(plan, scope slot)` pairs on that shard. That hit list is
//!   the only spatial decision: a worker checks just the listed plans,
//!   evaluates each once, and fans a notifying outcome out to the
//!   eligible members of the listed slot groups. Batches travel over
//!   bounded per-shard steal-queue slots; a barrier (`sync` / `finish`)
//!   skips shards whose processed counter already matches what was sent.
//! * A parked shard worker wakes at three points only: its queue fills,
//!   [`Engine::flush`] finds it behind what was sent, or shutdown
//!   closes the queue. Live drivers call `flush` after each chunk, so a
//!   notification waits for one chunk, not a full queue. `sync` never
//!   wakes a worker: it drains a dirty shard's backlog inline instead.
//! * Each batch carries the router's global maximum generation time as a
//!   watermark heartbeat; shard workers apply it to their
//!   [`stem_cep::ReorderBuffer`] so late-drop decisions match a
//!   single-shard run even though each shard sees only a sub-stream.
//! * A subscription lives on exactly one shard (the home of its region),
//!   so its pattern / sustained detector state is never split and the
//!   multiset of matches is independent of the shard count.
//! * [`ExecutionMode::Deterministic`] runs the same shard workers inline
//!   in shard order on the caller's thread: tests reproduce bit-for-bit.
//!
//! ## Example
//!
//! ```
//! use stem_core::{dsl, EventId, EventInstance, Layer, MoteId, ObserverId};
//! use stem_engine::{Collector, Engine, EngineConfig, Subscription};
//! use stem_spatial::{Circle, Field, Point, Rect, SpatialExtent};
//! use stem_temporal::TimePoint;
//!
//! let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
//! let mut engine = Engine::start(EngineConfig::new(bounds).deterministic());
//!
//! // Subscribe to hot readings inside a circular region.
//! let collector = Collector::new();
//! engine.subscribe(
//!     Subscription::new(
//!         "hot-alert",
//!         SpatialExtent::field(Field::circle(Circle::new(Point::new(30.0, 30.0), 20.0))),
//!         collector.sink(),
//!     )
//!     .for_event("reading")
//!     .when(dsl::parse("x.temp > 45").unwrap()),
//! );
//!
//! let mk = |t: u64, x: f64, temp: f64| {
//!     EventInstance::builder(
//!         ObserverId::Mote(MoteId::new(1)),
//!         EventId::new("reading"),
//!         Layer::Sensor,
//!     )
//!     .generated(TimePoint::new(t), Point::new(x, 30.0))
//!     .attributes(stem_core::Attributes::new().with("temp", temp))
//!     .build()
//! };
//! engine.ingest(mk(10, 30.0, 50.0)); // hot, inside region -> match
//! engine.ingest(mk(20, 30.0, 20.0)); // cool -> no match
//! engine.ingest(mk(30, 90.0, 80.0)); // hot but outside region -> no match
//! let report = engine.finish();
//! assert_eq!(collector.take().len(), 1);
//! assert_eq!(report.router.routed, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod config;
mod engine;
mod metrics;
mod plan;
mod router;
mod shard_map;
mod slot;
mod sub_index;
mod subscription;
mod trace;
mod worker;

pub use config::{
    CheckpointPolicy, Durability, EngineConfig, ExecutionMode, ShardId, TelemetryPolicy,
    TracePolicy, WatchPolicy,
};
pub use engine::{Engine, RecoverError, Recovery, RecoveryStats};
pub use metrics::{EngineReport, RouterMetrics, ShardMetrics, SnapMetrics, WalMetrics};
pub use stem_core::{Constituent, DropVerdict, Provenance, StageStamps, TraceClock, TraceId};
pub use stem_wal::FsyncPolicy;
pub use stem_watch::{
    builtin_watchers, HealthAlert, HealthHandle, HealthReport, Metric, Severity, WatchSpec,
};
pub use subscription::{
    Collector, EventSink, Notification, NotificationKind, PatternSpec, SilenceSpec, Subscription,
    SubscriptionId, SustainedSpec, SustainedValue,
};
pub use trace::{TraceHandle, TraceReport};
