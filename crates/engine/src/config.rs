//! Engine configuration.

use std::path::PathBuf;
use stem_spatial::Rect;
use stem_temporal::Duration;
use stem_wal::FsyncPolicy;

/// Identifies one shard of the engine (dense, `0..shard_count`).
pub type ShardId = usize;

/// Whether (and where) the engine journals its ingest stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Durability {
    /// Purely in-memory: a crash loses every in-flight detector state
    /// and there is no historical replay (the pre-WAL behaviour).
    None,
    /// Per-shard write-ahead instance logs under `dir` (see
    /// [`stem_wal`]): every routed instance and silence probe is
    /// appended — checksummed, segment-rotated — *before* evaluation,
    /// so [`crate::Engine::recover`] can rebuild shard state after a
    /// crash and [`stem_wal::Replay`] can re-run history under any
    /// subscription set.
    Wal {
        /// Directory holding the `wal-<shard>-<segment>.log` chains.
        dir: PathBuf,
        /// When appended records are forced to stable storage.
        fsync: FsyncPolicy,
    },
}

/// When the engine cuts barrier-coordinated checkpoint snapshots (see
/// `stem-snap`). Checkpointing requires [`Durability::Wal`]: a snapshot
/// is a compressed prefix of the write-ahead log, meaningless without
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointPolicy {
    /// Never checkpoint: recovery replays the full log (the PR 3
    /// behaviour) and the log is never compacted.
    Never,
    /// Checkpoint after every `n` batches handed off to shard workers.
    EveryNBatches(u64),
    /// Checkpoint whenever the stream-clock high-water mark advances
    /// `n` ticks past the previous checkpoint's.
    EveryTicks(u64),
}

/// Whether (and how often) the engine samples its telemetry registry
/// (see `stem-obs`). Sampling is off by default: with
/// [`TelemetryPolicy::Off`] no registry exists and the hot path pays
/// nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TelemetryPolicy {
    /// No telemetry: no registry, no recorders, zero overhead.
    Off,
    /// Record stage spans and counters, and cut a registry snapshot
    /// every `every_batches` batches handed to shard workers (plus one
    /// final snapshot at shutdown).
    Sampled {
        /// Batches between registry snapshots (>= 1).
        every_batches: u64,
        /// In-memory snapshot ring capacity (>= 1).
        ring: usize,
        /// Optional JSON-lines exporter file: one snapshot per line,
        /// versioned schema (see `stem_obs::ObsSnapshot::to_json_line`).
        export: Option<PathBuf>,
    },
}

impl TelemetryPolicy {
    /// A sampled policy with the default ring (256 snapshots) and no
    /// exporter file.
    #[must_use]
    pub fn every_batches(n: u64) -> Self {
        TelemetryPolicy::Sampled {
            every_batches: n,
            ring: 256,
            export: None,
        }
    }

    /// Attaches a JSON-lines exporter file (no-op on [`TelemetryPolicy::Off`]).
    #[must_use]
    pub fn with_export(self, path: impl Into<PathBuf>) -> Self {
        match self {
            TelemetryPolicy::Off => TelemetryPolicy::Off,
            TelemetryPolicy::Sampled {
                every_batches,
                ring,
                ..
            } => TelemetryPolicy::Sampled {
                every_batches,
                ring,
                export: Some(path.into()),
            },
        }
    }

    /// Sets the snapshot ring capacity (no-op on [`TelemetryPolicy::Off`]).
    #[must_use]
    pub fn with_ring(self, capacity: usize) -> Self {
        match self {
            TelemetryPolicy::Off => TelemetryPolicy::Off,
            TelemetryPolicy::Sampled {
                every_batches,
                export,
                ..
            } => TelemetryPolicy::Sampled {
                every_batches,
                ring: capacity,
                export,
            },
        }
    }
}

/// Whether the engine watches its own health (see `stem-watch`). With
/// watch on, every telemetry snapshot the registry cuts is also fed
/// through the configured watchdog rules — so watch requires
/// [`TelemetryPolicy::Sampled`] and adds nothing to the per-event hot
/// path: it runs strictly at sampling cadence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WatchPolicy {
    /// No watcher: no rules evaluated, no alert ring, zero overhead.
    Off,
    /// Evaluate watchdog rules on every telemetry snapshot.
    Enabled {
        /// In-memory alert ring capacity (>= 1; oldest alerts are
        /// evicted first, counted in the health report).
        ring: usize,
        /// Optional JSON-lines alert export file: one schema-v3
        /// `alert` record per line (see `stem_watch::HealthAlert`).
        export: Option<PathBuf>,
    },
}

impl WatchPolicy {
    /// An enabled policy with the default alert ring (256 alerts) and
    /// no export file.
    #[must_use]
    pub fn enabled() -> Self {
        WatchPolicy::Enabled {
            ring: 256,
            export: None,
        }
    }

    /// Sets the alert ring capacity (no-op on [`WatchPolicy::Off`]).
    #[must_use]
    pub fn with_ring(self, capacity: usize) -> Self {
        match self {
            WatchPolicy::Off => WatchPolicy::Off,
            WatchPolicy::Enabled { export, .. } => WatchPolicy::Enabled {
                ring: capacity,
                export,
            },
        }
    }

    /// Attaches a JSON-lines alert export file (no-op on
    /// [`WatchPolicy::Off`]).
    #[must_use]
    pub fn with_export(self, path: impl Into<PathBuf>) -> Self {
        match self {
            WatchPolicy::Off => WatchPolicy::Off,
            WatchPolicy::Enabled { ring, .. } => WatchPolicy::Enabled {
                ring,
                export: Some(path.into()),
            },
        }
    }
}

/// Which operations the per-shard flight-recorder ring records (see
/// `stem-trace`). Provenance is *attached to notifications* under every
/// policy except [`TracePolicy::Off`]; the policy only controls how
/// much of the instance stream the ring additionally samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePolicy {
    /// No tracing at all: no trace clock, no rings, no provenance on
    /// notifications — the zero-overhead baseline benchmarks compare
    /// against.
    Off,
    /// Ring-record every released instance, every drop verdict, and
    /// every notification. The full causal record; the costliest mode.
    Always,
    /// Ring-record instances whose trace id is `0 (mod n)`, plus every
    /// drop verdict and every notification. `OneInN(1)` behaves like
    /// [`TracePolicy::Always`]; `OneInN(0)` is rejected by
    /// [`EngineConfig::validate`].
    OneInN(u32),
    /// Ring-record only notifications (drops still surface as verdicts
    /// *inside* each notification's provenance). The default: full
    /// lineage on every delivery at near-zero cost on the instance hot
    /// path.
    NotificationsOnly,
}

/// How shard workers execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// One OS thread per shard, batches handed off over bounded
    /// steal-queue slots (see `slot.rs`) whose published progress
    /// counters make barriers wait-free for clean shards (the
    /// production mode).
    Threaded,
    /// All shards run inline on the calling thread, processed in shard
    /// order at every handoff. Same code path as [`Self::Threaded`]
    /// minus the threads: output is bit-for-bit reproducible, which is
    /// what tests and the sharding-equivalence suite rely on.
    Deterministic,
}

/// Configuration for [`crate::Engine`].
///
/// Built with [`EngineConfig::new`] plus chained setters:
///
/// ```
/// use stem_engine::EngineConfig;
/// use stem_spatial::{Point, Rect};
/// use stem_temporal::Duration;
///
/// let config = EngineConfig::new(Rect::new(Point::new(0.0, 0.0), Point::new(1e3, 1e3)))
///     .with_shards(4)
///     .with_batch_size(256)
///     .with_watermark_slack(Duration::new(50));
/// assert!(config.validate().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The world region the shard map partitions. Instances outside are
    /// clamped to the nearest shard cell.
    pub world_bounds: Rect,
    /// Number of shards (`1..=64`). The engine uses this count *exactly*
    /// as given — it is never silently rounded. What *is* power-of-two
    /// sized is the quadtree leaf grid behind the shard map: its side is
    /// the smallest power of two giving at least four leaves per shard,
    /// and contiguous Z-order runs of those leaves are split across the
    /// shards. A non-power-of-two count therefore gets territory runs
    /// whose leaf counts differ by at most one — a balance wrinkle, not
    /// a changed shard count. `0` is rejected by
    /// [`EngineConfig::validate`].
    pub shard_count: usize,
    /// Instances per handoff batch and per columnar ingest chunk
    /// (>= 1). Larger batches amortize handoff traffic and arena
    /// reuse; smaller ones tighten the watermark heartbeat.
    pub batch_size: usize,
    /// Reorder slack: how far behind the maximum seen generation time
    /// the per-shard watermark trails (see [`stem_cep::ReorderBuffer`]).
    pub watermark_slack: Duration,
    /// Bounded steal-queue depth per shard, in batches. A full queue
    /// blocks the ingesting thread until the shard drains (or drains it
    /// inline): backpressure is lossless.
    pub queue_capacity: usize,
    /// Threaded or inline-deterministic execution.
    pub mode: ExecutionMode,
    /// Whether the ingest stream is journaled to a write-ahead log.
    pub durability: Durability,
    /// WAL segment rotation threshold, bytes (ignored without a WAL).
    pub wal_segment_bytes: u64,
    /// Records between durability checkpoints ([`stem_wal::WalRecord::Watermark`])
    /// in each shard's log (ignored without a WAL).
    pub wal_checkpoint_every: u64,
    /// When consistent state snapshots are cut (requires a WAL; see
    /// [`CheckpointPolicy`]). With checkpoints on, recovery loads the
    /// newest valid snapshot per shard and replays only the WAL tail
    /// past it, and log segments behind the retained snapshots are
    /// retired — bounded-time recovery and bounded disk. Each shard keeps
    /// its two newest snapshot epochs: compaction stops at the older
    /// one, so a torn newest snapshot still falls back to the previous
    /// one plus its log tail.
    pub checkpoint: CheckpointPolicy,
    /// Whether (and how often) the telemetry registry is sampled (see
    /// [`TelemetryPolicy`]). Off by default.
    pub telemetry: TelemetryPolicy,
    /// What the per-shard flight-recorder rings sample (see
    /// [`TracePolicy`]). Defaults to
    /// [`TracePolicy::NotificationsOnly`]: every notification carries
    /// its provenance and lands in the ring, the instance hot path pays
    /// one branch.
    pub trace: TracePolicy,
    /// Flight-recorder ring capacity per shard, in records (>= 1 unless
    /// tracing is off; oldest records are evicted first).
    pub trace_ring: usize,
    /// Optional JSON-lines trace export file: at shutdown every ring is
    /// drained to it as schema-v2 `trace` records (see
    /// [`stem_obs::TraceRecord`]), ready for `stem_trace::reconstruct`.
    pub trace_export: Option<PathBuf>,
    /// Whether the engine evaluates watchdog rules over its own
    /// telemetry (see [`WatchPolicy`]). Off by default; requires
    /// [`TelemetryPolicy::Sampled`] when enabled.
    pub watch: WatchPolicy,
    /// Extra watchdog rules evaluated alongside the built-in set
    /// ([`stem_watch::builtin_watchers`]) when watch is enabled.
    pub watch_specs: Vec<stem_watch::WatchSpec>,
}

impl EngineConfig {
    /// A single-shard, lossless, threaded configuration over the given
    /// world bounds.
    #[must_use]
    pub fn new(world_bounds: Rect) -> Self {
        EngineConfig {
            world_bounds,
            shard_count: 1,
            batch_size: 128,
            watermark_slack: Duration::ZERO,
            queue_capacity: 64,
            mode: ExecutionMode::Threaded,
            durability: Durability::None,
            wal_segment_bytes: 8 << 20,
            wal_checkpoint_every: 1024,
            checkpoint: CheckpointPolicy::Never,
            telemetry: TelemetryPolicy::Off,
            trace: TracePolicy::NotificationsOnly,
            trace_ring: 1024,
            trace_export: None,
            watch: WatchPolicy::Off,
            watch_specs: Vec::new(),
        }
    }

    /// Sets the self-monitoring watch policy (requires sampled
    /// telemetry when enabled).
    #[must_use]
    pub fn with_watch(mut self, policy: WatchPolicy) -> Self {
        self.watch = policy;
        self
    }

    /// Adds a custom watchdog rule to the built-in set.
    #[must_use]
    pub fn with_watch_spec(mut self, spec: stem_watch::WatchSpec) -> Self {
        self.watch_specs.push(spec);
        self
    }

    /// Sets the telemetry sampling policy.
    #[must_use]
    pub fn with_telemetry(mut self, policy: TelemetryPolicy) -> Self {
        self.telemetry = policy;
        self
    }

    /// Sets the flight-recorder trace policy.
    #[must_use]
    pub fn with_trace(mut self, policy: TracePolicy) -> Self {
        self.trace = policy;
        self
    }

    /// Sets the per-shard flight-recorder ring capacity, in records.
    #[must_use]
    pub fn with_trace_ring(mut self, records: usize) -> Self {
        self.trace_ring = records;
        self
    }

    /// Attaches a JSON-lines trace export file, drained from the rings
    /// at shutdown.
    #[must_use]
    pub fn with_trace_export(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace_export = Some(path.into());
        self
    }

    /// Journals the ingest stream to per-shard write-ahead logs under
    /// `dir`, syncing every 256 records (see [`EngineConfig::with_durability`]
    /// for explicit fsync control).
    #[must_use]
    pub fn with_wal(self, dir: impl Into<PathBuf>) -> Self {
        self.with_durability(Durability::Wal {
            dir: dir.into(),
            fsync: FsyncPolicy::EveryN(256),
        })
    }

    /// Sets the durability mode.
    #[must_use]
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Sets the WAL segment rotation threshold.
    #[must_use]
    pub fn with_wal_segment_bytes(mut self, bytes: u64) -> Self {
        self.wal_segment_bytes = bytes;
        self
    }

    /// Sets the per-shard checkpoint cadence, in records.
    #[must_use]
    pub fn with_wal_checkpoint_every(mut self, records: u64) -> Self {
        self.wal_checkpoint_every = records;
        self
    }

    /// Sets the consistent-snapshot checkpoint policy.
    #[must_use]
    pub fn with_checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = policy;
        self
    }

    /// Sets the shard count (used exactly as given; see
    /// [`EngineConfig::shard_count`] for how the power-of-two leaf grid
    /// behind it is sized).
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shard_count = shards;
        self
    }

    /// Sets the handoff batch size.
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Sets the reorder watermark slack.
    #[must_use]
    pub fn with_watermark_slack(mut self, slack: Duration) -> Self {
        self.watermark_slack = slack;
        self
    }

    /// Sets the bounded queue depth (in batches).
    #[must_use]
    pub fn with_queue_capacity(mut self, batches: usize) -> Self {
        self.queue_capacity = batches;
        self
    }

    /// Switches to inline-deterministic execution.
    #[must_use]
    pub fn deterministic(mut self) -> Self {
        self.mode = ExecutionMode::Deterministic;
        self
    }

    /// Returns every configuration problem found (empty = valid).
    #[must_use]
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.shard_count == 0 {
            problems.push("shard_count must be >= 1".to_string());
        }
        if self.shard_count > 64 {
            problems.push("shard_count must be <= 64 (router interest masks are u64)".to_string());
        }
        if self.batch_size == 0 {
            problems.push("batch_size must be >= 1".to_string());
        }
        if self.queue_capacity == 0 {
            problems.push("queue_capacity must be >= 1".to_string());
        }
        if self.world_bounds.width() <= 0.0 || self.world_bounds.height() <= 0.0 {
            problems.push("world_bounds must have positive area".to_string());
        }
        if let Durability::Wal { dir, .. } = &self.durability {
            if dir.as_os_str().is_empty() {
                problems.push("wal directory must be non-empty".to_string());
            }
            if self.wal_segment_bytes == 0 {
                problems.push("wal_segment_bytes must be >= 1".to_string());
            }
            if self.wal_checkpoint_every == 0 {
                problems.push("wal_checkpoint_every must be >= 1".to_string());
            }
        }
        match self.checkpoint {
            CheckpointPolicy::Never => {}
            CheckpointPolicy::EveryNBatches(0) | CheckpointPolicy::EveryTicks(0) => {
                problems.push("checkpoint cadence must be >= 1".to_string());
            }
            _ if !matches!(self.durability, Durability::Wal { .. }) => {
                problems.push(
                    "checkpointing requires Durability::Wal (a snapshot compresses a \
                     log prefix; without a log there is no tail to recover from)"
                        .to_string(),
                );
            }
            _ => {}
        }
        if let TelemetryPolicy::Sampled {
            every_batches,
            ring,
            export,
        } = &self.telemetry
        {
            if *every_batches == 0 {
                problems.push("telemetry sampling cadence must be >= 1 batch".to_string());
            }
            if *ring == 0 {
                problems.push("telemetry snapshot ring must hold >= 1 snapshot".to_string());
            }
            if export.as_ref().is_some_and(|p| p.as_os_str().is_empty()) {
                problems.push("telemetry export path must be non-empty".to_string());
            }
        }
        if self.trace == TracePolicy::OneInN(0) {
            problems.push(
                "trace sampling rate must be >= 1 (OneInN(0) samples nothing and \
                 divides by zero; use TracePolicy::Off to disable tracing)"
                    .to_string(),
            );
        }
        if self.trace != TracePolicy::Off {
            if self.trace_ring == 0 {
                problems.push("trace ring must hold >= 1 record".to_string());
            }
            if self
                .trace_export
                .as_ref()
                .is_some_and(|p| p.as_os_str().is_empty())
            {
                problems.push("trace export path must be non-empty".to_string());
            }
        }
        if let WatchPolicy::Enabled { ring, export } = &self.watch {
            if !matches!(self.telemetry, TelemetryPolicy::Sampled { .. }) {
                problems.push(
                    "watch requires TelemetryPolicy::Sampled (the watcher evaluates \
                     telemetry snapshots; without sampling there is nothing to watch)"
                        .to_string(),
                );
            }
            if *ring == 0 {
                problems.push("watch alert ring must hold >= 1 alert".to_string());
            }
            if export.as_ref().is_some_and(|p| p.as_os_str().is_empty()) {
                problems.push("watch export path must be non-empty".to_string());
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stem_spatial::Point;

    fn bounds() -> Rect {
        Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0))
    }

    #[test]
    fn defaults_are_valid() {
        assert!(EngineConfig::new(bounds()).validate().is_empty());
    }

    #[test]
    fn zero_values_are_rejected() {
        let cfg = EngineConfig::new(bounds())
            .with_shards(0)
            .with_batch_size(0)
            .with_queue_capacity(0);
        assert_eq!(cfg.validate().len(), 3);
        assert!(cfg.validate().iter().any(|p| p.contains("shard_count")));
    }

    #[test]
    fn shard_count_is_never_rounded() {
        // The leaf grid is power-of-two sized; the shard count is not.
        for shards in [1, 3, 5, 6, 7, 12, 63] {
            let cfg = EngineConfig::new(bounds()).with_shards(shards);
            assert!(cfg.validate().is_empty());
            let map = crate::shard_map::ShardMap::build(cfg.world_bounds, cfg.shard_count);
            assert_eq!(map.shard_count(), shards, "count silently adjusted");
            assert!(map.leaf_count().is_power_of_two());
            assert!(map.leaf_count() >= 4 * shards);
        }
    }

    #[test]
    fn degenerate_bounds_are_rejected() {
        let cfg = EngineConfig::new(Rect::new(Point::new(5.0, 0.0), Point::new(5.0, 10.0)));
        assert_eq!(cfg.validate().len(), 1);
    }

    #[test]
    fn checkpoint_policy_is_validated() {
        // Checkpointing without a WAL is rejected.
        let cfg = EngineConfig::new(bounds()).with_checkpoint(CheckpointPolicy::EveryNBatches(8));
        assert!(cfg.validate().iter().any(|p| p.contains("Durability::Wal")));
        // Zero cadences are rejected whatever the durability.
        for policy in [
            CheckpointPolicy::EveryNBatches(0),
            CheckpointPolicy::EveryTicks(0),
        ] {
            let cfg = EngineConfig::new(bounds())
                .with_wal("/tmp/some-wal")
                .with_checkpoint(policy);
            assert!(cfg.validate().iter().any(|p| p.contains("cadence")));
        }
        // A well-formed checkpoint configuration passes.
        let cfg = EngineConfig::new(bounds())
            .with_wal("/tmp/some-wal")
            .with_checkpoint(CheckpointPolicy::EveryTicks(100));
        assert!(cfg.validate().is_empty());
        // Never + no WAL stays valid (the default).
        assert!(EngineConfig::new(bounds()).validate().is_empty());
    }

    #[test]
    fn telemetry_policy_is_validated() {
        // Off is the default and always valid.
        assert_eq!(EngineConfig::new(bounds()).telemetry, TelemetryPolicy::Off);
        // Zero cadence, zero ring, and an empty export path are each
        // rejected.
        let cfg = EngineConfig::new(bounds()).with_telemetry(TelemetryPolicy::Sampled {
            every_batches: 0,
            ring: 0,
            export: Some(PathBuf::new()),
        });
        assert_eq!(cfg.validate().len(), 3);
        // A well-formed sampled policy passes; the builder helpers
        // compose.
        let cfg = EngineConfig::new(bounds()).with_telemetry(
            TelemetryPolicy::every_batches(64)
                .with_ring(8)
                .with_export("/tmp/telemetry.jsonl"),
        );
        assert!(cfg.validate().is_empty());
        assert!(matches!(
            cfg.telemetry,
            TelemetryPolicy::Sampled {
                every_batches: 64,
                ring: 8,
                export: Some(_),
            }
        ));
        // The helpers stay no-ops on Off.
        assert_eq!(
            TelemetryPolicy::Off.with_ring(9).with_export("/tmp/x"),
            TelemetryPolicy::Off
        );
    }

    #[test]
    fn trace_policy_is_validated() {
        // Notifications-only is the default and valid as configured.
        let cfg = EngineConfig::new(bounds());
        assert_eq!(cfg.trace, TracePolicy::NotificationsOnly);
        assert!(cfg.validate().is_empty());
        // A zero sampling rate, a zero ring, and an empty export path
        // are each rejected.
        let cfg = EngineConfig::new(bounds())
            .with_trace(TracePolicy::OneInN(0))
            .with_trace_ring(0)
            .with_trace_export("");
        assert_eq!(cfg.validate().len(), 3);
        // With tracing off the ring and export knobs are ignored.
        let cfg = EngineConfig::new(bounds())
            .with_trace(TracePolicy::Off)
            .with_trace_ring(0);
        assert!(cfg.validate().is_empty());
        // A well-formed sampled configuration passes.
        let cfg = EngineConfig::new(bounds())
            .with_trace(TracePolicy::OneInN(16))
            .with_trace_ring(64)
            .with_trace_export("/tmp/trace.jsonl");
        assert!(cfg.validate().is_empty());
    }

    #[test]
    fn watch_policy_is_validated() {
        // Off is the default and always valid.
        assert_eq!(EngineConfig::new(bounds()).watch, WatchPolicy::Off);
        // Watch without sampled telemetry is rejected.
        let cfg = EngineConfig::new(bounds()).with_watch(WatchPolicy::enabled());
        assert!(cfg
            .validate()
            .iter()
            .any(|p| p.contains("TelemetryPolicy::Sampled")));
        // A zero ring and an empty export path are each rejected too.
        let cfg = EngineConfig::new(bounds())
            .with_watch(WatchPolicy::enabled().with_ring(0).with_export(""));
        assert_eq!(cfg.validate().len(), 3);
        // Telemetry plus watch passes; the builder helpers compose.
        let cfg = EngineConfig::new(bounds())
            .with_telemetry(TelemetryPolicy::every_batches(64))
            .with_watch(
                WatchPolicy::enabled()
                    .with_ring(32)
                    .with_export("/tmp/alerts.jsonl"),
            )
            .with_watch_spec(
                stem_watch::WatchSpec::new("custom", stem_watch::Metric::ShardQueueDepth)
                    .at_least(10),
            );
        assert!(cfg.validate().is_empty());
        assert_eq!(cfg.watch_specs.len(), 1);
        assert!(matches!(
            cfg.watch,
            WatchPolicy::Enabled {
                ring: 32,
                export: Some(_),
            }
        ));
        // The helpers stay no-ops on Off.
        assert_eq!(
            WatchPolicy::Off.with_ring(9).with_export("/tmp/x"),
            WatchPolicy::Off
        );
    }

    #[test]
    fn wal_durability_is_validated() {
        let cfg = EngineConfig::new(bounds())
            .with_wal("")
            .with_wal_segment_bytes(0)
            .with_wal_checkpoint_every(0);
        assert_eq!(cfg.validate().len(), 3);
        let cfg = EngineConfig::new(bounds()).with_wal("/tmp/some-wal");
        assert!(cfg.validate().is_empty());
        assert!(matches!(
            cfg.durability,
            Durability::Wal {
                fsync: stem_wal::FsyncPolicy::EveryN(256),
                ..
            }
        ));
        // WAL knobs are ignored (not validated) without a WAL.
        let cfg = EngineConfig::new(bounds()).with_wal_checkpoint_every(0);
        assert!(cfg.validate().is_empty());
    }
}
