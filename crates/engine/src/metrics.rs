//! Per-shard and engine-wide counters.

use crate::config::ShardId;
use stem_temporal::TimePoint;

/// Counters one shard worker maintains.
#[derive(Debug, Clone, Default)]
pub struct ShardMetrics {
    /// Which shard these counters belong to.
    pub shard: ShardId,
    /// Batches received.
    pub batches: u64,
    /// Instances received (before reordering).
    pub ingested: u64,
    /// Instances released by the reorder buffer in generation order.
    pub released: u64,
    /// Instances dropped as late (behind the watermark).
    pub late_dropped: u64,
    /// Condition / pattern evaluations, counted per subscriber as one
    /// detector per subscription would: each plan is evaluated once per
    /// row, and the count grows by the plan's eligible members in the
    /// slot groups the row's hits list (those registered before the
    /// row's ingest). The worker adds that count without visiting the
    /// members: the eligible ones are a prefix of each id-ordered group.
    pub evaluated: u64,
    /// Evaluation errors (mis-configured subscriptions referencing
    /// unbound entities), counted per eligible listed member like
    /// [`ShardMetrics::evaluated`]; the offending instance is skipped.
    pub eval_errors: u64,
    /// Eligible subscribers skipped before evaluation because a row's
    /// hit list named their plan, which passed its event, layer and
    /// region filters, but not their scope slot: the worker-side half of
    /// scope pruning (the router-side half is
    /// [`RouterMetrics::precision_skipped`]). Counted per member like
    /// [`ShardMetrics::evaluated`], from the unlisted slot groups'
    /// eligible prefixes, without visiting a member. Which side of the
    /// BVH threshold routed the row does not change the count.
    pub scope_skipped: u64,
    /// Notifications delivered to sinks.
    pub notifications: u64,
    /// Derived instances generated from pattern matches.
    pub derived: u64,
    /// Largest observed gap between the router's high-water mark and
    /// this shard's watermark at batch receipt, in ticks: how far the
    /// shard's view of final time trailed the stream's.
    pub watermark_lag_max: u64,
    /// The shard's final watermark.
    pub watermark: Option<TimePoint>,
    /// Subscriptions resident when the shard finished (fan-out
    /// subscribers across every plan).
    pub subscriptions: usize,
    /// Shared detector plans resident when the shard finished —
    /// `subscriptions / plans` is the shard's dedupe ratio.
    pub plans: usize,
    /// Write-ahead log counters (all zero without a WAL).
    pub wal: WalMetrics,
    /// Checkpoint snapshot counters (all zero without checkpointing).
    pub snap: SnapMetrics,
}

/// Per-shard write-ahead log counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalMetrics {
    /// Records appended to the shard's log this run.
    pub records_appended: u64,
    /// Bytes appended (frames included).
    pub bytes_appended: u64,
    /// Segment files created.
    pub segments_created: u64,
    /// `fdatasync` calls issued. Group commit is visible here: under
    /// [`stem_wal::FsyncPolicy::Always`] this tracks batches, not
    /// records.
    pub fsyncs: u64,
    /// Records replayed from the log during crash recovery (with a
    /// snapshot, only the tail past its sequence watermark).
    pub records_recovered: u64,
    /// Torn-tail truncations repaired during recovery.
    pub torn_truncations: u64,
    /// Re-fed operations skipped because the shard's log already held
    /// them (post-recovery resume overlap), plus live silence probes
    /// suppressed while the shard was still replaying its log.
    pub deduped: u64,
}

impl WalMetrics {
    /// Folds another shard's counters into this one.
    pub fn absorb(&mut self, other: &WalMetrics) {
        self.records_appended += other.records_appended;
        self.bytes_appended += other.bytes_appended;
        self.segments_created += other.segments_created;
        self.fsyncs += other.fsyncs;
        self.records_recovered += other.records_recovered;
        self.torn_truncations += other.torn_truncations;
        self.deduped += other.deduped;
    }
}

/// Per-shard checkpoint snapshot counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapMetrics {
    /// Snapshots written this run.
    pub snapshots_written: u64,
    /// Bytes written into snapshot files.
    pub snapshot_bytes: u64,
    /// Whether this shard's recovery loaded a snapshot (1) or replayed
    /// its full log (0).
    pub snapshots_loaded: u64,
    /// WAL tail records skipped at recovery because the loaded snapshot
    /// already covered them (the boundary segment holds both sides of
    /// the cut) — together with [`WalMetrics::records_recovered`] this
    /// is the "replays only the tail" assertion made measurable.
    pub tail_skipped: u64,
    /// WAL segments retired by compaction behind the retained
    /// snapshots.
    pub segments_retired: u64,
}

impl SnapMetrics {
    /// Folds another shard's counters into this one.
    pub fn absorb(&mut self, other: &SnapMetrics) {
        self.snapshots_written += other.snapshots_written;
        self.snapshot_bytes += other.snapshot_bytes;
        self.snapshots_loaded += other.snapshots_loaded;
        self.tail_skipped += other.tail_skipped;
        self.segments_retired += other.segments_retired;
    }
}

/// Counters the router maintains.
#[derive(Debug, Clone, Default)]
pub struct RouterMetrics {
    /// Instances ingested.
    pub routed: u64,
    /// Total shard deliveries (>= `routed`: the broadcast path may copy
    /// an instance to several shards).
    pub fanout: u64,
    /// Instances whose quadtree leaf carried no subscription interest
    /// and went to the territorial owner only.
    pub owner_only: u64,
    /// Broadcast deliveries skipped by the precision pass: the leaf
    /// mask (bounding-box granular) named a shard, but no subscription
    /// homed there had a routing scope *exactly* covering the
    /// instance's location. Each skip is a delivery the coarse index
    /// would have wasted — out-of-scope shards are dropped here, at
    /// enqueue time.
    pub precision_skipped: u64,
    /// Subscriptions registered with a routing scope narrower than the
    /// world bounds — the ones sharding can actually prune for.
    pub scoped_subscriptions: u64,
    /// BVH nodes visited by precision-pass point queries (zero while
    /// every home shard holds fewer than 16 plan interests and the
    /// linear scan serves instead).
    pub bvh_nodes_visited: u64,
    /// Batches handed off.
    pub batches_sent: u64,
    /// Batches dropped under backpressure. Always 0: a full shard queue
    /// blocks the ingesting thread, it never drops. The field stays
    /// because external consumers (the `benchmark/` harness) count it
    /// as failed work.
    pub dropped_backpressure: u64,
    /// Heartbeat-only flushes elided because the target shard was idle
    /// and held nothing reordering — cross-thread traffic the wait-free
    /// barrier never generated.
    pub heartbeats_suppressed: u64,
}

/// What [`crate::Engine::finish`] returns: everything the run measured.
#[derive(Debug, Clone, Default)]
pub struct EngineReport {
    /// Per-shard counters, indexed by shard id.
    pub shards: Vec<ShardMetrics>,
    /// Router counters.
    pub router: RouterMetrics,
    /// Wall-clock time from engine start to finish.
    pub elapsed: std::time::Duration,
    /// The telemetry registry folded down at shutdown: the merged
    /// recorder (stage-span histograms, counters, gauges) plus the
    /// snapshot ring. `None` when the run had
    /// [`crate::TelemetryPolicy::Off`].
    pub obs: Option<stem_obs::ObsReport>,
    /// The flight-recorder rings folded down at shutdown (every
    /// retained trace record, in shard order, plus the eviction count).
    /// `None` when the run had [`crate::TracePolicy::Off`].
    pub trace: Option<crate::trace::TraceReport>,
    /// The watchdog folded down at shutdown: every alert still in the
    /// ring (oldest first) plus the eviction count. `None` when the run
    /// had [`crate::WatchPolicy::Off`].
    pub health: Option<stem_watch::HealthReport>,
    /// Shared detector plans active at shutdown (across all shards).
    pub plans_active: u64,
    /// Subscribers registered across every plan at shutdown.
    pub plan_subscribers: u64,
    /// The most subscribers any single plan carried at shutdown.
    pub plan_subscribers_max: u64,
}

impl EngineReport {
    /// Subscribers per detector instance at shutdown — the sharing
    /// economy (1.0 = no dedupe; the 144-district mega-tenancy bench
    /// targets several hundred).
    #[must_use]
    pub fn dedupe_ratio(&self) -> f64 {
        if self.plans_active == 0 {
            0.0
        } else {
            self.plan_subscribers as f64 / self.plans_active as f64
        }
    }
    /// Total instances released across shards.
    #[must_use]
    pub fn total_released(&self) -> u64 {
        self.shards.iter().map(|s| s.released).sum()
    }

    /// Total notifications delivered across shards.
    #[must_use]
    pub fn total_notifications(&self) -> u64 {
        self.shards.iter().map(|s| s.notifications).sum()
    }

    /// Total late-dropped instances across shards.
    #[must_use]
    pub fn total_late_dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.late_dropped).sum()
    }

    /// Total scope-pruned instance offers across shards (the
    /// worker-side half of pruning; see [`ShardMetrics::scope_skipped`]).
    #[must_use]
    pub fn total_scope_skipped(&self) -> u64 {
        self.shards.iter().map(|s| s.scope_skipped).sum()
    }

    /// Ingested instances per wall-clock second.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.router.routed as f64 / secs
        }
    }

    /// Write-ahead log counters summed across shards.
    #[must_use]
    pub fn total_wal(&self) -> WalMetrics {
        let mut total = WalMetrics::default();
        for shard in &self.shards {
            total.absorb(&shard.wal);
        }
        total
    }

    /// Checkpoint snapshot counters summed across shards.
    #[must_use]
    pub fn total_snap(&self) -> SnapMetrics {
        let mut total = SnapMetrics::default();
        for shard in &self.shards {
            total.absorb(&shard.snap);
        }
        total
    }

    /// Folds every counter the run produced — router, per-shard, WAL,
    /// checkpoint — into one `stem-obs` [`stem_obs::Recorder`]: the
    /// single source of truth [`EngineReport::summary_line`] renders
    /// from. When the run sampled telemetry, the live registry's merged
    /// recorder is the base (so stage histograms and the watermark-lag
    /// distribution come along); otherwise the counters are folded into
    /// a fresh one.
    #[must_use]
    pub fn fold_counters(&self) -> stem_obs::Recorder {
        let mut r = self
            .obs
            .as_ref()
            .map(|o| o.merged.clone())
            .unwrap_or_default();
        // Counters are authoritative from the end-of-run metrics, not
        // from whatever the last telemetry publish happened to carry:
        // overwrite-by-name via a fresh fold.
        let mut flat = stem_obs::Recorder::new();
        flat.inc("routed", self.router.routed);
        flat.inc("fanout", self.router.fanout);
        flat.inc("owner_only", self.router.owner_only);
        flat.inc("precision_skipped", self.router.precision_skipped);
        flat.inc("scoped_subs", self.router.scoped_subscriptions);
        flat.inc("bvh_nodes", self.router.bvh_nodes_visited);
        flat.inc("hb_suppressed", self.router.heartbeats_suppressed);
        flat.inc("scope_skipped", self.total_scope_skipped());
        flat.inc("notifications", self.total_notifications());
        flat.inc("late_dropped", self.total_late_dropped());
        let wal = self.total_wal();
        flat.inc("wal_appended", wal.records_appended);
        flat.inc("wal_bytes", wal.bytes_appended);
        flat.inc("wal_segments", wal.segments_created);
        flat.inc("wal_recovered", wal.records_recovered);
        flat.inc("wal_torn", wal.torn_truncations);
        flat.inc("wal_deduped", wal.deduped);
        let snap = self.total_snap();
        flat.inc("snap_written", snap.snapshots_written);
        flat.inc("snap_bytes", snap.snapshot_bytes);
        flat.inc("snap_loaded", snap.snapshots_loaded);
        flat.inc("snap_tail_skipped", snap.tail_skipped);
        flat.inc("snap_retired", snap.segments_retired);
        flat.inc("plans_active", self.plans_active);
        flat.inc("plan_subscribers", self.plan_subscribers);
        flat.inc("plan_subscribers_max", self.plan_subscribers_max);
        // `inc` on a fresh recorder then merge would double-count the
        // registry's own mirrors of these names; none of the names
        // above are registry counters, so the fold below only *adds*
        // the authoritative values.
        r.merge(&flat);
        r
    }

    /// A one-line run summary for bench / smoke output: routing volume,
    /// the precision pass's savings (including the scoped-routing
    /// counters `scoped_subs` / `bvh_nodes` / `scope_skipped`), the
    /// WAL's durability counters, and the checkpoint subsystem's —
    /// rendered from the [`EngineReport::fold_counters`] registry so
    /// every number has exactly one source. With telemetry sampled, the
    /// watermark-lag p99 from the obs histogram is appended.
    #[must_use]
    pub fn summary_line(&self) -> String {
        let r = self.fold_counters();
        let c = |name: &str| r.counter(name);
        let mut line = format!(
            "routed={} fanout={} owner_only={} precision_skipped={} scoped_subs={} \
             bvh_nodes={} scope_skipped={} notifications={} \
             late_dropped={} wal[appended={} bytes={} segments={} recovered={} torn={} deduped={}] \
             snap[written={} bytes={} loaded={} tail_skipped={} retired={}]",
            c("routed"),
            c("fanout"),
            c("owner_only"),
            c("precision_skipped"),
            c("scoped_subs"),
            c("bvh_nodes"),
            c("scope_skipped"),
            c("notifications"),
            c("late_dropped"),
            c("wal_appended"),
            c("wal_bytes"),
            c("wal_segments"),
            c("wal_recovered"),
            c("wal_torn"),
            c("wal_deduped"),
            c("snap_written"),
            c("snap_bytes"),
            c("snap_loaded"),
            c("snap_tail_skipped"),
            c("snap_retired"),
        );
        line.push_str(&format!(
            " plans[active={} subscribers={} max_fanout={} dedupe={:.1}x]",
            c("plans_active"),
            c("plan_subscribers"),
            c("plan_subscribers_max"),
            self.dedupe_ratio(),
        ));
        if let Some(lag) = r.hist("watermark_lag") {
            line.push_str(&format!(
                " obs[watermark_lag_p99={} max={}]",
                lag.p99().unwrap_or(0),
                lag.max()
            ));
        }
        line
    }
}
