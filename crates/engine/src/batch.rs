//! The unit of handoff between router and shard workers.
//!
//! Every routed instance is a row of a shared [`ColumnarBatch`] chunk:
//! the engine's ingest entry points fill chunks, the router iterates
//! their dense columns, and shard workers keep a reference to the chunk
//! plus the row index. A broadcast to several shards costs one `Arc`
//! bump per copy, and the full [`stem_core::EventInstance`] is only
//! re-materialized for rows that reach evaluation or durable logging.

use std::sync::Arc;
use stem_core::ColumnarBatch;
use stem_temporal::TimePoint;

/// Trace-clock stamps a routed item accumulated before handoff (absent
/// with [`crate::TracePolicy::Off`]). The remaining stages (release,
/// evaluate, notify) are stamped by the shard worker; the enqueue stamp
/// is per-batch ([`Batch::enqueue`]) because every item in a batch is
/// handed off together.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ItemTrace {
    /// When the row entered the engine (one stamp per chunk fill, read
    /// off the chunk's ingest-stamp column).
    pub ingest: u64,
    /// When the router stamped it with its global sequence (one stamp
    /// per routed chunk).
    pub route: u64,
}

/// One routed instance — row `row` of the shared ingest `chunk` — plus
/// the router's high-water mark over the strict prefix of the stream
/// before it.
///
/// Applying `prefix_high_water` to the shard's reorder buffer *before*
/// pushing the instance reproduces the exact accept/late-drop decision
/// a single-shard run would make, whatever the disorder: the shard's
/// watermark at the push is the global stream's watermark at the same
/// point, not just the local sub-stream's.
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// The global ingest sequence number: every ingested instance and
    /// every silence probe consumes one, in arrival order. Broadcast
    /// copies of the same instance share it — it identifies the
    /// *operation*, which is what write-ahead logging and post-recovery
    /// deduplication key on.
    pub seq: u64,
    /// The ingest chunk holding the instance (shared by every row routed
    /// from it and every broadcast copy). The row's evaluation time
    /// ([`ColumnarBatch::eval_at`]) is the reorder key and the clock
    /// pattern/sustained evaluation runs on; `None` falls back to the
    /// generation time.
    pub chunk: Arc<ColumnarBatch>,
    /// The instance's row in `chunk`.
    pub row: u32,
    /// Maximum stream-clock value over all instances routed strictly
    /// before this one (`None` for the stream's first instance).
    pub prefix_high_water: Option<TimePoint>,
    /// Ingest/route trace-clock stamps (`None` with tracing off).
    pub trace: Option<ItemTrace>,
}

/// A batch of instances bound for one shard, stamped with the router's
/// global high-water mark.
///
/// The trailing high-water mark is the watermark heartbeat: the
/// maximum generation time the *router* has seen across all shards at
/// flush time. Workers apply it after the batch's instances so release
/// progress tracks the global stream even on shards whose own
/// territory is quiet.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    /// Instances in router arrival order, each with its prefix
    /// high-water stamp.
    pub instances: Vec<BatchItem>,
    /// Maximum generation time seen by the router when this batch was
    /// flushed (`None` only before the first instance).
    pub high_water: Option<TimePoint>,
    /// The global ingest sequence count when the batch was flushed —
    /// an *exclusive* bound: every operation with a sequence strictly
    /// below it precedes this batch's heartbeat. `0` unambiguously
    /// means "cut before any ingest" (it stamps the shard's durable
    /// heartbeat records, where the distinction matters for replay
    /// ordering and recovery clock seeding).
    pub seq: u64,
    /// Trace-clock stamp taken when the batch was handed to the shard
    /// queue (0 with tracing off): the `enqueue` stage stamp shared by
    /// every item in the batch.
    pub enqueue: u64,
}
