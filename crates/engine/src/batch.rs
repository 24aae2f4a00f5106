//! The unit of handoff between router and shard workers.
//!
//! Every routed instance is a row of a shared [`RoutedChunk`], whose
//! hit column the router fills; a shard keeps a [`RowRef`] to the row
//! and its hits there. A broadcast costs one `Arc` bump per copy, and
//! only rows that reach evaluation or durable logging materialize.

use crate::plan::PlanId;
use std::ops::Range;
use std::sync::Arc;
use stem_core::ColumnarBatch;
use stem_temporal::TimePoint;

/// A covering `(plan, scope slot)` pair from the router's precision
/// pass: the plan accepts the row's layer, and the scope at `slot` of
/// its interest covers the row's location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Hit {
    /// The covering plan.
    pub plan: PlanId,
    /// The covering scope's position in the plan interest's scope list.
    pub slot: u32,
}

/// An ingest chunk plus the router's hit column: each routed
/// `(row, shard)` copy owns a contiguous run of `hits`, sorted by
/// `(plan, slot)`. The engine pools chunks and refills them once every
/// shard has dropped its rows, so neither column is reallocated per
/// chunk in steady state.
#[derive(Debug, Default)]
pub struct RoutedChunk {
    /// The instances, one row each.
    pub rows: ColumnarBatch,
    /// Every routed copy's hits, back to back.
    pub hits: Vec<Hit>,
}

impl RoutedChunk {
    /// Empties both columns, keeping their capacity.
    pub fn reset(&mut self) {
        self.rows.reset();
        self.hits.clear();
    }
}

/// One row of a routed chunk as one shard sees it.
#[derive(Debug, Clone)]
pub struct RowRef {
    /// The chunk holding the row (shared by every row routed from it and
    /// every broadcast copy).
    pub chunk: Arc<RoutedChunk>,
    /// The row's index in the chunk.
    pub index: u32,
    /// The row's hits for this shard, as a range of the chunk's hit
    /// column (empty for an owner copy no interest covers).
    pub hits: Range<u32>,
}

impl RowRef {
    /// The row's hits for this shard, sorted by `(plan, slot)`.
    pub fn hits(&self) -> &[Hit] {
        &self.chunk.hits[self.hits.start as usize..self.hits.end as usize]
    }

    /// The row's stream-clock sample: its evaluation time when the
    /// ingest call supplied one, its generation time otherwise.
    pub fn key(&self) -> TimePoint {
        let (rows, i) = (&self.chunk.rows, self.index as usize);
        rows.eval_at(i).unwrap_or_else(|| rows.generation_time(i))
    }
}

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

/// One routed instance — a [`RowRef`] into the shared ingest chunk —
/// plus the router's high-water mark over the strict prefix of the
/// stream before it.
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
    /// The instance's row and its hits for the receiving shard. The
    /// row's evaluation time ([`ColumnarBatch::eval_at`]) is the reorder
    /// key and the clock pattern/sustained evaluation runs on; `None`
    /// falls back to the generation time.
    pub row: RowRef,
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
