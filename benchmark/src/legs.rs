//! Per-layer numbers of the traced pass: each leaf crate's public
//! functions timed alone over the workload's own input, and the
//! program's own counters read off `EngineReport` as they exist today.

use crate::gen::Stream;
use crate::sink::{Deliveries, LatencyClock};
use crate::spans::Tracer;
use crate::stats;
use crate::workloads::{Registry, Spec, Template, BATCH, WAL_SEGMENT_BYTES};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use stem_cep::{PatternDetector, ReorderBuffer, SustainedDetector};
use stem_core::codec::{decode_instance, encode_instance};
use stem_core::{Bindings, ColumnarBatch, EventInstance};
use stem_engine::{EngineReport, Notification};
use stem_spatial::Bvh;
use stem_temporal::Duration;
use stem_wal::{FsyncPolicy, ShardWal, WalRecord};

/// Instances a leg runs over (a prefix of the stream).
const LEG_SAMPLE: usize = 65_536;
/// Times a CPU-only leg repeats; its number is the median.
const ROUNDS: usize = 5;
/// Times a leg that hits the disk repeats.
const DISK_ROUNDS: usize = 3;
/// Subscription regions the point-containment leg tests per instance.
const CONTAINS_REGIONS: usize = 16;

type Push<'a> = &'a mut dyn FnMut(&str, f64);

/// Counters of the last baseline rep and of the last recovery.
pub fn counters(push: Push<'_>, baseline: &EngineReport, recovered: &EngineReport, instances: u64) {
    let per_inst = |v: u64| v as f64 / instances.max(1) as f64;
    let router = &baseline.router;
    let shards = &baseline.shards;
    push("engine.router_fanout_per_inst", per_inst(router.fanout));
    push(
        "engine.router_precision_skipped",
        router.precision_skipped as f64,
    );
    push("engine.router_batches_sent", router.batches_sent as f64);
    push(
        "engine.heartbeats_suppressed",
        router.heartbeats_suppressed as f64,
    );
    push(
        "engine.evaluated_per_inst",
        per_inst(shards.iter().map(|s| s.evaluated).sum()),
    );
    push(
        "engine.scope_skipped_per_inst",
        per_inst(baseline.total_scope_skipped()),
    );
    push(
        "engine.notifications",
        baseline.total_notifications() as f64,
    );
    push("engine.late_dropped", baseline.total_late_dropped() as f64);
    push(
        "engine.watermark_lag_max",
        shards
            .iter()
            .map(|s| s.watermark_lag_max)
            .max()
            .unwrap_or(0) as f64,
    );
    let ingested: Vec<f64> = shards.iter().map(|s| s.ingested as f64).collect();
    let mean = ingested.iter().sum::<f64>() / ingested.len().max(1) as f64;
    let max = ingested.iter().copied().fold(0.0, f64::max);
    push(
        "engine.shard_skew",
        if mean > 0.0 { max / mean } else { 0.0 },
    );
    push("engine.plans_active", baseline.plans_active as f64);
    push("engine.dedupe_ratio", baseline.dedupe_ratio());
    let (wal, snap) = (baseline.total_wal(), baseline.total_snap());
    push("wal.records_appended", wal.records_appended as f64);
    push("wal.bytes_appended", wal.bytes_appended as f64);
    push("wal.fsyncs", wal.fsyncs as f64);
    push("snap.snapshots_written", snap.snapshots_written as f64);
    push("snap.snapshot_bytes", snap.snapshot_bytes as f64);
    push(
        "wal.records_recovered",
        recovered.total_wal().records_recovered as f64,
    );
    push(
        "snap.tail_skipped",
        recovered.total_snap().tail_skipped as f64,
    );
}

/// Runs `body` `rounds` times as spans named `name`; returns the median
/// nanoseconds per item.
fn per_item(
    tracer: &mut Tracer,
    name: &'static str,
    rounds: usize,
    items: u64,
    mut body: impl FnMut(),
) -> f64 {
    if items == 0 {
        return 0.0;
    }
    let ns: Vec<f64> = (0..rounds)
        .map(|_| tracer.time(name, items, &mut body).1 * 1e9 / items as f64)
        .collect();
    stats::median(&ns)
}

/// The template of `pick`ed kind whose region holds the most of
/// `sample`, with those instances in generation-time order (the order
/// the reorder buffer releases them to a detector).
fn busiest<'a>(
    registry: &'a Registry,
    sample: &'a [EventInstance],
    pick: impl Fn(&Template) -> bool,
) -> Option<(&'a Template, Vec<&'a EventInstance>)> {
    registry
        .templates
        .iter()
        .filter(|t| pick(t))
        .map(|t| {
            let inside: Vec<&EventInstance> = sample
                .iter()
                .filter(|i| t.region.covers(i.generation_location()))
                .collect();
            (t, inside)
        })
        .max_by_key(|(_, inside)| inside.len())
        .map(|(t, mut inside)| {
            inside.sort_by_key(|i| i.generation_time());
            (t, inside)
        })
}

/// Every isolated layer leg, under one root span.
///
/// # Errors
///
/// Returns a message when a WAL or snapshot file operation fails.
#[allow(clippy::too_many_arguments)]
pub fn run_all(
    push: Push<'_>,
    tracer: &mut Tracer,
    spec: &Spec,
    registry: &Registry,
    stream: &Stream,
    captured: &[Notification],
    crash_dir: &Path,
    work_dir: &Path,
) -> Result<(), String> {
    let sample = &stream.instances[..stream.instances.len().min(LEG_SAMPLE)];
    let n = sample.len() as u64;
    let root = tracer.open("rep.legs");

    // core: columnar build (push + reset) and row materialization.
    let mut batches: Vec<ColumnarBatch> = sample
        .chunks(BATCH)
        .map(|_| ColumnarBatch::with_capacity(BATCH))
        .collect();
    let build = per_item(tracer, "core.columnar_build", ROUNDS, n, || {
        for (batch, chunk) in batches.iter_mut().zip(sample.chunks(BATCH)) {
            batch.reset();
            for instance in chunk {
                batch.push(instance);
            }
        }
    });
    push("core.columnar_build_ns_per_inst", build);
    let materialize = per_item(tracer, "core.columnar_materialize", ROUNDS, n, || {
        for batch in &batches {
            for row in 0..batch.len() {
                black_box(batch.materialize(row));
            }
        }
    });
    push("core.columnar_materialize_ns_per_inst", materialize);
    drop(batches);

    // core: the workload's condition over its own instances. Binding
    // the entities is part of evaluating a condition over an instance.
    let condition = registry
        .templates
        .iter()
        .find_map(|t| t.condition.as_ref())
        .expect("every workload has a condition");
    let names = condition.entity_names();
    let windows = sample.len().saturating_sub(names.len().saturating_sub(1)) as u64;
    let mut eval_errors = 0u64;
    let eval = per_item(tracer, "core.condition_eval", ROUNDS, windows, || {
        for window in sample.windows(names.len().max(1)) {
            let mut bindings = Bindings::new();
            for (name, instance) in names.iter().zip(window) {
                bindings.bind(name.clone(), instance.entity_data());
            }
            match condition.eval(&bindings) {
                Ok(holds) => {
                    black_box(holds);
                }
                Err(_) => eval_errors += 1,
            }
        }
    });
    if eval_errors > 0 {
        return Err(format!(
            "{}: condition leg hit {eval_errors} evaluation errors",
            spec.name
        ));
    }
    push("core.condition_eval_ns_per_eval", eval);

    // core: the WAL/snapshot instance codec.
    let mut encoded = Vec::new();
    let mut offsets = Vec::with_capacity(sample.len() + 1);
    let encode = per_item(tracer, "core.codec_encode", ROUNDS, n, || {
        encoded.clear();
        offsets.clear();
        for instance in sample {
            offsets.push(encoded.len());
            encode_instance(instance, &mut encoded);
        }
        offsets.push(encoded.len());
    });
    push("core.codec_encode_ns_per_inst", encode);
    push(
        "core.codec_bytes_per_inst",
        encoded.len() as f64 / n.max(1) as f64,
    );
    let mut decode_errors = 0u64;
    let decode = per_item(tracer, "core.codec_decode", ROUNDS, n, || {
        for bounds in offsets.windows(2) {
            let mut bytes = &encoded[bounds[0]..bounds[1]];
            match decode_instance(&mut bytes) {
                Ok(instance) => {
                    black_box(instance);
                }
                Err(_) => decode_errors += 1,
            }
        }
    });
    if decode_errors > 0 {
        return Err(format!(
            "{}: codec leg failed to decode {decode_errors} instances",
            spec.name
        ));
    }
    push("core.codec_decode_ns_per_inst", decode);
    drop((encoded, offsets));

    // spatial: region containment and the bounding-box index.
    let regions: Vec<_> = registry
        .templates
        .iter()
        .take(CONTAINS_REGIONS)
        .map(|t| &t.region)
        .collect();
    let contains = per_item(
        tracer,
        "spatial.contains",
        ROUNDS,
        n * regions.len() as u64,
        || {
            for instance in sample {
                let p = instance.generation_location();
                for region in &regions {
                    black_box(region.covers(p));
                }
            }
        },
    );
    push("spatial.contains_ns_per_op", contains);
    let boxes: Vec<_> = registry
        .templates
        .iter()
        .map(|t| t.region.bounding_box())
        .collect();
    let bvh = Bvh::build(&boxes);
    let mut hits = Vec::new();
    let query = per_item(tracer, "spatial.bvh_query", ROUNDS, n, || {
        for instance in sample {
            hits.clear();
            black_box(bvh.query_point(instance.generation_location(), &mut hits));
        }
    });
    push("spatial.bvh_query_ns_per_op", query);

    // cep: the reorder buffer at the workload's slack.
    let mut pending_max = 0usize;
    let reorder = per_item(tracer, "cep.reorder", ROUNDS, n, || {
        let mut buffer: ReorderBuffer<u32> = ReorderBuffer::new(Duration::new(spec.slack));
        for (position, instance) in sample.iter().enumerate() {
            black_box(buffer.push_at(instance.generation_time(), position as u32));
            pending_max = pending_max.max(buffer.pending());
        }
        black_box(buffer.flush());
    });
    push("cep.reorder_ns_per_inst", reorder);
    push("cep.reorder_pending_max", pending_max as f64);

    // cep: the workload's detectors over their busiest region.
    let mut matches = 0usize;
    let detector = match busiest(registry, sample, |t| t.pattern.is_some()) {
        None => 0.0,
        Some((template, inside)) => {
            let (pattern, mode, horizon) = template.pattern.clone().expect("picked by pattern");
            per_item(tracer, "cep.detector", ROUNDS, inside.len() as u64, || {
                let mut det = PatternDetector::new(pattern.clone(), mode, Some(horizon));
                matches = inside.iter().map(|i| det.process(i).len()).sum();
            })
        }
    };
    push("cep.detector_ns_per_inst", detector);
    push("cep.detector_matches", matches as f64);
    let sustained = match busiest(registry, sample, |t| t.sustained.is_some()) {
        None => 0.0,
        Some((template, inside)) => {
            let held = template.sustained.clone().expect("picked by sustained");
            per_item(tracer, "cep.sustained", ROUNDS, inside.len() as u64, || {
                let mut det = SustainedDetector::new(held.config);
                for instance in &inside {
                    let value = instance.attributes().get_f64(held.attribute).unwrap_or(0.0);
                    black_box(det.update_value(instance.generation_time(), value));
                }
            })
        }
    };
    push("cep.sustained_ns_per_update", sustained);

    // wal: group-committed appends, the fsync closing each batch, and
    // the recovery reader, on the filesystem the durable reps use.
    let records: Vec<WalRecord> = sample
        .iter()
        .enumerate()
        .map(|(seq, instance)| WalRecord::Instance {
            seq: seq as u64,
            eval_at: None,
            prefix_high_water: None,
            instance: instance.clone(),
        })
        .collect();
    let io = |e: &dyn std::fmt::Display| format!("{}: wal leg: {e}", spec.name);
    let (mut append_ns, mut fsync_ns, mut read_ns, mut bytes) = (vec![], vec![], vec![], 0.0);
    for round in 0..DISK_ROUNDS {
        let dir = work_dir.join(format!("wal-{round}"));
        let mut wal =
            ShardWal::open(&dir, 0, WAL_SEGMENT_BYTES, FsyncPolicy::Never).map_err(|e| io(&e))?;
        let (mut appending, mut syncing, mut syncs) = (0.0, 0.0, 0u64);
        let open = tracer.open("wal.append_and_sync");
        for chunk in records.chunks(BATCH) {
            let started = Instant::now();
            for record in chunk {
                wal.append_deferred(record).map_err(|e| io(&e))?;
            }
            wal.commit_appends().map_err(|e| io(&e))?;
            let appended = Instant::now();
            wal.sync().map_err(|e| io(&e))?;
            appending += (appended - started).as_secs_f64();
            syncing += appended.elapsed().as_secs_f64();
            syncs += 1;
        }
        tracer.close(open, n);
        let written = wal.metrics();
        drop(wal);
        bytes = written.bytes as f64 / written.records.max(1) as f64;
        append_ns.push(appending * 1e9 / n.max(1) as f64);
        fsync_ns.push(syncing * 1e9 / syncs.max(1) as f64);
        let (read, secs) =
            tracer.time("wal.read_shard", n, || stem_wal::read_shard(&dir, 0, false));
        let read = read.map_err(|e| io(&e))?;
        if read.records.len() != records.len() {
            return Err(io(&format!(
                "read {} of {} records back",
                read.records.len(),
                records.len()
            )));
        }
        read_ns.push(secs * 1e9 / n.max(1) as f64);
    }
    drop(records);
    push("wal.append_ns_per_record", stats::median(&append_ns));
    push("wal.fsync_ns_per_call", stats::median(&fsync_ns));
    push("wal.bytes_per_record", bytes);
    push("wal.read_ns_per_record", stats::median(&read_ns));

    // snap: the snapshot files the crashed run left behind.
    let io = |e: &dyn std::fmt::Display| format!("{}: snap leg: {e}", spec.name);
    let (mut read_ms, mut write_ms, mut sizes) = (vec![], vec![], vec![]);
    for shard in 0..crate::workloads::BASELINE_SHARDS {
        for (_, path) in stem_snap::list_snapshots(crash_dir, shard).map_err(|e| io(&e))? {
            let (snapshot, secs) =
                tracer.time("snap.read_snapshot", 1, || stem_snap::read_snapshot(&path));
            let snapshot = snapshot.map_err(|e| io(&e))?;
            read_ms.push(secs * 1e3);
            let target = work_dir.join("snap");
            let (size, secs) = tracer.time("snap.write_snapshot", 1, || {
                stem_snap::write_snapshot(&target, &snapshot)
            });
            sizes.push(size.map_err(|e| io(&e))? as f64);
            write_ms.push(secs * 1e3);
        }
    }
    let median_or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
    push("snap.read_ms_per_snapshot", median_or_zero(&read_ms));
    push("snap.write_ms_per_snapshot", median_or_zero(&write_ms));
    push("snap.bytes_per_snapshot", median_or_zero(&sizes));

    // bench: what the harness's own sink costs per delivery, on the
    // open-loop path (digest + latency sample).
    let clock = LatencyClock::new(spec.rate, Arc::clone(&stream.arrival_of_gen), 1);
    clock.begin(Instant::now());
    let deliveries = Deliveries::new(registry.total(), Some(clock), false);
    let sink = deliveries.sink();
    let mut replay: Vec<Notification> = Vec::new();
    let sink_ns: Vec<f64> = (0..ROUNDS)
        .filter(|_| !captured.is_empty())
        .map(|_| {
            replay.extend(captured.iter().cloned());
            let ((), secs) = tracer.time("bench.sink", captured.len() as u64, || {
                for notification in replay.drain(..) {
                    sink.deliver(notification);
                }
            });
            secs * 1e9 / captured.len() as f64
        })
        .collect();
    push("bench.sink_ns_per_delivery", median_or_zero(&sink_ns));

    tracer.close(root, n);
    Ok(())
}
