//! The metric catalog: every name the benchmark reports, with its
//! unit, direction, and — for end-to-end metrics — the regression
//! bound. `../BENCHMARK.json` states the same to the driver; a test
//! keeps the two equal. What each per-layer metric should move is in
//! the README's table.

use std::collections::BTreeMap;
use stem_obs::Stage;

/// Seconds one run measures (`--seconds` default, `run_seconds`).
pub const RUN_SECONDS: u64 = 25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn end_to_end_metric(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// A run reports each as the median over its reps.
pub const END_TO_END: [EndToEnd; 8] = [
    end_to_end_metric("setup_s", "s", Better::Lower, 0.25),
    end_to_end_metric("throughput_inst_per_s", "inst/s", Better::Higher, 0.25),
    end_to_end_metric("throughput_1t_inst_per_s", "inst/s", Better::Higher, 0.25),
    end_to_end_metric("cpu_us_per_inst", "us", Better::Lower, 0.25),
    end_to_end_metric("notify_latency_p50_us", "us", Better::Lower, 0.25),
    end_to_end_metric("notify_latency_p95_us", "us", Better::Lower, 0.15),
    end_to_end_metric("engine_heap_mb", "MiB", Better::Lower, 0.15),
    end_to_end_metric("recover_s", "s", Better::Lower, 0.20),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Stages the traced pass reports from `EngineReport.obs`
/// (`notify_foldback` belongs to the simulation side, out of scope).
pub const OBS_STAGES: [Stage; 12] = [
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
    Stage::SnapshotCut,
    Stage::BarrierWait,
];

/// Stages that contain no other stage, so their seconds add up without
/// double counting: `ingest` wraps `route` and `enqueue`, and `enqueue`
/// wraps whatever the ingest thread drains inline when it finds a full
/// queue and the worker's lock free.
pub fn is_leaf_stage(stage: Stage) -> bool {
    !matches!(stage, Stage::Ingest | Stage::Enqueue)
}

/// Per-layer metrics other than the stage totals, in the order they are
/// reported: outside spans on engine calls, isolated layer legs, then
/// the program's own counters.
const PER_LAYER: [(&str, &str, Better); 53] = [
    ("engine.subscribe_s", "s", Better::Lower),
    ("engine.subscriptions", "count", Better::Lower),
    ("engine.ingest_busy_s", "s", Better::Lower),
    ("engine.flush_s", "s", Better::Lower),
    ("engine.sync_s", "s", Better::Lower),
    ("engine.finish_drain_s", "s", Better::Lower),
    ("engine.cpu_threaded_us_per_inst", "us", Better::Lower),
    ("engine.recover_open_s", "s", Better::Lower),
    ("engine.recover_resume_s", "s", Better::Lower),
    ("bench.gen_late_p95_us", "us", Better::Lower),
    ("bench.reference_s", "s", Better::Lower),
    ("bench.sink_ns_per_delivery", "ns", Better::Lower),
    ("core.columnar_build_ns_per_inst", "ns", Better::Lower),
    ("core.columnar_materialize_ns_per_inst", "ns", Better::Lower),
    ("core.condition_eval_ns_per_eval", "ns", Better::Lower),
    ("core.codec_encode_ns_per_inst", "ns", Better::Lower),
    ("core.codec_decode_ns_per_inst", "ns", Better::Lower),
    ("core.codec_bytes_per_inst", "B", Better::Lower),
    ("spatial.contains_ns_per_op", "ns", Better::Lower),
    ("spatial.bvh_query_ns_per_op", "ns", Better::Lower),
    ("cep.reorder_ns_per_inst", "ns", Better::Lower),
    ("cep.reorder_pending_max", "count", Better::Lower),
    ("cep.detector_ns_per_inst", "ns", Better::Lower),
    ("cep.detector_matches", "count", Better::Higher),
    ("cep.sustained_ns_per_update", "ns", Better::Lower),
    ("wal.append_ns_per_record", "ns", Better::Lower),
    ("wal.fsync_ns_per_call", "ns", Better::Lower),
    ("wal.bytes_per_record", "B", Better::Lower),
    ("wal.read_ns_per_record", "ns", Better::Lower),
    ("snap.write_ms_per_snapshot", "ms", Better::Lower),
    ("snap.read_ms_per_snapshot", "ms", Better::Lower),
    ("snap.bytes_per_snapshot", "B", Better::Lower),
    ("engine.router_fanout_per_inst", "ratio", Better::Lower),
    ("engine.router_precision_skipped", "count", Better::Higher),
    ("engine.router_batches_sent", "count", Better::Lower),
    ("engine.heartbeats_suppressed", "count", Better::Higher),
    ("engine.evaluated_per_inst", "ratio", Better::Lower),
    ("engine.scope_skipped_per_inst", "ratio", Better::Lower),
    ("engine.notifications", "count", Better::Higher),
    ("engine.late_dropped", "count", Better::Lower),
    ("engine.watermark_lag_max", "ticks", Better::Lower),
    ("engine.shard_skew", "ratio", Better::Lower),
    ("engine.plans_active", "count", Better::Lower),
    ("engine.dedupe_ratio", "ratio", Better::Higher),
    ("wal.records_appended", "count", Better::Lower),
    ("wal.bytes_appended", "B", Better::Lower),
    ("wal.fsyncs", "count", Better::Lower),
    ("wal.records_recovered", "count", Better::Lower),
    ("snap.snapshots_written", "count", Better::Lower),
    ("snap.snapshot_bytes", "B", Better::Lower),
    ("snap.tail_skipped", "count", Better::Lower),
    ("obs.attributed_share", "ratio", Better::Higher),
    ("obs.overhead_pct", "%", Better::Lower),
];

/// Every per-layer metric: name, unit, direction.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let fixed = PER_LAYER
        .iter()
        .map(|&(name, unit, better)| (name.to_owned(), unit, better));
    let stages = OBS_STAGES.iter().flat_map(|stage| {
        [
            (format!("obs.stage.{}_s", stage.name()), "s", Better::Lower),
            (
                format!("obs.stage.{}_count", stage.name()),
                "count",
                Better::Lower,
            ),
        ]
    });
    fixed.chain(stages).collect()
}

/// Every metric's unit and direction, by name.
pub fn units() -> BTreeMap<String, (&'static str, Better)> {
    let end_to_end = END_TO_END
        .iter()
        .map(|m| (m.name.to_owned(), (m.unit, m.better)));
    let layers = per_layer()
        .into_iter()
        .map(|(name, unit, better)| (name, (unit, better)));
    end_to_end.chain(layers).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use std::collections::BTreeSet;
    use stem_obs::json::{self, Value};

    fn valid_name(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalog_meets_the_manifest_limits() {
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let mut names = BTreeSet::new();
        for name in workloads::NAMES {
            assert!(valid_name(name) && names.insert(name.to_owned()));
            let why = workloads::spec(name, false).unwrap().why;
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(names.insert(m.name.to_owned()), "{} used twice", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for (name, unit, _) in &layers {
            assert!(valid_name(name) && valid_unit(unit), "{name}");
            assert!(names.insert(name.clone()), "{name} used twice");
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    /// `(name, unit, better)` of each entry of a manifest list, in order.
    fn entries(manifest: &Value, key: &str) -> Vec<(String, String, String)> {
        let text = |entry: &Value, field: &str| {
            entry
                .get(field)
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("{key}: an entry lacks {field}"))
                .to_owned()
        };
        manifest
            .get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|e| (text(e, "name"), text(e, "unit"), text(e, "better")))
            .collect()
    }

    #[test]
    fn checked_in_manifest_matches_the_catalog() {
        let path = crate::sys::package_dir().join("../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        assert!(on_disk.len() <= 64 * 1024);
        let manifest = json::parse(&on_disk).expect("BENCHMARK.json parses");
        let Value::Object(keys) = &manifest else {
            panic!("BENCHMARK.json is not an object");
        };
        let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(
            manifest.get("run_seconds").and_then(Value::as_u64),
            Some(RUN_SECONDS)
        );
        let same = |(name, unit, better): (&str, &str, Better)| {
            let better = match better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            (name.to_owned(), unit.to_owned(), better.to_owned())
        };
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|m| same((m.name, m.unit, m.better)))
            .collect();
        assert_eq!(entries(&manifest, "end_to_end"), want);
        let bounds: Vec<f64> = manifest
            .get("end_to_end")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|e| e.get("bound").and_then(Value::as_f64).expect("bound"))
            .collect();
        assert_eq!(bounds, END_TO_END.map(|m| m.bound));
        let want: Vec<_> = per_layer()
            .iter()
            .map(|(name, unit, better)| same((name, unit, *better)))
            .collect();
        assert_eq!(entries(&manifest, "per_layer"), want);
        let workloads: Vec<(String, String)> = manifest
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                let text = |field| {
                    w.get(field)
                        .and_then(Value::as_str)
                        .expect(field)
                        .to_owned()
                };
                (text("name"), text("why"))
            })
            .collect();
        let want: Vec<(String, String)> = workloads::NAMES
            .iter()
            .map(|name| {
                let spec = workloads::spec(name, false).expect("named workload");
                (spec.name.to_owned(), spec.why.to_owned())
            })
            .collect();
        assert_eq!(workloads, want);
    }
}
