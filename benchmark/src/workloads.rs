//! The four workloads: what each feeds the engine and why it exists.
//! Everything here is fixed by the workload's name and `--quick`; only
//! the random draws depend on the seed.

use crate::gen::{world, StreamShape, WORLD};
use std::path::Path;
use stem_cep::{ConsumptionMode, Pattern, SustainedConfig};
use stem_core::{dsl, ConditionExpr};
use stem_engine::{
    CheckpointPolicy, Durability, EngineConfig, EventSink, FsyncPolicy, Subscription,
    TelemetryPolicy, TracePolicy,
};
use stem_spatial::{Circle, Field, Point, Rect, SpatialExtent};
use stem_temporal::Duration;

pub const NAMES: [&str; 4] = [
    "dense_match",
    "durable_match",
    "pattern_skew",
    "tenant_churn",
];

/// Engine settings shared by every workload and every phase.
pub const BATCH: usize = 256;
const QUEUE: usize = 32;
/// Shards of the `deterministic()` single-thread baseline.
pub const BASELINE_SHARDS: usize = 4;
const CHECKPOINT_EVERY_BATCHES: u64 = 64;
/// Records a shard's WAL appends between `fdatasync` calls: group
/// commit of 16 batches. The issue's 256 (a sync per batch, about 780
/// per rep) costs 0.2 s of a 0.65 s rep while the host's disk is quick
/// and 5 s while it is not (0.26 to 6.8 ms per call, minutes apart), so
/// the disk's state and not the code would set every durable number.
const FSYNC_EVERY_RECORDS: u32 = 4096;
/// Small enough that checkpoint compaction retires segments at this
/// stream length (the engine's default is 8 MiB).
pub const WAL_SEGMENT_BYTES: u64 = 1 << 20;
const TELEMETRY_EVERY_BATCHES: u64 = 32;

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub instances: usize,
    pub shape: StreamShape,
    /// Reorder slack, in ticks.
    pub slack: u64,
    /// Whether the timed reps run under WAL + checkpoints.
    pub durable: bool,
    /// Open-loop pace in instances per second: 30% of the threaded
    /// closed-loop throughput measured when the benchmark was defined,
    /// to two digits, frozen so later commits are paced identically.
    pub rate: f64,
    pub subscriptions: Subscriptions,
}

pub enum Subscriptions {
    /// `side x side` distinct circles, `x.temp > 45`.
    Circles { side: usize },
    /// Per grid cell one `hot then smoke` sequence and one sustained
    /// `temp >= 60` subscription.
    Patterns { side: usize },
    /// `side x side` districts, each with `per_district` structurally
    /// identical scoped tenants; every `churn_every` instances
    /// `churn_batch` tenants are replaced.
    Tenants {
        side: usize,
        per_district: usize,
        churn_every: usize,
        churn_batch: usize,
    },
}

pub fn spec(name: &str, quick: bool) -> Option<Spec> {
    let scale = if quick { 10 } else { 1 };
    let uniform = StreamShape {
        shuffle: 32,
        stragglers: 0.0,
        hotspot: None,
    };
    let dense_instances = 200_000 / scale;
    Some(match name {
        "dense_match" => Spec {
            name: "dense_match",
            why: "headline ephemeral path: columnar build, router, reorder and scope-prune/condition eval do nearly all the work; wal, snap, detectors and plan fan-out do none",
            instances: dense_instances,
            shape: uniform,
            slack: 256,
            durable: false,
            rate: 310_000.0,
            subscriptions: Subscriptions::Circles { side: 20 },
        },
        "durable_match" => Spec {
            name: "durable_match",
            why: "byte-identical input to dense_match under WAL + checkpoints, so every difference from dense_match is wal + codec + snap",
            instances: dense_instances,
            shape: uniform,
            slack: 256,
            durable: true,
            rate: 92_000.0,
            subscriptions: Subscriptions::Circles { side: 20 },
        },
        "pattern_skew" => Spec {
            name: "pattern_skew",
            why: "sequence and sustained detectors behind a deep reorder buffer, 70% of the input in one shard's territory, a known share late-dropped: cep dominates, partition skew shows",
            instances: 120_000 / scale,
            shape: StreamShape {
                shuffle: 256,
                stragglers: 0.02,
                hotspot: Some((
                    Rect::new(Point::new(100.0, 100.0), Point::new(300.0, 300.0)),
                    0.7,
                )),
            },
            slack: 512,
            durable: false,
            rate: 55_000.0,
            subscriptions: Subscriptions::Patterns { side: 10 },
        },
        "tenant_churn" => Spec {
            name: "tenant_churn",
            why: "100,800 tenants collapse to 144 plans: one evaluation, 700 deliveries, while subscribe/unsubscribe/sync run beside the data plane; registration dominates setup and memory",
            instances: 30_000 / scale,
            shape: uniform,
            slack: 256,
            durable: false,
            rate: 11_000.0,
            subscriptions: Subscriptions::Tenants {
                side: 12,
                per_district: 700 / scale,
                churn_every: 3_000 / scale,
                churn_batch: 300 / scale,
            },
        },
        _ => return None,
    })
}

/// How one rep's engine executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// Worker threads, `max(1, nproc - 1)` shards, so the engine and
    /// the driving thread together use at most `nproc` threads.
    Threaded,
    /// `deterministic()`: `shards` inline workers on the calling thread.
    Inline { shards: usize },
}

pub fn threaded_shards() -> usize {
    crate::sys::nproc().saturating_sub(1).max(1)
}

impl Exec {
    pub fn shards(self) -> usize {
        match self {
            Exec::Threaded => threaded_shards(),
            Exec::Inline { shards } => shards,
        }
    }
}

/// The engine configuration of one rep. Telemetry, provenance tracing
/// and the watchdog are off unless `telemetry` asks for stage timing.
pub fn engine_config(spec: &Spec, exec: Exec, wal: Option<&Path>, telemetry: bool) -> EngineConfig {
    let mut config = EngineConfig::new(world())
        .with_shards(exec.shards())
        .with_batch_size(BATCH)
        .with_queue_capacity(QUEUE)
        .with_watermark_slack(Duration::new(spec.slack))
        .with_trace(TracePolicy::Off);
    if matches!(exec, Exec::Inline { .. }) {
        config = config.deterministic();
    }
    if let Some(dir) = wal {
        config = config
            .with_durability(Durability::Wal {
                dir: dir.to_path_buf(),
                fsync: FsyncPolicy::EveryN(FSYNC_EVERY_RECORDS),
            })
            .with_wal_segment_bytes(WAL_SEGMENT_BYTES)
            .with_checkpoint(CheckpointPolicy::EveryNBatches(CHECKPOINT_EVERY_BATCHES));
    }
    if telemetry {
        config = config.with_telemetry(TelemetryPolicy::every_batches(TELEMETRY_EVERY_BATCHES));
    }
    config
}

/// What a sustained template samples.
#[derive(Clone)]
pub struct SustainedTemplate {
    pub config: SustainedConfig,
    pub attribute: &'static str,
}

/// Everything about a subscription except its name and sink.
#[derive(Clone)]
pub struct Template {
    pub label: String,
    pub region: SpatialExtent,
    pub scoped: bool,
    pub event: Option<&'static str>,
    pub condition: Option<ConditionExpr>,
    pub pattern: Option<(Pattern, ConsumptionMode, Duration)>,
    pub sustained: Option<SustainedTemplate>,
}

impl Template {
    pub fn build(&self, ordinal: usize, sink: Box<dyn EventSink>) -> Subscription {
        let mut sub = Subscription::new(
            format!("{}-{ordinal}", self.label),
            self.region.clone(),
            sink,
        );
        if self.scoped {
            sub = sub
                .scoped_to(self.region.clone())
                .homed_near(self.region.bounding_box().center());
        }
        if let Some(event) = self.event {
            sub = sub.for_event(event);
        }
        if let Some(condition) = &self.condition {
            sub = sub.when(condition.clone());
        }
        if let Some((pattern, mode, horizon)) = &self.pattern {
            sub = sub.matching(pattern.clone(), *mode, Some(*horizon));
        }
        if let Some(s) = &self.sustained {
            sub = sub.sustained(s.config, Some(s.attribute.to_owned()));
        }
        sub
    }
}

/// One control-plane step of the churn schedule.
pub struct ChurnStep {
    /// Stream position before which the step runs.
    pub at: usize,
    /// Registration ordinals to unsubscribe.
    pub remove: Vec<u32>,
    /// Templates of the replacements, subscribed in this order.
    pub add: Vec<u32>,
}

/// A workload's subscriptions: templates, the initial registration
/// order, and the churn schedule.
pub struct Registry {
    pub templates: Vec<Template>,
    /// Template of each initial subscription, in registration order.
    pub initial: Vec<u32>,
    pub churn: Vec<ChurnStep>,
    /// Per registration ordinal (initial, then churn additions):
    /// whether its deliveries are compared with the reference. Churned
    /// tenants are counted but not compared.
    pub compared: Vec<bool>,
}

impl Registry {
    /// Subscriptions over the whole run, churn additions included.
    pub fn total(&self) -> usize {
        self.compared.len()
    }
}

fn cell(side: usize, gx: usize, gy: usize) -> Rect {
    let step = WORLD / side as f64;
    Rect::new(
        Point::new(gx as f64 * step, gy as f64 * step),
        Point::new((gx + 1) as f64 * step, (gy + 1) as f64 * step),
    )
}

fn parse(condition: &str) -> ConditionExpr {
    dsl::parse(condition).unwrap_or_else(|e| panic!("workload condition {condition:?}: {e:?}"))
}

pub fn registry(spec: &Spec) -> Registry {
    let plain = |label: String, region: SpatialExtent, condition: &str| Template {
        label,
        region,
        scoped: false,
        event: Some("reading"),
        condition: Some(parse(condition)),
        pattern: None,
        sustained: None,
    };
    let cells = |side: usize| (0..side).flat_map(move |gy| (0..side).map(move |gx| (gx, gy)));
    match spec.subscriptions {
        Subscriptions::Circles { side } => {
            let step = WORLD / side as f64;
            let templates: Vec<Template> = cells(side)
                .map(|(gx, gy)| {
                    let center = Point::new((gx as f64 + 0.5) * step, (gy as f64 + 0.5) * step);
                    plain(
                        format!("hot-{gx}-{gy}"),
                        SpatialExtent::field(Field::circle(Circle::new(center, step * 0.3))),
                        "x.temp > 45",
                    )
                })
                .collect();
            let n = templates.len();
            Registry {
                templates,
                initial: (0..n as u32).collect(),
                churn: Vec::new(),
                compared: vec![true; n],
            }
        }
        Subscriptions::Patterns { side } => {
            let sequence = Pattern::atom("a", "hot").then(Pattern::atom("b", "smoke"));
            let near_and_hot = parse("dist(loc(a), loc(b)) < 30 and a.temp > 45");
            let mut templates = Vec::new();
            for (gx, gy) in cells(side) {
                templates.push(Template {
                    label: format!("seq-{gx}-{gy}"),
                    region: SpatialExtent::field(Field::rect(cell(side, gx, gy))),
                    scoped: false,
                    event: None,
                    condition: Some(near_and_hot.clone()),
                    pattern: Some((
                        sequence.clone(),
                        ConsumptionMode::Continuous,
                        Duration::new(400),
                    )),
                    sustained: None,
                });
            }
            for (gx, gy) in cells(side) {
                templates.push(Template {
                    label: format!("held-{gx}-{gy}"),
                    region: SpatialExtent::field(Field::rect(cell(side, gx, gy))),
                    scoped: false,
                    event: None,
                    condition: None,
                    pattern: None,
                    sustained: Some(SustainedTemplate {
                        config: SustainedConfig {
                            min_duration: Duration::new(50),
                            enter_threshold: 60.0,
                            exit_threshold: 60.0,
                        },
                        attribute: "temp",
                    }),
                });
            }
            let n = templates.len();
            Registry {
                templates,
                initial: (0..n as u32).collect(),
                churn: Vec::new(),
                compared: vec![true; n],
            }
        }
        Subscriptions::Tenants {
            side,
            per_district,
            churn_every,
            churn_batch,
        } => {
            let templates: Vec<Template> = cells(side)
                .map(|(gx, gy)| Template {
                    scoped: true,
                    ..plain(
                        format!("tenant-{gx}-{gy}"),
                        SpatialExtent::field(Field::rect(cell(side, gx, gy))),
                        "x.temp > 77.5",
                    )
                })
                .collect();
            let districts = templates.len();
            let initial: Vec<u32> = (0..districts as u32)
                .flat_map(|d| std::iter::repeat_n(d, per_district))
                .collect();
            // Step k retires `churn_batch` tenants spread over the
            // districts, from tenant slots no other step touches, and
            // adds as many to the same districts: the plan count and
            // every district's fan-out stay what they were.
            let rounds = churn_batch.div_ceil(districts);
            let steps = (spec.instances.saturating_sub(1)) / churn_every;
            assert!(
                steps * rounds <= per_district,
                "churn schedule needs {} tenant slots per district, have {per_district}",
                steps * rounds
            );
            let mut compared = vec![true; initial.len()];
            let churn: Vec<ChurnStep> = (0..steps)
                .map(|k| {
                    let picks = (0..churn_batch).map(|j| {
                        let district = (j + 17 * k) % districts;
                        (district, k * rounds + j / districts)
                    });
                    let remove: Vec<u32> = picks
                        .clone()
                        .map(|(district, slot)| (district * per_district + slot) as u32)
                        .collect();
                    for &ordinal in &remove {
                        compared[ordinal as usize] = false;
                    }
                    ChurnStep {
                        at: (k + 1) * churn_every,
                        remove,
                        add: picks.map(|(district, _)| district as u32).collect(),
                    }
                })
                .collect();
            compared.resize(initial.len() + steps * churn_batch, false);
            Registry {
                templates,
                initial,
                churn,
                compared,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_has_a_spec_and_a_registry() {
        for name in NAMES {
            for quick in [false, true] {
                let spec = spec(name, quick).expect("named workload");
                assert_eq!(spec.name, name);
                let reg = registry(&spec);
                assert_eq!(
                    reg.total(),
                    reg.initial.len() + reg.churn.iter().map(|c| c.add.len()).sum::<usize>()
                );
            }
        }
        assert!(spec("nope", false).is_none());
    }

    #[test]
    fn durable_match_input_is_dense_match_input() {
        let (a, b) = (
            spec("dense_match", false).unwrap(),
            spec("durable_match", false).unwrap(),
        );
        assert_eq!(a.instances, b.instances);
        assert_eq!(a.slack, b.slack);
        assert_eq!(format!("{:?}", a.shape), format!("{:?}", b.shape));
        assert!(!a.durable && b.durable);
    }

    #[test]
    fn tenant_churn_never_retires_a_tenant_twice_and_spares_nine_tenths() {
        let spec = spec("tenant_churn", false).unwrap();
        let reg = registry(&spec);
        assert_eq!(reg.templates.len(), 144);
        assert_eq!(reg.initial.len(), 100_800);
        let mut seen = std::collections::BTreeSet::new();
        for step in &reg.churn {
            assert_eq!(step.remove.len(), 300);
            assert_eq!(step.add.len(), 300);
            assert!(step.at < spec.instances);
            for &ordinal in &step.remove {
                assert!(seen.insert(ordinal), "tenant {ordinal} retired twice");
                // The replacement joins the district the retiree left.
                assert!(!reg.compared[ordinal as usize]);
            }
        }
        let spared = reg.compared.iter().filter(|c| **c).count();
        assert!(
            spared * 10 >= reg.initial.len() * 9,
            "{spared} tenants spared"
        );
    }
}
