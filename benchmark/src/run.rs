//! The common protocol every workload follows, in its own process:
//! set-up (generate, reference), closed-loop reps
//! (threaded and single-thread baseline interleaved), open-loop reps
//! (paced, latency from each instance's due instant), crash recovery.
//! The engine is driven only through its public API.

use crate::catalog::{self, OBS_STAGES};
use crate::gen::{self, Stream};
use crate::legs;
use crate::mem;
use crate::sink::{Deliveries, Digest, LatencyClock};
use crate::spans::Tracer;
use crate::stats::{self, Summary};
use crate::sys;
use crate::workloads::{self, engine_config, Exec, Registry, Spec, BASELINE_SHARDS, BATCH};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stem_engine::{Engine, EngineReport, Notification, Subscription, SubscriptionId};

/// Stream generations: the first five are warm-up (on a fresh heap the
/// first two run up to 1.5 times slower), the next ten are timed for
/// `setup_s`. The last one is kept.
const GENERATION_WARMUPS: usize = 5;
const GENERATIONS: usize = 10;
/// The measured phases: closed-loop rounds (one rep per mode),
/// open-loop reps, recoveries. Their reps alternate through the whole
/// run so that each gets its share of `--seconds`, and a disturbance of
/// the host shorter than half the run (its disk stalls for seconds at
/// a time) reaches less than half of any metric's samples.
const PHASES: usize = 3;
const SHARES: [f64; PHASES] = [0.50, 0.35, 0.15];
/// Reps a phase makes whatever the budget: a median needs them.
const MIN_REPS: [usize; PHASES] = [7, 3, 3];
/// Share of the stream the warm-up reps and the crash run feed.
const WARMUP_SHARE: f64 = 0.25;
const CRASH_SHARE: f64 = 0.90;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
}

/// What one workload run produced.
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// Metric name -> summary over the run's reps. End-to-end metrics
    /// always; per-layer metrics when the pass was traced.
    pub metrics: BTreeMap<String, Summary>,
    pub info: BTreeMap<&'static str, String>,
}

impl Outcome {
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Per-metric samples, one per rep.
#[derive(Default)]
struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_owned()).or_default().push(value);
    }

    fn summaries(&self) -> BTreeMap<String, Summary> {
        self.0
            .iter()
            .map(|(name, values)| (name.clone(), stats::summarize(values)))
            .collect()
    }
}

/// The reference delivery multiset of one workload input.
struct Reference {
    digests: Vec<Digest>,
    late_dropped: u64,
}

/// What one engine run did, as seen from outside.
struct Rep {
    start_s: f64,
    subscribe_s: f64,
    ingest_busy_s: f64,
    flush_s: f64,
    sync_s: f64,
    finish_s: f64,
    /// First ingest to `finish()` returning.
    feed_wall_s: f64,
    /// Process CPU seconds over the same window.
    cpu_s: f64,
    /// Peak of the net heap growth between just before `Engine::start`
    /// and `finish()` returning (0 unless the plan asked to count).
    heap_peak_bytes: u64,
    instances: u64,
    control_ops: u64,
    report: EngineReport,
    deliveries: Arc<Deliveries>,
    /// Open loop: per chunk, how long after it could first have been
    /// submitted (its due instant, or the previous engine call
    /// returning if that was later) the harness submitted it.
    gen_late_ns: Vec<u64>,
    /// Open loop: when the last chunk's submission returned, and when
    /// `finish()` did, in seconds past the last chunk's due instant.
    last_send_lag_s: f64,
    finish_lag_s: f64,
}

struct RepPlan<'a> {
    exec: Exec,
    /// Stream prefix to feed.
    upto: usize,
    wal: Option<&'a Path>,
    telemetry: bool,
    /// Open loop at this many instances per second; closed loop if
    /// `None`.
    pace: Option<f64>,
    capture: bool,
    /// Count the run's heap with [`crate::mem`] (single-threaded runs
    /// only).
    count_heap: bool,
    root: &'static str,
}

struct Bench<'a> {
    spec: &'a Spec,
    opts: &'a Options,
    registry: &'a Registry,
    stream: &'a Stream,
    scratch: &'a Scratch,
    /// When the measured phases began; `--seconds` counts from here.
    measured_from: Instant,
    tracer: Tracer,
    samples: Samples,
    attempted: u64,
    failed: u64,
}

fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let remaining = deadline - now;
        if remaining > Duration::from_micros(250) {
            std::thread::sleep(remaining - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

impl Bench<'_> {
    fn subscribe_initial(
        &mut self,
        deliveries: &Arc<Deliveries>,
        mut subscribe: impl FnMut(Subscription) -> SubscriptionId,
    ) -> (Vec<SubscriptionId>, f64) {
        let registry = self.registry;
        let count = registry.initial.len() as u64;
        self.tracer.time("engine.subscribe", count, || {
            registry
                .initial
                .iter()
                .enumerate()
                .map(|(ordinal, &template)| {
                    subscribe(
                        registry.templates[template as usize].build(ordinal, deliveries.sink()),
                    )
                })
                .collect()
        })
    }

    /// One engine run: start, subscribe, feed (with the churn schedule),
    /// finish.
    fn rep(&mut self, plan: &RepPlan<'_>) -> Rep {
        let spec = self.spec;
        let registry = self.registry;
        let stream = self.stream;
        let shards = plan.exec.shards();
        let clock = plan
            .pace
            .map(|rate| LatencyClock::new(rate, Arc::clone(&stream.arrival_of_gen), shards));
        let deliveries = Deliveries::new(registry.total(), clock, plan.capture);
        let root = self.tracer.open(plan.root);
        let config = engine_config(spec, plan.exec, plan.wal, plan.telemetry);
        if plan.count_heap {
            mem::start();
        }
        let (mut engine, start_s) = self
            .tracer
            .time("engine.start", 1, || Engine::start(config));
        let (mut ids, subscribe_s) =
            self.subscribe_initial(&deliveries, |sub| engine.subscribe(sub));
        let mut control_ops = ids.len() as u64;

        let (mut ingest_busy_s, mut flush_s, mut sync_s) = (0.0, 0.0, 0.0);
        let mut gen_late_ns = Vec::new();
        let cpu_before = sys::process_cpu_seconds();
        let feed_start = Instant::now();
        if let Some(clock) = deliveries.latency() {
            clock.begin(feed_start);
        }
        // Open loop: when the harness was last free to submit, and when
        // the last chunk was due.
        let mut free_at = feed_start;
        let mut last_due = feed_start;
        let mut churn = registry
            .churn
            .iter()
            .filter(|step| step.at < plan.upto)
            .peekable();
        let mut position = 0;
        while position < plan.upto {
            let segment_end = churn.peek().map_or(plan.upto, |step| step.at);
            let segment = &stream.instances[position..segment_end];
            match deliveries.latency() {
                None => {
                    let ((), secs) =
                        self.tracer.time("engine.ingest", segment.len() as u64, || {
                            engine.ingest_all(segment.iter());
                        });
                    ingest_busy_s += secs;
                }
                Some(clock) => {
                    // A chunk is submitted when its last instance is due.
                    let mut at = position;
                    for chunk in segment.chunks(BATCH) {
                        at += chunk.len();
                        last_due = feed_start + Duration::from_nanos(clock.due_ns(at - 1));
                        wait_until(last_due);
                        gen_late_ns
                            .push((Instant::now() - last_due.max(free_at)).as_nanos() as u64);
                        let ((), secs) =
                            self.tracer.time("engine.ingest", chunk.len() as u64, || {
                                engine.ingest_all(chunk.iter());
                            });
                        ingest_busy_s += secs;
                        let ((), secs) = self.tracer.time("engine.flush", 1, || engine.flush());
                        flush_s += secs;
                        free_at = Instant::now();
                    }
                }
            }
            position = segment_end;
            if let Some(step) = churn.next() {
                let open = self.tracer.open("engine.churn");
                for &ordinal in &step.remove {
                    assert!(
                        engine.unsubscribe(ids[ordinal as usize]),
                        "tenant {ordinal} is live"
                    );
                }
                for &template in &step.add {
                    let sub =
                        registry.templates[template as usize].build(ids.len(), deliveries.sink());
                    ids.push(engine.subscribe(sub));
                }
                let ops = (step.remove.len() + step.add.len()) as u64;
                self.tracer.close(open, ops);
                let ((), secs) = self.tracer.time("engine.sync", 1, || engine.sync());
                sync_s += secs;
                control_ops += ops + 1;
                free_at = Instant::now();
            }
        }
        let (report, finish_s) = self.tracer.time("engine.finish", 1, || engine.finish());
        let feed_wall_s = feed_start.elapsed().as_secs_f64();
        let finish_lag_s = last_due.elapsed().as_secs_f64();
        let heap_peak_bytes = if plan.count_heap { mem::stop() } else { 0 };
        self.tracer.close(root, plan.upto as u64);
        Rep {
            start_s,
            subscribe_s,
            ingest_busy_s,
            flush_s,
            sync_s,
            finish_s,
            feed_wall_s,
            cpu_s: sys::process_cpu_seconds() - cpu_before,
            heap_peak_bytes,
            instances: plan.upto as u64,
            control_ops,
            report,
            deliveries,
            gen_late_ns,
            last_send_lag_s: free_at.saturating_duration_since(last_due).as_secs_f64(),
            finish_lag_s,
        }
    }

    /// Counts a full-stream rep's operations, and as failed every
    /// backpressure drop, evaluation error, late drop the reference did
    /// not make, and delivery that differs from the reference.
    fn check(&mut self, rep: &Rep, reference: &Reference) {
        let report = &rep.report;
        let mut failed = report.router.dropped_backpressure;
        failed += report.shards.iter().map(|s| s.eval_errors).sum::<u64>();
        failed += report.total_late_dropped().abs_diff(reference.late_dropped);
        failed += mismatches(
            &rep.deliveries.digests(),
            &reference.digests,
            &self.registry.compared,
            None,
        );
        self.attempted += rep.instances + rep.control_ops;
        self.failed += failed;
    }
}

/// Deliveries that differ from the reference over the compared
/// subscriptions: the count gap, or one per subscription whose count
/// agrees and whose hash does not. `covered` adds the prefix a
/// recovery's snapshots hold instead of re-delivering; hashes cannot be
/// compared across that split.
fn mismatches(
    got: &[Digest],
    want: &[Digest],
    compared: &[bool],
    covered: Option<&BTreeMap<u64, u64>>,
) -> u64 {
    let mut failed = 0;
    for (ordinal, (got, want)) in got.iter().zip(want).enumerate() {
        if !compared[ordinal] {
            continue;
        }
        match covered {
            None => {
                failed += got.count.abs_diff(want.count);
                failed += u64::from(got.count == want.count && got.hash != want.hash);
            }
            Some(covered) => {
                let prefix = covered.get(&(ordinal as u64)).copied().unwrap_or(0);
                failed += (got.count + prefix).abs_diff(want.count);
            }
        }
    }
    failed
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// A directory for this run's WAL files, removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(workload: &str) -> std::io::Result<Self> {
        let dir = sys::out_dir().join(format!("wal-{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const BASELINE: Exec = Exec::Inline {
    shards: BASELINE_SHARDS,
};

impl Bench<'_> {
    /// A full-stream closed-loop rep plan.
    fn closed<'p>(
        exec: Exec,
        wal: Option<&'p Path>,
        telemetry: bool,
        root: &'static str,
        upto: usize,
    ) -> RepPlan<'p> {
        RepPlan {
            exec,
            upto,
            wal,
            telemetry,
            pace: None,
            capture: false,
            count_heap: false,
            root,
        }
    }

    /// A fresh WAL directory for a rep of a durable workload.
    fn wal_dir(&self, name: &str) -> Option<PathBuf> {
        self.spec.durable.then(|| self.scratch.fresh(name))
    }

    /// One discarded warm-up rep per mode on a stream prefix.
    fn warm_up(&mut self) {
        let warmup = ((self.spec.instances as f64 * WARMUP_SHARE) as usize).max(1);
        for exec in [Exec::Threaded, BASELINE] {
            let wal = self.wal_dir("warmup");
            // The single-threaded warm-up doubles as the memory rep:
            // the workload's own durability, every subscription
            // registered, reorder buffers at their steady depth.
            let rep = self.rep(&RepPlan {
                count_heap: exec == BASELINE,
                ..Self::closed(exec, wal.as_deref(), false, "rep.warmup", warmup)
            });
            if exec == BASELINE {
                let mib = rep.heap_peak_bytes as f64 / (1 << 20) as f64;
                self.samples.push("engine_heap_mb", mib);
            }
        }
    }

    /// One closed-loop round: a threaded rep, then a baseline rep, so
    /// drift in the host hits both modes alike (then, traced, a baseline
    /// rep with telemetry on). Returns the baseline rep's report.
    fn closed_round(&mut self, reference: &Reference) -> EngineReport {
        let full = self.spec.instances;
        let traced = self.opts.traced;
        {
            let wal = self.wal_dir("threaded");
            let rep = self.rep(&Self::closed(
                Exec::Threaded,
                wal.as_deref(),
                traced,
                "rep.closed_threaded",
                full,
            ));
            self.check(&rep, reference);
            let samples = &mut self.samples;
            samples.push("throughput_inst_per_s", full as f64 / rep.feed_wall_s);
            samples.push(
                "engine.cpu_threaded_us_per_inst",
                rep.cpu_s * 1e6 / full as f64,
            );
            samples.push("engine.start_subscribe_s", rep.start_s + rep.subscribe_s);
            samples.push("engine.subscribe_s", rep.subscribe_s);
            samples.push("engine.ingest_busy_s", rep.ingest_busy_s);
            samples.push("engine.sync_s", rep.sync_s);
            samples.push("engine.finish_drain_s", rep.finish_s);
            if let Some(obs) = &rep.report.obs {
                let mut leaf_s = 0.0;
                for stage in OBS_STAGES {
                    let hist = obs.merged.stage(stage);
                    let secs = hist.sum() as f64 / 1e9;
                    samples.push(&format!("obs.stage.{}_s", stage.name()), secs);
                    samples.push(
                        &format!("obs.stage.{}_count", stage.name()),
                        hist.count() as f64,
                    );
                    if catalog::is_leaf_stage(stage) {
                        leaf_s += secs;
                    }
                }
                samples.push("obs.attributed_share", leaf_s / rep.cpu_s.max(1e-9));
            }
        }

        let baseline_report = {
            let wal = self.wal_dir("baseline");
            let rep = self.rep(&Self::closed(
                BASELINE,
                wal.as_deref(),
                false,
                "rep.closed_baseline",
                full,
            ));
            self.check(&rep, reference);
            self.samples
                .push("throughput_1t_inst_per_s", full as f64 / rep.feed_wall_s);
            self.samples
                .push("cpu_us_per_inst", rep.cpu_s * 1e6 / full as f64);
            rep.report
        };

        if traced {
            let wal = self.wal_dir("baseline-telemetry");
            let plan = Self::closed(
                BASELINE,
                wal.as_deref(),
                true,
                "rep.closed_baseline_telemetry",
                full,
            );
            let rep = self.rep(&plan);
            self.check(&rep, reference);
            self.samples.push(
                "bench.telemetry_1t_inst_per_s",
                full as f64 / rep.feed_wall_s,
            );
        }
        baseline_report
    }

    /// One open-loop rep: threaded, paced at the workload's frozen rate.
    /// Returns how many latency samples it took.
    fn open_rep(&mut self, reference: &Reference) -> Result<usize, String> {
        let wal = self.wal_dir("open");
        let mut rep = self.rep(&RepPlan {
            pace: Some(self.spec.rate),
            ..Self::closed(
                Exec::Threaded,
                wal.as_deref(),
                false,
                "rep.open",
                self.spec.instances,
            )
        });
        self.check(&rep, reference);
        let clock = rep
            .deliveries
            .latency()
            .expect("open-loop reps record latency");
        let mut latencies = clock.take_samples();
        if latencies.is_empty() {
            return Err(format!(
                "{}: the open loop delivered nothing to time",
                self.spec.name
            ));
        }
        let samples = &mut self.samples;
        let us = |ns: u64| ns as f64 / 1e3;
        samples.push(
            "notify_latency_p50_us",
            us(stats::percentile(&mut latencies, 50.0)),
        );
        samples.push(
            "notify_latency_p95_us",
            us(stats::percentile(&mut latencies, 95.0)),
        );
        samples.push(
            "bench.gen_late_p95_us",
            us(stats::percentile(&mut rep.gen_late_ns, 95.0)),
        );
        samples.push("engine.flush_s", rep.flush_s);
        samples.push("engine.start_subscribe_s", rep.start_s + rep.subscribe_s);
        samples.push("engine.subscribe_s", rep.subscribe_s);
        samples.push(
            "bench.send_lag_share",
            rep.last_send_lag_s / rep.feed_wall_s,
        );
        samples.push("bench.finish_lag_share", rep.finish_lag_s / rep.feed_wall_s);
        Ok(latencies.len())
    }

    /// The crash: one baseline-mode run under WAL + checkpoints, dropped
    /// without `finish()` part-way, leaves its files in `crash_dir`.
    fn crash(&mut self, crash_dir: &Path) {
        let (spec, stream, registry) = (self.spec, self.stream, self.registry);
        let crash_at = (spec.instances as f64 * CRASH_SHARE) as usize;
        let deliveries = Deliveries::new(registry.total(), None, false);
        let mut engine = Engine::start(engine_config(spec, BASELINE, Some(crash_dir), false));
        self.subscribe_initial(&deliveries, |sub| engine.subscribe(sub));
        engine.ingest_all(stream.instances[..crash_at].iter());
        drop(engine);
    }

    /// One recovery of a fresh copy of what the crash left on disk.
    /// Returns the recovered engine's report.
    fn recover_rep(
        &mut self,
        reference: &Reference,
        crash_dir: &Path,
    ) -> Result<EngineReport, String> {
        let (spec, stream, registry) = (self.spec, self.stream, self.registry);
        let full = spec.instances;
        let work = self.scratch.fresh("recover");
        copy_dir(crash_dir, &work).map_err(|e| format!("copy crashed wal: {e}"))?;
        let deliveries = Deliveries::new(registry.total(), None, false);
        let root = self.tracer.open("rep.recover");
        let started = Instant::now();
        let config = engine_config(spec, BASELINE, Some(&work), false);
        let (recovery, open_s) = self
            .tracer
            .time("engine.recover_open", 1, || Engine::recover(config));
        let mut recovery = recovery.map_err(|e| format!("recover: {e}"))?;
        let (ids, _) = self.subscribe_initial(&deliveries, |sub| recovery.subscribe(sub));
        let covered = recovery.snapshot_delivered();
        let (mut engine, resume_s) = self
            .tracer
            .time("engine.recover_resume", 1, || recovery.resume());
        let resume_from = (engine.resume_from() as usize).min(full);
        let refed = (full - resume_from) as u64;
        self.tracer.time("engine.ingest", refed, || {
            engine.ingest_all(stream.instances[resume_from..].iter());
        });
        let (report, _) = self.tracer.time("engine.finish", 1, || engine.finish());
        self.samples
            .push("recover_s", started.elapsed().as_secs_f64());
        self.tracer.close(root, refed);
        self.samples.push("engine.recover_open_s", open_s);
        self.samples.push("engine.recover_resume_s", resume_s);
        self.attempted += refed + ids.len() as u64 + 1;
        self.failed += mismatches(
            &deliveries.digests(),
            &reference.digests,
            &registry.compared,
            Some(&covered),
        );
        Ok(report)
    }
}

/// Runs one workload and returns its metrics.
///
/// # Errors
///
/// Returns a message when the open loop delivered nothing to time, or a
/// WAL directory could not be prepared or recovered.
pub fn run(spec: &Spec, opts: &Options) -> Result<Outcome, String> {
    let run_start = Instant::now();

    // Set-up: the input, generated several times so `setup_s` is a
    // median; the subscriptions; the reference.
    // (`generation_s` never reallocates inside the loop: a block freed
    // or placed between two generations changes what the allocator
    // hands back to the kernel, and with it the next generation's page
    // faults, by a factor of two.)
    let mut generation_s = Vec::with_capacity(GENERATIONS);
    let mut stream = None;
    for round in 0..GENERATION_WARMUPS + GENERATIONS {
        drop(stream.take());
        let started = Instant::now();
        stream = Some(gen::generate(opts.seed, spec.instances, &spec.shape));
        if round >= GENERATION_WARMUPS {
            generation_s.push(started.elapsed().as_secs_f64());
        }
    }
    let stream = stream.expect("generated at least once");
    let registry = workloads::registry(spec);
    let scratch = Scratch::new(spec.name).map_err(|e| format!("prepare wal directory: {e}"))?;
    let mut bench = Bench {
        spec,
        opts,
        registry: &registry,
        stream: &stream,
        scratch: &scratch,
        measured_from: Instant::now(),
        tracer: Tracer::new(opts.traced),
        samples: Samples::default(),
        attempted: 0,
        failed: 0,
    };
    let reference_started = Instant::now();
    let reference_rep = bench.rep(&RepPlan {
        capture: opts.traced,
        ..Bench::closed(
            Exec::Inline { shards: 1 },
            None,
            false,
            "rep.reference",
            spec.instances,
        )
    });
    let reference_s = reference_started.elapsed().as_secs_f64();
    let reference = Reference {
        digests: reference_rep.deliveries.digests(),
        late_dropped: reference_rep.report.total_late_dropped(),
    };
    let captured: Vec<Notification> = reference_rep.deliveries.take_captured();
    let expected_notifications = reference_rep.report.total_notifications();
    drop(reference_rep);

    bench.measured_from = Instant::now();
    bench.warm_up();
    let crash_dir = scratch.fresh("crash");
    bench.crash(&crash_dir);
    // Always the phase furthest behind its share of the time spent; once
    // `--seconds` are up, only phases still short of their minimum.
    let (mut reps, mut spent) = ([0usize; PHASES], [0.0f64; PHASES]);
    let (mut baseline_report, mut recovered_report, mut latency_samples) = (None, None, 0);
    loop {
        let out_of_time = bench.measured_from.elapsed().as_secs_f64() >= opts.seconds;
        let next = (0..PHASES)
            .filter(|&p| !out_of_time || reps[p] < MIN_REPS[p])
            .min_by(|&a, &b| (spent[a] / SHARES[a]).total_cmp(&(spent[b] / SHARES[b])));
        let Some(phase) = next else { break };
        let started = Instant::now();
        match phase {
            0 => baseline_report = Some(bench.closed_round(&reference)),
            1 => latency_samples = bench.open_rep(&reference)?,
            _ => recovered_report = Some(bench.recover_rep(&reference, &crash_dir)?),
        }
        reps[phase] += 1;
        spent[phase] += started.elapsed().as_secs_f64();
    }
    let [closed_reps, open_reps, recover_reps] = reps;
    let (baseline_report, recovered_report) = (
        baseline_report.expect("closed-loop rounds ran"),
        recovered_report.expect("recoveries ran"),
    );
    let measured_s = bench.measured_from.elapsed().as_secs_f64();

    if opts.traced {
        let samples = &mut bench.samples;
        legs::counters(
            &mut |n, v| samples.push(n, v),
            &baseline_report,
            &recovered_report,
            spec.instances as u64,
        );
        samples.push("engine.subscriptions", registry.initial.len() as f64);
        samples.push("bench.reference_s", reference_s);
        legs::run_all(
            &mut |n, v| samples.push(n, v),
            &mut bench.tracer,
            spec,
            &registry,
            &stream,
            &captured,
            &crash_dir,
            &scratch.fresh("legs"),
        )?;
    }

    let mut metrics = bench.samples.summaries();
    if let Some(with_telemetry) = metrics.remove("bench.telemetry_1t_inst_per_s") {
        let plain = metrics["throughput_1t_inst_per_s"].median;
        let overhead = 100.0 * (1.0 - with_telemetry.median / plain);
        metrics.insert("obs.overhead_pct".to_owned(), stats::summarize(&[overhead]));
    }
    // `setup_s`: generating the input, then starting a threaded engine
    // and registering every subscription — each a median of its repeats
    // (every threaded rep, closed or open loop, sets up the same way).
    let start_subscribe = metrics
        .remove("engine.start_subscribe_s")
        .expect("threaded reps ran");
    let generation = stats::summarize(&generation_s);
    metrics.insert(
        "setup_s".to_owned(),
        Summary {
            median: generation.median + start_subscribe.median,
            q1: generation.q1 + start_subscribe.q1,
            q3: generation.q3 + start_subscribe.q3,
            n: start_subscribe.n,
        },
    );

    // The latency metrics mean what they say only if the harness kept
    // its schedule and the engine kept up with it. A run that did not
    // still reports (the driver takes no failed run, and its quartiles
    // absorb an odd one) but says so, and `compare` will not resolve a
    // latency verdict from it.
    let late = metrics["bench.gen_late_p95_us"].median;
    let p50 = metrics["notify_latency_p50_us"].median;
    let mut lag = |name| metrics.remove(name).expect("open-loop reps ran").median;
    let (send_lag, finish_lag) = (lag("bench.send_lag_share"), lag("bench.finish_lag_share"));
    let mut invalid = Vec::new();
    if late > 0.10 * p50 {
        invalid.push(format!(
            "the generator's own lateness p95 {late:.1} us exceeds 10% of the p50 latency {p50:.1} us"
        ));
    }
    if finish_lag > 0.05 {
        invalid.push(format!(
            "finish() returned {:.1}% of the phase past the last due instant ({:.1}% of it before the last send returned): the backlog grows at {} inst/s",
            100.0 * finish_lag,
            100.0 * send_lag,
            spec.rate
        ));
    }
    if !invalid.is_empty() {
        eprintln!(
            "warning: {}: latency not valid: {}",
            spec.name,
            invalid.join("; ")
        );
    }

    let mut info: BTreeMap<&'static str, String> = BTreeMap::new();
    if opts.traced {
        let path = sys::out_dir().join(format!("trace-{}.jsonl", spec.name));
        bench
            .tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        crate::spans::print_summary(bench.tracer.spans());
        info.insert("trace_file", path.display().to_string());
        info.insert("spans", bench.tracer.spans().len().to_string());
        // A traced pass's end-to-end numbers were taken with telemetry
        // on: it reports none, so nothing can compare or gate on them.
        metrics.retain(|name, _| catalog::end_to_end(name).is_none());
    } else {
        metrics.retain(|name, _| catalog::end_to_end(name).is_some());
    }
    info.insert("why", spec.why.to_owned());
    info.insert("wal_fs", sys::fs_type(&scratch.0));
    info.insert("instances", spec.instances.to_string());
    info.insert("subscriptions", registry.initial.len().to_string());
    info.insert("expected_notifications", expected_notifications.to_string());
    info.insert("stream_hash", format!("{:016x}", stream.hash()));
    info.insert("shards_threaded", workloads::threaded_shards().to_string());
    info.insert("shards_baseline", BASELINE_SHARDS.to_string());
    info.insert("paced_rate_inst_per_s", spec.rate.to_string());
    info.insert("latency_samples_per_rep", latency_samples.to_string());
    info.insert("open_loop_send_lag_share", format!("{send_lag:.4}"));
    info.insert("open_loop_finish_lag_share", format!("{finish_lag:.4}"));
    if !invalid.is_empty() {
        info.insert("latency_invalid", invalid.join("; "));
    }
    info.insert("reps_closed", closed_reps.to_string());
    info.insert("reps_open", open_reps.to_string());
    info.insert("reps_recover", recover_reps.to_string());
    info.insert("reference_s", format!("{reference_s:.3}"));
    info.insert("measured_s", format!("{measured_s:.3}"));
    info.insert(
        "wall_s",
        format!("{:.3}", run_start.elapsed().as_secs_f64()),
    );
    Ok(Outcome {
        workload: spec.name,
        attempted: bench.attempted,
        failed: bench.failed,
        metrics,
        info,
    })
}
