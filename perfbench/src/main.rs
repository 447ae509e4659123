//! Layered control-loop benchmark for AutoGlobe.
//!
//! ```text
//! autoglobe-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives one workload through the public `RunBuilder` / `Supervisor` /
//! `ShardedControlPlane` API in a closed loop (each 60-s simulated control
//! interval starts when the previous one returns), repeating whole simulated
//! horizons until `--seconds` of host time have passed. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` runs the layer-traced driver and
//! reports per-layer metrics. Every horizon's output is checked; the last
//! line of standard output is one JSON object with the result. The exit
//! code is 0 only when every check passed.

mod trace;
mod workload;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use trace::{Layer, TracedRepeat, Tracer};
use workload::{Outcome, Repeat, Workload};

/// Fewest rounds (one horizon per ensemble seed each) one invocation times,
/// however short `--seconds`; it also always completes at least one group.
const MIN_ROUNDS: usize = 3;
/// Set-ups timed after every timed round, each building the landscape and
/// assembling a harness without running it; `setup_s` is their median. The
/// same batch follows every round, so the median does not shift with how
/// many rounds fit, and its samples are spread over the whole run.
const SETUPS_PER_ROUND: usize = 4;

const USAGE: &str =
    "usage: autoglobe-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if !argv.len().is_multiple_of(2) {
        return Err("every flag takes one value".into());
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let value = pair[1].as_str();
        match pair[0].as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value:?}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                })
            }
            flag => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One named metric of the result.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Base, sample count or meaning, printed in the report only.
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

/// Output checks and operation counts of one invocation. Operations are
/// ticks; every tick of a horizon that panicked, returned an error or
/// produced the wrong output counts as failed.
struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Per ensemble seed: the first horizon's output digest, which every
    /// later horizon and the reference run must reproduce.
    expected: Vec<Option<String>>,
    /// Per ensemble seed: ticks attempted.
    attempted_by_seed: Vec<u64>,
}

impl Checks {
    fn new(seeds: usize) -> Checks {
        Checks {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            expected: vec![None; seeds],
            attempted_by_seed: vec![0; seeds],
        }
    }

    /// Count a finished horizon; a digest mismatch fails all its ticks.
    fn horizon(&mut self, what: &str, slot: usize, seed: u64, ticks: u64, digest: &str) {
        self.attempted += ticks;
        self.attempted_by_seed[slot] += ticks;
        match &self.expected[slot] {
            None => self.expected[slot] = Some(digest.to_string()),
            Some(expected) if expected == digest => {}
            Some(_) => {
                self.failed += ticks;
                self.failures.push(format!(
                    "{what} at seed {seed}: output differs from the seed's first horizon"
                ));
            }
        }
    }

    /// Count a horizon that panicked or returned an error.
    fn broken(&mut self, what: &str, seed: u64, ticks: u64, why: String) {
        self.attempted += ticks;
        self.failed += ticks;
        self.failures
            .push(format!("{what} at seed {seed} failed: {why}"));
    }

    /// Compare seed slot `slot`'s output with the workload's reference
    /// runs, computed after the measurement so they add nothing to the peak
    /// memory measured. A mismatch fails every tick run at that seed.
    fn reference(&mut self, w: Workload, slot: usize, seed: u64) {
        let Some(expected) = self.expected[slot].clone() else {
            return;
        };
        let references = match catch_unwind(AssertUnwindSafe(|| w.references(seed))) {
            Ok(Ok(references)) => references,
            Ok(Err(why)) => return self.broken("reference run", seed, 0, why),
            Err(payload) => return self.broken("reference run", seed, 0, payload_message(payload)),
        };
        let differing: Vec<&str> = references
            .iter()
            .filter(|(_, digest)| *digest != expected)
            .map(|(path, _)| *path)
            .collect();
        if !differing.is_empty() {
            self.failed += self.attempted_by_seed[slot];
        }
        for path in differing {
            self.failures
                .push(format!("seed {seed}: output differs from {path}"));
        }
    }
}

fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn run_untraced(w: Workload, slot: usize, seed: u64, checks: &mut Checks) -> Option<Repeat> {
    let ticks = w.sim(seed).num_ticks();
    match catch_unwind(AssertUnwindSafe(|| workload::untraced_repeat(w, seed))) {
        Ok(repeat) => {
            checks.horizon("horizon", slot, seed, ticks, &repeat.digest);
            Some(repeat)
        }
        Err(payload) => {
            checks.broken("horizon", seed, ticks, payload_message(payload));
            None
        }
    }
}

fn run_traced(
    w: Workload,
    slot: usize,
    seed: u64,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Option<TracedRepeat> {
    let ticks = w.sim(seed).num_ticks();
    match catch_unwind(AssertUnwindSafe(|| trace::traced_repeat(w, seed, tracer))) {
        Ok(Ok(repeat)) => {
            checks.horizon("traced horizon", slot, seed, ticks, &repeat.digest);
            Some(repeat)
        }
        Ok(Err(why)) => {
            checks.broken("traced horizon", seed, ticks, why);
            None
        }
        Err(payload) => {
            checks.broken("traced horizon", seed, ticks, payload_message(payload));
            None
        }
    }
}

/// Host-time figures of one group: [`Workload::group_rounds`] consecutive
/// rounds (one complete horizon per ensemble seed each), reduced to the
/// minimum host time of each tick across the group. Every round of a seed
/// does the same work tick for tick, and other tenants of the host only ever
/// add time, so the minimum keeps the program's own cost and drops bursts of
/// interference. A group is a fixed number of rounds, whatever the run
/// speed, so the median over a run's groups does not shift with how many
/// groups fit into it.
struct Group {
    ticks_per_s: f64,
    p50_us: f64,
    p99_us: f64,
}

impl Group {
    fn of(tick_ns: &mut [u64]) -> Group {
        let total_ns: u64 = tick_ns.iter().sum();
        tick_ns.sort_unstable();
        Group {
            ticks_per_s: tick_ns.len() as f64 / (total_ns.max(1) as f64 * 1e-9),
            p50_us: percentile(tick_ns, 50.0) as f64 / 1e3,
            p99_us: percentile(tick_ns, 99.0) as f64 / 1e3,
        }
    }
}

/// The simulated outcomes at the workload seed. They are deterministic for
/// a seed but swing by an order of magnitude between seeds, so the report
/// prints them and the output checks compare them; they carry no bound.
fn outcomes(w: Workload, o: &Outcome) -> Vec<Metric> {
    let mut out = vec![
        metric(
            "overload_min",
            o.overload_min,
            "min",
            "server-minutes above 80 % CPU (simulated)",
        ),
        metric(
            "unserved_pct",
            o.unserved_pct,
            "%",
            "of offered demand (simulated)",
        ),
    ];
    if w == Workload::PaperChaos {
        out.push(metric(
            "mttr_s",
            o.mttr_s,
            "s",
            "failure to restart (simulated)",
        ));
        out.push(metric(
            "lost_sessions",
            o.lost_sessions,
            "count",
            "users severed by failures (simulated)",
        ));
    }
    out
}

/// `--trace 0`: rounds of one untraced horizon per ensemble seed until the
/// time is up and at least one group is complete. The first round warms the
/// process (heap growth, first-touch page faults) and is checked but not
/// timed. Each host-time metric is the median over the complete groups of
/// that group's figure; the rounds of a last, incomplete group are checked
/// but not timed either. Returns the end-to-end metrics and the simulated
/// outcomes.
fn end_to_end(w: Workload, seeds: &[u64], seconds: f64, checks: &mut Checks) -> [Vec<Metric>; 2] {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let k = w.group_rounds();
    let min_groups = MIN_ROUNDS.div_ceil(k);
    let mut groups: Vec<Group> = Vec::new();
    let mut round_ns: Vec<u64> = Vec::new();
    let mut floor: Vec<u64> = Vec::new();
    let mut in_group = 0;
    let mut simulated = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut setup_seeds = seeds.iter().cycle();
    let mut warming = true;
    'rounds: loop {
        round_ns.clear();
        for (slot, &seed) in seeds.iter().enumerate() {
            let Some(repeat) = run_untraced(w, slot, seed, checks) else {
                break 'rounds;
            };
            if slot == 0 && simulated.is_empty() {
                simulated = outcomes(w, &repeat.outcome);
            }
            round_ns.extend_from_slice(&repeat.tick_ns);
        }
        if std::mem::take(&mut warming) {
            continue;
        }
        for &seed in setup_seeds.by_ref().take(SETUPS_PER_ROUND) {
            match catch_unwind(|| workload::setup(w, seed)) {
                Ok(secs) => setups.push(secs),
                Err(payload) => checks.broken("set-up", seed, 0, payload_message(payload)),
            }
        }
        if in_group == 0 {
            floor.clone_from(&round_ns);
        } else {
            for (f, &t) in floor.iter_mut().zip(&round_ns) {
                *f = (*f).min(t);
            }
        }
        in_group += 1;
        if in_group == k {
            groups.push(Group::of(&mut floor));
            in_group = 0;
        }
        if Instant::now() >= deadline && groups.len() >= min_groups {
            break;
        }
    }
    let n: u64 = seeds.iter().map(|&seed| w.sim(seed).num_ticks()).sum();
    let each = if k == 1 {
        "one round".to_string()
    } else {
        format!("the per-tick minimum of {k} rounds")
    };
    let basis = format!(
        "median of {} groups of {n} ticks, each {each} of {} x {}-h horizons",
        groups.len(),
        seeds.len(),
        w.hours()
    );
    let of_groups = |f: fn(&Group) -> f64| median(&groups.iter().map(f).collect::<Vec<f64>>());
    let host = vec![
        metric(
            "setup_s",
            median(&setups),
            "s",
            format!("median of {} set-ups", setups.len()),
        ),
        metric(
            "ticks_per_s",
            of_groups(|r| r.ticks_per_s),
            "1/s",
            basis.clone(),
        ),
        metric("tick_p50_us", of_groups(|r| r.p50_us), "us", basis.clone()),
        metric(
            "tick_p99_us",
            of_groups(|r| r.p99_us),
            "us",
            format!("{basis}, {} beyond p99", n - (n * 99).div_ceil(100)),
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MB", "VmHWM of the process"),
    ];
    [host, simulated]
}

/// Per-layer span totals of a traced run.
struct LayerTimes {
    ns: [u64; 10],
    dispatch_ns: Vec<u64>,
    interval_ns: Vec<u64>,
}

impl LayerTimes {
    fn of(tracer: &Tracer) -> LayerTimes {
        let mut times = LayerTimes {
            ns: [0; 10],
            dispatch_ns: Vec::new(),
            interval_ns: Vec::new(),
        };
        for span in &tracer.spans {
            times.ns[span.layer as usize] += span.dur_ns;
            match span.layer {
                Layer::Dispatch => times.dispatch_ns.push(span.dur_ns),
                Layer::Interval => times.interval_ns.push(span.dur_ns),
                _ => {}
            }
        }
        times.dispatch_ns.sort_unstable();
        times.interval_ns.sort_unstable();
        times
    }

    fn total(&self, layer: Layer) -> u64 {
        self.ns[layer as usize]
    }
}

fn write_spans(w: Workload, tracer: &Tracer) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}.spans.csv", w.name()));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    tracer.write_csv(&mut out)?;
    std::io::Write::flush(&mut out)?;
    Ok(path.display().to_string())
}

/// `--trace 1`: rounds of one untraced and one traced horizon per ensemble
/// seed until the time is up. The traced horizons give the per-layer
/// figures; each untraced/traced pair gives one tracing-overhead sample.
fn per_layer(w: Workload, seeds: &[u64], seconds: f64, checks: &mut Checks) -> Vec<Metric> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut tracer = Tracer::new();
    let mut overhead: Vec<f64> = Vec::new();
    let mut env_s: Vec<f64> = Vec::new();
    let mut last: Vec<Option<TracedRepeat>> = seeds.iter().map(|_| None).collect();
    let mut traced_ticks: u64 = 0;
    let mut measurements: u64 = 0;
    'rounds: loop {
        for (slot, &seed) in seeds.iter().enumerate() {
            let Some(plain) = run_untraced(w, slot, seed, checks) else {
                break 'rounds;
            };
            let before = tracer.spans.len();
            let Some(traced) = run_traced(w, slot, seed, &mut tracer, checks) else {
                break 'rounds;
            };
            let traced_ns: u64 = tracer.spans[before..]
                .iter()
                .filter(|s| s.layer == Layer::Tick)
                .map(|s| s.dur_ns)
                .sum();
            let plain_ns: u64 = plain.tick_ns.iter().sum();
            overhead.push(100.0 * (traced_ns as f64 / plain_ns.max(1) as f64 - 1.0));
            env_s.extend([plain.env_s, traced.env_s]);
            traced_ticks += u64::from(traced.ticks);
            measurements += traced.counters.measurements;
            last[slot] = Some(traced);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    match write_spans(w, &tracer) {
        Ok(path) => eprintln!("spans written to {path}"),
        Err(e) => checks.failures.push(format!("writing spans failed: {e}")),
    }

    let times = LayerTimes::of(&tracer);
    let ticks = traced_ticks.max(1) as f64;
    let tick_ns = times.total(Layer::Tick).max(1) as f64;
    let layers = [
        Layer::Simulator,
        Layer::Monitor,
        Layer::Interval,
        Layer::Dispatch,
        Layer::Heartbeat,
        Layer::Recovery,
        Layer::ShardedRecord,
        Layer::ShardedBeat,
        Layer::ShardedTick,
    ];
    let layers_ns: u64 = layers.iter().map(|&l| times.total(l)).sum();

    // Counts are per horizon, averaged over the ensemble seeds.
    let finished: Vec<&TracedRepeat> = last.iter().flatten().collect();
    let mean = |f: &dyn Fn(&TracedRepeat) -> f64| {
        finished.iter().map(|r| f(r)).sum::<f64>() / finished.len().max(1) as f64
    };
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let per_horizon = format!("per {}-h horizon", w.hours());
    let count = |name, value: f64, what: &str| {
        metric(name, value, "count", format!("{what} {per_horizon}"))
    };
    let us = |name, layer: Layer| {
        metric(
            name,
            times.total(layer) as f64 / ticks / 1e3,
            "us",
            format!("{} per tick", layer.name()),
        )
    };
    let share = |name, layer: Layer| {
        metric(
            name,
            times.total(layer) as f64 / tick_ns,
            "ratio",
            format!("{} time / tick time", layer.name()),
        )
    };
    let pattern_hits = mean(&|r| r.counters.cache.pattern_hits as f64);
    let incremental_hits = mean(&|r| r.counters.cache.incremental_hits as f64);
    let misses = mean(&|r| r.counters.cache.misses as f64);
    let hits = pattern_hits + incremental_hits;
    let firings = mean(&|r| r.counters.firings as f64);
    let detections = mean(&|r| r.outcome.detections);
    let ingested = mean(&|r| r.counters.ingest.ingested as f64);
    let buffered = mean(&|r| r.counters.ingest.buffered as f64);
    vec![
        us("simulator.advance_us", Layer::Simulator),
        share("simulator.share", Layer::Simulator),
        us("monitor.record_us", Layer::Monitor),
        count(
            "monitor.measurements",
            mean(&|r| r.counters.measurements as f64),
            "record_* calls",
        ),
        metric(
            "monitor.ns_per_measurement",
            ratio(times.total(Layer::Monitor) as f64, measurements as f64),
            "ns",
            format!("monitor.record time / {measurements} measurements"),
        ),
        share("monitor.share", Layer::Monitor),
        us("supervisor.interval_us", Layer::Interval),
        metric(
            "supervisor.interval_p99_us",
            percentile(&times.interval_ns, 99.0) as f64 / 1e3,
            "us",
            format!("{} tick_collect calls", times.interval_ns.len()),
        ),
        count(
            "supervisor.triggers",
            mean(&|r| r.counters.triggers as f64),
            "confirmed triggers",
        ),
        count("forecast.firings", firings, "proactive firings"),
        metric(
            "forecast.mean_lead_s",
            ratio(mean(&|r| r.counters.lead_s_total as f64), firings),
            "s",
            format!("mean over {firings} firings"),
        ),
        us("controller.dispatch_us", Layer::Dispatch),
        metric(
            "controller.decision_p50_us",
            percentile(&times.dispatch_ns, 50.0) as f64 / 1e3,
            "us",
            format!("{} dispatch_trigger calls", times.dispatch_ns.len()),
        ),
        metric(
            "controller.decision_p99_us",
            percentile(&times.dispatch_ns, 99.0) as f64 / 1e3,
            "us",
            format!("{} dispatch_trigger calls", times.dispatch_ns.len()),
        ),
        count(
            "controller.decisions",
            mean(&|r| r.counters.decisions as f64),
            "dispatch_trigger calls",
        ),
        count(
            "controller.actions",
            mean(&|r| r.outcome.actions),
            "actions executed",
        ),
        count(
            "controller.alerts",
            mean(&|r| r.outcome.alerts),
            "administrator alerts",
        ),
        share("controller.share", Layer::Dispatch),
        us("controller.recovery_us", Layer::Recovery),
        count("controller.cache.pattern_hits", pattern_hits, "lookups"),
        count(
            "controller.cache.incremental_hits",
            incremental_hits,
            "lookups",
        ),
        count("controller.cache.misses", misses, "fuzzy evaluations"),
        count(
            "controller.cache.clears",
            mean(&|r| r.counters.cache.clears as f64),
            "flushes",
        ),
        metric(
            "controller.cache.hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
            format!("{hits} hits / {} lookups", hits + misses),
        ),
        count(
            "executor.retries",
            mean(&|r| r.counters.exec_retries as f64),
            "retried attempts",
        ),
        count(
            "executor.timeouts",
            mean(&|r| r.counters.exec_timeouts as f64),
            "timed-out attempts",
        ),
        count(
            "executor.compensations",
            mean(&|r| r.counters.exec_compensations as f64),
            "abandoned operations",
        ),
        count(
            "executor.fenced",
            mean(&|r| r.counters.exec_fenced as f64),
            "fenced late results",
        ),
        count(
            "heartbeat.suspicions",
            mean(&|r| r.outcome.suspicions),
            "suspicions",
        ),
        count(
            "heartbeat.reconciliations",
            mean(&|r| r.outcome.reconciliations),
            "false suspicions",
        ),
        us("heartbeat.beat_us", Layer::Heartbeat),
        count("heartbeat.detections", detections, "confirmed failures"),
        metric(
            "heartbeat.detection_latency_s",
            ratio(mean(&|r| r.outcome.detection_latency_s), detections),
            "s",
            format!("mean over {detections} detections"),
        ),
        metric(
            "outcome.overload_min",
            mean(&|r| r.outcome.overload_min),
            "min",
            "server-minutes above 80 % CPU (simulated)",
        ),
        metric(
            "outcome.unserved_pct",
            mean(&|r| r.outcome.unserved_pct),
            "%",
            "of offered demand (simulated)",
        ),
        metric(
            "outcome.mttr_s",
            mean(&|r| r.outcome.mttr_s),
            "s",
            "failure to restart (simulated)",
        ),
        count(
            "outcome.lost_sessions",
            mean(&|r| r.outcome.lost_sessions),
            "users severed (simulated)",
        ),
        us("sharded.record_us", Layer::ShardedRecord),
        us("sharded.beat_us", Layer::ShardedBeat),
        us("sharded.tick_us", Layer::ShardedTick),
        metric(
            "sharded.ingest_ratio",
            ratio(ingested, buffered),
            "ratio",
            format!("{ingested} ingested / {buffered} buffered"),
        ),
        count(
            "sharded.delta_loads",
            mean(&|r| r.counters.delta_loads as f64),
            "loads published in deltas",
        ),
        count(
            "sharded.dropped_triggers",
            mean(&|r| r.counters.dropped_triggers as f64),
            "dropped triggers",
        ),
        count(
            "sharded.fenced",
            mean(&|r| r.counters.plane_fenced as f64),
            "fenced operations",
        ),
        metric(
            "landscape.synth_s",
            median(&env_s),
            "s",
            format!("median of {} landscape builds", env_s.len()),
        ),
        count(
            "landscape.revisions",
            mean(&|r| r.counters.revisions as f64),
            "landscape mutations",
        ),
        metric(
            "trace.tick_us",
            tick_ns / ticks / 1e3,
            "us",
            format!("mean traced tick over {traced_ticks} ticks"),
        ),
        metric(
            "trace.coverage_pct",
            100.0 * layers_ns as f64 / tick_ns,
            "%",
            "sum of layer spans / tick spans",
        ),
        metric(
            "trace.overhead_pct",
            median(&overhead),
            "%",
            format!(
                "traced vs untraced horizon time, median of {} pairs",
                overhead.len()
            ),
        ),
    ]
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let seeds = w.seeds(args.seed);
    let mut checks = Checks::new(seeds.len());
    let [metrics, simulated] = if args.trace {
        [per_layer(w, &seeds, args.seconds, &mut checks), Vec::new()]
    } else {
        end_to_end(w, &seeds, args.seconds, &mut checks)
    };
    for (slot, &seed) in seeds.iter().enumerate() {
        checks.reference(w, slot, seed);
    }
    for m in &metrics {
        if !m.value.is_finite() {
            checks.failures.push(format!("{} is not a number", m.name));
        }
    }
    let correct = checks.failures.is_empty() && checks.failed == 0 && checks.attempted > 0;

    let mut report = format!(
        "{} seed {} ({}): {} seeds x {} h simulated per horizon, {} ticks attempted, {} failed\n",
        w.name(),
        args.seed,
        if args.trace { "traced" } else { "end to end" },
        seeds.len(),
        w.hours(),
        checks.attempted,
        checks.failed,
    );
    for m in metrics.iter().chain(&simulated) {
        writeln!(
            report,
            "  {:<36} {:>14.4} {:<6} {}",
            m.name, m.value, m.unit, m.note
        )
        .expect("writing to a String cannot fail");
    }
    for failure in &checks.failures {
        writeln!(report, "  CHECK FAILED: {failure}").expect("writing to a String cannot fail");
    }
    print!("{report}");

    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.attempted.max(1),
        checks.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        )
        .expect("writing to a String cannot fail");
    }
    json.push_str("}}");
    println!("{json}");
    if !correct {
        std::process::exit(1);
    }
}
