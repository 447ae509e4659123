//! The traced run. Spans are recorded from outside the program: the
//! benchmark drives each layer itself, mirroring `SupervisedRun::step`,
//! `ChaosRun::step` and `ShardedRun::step` call for call, and times its own
//! calls into each layer's public functions. Nothing inside the program is
//! instrumented. Because these drivers are a second implementation of the
//! harnesses' steps, their outputs are also a reference the measured
//! harnesses must equal.

use crate::workload::{output_digest, Outcome, Workload, PLANE_JOBS, SCENARIO, SHARDS};
use autoglobe::controller::{ControllerEvent, ExecutionEvent, ScoreCacheStats};
use autoglobe::landscape::{InstanceId, Landscape, ServerId, ServiceId};
use autoglobe::monitor::{HeartbeatConfig, HeartbeatEvent, SimTime, Subject};
use autoglobe::simulator::sap::SapEnvironment;
use autoglobe::simulator::{Metrics, ScenarioSpec, SimConfig, WorkloadEngine};
use autoglobe::{IngestStats, ReplicationMode, ShardedControlPlane, Supervisor, SupervisorConfig};
use autoglobe_rng::{splitmix64, Rng};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// A layer boundary the benchmark times, named after the crate it enters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole control interval; the parent of every other span.
    Tick,
    /// `WorkloadEngine::advance`.
    Simulator,
    /// `Supervisor::record_{server,service,instance}` for one tick.
    Monitor,
    /// `Supervisor::tick_collect`.
    Interval,
    /// One `Supervisor::dispatch_trigger`.
    Dispatch,
    /// `Supervisor::watch` and `Supervisor::beat` for one tick.
    Heartbeat,
    /// `Supervisor::report_server_repaired` and `Supervisor::retry_restart`
    /// for one tick.
    Recovery,
    /// `ShardedControlPlane::record_*` for one tick.
    ShardedRecord,
    /// `ShardedControlPlane::beat` for one tick.
    ShardedBeat,
    /// `ShardedControlPlane::tick`.
    ShardedTick,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Tick => "tick",
            Layer::Simulator => "simulator.advance",
            Layer::Monitor => "monitor.record",
            Layer::Interval => "supervisor.tick_collect",
            Layer::Dispatch => "controller.dispatch_trigger",
            Layer::Heartbeat => "supervisor.beat",
            Layer::Recovery => "controller.recovery",
            Layer::ShardedRecord => "sharded.record",
            Layer::ShardedBeat => "sharded.beat",
            Layer::ShardedTick => "sharded.tick",
        }
    }
}

/// One timed call: the horizon and tick it belongs to (spans of one tick
/// share both; the `Tick` span is the parent of the others), and when it
/// ran.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub horizon: u32,
    pub tick: u32,
    pub layer: Layer,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Spans kept in memory until the run ends.
pub struct Tracer {
    origin: Instant,
    horizon: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            horizon: 0,
            spans: Vec::new(),
        }
    }

    fn stop(&mut self, start: Instant, tick: u32, layer: Layer) {
        let end = Instant::now();
        self.spans.push(Span {
            horizon: self.horizon,
            tick,
            layer,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
        });
    }

    /// Write the spans as CSV, one line per span.
    pub fn write_csv(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        writeln!(out, "horizon,tick,layer,parent,start_ns,dur_ns")?;
        for s in &self.spans {
            let parent = if s.layer == Layer::Tick { "" } else { "tick" };
            writeln!(
                out,
                "{},{},{},{},{},{}",
                s.horizon,
                s.tick,
                s.layer.name(),
                parent,
                s.start_ns,
                s.dur_ns
            )?;
        }
        Ok(())
    }
}

/// Work counts of one traced horizon, read from public accessors.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub measurements: u64,
    pub triggers: u64,
    pub decisions: u64,
    pub exec_retries: u64,
    pub exec_timeouts: u64,
    pub exec_compensations: u64,
    pub exec_fenced: u64,
    pub cache: ScoreCacheStats,
    pub firings: u64,
    pub lead_s_total: u64,
    pub revisions: u64,
    pub ingest: IngestStats,
    pub delta_loads: u64,
    pub dropped_triggers: u64,
    pub plane_fenced: u64,
}

impl Counters {
    fn count_execution(&mut self, event: &ExecutionEvent) {
        match event {
            ExecutionEvent::Completed { .. } => {}
            ExecutionEvent::Retried { .. } => self.exec_retries += 1,
            ExecutionEvent::TimedOut { .. } => self.exec_timeouts += 1,
            ExecutionEvent::FencedLateSuccess { .. } | ExecutionEvent::FencedStaleEpoch { .. } => {
                self.exec_fenced += 1
            }
            ExecutionEvent::Abandoned { .. } => self.exec_compensations += 1,
        }
    }

    fn add_cache(&mut self, stats: ScoreCacheStats) {
        self.cache.pattern_hits += stats.pattern_hits;
        self.cache.incremental_hits += stats.incremental_hits;
        self.cache.misses += stats.misses;
        self.cache.clears += stats.clears;
    }
}

/// What one traced horizon produced.
pub struct TracedRepeat {
    pub env_s: f64,
    pub ticks: u32,
    /// [`output_digest`] of the run's outputs.
    pub digest: String,
    pub outcome: Outcome,
    pub counters: Counters,
}

impl TracedRepeat {
    fn new(env_s: f64, ticks: u32, metrics: &Metrics, counters: Counters) -> TracedRepeat {
        TracedRepeat {
            env_s,
            ticks,
            digest: output_digest(metrics),
            outcome: Outcome::of(metrics),
            counters,
        }
    }
}

/// The supervisor configuration `RunBuilder` derives for a supervised or
/// sharded run: the simulation's controller settings and, when an
/// execution substrate is configured, its seed from the master seed's
/// SplitMix64 chain.
fn supervisor_config(workload: Workload, sim: &SimConfig) -> SupervisorConfig {
    let mut config = SupervisorConfig {
        controller: sim.controller,
        proactive: workload.proactive(),
        ..SupervisorConfig::default()
    };
    if let Some(execution) = &sim.execution {
        config.executor = execution.clone();
        let mut state = sim.seed ^ 0x9E37_79B9_7F4A_7C15;
        config.executor_seed = splitmix64(&mut state);
    }
    config
}

/// The empty metrics a harness starts from.
fn metrics_shell(sim: &SimConfig, landscape: &Landscape) -> Metrics {
    Metrics {
        scenario: Some(sim.scenario),
        server_names: landscape
            .server_ids()
            .map(|id| {
                landscape
                    .server(id)
                    .map(|s| s.name.clone())
                    .unwrap_or_default()
            })
            .collect(),
        service_names: landscape
            .service_ids()
            .map(|id| {
                landscape
                    .service(id)
                    .map(|s| s.name.clone())
                    .unwrap_or_default()
            })
            .collect(),
        ..Metrics::default()
    }
}

/// The workload engine exactly as `RunBuilder` wires it.
fn engine(env: SapEnvironment, sim: &SimConfig) -> (Landscape, WorkloadEngine) {
    let SapEnvironment {
        landscape,
        workloads,
    } = env;
    let modulation = ScenarioSpec::from(SCENARIO).modulation(&workloads);
    let mut engine = WorkloadEngine::new(&landscape, workloads, sim);
    engine.set_modulation(Some(modulation));
    (landscape, engine)
}

fn alerts(events: Vec<ControllerEvent>) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, ControllerEvent::AdministratorAlert { .. }))
        .count()
}

/// Run one traced horizon of `workload`.
pub fn traced_repeat(
    workload: Workload,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<TracedRepeat, String> {
    tracer.horizon += 1;
    match workload {
        Workload::PaperChaos => traced_chaos(workload, seed, tracer),
        Workload::Synth2000 | Workload::PaperProactive => traced_supervised(workload, seed, tracer),
        Workload::Sharded2000 => traced_sharded(workload, seed, tracer),
    }
}

/// `SupervisedRun::step`, one layer call at a time.
fn traced_supervised(
    workload: Workload,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<TracedRepeat, String> {
    let start = Instant::now();
    let sim = workload.sim(seed);
    let env = workload.environment(seed);
    let env_s = start.elapsed().as_secs_f64();
    let (landscape, mut engine) = engine(env, &sim);
    let mut metrics = metrics_shell(&sim, &landscape);
    let mut supervisor = Supervisor::with_config(landscape, supervisor_config(workload, &sim));
    let mut rng = Rng::seed_from_u64(sim.seed);
    let mut counters = Counters::default();
    let dead: BTreeSet<InstanceId> = BTreeSet::new();
    let mut time = SimTime::ZERO;
    let ticks = sim.num_ticks() as u32;
    for tick in 0..ticks {
        let tick_start = Instant::now();
        time += sim.tick;

        let t = Instant::now();
        let loads = engine.advance(supervisor.landscape(), &dead, time, &mut rng, &mut metrics);
        tracer.stop(t, tick, Layer::Simulator);

        let t = Instant::now();
        for (server, cpu, mem) in loads.server_entries() {
            supervisor.record_server(server, time, cpu, mem);
            counters.measurements += 1;
        }
        for (service, cpu) in loads.service_entries() {
            supervisor.record_service(service, time, cpu);
            counters.measurements += 1;
        }
        for (instance, cpu) in loads.instance_entries() {
            supervisor.record_instance(instance, time, cpu);
            counters.measurements += 1;
        }
        tracer.stop(t, tick, Layer::Monitor);

        let t = Instant::now();
        let collected = supervisor.tick_collect(time);
        tracer.stop(t, tick, Layer::Interval);
        let (mut records, triggers) = collected.map_err(|e| e.to_string())?;
        counters.triggers += triggers.len() as u64;
        for trigger in triggers {
            let t = Instant::now();
            let dispatched = supervisor.dispatch_trigger(trigger, time);
            tracer.stop(t, tick, Layer::Dispatch);
            counters.decisions += 1;
            records.extend(dispatched.map_err(|e| e.to_string())?);
        }

        for record in records {
            engine.note_action(&record.outcome, supervisor.landscape(), time);
            metrics.actions.push(record);
        }
        metrics.alerts += alerts(supervisor.drain_events());
        for event in supervisor.drain_execution_events() {
            counters.count_execution(&event);
        }
        tracer.stop(tick_start, tick, Layer::Tick);
    }
    counters.add_cache(supervisor.controller().score_cache_stats());
    counters.firings = supervisor.proactive_firings().len() as u64;
    counters.lead_s_total = supervisor
        .proactive_firings()
        .iter()
        .map(|f| f.lead().as_secs())
        .sum();
    counters.revisions = supervisor.landscape().revision();
    Ok(TracedRepeat::new(env_s, ticks, &metrics, counters))
}

/// `ShardedRun::step` without shard chaos (no host failures, no owner
/// kills), one plane call at a time.
fn traced_sharded(
    workload: Workload,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<TracedRepeat, String> {
    let start = Instant::now();
    let sim = workload.sim(seed);
    let env = workload.environment(seed);
    let env_s = start.elapsed().as_secs_f64();
    let (landscape, mut engine) = engine(env, &sim);
    let mut metrics = metrics_shell(&sim, &landscape);
    let mut plane = ShardedControlPlane::new(landscape, SHARDS, supervisor_config(workload, &sim))
        .with_jobs(PLANE_JOBS)
        .with_replication(ReplicationMode::Delta);
    let mut rng = Rng::seed_from_u64(sim.seed);
    let mut counters = Counters::default();
    let dead: BTreeSet<InstanceId> = BTreeSet::new();
    let mut time = SimTime::ZERO;
    let ticks = sim.num_ticks() as u32;
    for tick in 0..ticks {
        let tick_start = Instant::now();
        time += sim.tick;

        let t = Instant::now();
        let loads = engine.advance(plane.landscape(), &dead, time, &mut rng, &mut metrics);
        tracer.stop(t, tick, Layer::Simulator);

        let t = Instant::now();
        for (server, cpu, mem) in loads.server_entries() {
            plane.record_server(server, time, cpu, mem);
            counters.measurements += 1;
        }
        for (service, cpu) in loads.service_entries() {
            plane.record_service(service, time, cpu);
            counters.measurements += 1;
        }
        for (instance, cpu) in loads.instance_entries() {
            plane.record_instance(instance, time, cpu);
            counters.measurements += 1;
        }
        tracer.stop(t, tick, Layer::ShardedRecord);

        let t = Instant::now();
        let servers: Vec<ServerId> = plane.landscape().server_ids().collect();
        for server in servers {
            plane.beat(Subject::Server(server), time);
        }
        tracer.stop(t, tick, Layer::ShardedBeat);

        let t = Instant::now();
        let report = plane.tick(time);
        tracer.stop(t, tick, Layer::ShardedTick);
        let report = report.map_err(|e| e.to_string())?;
        if !report.recoveries.is_empty() {
            return Err("a host failed in a workload that injects no failures".into());
        }
        for record in report.executed {
            engine.note_action(&record.outcome, plane.landscape(), time);
            metrics.actions.push(record);
        }
        counters.plane_fenced += report.fenced as u64;
        counters.dropped_triggers += report.dropped_triggers as u64;
        counters.delta_loads += plane
            .last_deltas()
            .iter()
            .map(|d| d.loads.len() as u64)
            .sum::<u64>();
        metrics.alerts += alerts(plane.drain_controller_events());
        tracer.stop(tick_start, tick, Layer::Tick);
    }
    for i in 0..plane.shards() {
        counters.add_cache(plane.supervisor(i).controller().score_cache_stats());
    }
    counters.ingest = plane.ingest_stats();
    counters.revisions = plane.landscape().revision();
    Ok(TracedRepeat::new(env_s, ticks, &metrics, counters))
}

/// `ChaosRun::step`, one layer call at a time. The benchmark keeps the
/// ground truth (down hosts, crashed instances, repairs, lost instances
/// awaiting a host) and rolls the failure and heartbeat-loss dice from the
/// same streams in the same order as the harness; the supervisor learns of
/// a failure only through missing heartbeats. The interval is closed with
/// `tick_collect` and one `dispatch_trigger` per trigger, which
/// `Supervisor::tick` is documented to equal.
fn traced_chaos(
    workload: Workload,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<TracedRepeat, String> {
    let start = Instant::now();
    let sim = workload.sim(seed);
    let env = workload.environment(seed);
    let env_s = start.elapsed().as_secs_f64();
    let failures = sim.failures.ok_or("paper-chaos must inject failures")?;
    let detection = sim
        .heartbeats
        .ok_or("paper-chaos must detect by heartbeat")?;
    if ScenarioSpec::from(SCENARIO).has_events() {
        return Err("the chaos driver replays no scheduled events".into());
    }
    let (landscape, mut engine) = engine(env, &sim);
    let mut metrics = metrics_shell(&sim, &landscape);
    // The executor and heartbeat-loss seeds: the first two draws of the
    // SplitMix64 chain every chaos harness derives from the master seed.
    let mut state = sim.seed ^ 0x9E37_79B9_7F4A_7C15;
    let executor_seed = splitmix64(&mut state);
    let loss_seed = splitmix64(&mut state);
    let config = SupervisorConfig {
        controller: sim.controller,
        executor: sim.execution.clone().unwrap_or_default(),
        executor_seed,
        heartbeats: HeartbeatConfig {
            miss_threshold: detection.miss_threshold,
            confirm_after: detection.confirm_after,
        },
        ..SupervisorConfig::default()
    };
    let mut supervisor = Supervisor::with_config(landscape, config);
    let servers: Vec<ServerId> = supervisor.landscape().server_ids().collect();
    for server in servers {
        supervisor.watch(Subject::Server(server));
    }
    let instances: Vec<InstanceId> = supervisor.landscape().instances().map(|i| i.id).collect();
    for instance in instances {
        supervisor.watch(Subject::Instance(instance));
    }
    let mut rng = Rng::seed_from_u64(sim.seed);
    let mut loss_rng = Rng::seed_from_u64(loss_seed);
    let mut down: BTreeMap<ServerId, SimTime> = BTreeMap::new();
    let mut crashed: BTreeMap<InstanceId, SimTime> = BTreeMap::new();
    let mut repairs: Vec<(SimTime, ServerId)> = Vec::new();
    let mut restarts: Vec<(ServiceId, InstanceId, SimTime)> = Vec::new();
    let mut counters = Counters::default();
    let tick_hours = sim.tick.as_secs() as f64 / 3600.0;
    let mut time = SimTime::ZERO;
    let ticks = sim.num_ticks() as u32;
    for tick in 0..ticks {
        let tick_start = Instant::now();
        time += sim.tick;
        let now = time;

        let dead: BTreeSet<InstanceId> = supervisor
            .landscape()
            .instances()
            .filter(|i| crashed.contains_key(&i.id) || down.contains_key(&i.server))
            .map(|i| i.id)
            .collect();
        let t = Instant::now();
        let loads = engine.advance(supervisor.landscape(), &dead, now, &mut rng, &mut metrics);
        tracer.stop(t, tick, Layer::Simulator);

        // A down host and a dead instance report nothing.
        let t = Instant::now();
        for (server, cpu, mem) in loads.server_entries() {
            if !down.contains_key(&server) {
                supervisor.record_server(server, now, cpu, mem);
                counters.measurements += 1;
            }
        }
        for (service, cpu) in loads.service_entries() {
            supervisor.record_service(service, now, cpu);
            counters.measurements += 1;
        }
        for (instance, cpu) in loads.instance_entries() {
            if !dead.contains(&instance) {
                supervisor.record_instance(instance, now, cpu);
                counters.measurements += 1;
            }
        }
        tracer.stop(t, tick, Layer::Monitor);

        // Repaired hosts rejoin the pool with a fresh heartbeat state.
        let t = Instant::now();
        let mut repaired = Vec::new();
        repairs.retain(|&(at, server)| {
            let due = now >= at;
            if due {
                repaired.push(server);
            }
            !due
        });
        for server in repaired {
            let _ = supervisor.report_server_repaired(server, now);
            down.remove(&server);
            metrics.repairs += 1;
            supervisor.unwatch(Subject::Server(server));
            supervisor.watch(Subject::Server(server));
        }
        tracer.stop(t, tick, Layer::Recovery);

        // New instances on live hosts are watched.
        let t = Instant::now();
        let fresh: Vec<InstanceId> = supervisor
            .landscape()
            .instances()
            .filter(|i| !down.contains_key(&i.server))
            .map(|i| i.id)
            .collect();
        for instance in fresh {
            supervisor.watch(Subject::Instance(instance));
        }
        tracer.stop(t, tick, Layer::Heartbeat);

        // Ground-truth failure dice: available servers ascending, then live
        // instances ascending.
        let servers: Vec<ServerId> = supervisor
            .landscape()
            .server_ids()
            .filter(|&s| supervisor.landscape().is_available(s))
            .collect();
        for server in servers {
            if rng.random_bool(failures.server_failure_per_hour * tick_hours) {
                metrics.failures += 1;
                down.insert(server, now);
                let _ = supervisor.landscape_mut().set_available(server, false);
                repairs.push((now + failures.repair_after, server));
                for instance in supervisor.landscape().instances_on(server) {
                    supervisor.unwatch(Subject::Instance(instance));
                    metrics.lost_sessions +=
                        engine.sever_sessions(supervisor.landscape(), instance);
                }
            }
        }
        let alive: Vec<InstanceId> = supervisor
            .landscape()
            .instances()
            .filter(|i| !crashed.contains_key(&i.id) && !down.contains_key(&i.server))
            .map(|i| i.id)
            .collect();
        for instance in alive {
            if rng.random_bool(failures.instance_crash_per_hour * tick_hours) {
                metrics.failures += 1;
                crashed.insert(instance, now);
                metrics.lost_sessions += engine.sever_sessions(supervisor.landscape(), instance);
            }
        }

        // Everything alive beats, unless the network loses the beat.
        let t = Instant::now();
        for subject in supervisor.watched() {
            let alive = match subject {
                Subject::Server(s) => !down.contains_key(&s),
                Subject::Instance(i) => {
                    !crashed.contains_key(&i)
                        && supervisor
                            .landscape()
                            .instance(i)
                            .map(|inst| !down.contains_key(&inst.server))
                            .unwrap_or(false)
                }
                Subject::Service(_) => true,
            };
            // The loss die is rolled for live subjects only.
            let loss = detection.loss_probability;
            if alive && !(loss > 0.0 && loss_rng.random_bool(loss)) {
                supervisor.beat(subject, now).map_err(|e| e.to_string())?;
            }
        }
        tracer.stop(t, tick, Layer::Heartbeat);

        let t = Instant::now();
        let collected = supervisor.tick_collect(now);
        tracer.stop(t, tick, Layer::Interval);
        let (mut records, triggers) = collected.map_err(|e| e.to_string())?;
        counters.triggers += triggers.len() as u64;
        for trigger in triggers {
            let t = Instant::now();
            let dispatched = supervisor.dispatch_trigger(trigger, now);
            tracer.stop(t, tick, Layer::Dispatch);
            counters.decisions += 1;
            records.extend(dispatched.map_err(|e| e.to_string())?);
        }
        for record in records {
            engine.note_action(&record.outcome, supervisor.landscape(), now);
            metrics.actions.push(record);
        }

        // Confirmed failures: detection latency against the ground truth,
        // recovery time, lost work. A confirmed host that was healthy was
        // quarantined and re-certifies after a repair-length wait.
        for recovery in supervisor.drain_recoveries() {
            let failed_at = match recovery.subject {
                Subject::Server(server) => {
                    let failed_at = down.get(&server).copied();
                    match failed_at {
                        Some(at) => {
                            metrics.detections += 1;
                            metrics.detection_latency_secs += now.since(at).as_secs();
                        }
                        None => repairs.push((now + failures.repair_after, server)),
                    }
                    failed_at
                }
                Subject::Instance(instance) => {
                    let failed_at = crashed.remove(&instance);
                    if let Some(at) = failed_at {
                        metrics.detections += 1;
                        metrics.detection_latency_secs += now.since(at).as_secs();
                    }
                    failed_at
                }
                Subject::Service(_) => None,
            }
            .unwrap_or(now);
            let recovered = recovery.outcome.recovered.len();
            metrics.recoveries += recovered;
            metrics.recovery_time_secs += now.since(failed_at).as_secs() * recovered as u64;
            metrics.lost_instances += recovery.outcome.lost.len();
            for (old_instance, service) in recovery.outcome.lost {
                restarts.push((service, old_instance, failed_at));
            }
        }
        for event in supervisor.drain_heartbeat_events() {
            match event {
                HeartbeatEvent::Suspected { .. } => metrics.suspected_failures += 1,
                HeartbeatEvent::Reconciled { .. } => metrics.reconciliations += 1,
                HeartbeatEvent::Confirmed { .. } => {}
            }
        }

        // Lost instances stay queued until a feasible host exists.
        let t = Instant::now();
        let mut still_lost = Vec::new();
        for (service, old_instance, failed_at) in std::mem::take(&mut restarts) {
            match supervisor.retry_restart(service, old_instance, now) {
                Some(_) => {
                    metrics.recoveries += 1;
                    metrics.lost_instances -= 1;
                    metrics.recovery_time_secs += now.since(failed_at).as_secs();
                }
                None => still_lost.push((service, old_instance, failed_at)),
            }
        }
        restarts = still_lost;
        tracer.stop(t, tick, Layer::Recovery);

        for event in supervisor.drain_execution_events() {
            counters.count_execution(&event);
        }
        metrics.alerts += alerts(supervisor.drain_events());
        let landscape = supervisor.landscape();
        crashed.retain(|i, _| landscape.instance(*i).is_ok());
        tracer.stop(tick_start, tick, Layer::Tick);
    }
    counters.add_cache(supervisor.controller().score_cache_stats());
    counters.revisions = supervisor.landscape().revision();
    Ok(TracedRepeat::new(env_s, ticks, &metrics, counters))
}
