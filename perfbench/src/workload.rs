//! The four workloads: how each one's landscape and configuration are built
//! from the seed, the untraced harness that drives it through the public
//! `RunBuilder` terminals, and the reference runs its output must equal.

use autoglobe::controller::ExecutorConfig;
use autoglobe::forecast::ProactiveConfig;
use autoglobe::monitor::SimDuration;
use autoglobe::simulator::sap::SapEnvironment;
use autoglobe::simulator::{
    build_environment, FailureInjection, HeartbeatDetection, Metrics, Scenario, SimConfig,
};
use autoglobe::{ChaosRun, ReplicationMode, RunBuilder, ShardedRun, SupervisedRun};
use autoglobe_bench as reference;
use autoglobe_rng::splitmix64;
use std::time::Instant;

/// Every workload runs the paper's constrained-mobility scenario (Fig 13).
pub const SCENARIO: Scenario = Scenario::ConstrainedMobility;
/// The chaos sweep point `paper-chaos` reproduces.
pub const CHAOS_SCALE: f64 = 4.0;
/// Servers in the synthetic landscape of `synth-2000` and `sharded-2000`.
pub const SYNTH_SERVERS: usize = 2000;
/// Shards (supervisor replicas) of `sharded-2000`.
pub const SHARDS: usize = 2;
/// Scoped-thread fan-out of the sharded plane: two threads, the `nproc`
/// the benchmark is sized for.
pub const PLANE_JOBS: usize = 2;

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperChaos,
    Synth2000,
    Sharded2000,
    PaperProactive,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperChaos,
        Workload::Synth2000,
        Workload::Sharded2000,
        Workload::PaperProactive,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperChaos => "paper-chaos",
            Workload::Synth2000 => "synth-2000",
            Workload::Sharded2000 => "sharded-2000",
            Workload::PaperProactive => "paper-proactive",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated horizon of one repeat: at least 1,000 one-minute ticks, so
    /// a horizon has ten ticks beyond its p99. `paper-proactive` needs 80 h:
    /// the forecaster has too little history to fire before about 40 h.
    pub fn hours(self) -> u64 {
        match self {
            Workload::PaperChaos => 24,
            Workload::Synth2000 | Workload::Sharded2000 => 18,
            Workload::PaperProactive => 80,
        }
    }

    /// How many seeds one invocation measures. Where a horizon is cheap, an
    /// ensemble of independent inputs averages out how much one seed's
    /// failures and load swings happen to cost.
    pub fn ensemble(self) -> usize {
        match self {
            Workload::PaperChaos => 8,
            Workload::PaperProactive => 1,
            Workload::Synth2000 | Workload::Sharded2000 => 1,
        }
    }

    /// Rounds per measured group, whose per-tick minimum gives one set of
    /// host-time figures (see `Group` in `main.rs`). The paper workloads'
    /// ticks take microseconds and a run fits dozens of rounds, so a group
    /// spans several seconds of host time and its minimum rides out the
    /// host's slow spells. A 2,000-server run fits only 6–10 rounds; there a
    /// group is one round, a plain run of the program.
    pub fn group_rounds(self) -> usize {
        match self {
            Workload::PaperChaos => 16,
            Workload::PaperProactive => 12,
            Workload::Synth2000 | Workload::Sharded2000 => 1,
        }
    }

    /// The ensemble's seeds: the workload seed itself, then a SplitMix64
    /// chain from it.
    pub fn seeds(self, seed: u64) -> Vec<u64> {
        let mut state = seed ^ 0x5EED_BE4C_0000;
        std::iter::once(seed)
            .chain((1..self.ensemble()).map(|_| splitmix64(&mut state)))
            .collect()
    }

    /// The simulation configuration built from the workload seed.
    pub fn sim(self, seed: u64) -> SimConfig {
        let multiplier = match self {
            Workload::Synth2000 | Workload::Sharded2000 => 1.0,
            Workload::PaperChaos | Workload::PaperProactive => 1.15,
        };
        let sim = SimConfig::paper(SCENARIO, multiplier)
            .with_duration(SimDuration::from_hours(self.hours()))
            .with_seed(seed);
        match self {
            Workload::PaperChaos => sim
                .with_failures(FailureInjection {
                    instance_crash_per_hour: reference::CHAOS_INSTANCE_CRASH_PER_HOUR * CHAOS_SCALE,
                    server_failure_per_hour: reference::CHAOS_SERVER_FAILURE_PER_HOUR * CHAOS_SCALE,
                    repair_after: SimDuration::from_hours(1),
                })
                .with_execution(ExecutorConfig {
                    min_latency: SimDuration::from_secs(30),
                    max_latency: SimDuration::from_minutes(3),
                    timeout: SimDuration::from_minutes(2),
                    failure_probability: (reference::CHAOS_EXEC_FAILURE_PROBABILITY * CHAOS_SCALE)
                        .min(0.5),
                    ..ExecutorConfig::reliable()
                })
                .with_heartbeats(HeartbeatDetection {
                    miss_threshold: 3,
                    confirm_after: 2,
                    loss_probability: 0.01,
                }),
            Workload::PaperProactive => sim.with_execution(ExecutorConfig {
                min_latency: reference::PROACTIVE_MIN_LATENCY,
                max_latency: reference::PROACTIVE_MAX_LATENCY,
                timeout: SimDuration::from_minutes(60),
                ..ExecutorConfig::reliable()
            }),
            Workload::Synth2000 | Workload::Sharded2000 => sim,
        }
    }

    /// The landscape and workloads built from the workload seed: the paper's
    /// 19-server pool, or a seeded synthetic 2,000-server landscape.
    pub fn environment(self, seed: u64) -> SapEnvironment {
        match self {
            Workload::PaperChaos | Workload::PaperProactive => build_environment(SCENARIO),
            Workload::Synth2000 | Workload::Sharded2000 => {
                reference::scale_environment(SYNTH_SERVERS, seed)
            }
        }
    }

    /// Proactive triggering, for the one workload that forecasts.
    pub fn proactive(self) -> Option<ProactiveConfig> {
        (self == Workload::PaperProactive).then(ProactiveConfig::default)
    }

    /// Assemble the untraced harness through the public builder.
    pub fn assemble(self, env: SapEnvironment, sim: &SimConfig) -> Harness {
        let mut builder = RunBuilder::new(SCENARIO).sim(sim.clone()).environment(env);
        if let Some(proactive) = self.proactive() {
            builder = builder.proactive(proactive);
        }
        match self {
            Workload::PaperChaos => Harness::Chaos(builder.chaos_run()),
            Workload::Synth2000 | Workload::PaperProactive => {
                Harness::Supervised(builder.supervised())
            }
            Workload::Sharded2000 => Harness::Sharded(
                builder
                    .shards(SHARDS)
                    .replication(ReplicationMode::Delta)
                    .plane_jobs(PLANE_JOBS)
                    .sharded(),
            ),
        }
    }

    /// The outputs this workload's run at `seed` must equal, each computed
    /// by a path other than the measured one, with that path's name:
    /// - `paper-chaos`: the benchmark's own driver of the public
    ///   `Supervisor` API, which mirrors `ChaosRun::step` call for call (the
    ///   traced driver, its spans discarded), and `chaos_run` of the chaos
    ///   sweep, which checks that the copied configuration is the sweep's;
    /// - `synth-2000`: the same input through a 1-shard
    ///   `ShardedControlPlane`, which reproduces a supervised run bit for
    ///   bit;
    /// - `sharded-2000`: the unsharded `synth-2000` run of the same input;
    /// - `paper-proactive`: the same input through a 1-shard plane, and
    ///   `proactive_run` of the proactive experiment.
    pub fn references(self, seed: u64) -> Result<Vec<(&'static str, String)>, String> {
        Ok(match self {
            Workload::PaperChaos => {
                let mut scratch = crate::trace::Tracer::new();
                let mirror = crate::trace::traced_repeat(self, seed, &mut scratch)?;
                vec![
                    ("the public-API chaos driver", mirror.digest),
                    (
                        "chaos_run",
                        output_digest(&reference::chaos_run(CHAOS_SCALE, self.hours(), seed)),
                    ),
                ]
            }
            Workload::Synth2000 => vec![("a 1-shard plane", self.one_shard_plane(seed))],
            Workload::Sharded2000 => {
                let synth = Workload::Synth2000;
                let sim = synth.sim(seed);
                let mut run = synth.assemble(synth.environment(seed), &sim);
                for _ in 0..sim.num_ticks() {
                    run.step();
                }
                vec![("the synth-2000 run", output_digest(run.metrics()))]
            }
            Workload::PaperProactive => vec![
                ("a 1-shard plane", self.one_shard_plane(seed)),
                (
                    "proactive_run",
                    output_digest(&reference::proactive_run(true, self.hours(), seed)),
                ),
            ],
        })
    }

    /// The workload's input at `seed` run through a 1-shard
    /// `ShardedControlPlane` instead of a `SupervisedRun`.
    fn one_shard_plane(self, seed: u64) -> String {
        let sim = self.sim(seed);
        let mut builder = RunBuilder::new(SCENARIO)
            .sim(sim)
            .environment(self.environment(seed));
        if let Some(proactive) = self.proactive() {
            builder = builder.proactive(proactive);
        }
        let (metrics, _) = builder
            .shards(1)
            .replication(ReplicationMode::Delta)
            .sharded()
            .run();
        output_digest(&metrics)
    }
}

/// What the output checks compare: `autoglobe_bench::metrics_digest` (every
/// action record, alerts, overload time, offered demand) plus the exact bits
/// of every [`Outcome`] field, which the digest leaves out.
pub fn output_digest(m: &Metrics) -> String {
    let o = Outcome::of(m);
    let mut out = reference::metrics_digest(m);
    for (name, value) in [
        ("unserved_pct", o.unserved_pct),
        ("mttr_s", o.mttr_s),
        ("lost_sessions", o.lost_sessions),
        ("suspicions", o.suspicions),
        ("reconciliations", o.reconciliations),
        ("detections", o.detections),
        ("detection_latency_s", o.detection_latency_s),
    ] {
        out.push_str(&format!("{name},{:016x}\n", value.to_bits()));
    }
    out
}

/// One of the three public run harnesses. Only one lives at a time, so the
/// variants' sizes do not matter.
#[allow(clippy::large_enum_variant)]
pub enum Harness {
    Supervised(SupervisedRun),
    Chaos(ChaosRun),
    Sharded(ShardedRun),
}

impl Harness {
    /// One closed-loop control interval.
    pub fn step(&mut self) {
        match self {
            Harness::Supervised(run) => run.step(),
            Harness::Chaos(run) => run.step(),
            Harness::Sharded(run) => run.step(),
        }
    }

    pub fn metrics(&self) -> &Metrics {
        match self {
            Harness::Supervised(run) => run.metrics(),
            Harness::Chaos(run) => run.metrics(),
            Harness::Sharded(run) => run.metrics(),
        }
    }
}

/// The simulated outcomes of one horizon, and the counts the per-layer
/// report reads from [`Metrics`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    /// Server-minutes above the overload level.
    pub overload_min: f64,
    /// Share of offered demand left unserved, in percent.
    pub unserved_pct: f64,
    /// Mean time from failure to restart, in seconds.
    pub mttr_s: f64,
    /// Users whose sessions a failure severed.
    pub lost_sessions: f64,
    pub actions: f64,
    pub alerts: f64,
    pub suspicions: f64,
    pub reconciliations: f64,
    pub detections: f64,
    pub detection_latency_s: f64,
}

impl Outcome {
    pub fn of(m: &Metrics) -> Outcome {
        Outcome {
            overload_min: m.total_overload().as_secs() as f64 / 60.0,
            unserved_pct: 100.0 * m.unserved_fraction(),
            mttr_s: m.mean_time_to_recovery_secs(),
            lost_sessions: m.lost_sessions,
            actions: m.actions.len() as f64,
            alerts: m.alerts as f64,
            suspicions: m.suspected_failures as f64,
            reconciliations: m.reconciliations as f64,
            detections: m.detections as f64,
            detection_latency_s: m.detection_latency_secs as f64,
        }
    }
}

/// What one untraced horizon produced.
pub struct Repeat {
    /// Seconds to build the landscape.
    pub env_s: f64,
    /// Host time of every tick, in nanoseconds.
    pub tick_ns: Vec<u64>,
    /// [`output_digest`] of the run's outputs.
    pub digest: String,
    pub outcome: Outcome,
}

/// Seconds to build the landscape and assemble the harness, without running
/// it.
pub fn setup(workload: Workload, seed: u64) -> f64 {
    let start = Instant::now();
    let sim = workload.sim(seed);
    let run = workload.assemble(workload.environment(seed), &sim);
    let secs = start.elapsed().as_secs_f64();
    drop(std::hint::black_box(run));
    secs
}

/// Build, assemble and run one full horizon through the public harness,
/// timing each tick from outside.
pub fn untraced_repeat(workload: Workload, seed: u64) -> Repeat {
    let start = Instant::now();
    let sim = workload.sim(seed);
    let env = workload.environment(seed);
    let env_s = start.elapsed().as_secs_f64();
    let mut run = workload.assemble(env, &sim);
    let ticks = sim.num_ticks();
    let mut tick_ns = Vec::with_capacity(ticks as usize);
    for _ in 0..ticks {
        let t = Instant::now();
        run.step();
        tick_ns.push(t.elapsed().as_nanos() as u64);
    }
    Repeat {
        env_s,
        tick_ns,
        digest: output_digest(run.metrics()),
        outcome: Outcome::of(run.metrics()),
    }
}
