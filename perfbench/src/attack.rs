//! The two attack workloads: PoisonRec (BCBT-Popular) against an
//! in-process system (`attack-local`) and against a served one over a
//! keep-alive socket (`attack-wire`).

use std::time::Instant;

use datasets::PaperDataset;
use poisonrec::{
    ActionSpaceKind, PoisonRecConfig, PoisonRecTrainer, PolicyConfig, PpoConfig, StepStats,
};
use recsys::defense::DefenseStack;
use recsys::rankers::RankerKind;
use recsys::remote::RemoteSystem;
use recsys::system::{BlackBoxSystem, ObservableSystem, SystemConfig};
use serve::{RecApp, Server, ServerConfig};

use crate::layers::{self, AccessLog, Registry, TimedSystem};
use crate::report::{self, Metrics, StealClock};
use crate::stats::{self, Digest};
use crate::{Outcome, Run, Workload};

/// Set-up repetitions per run; `setup_s` is their median. The first
/// `SETUP_BEFORE` run before the attack, which attacks the last of
/// them, and the rest after it: the host's speed drifts over seconds,
/// so the median samples both ends of the run rather than one stretch.
const SETUP_REPS: usize = 25;
const SETUP_BEFORE: usize = 13;

/// Steps the reward digest covers; every run completes at least these.
/// Traced runs also count per-step work over their first this-many
/// traced steps, so the counts repeat exactly for a seed.
const DIGEST_STEPS: usize = 8;

/// One attack cell: the victim and the attacker's size.
struct Cell {
    dataset: PaperDataset,
    ranker: RankerKind,
    scale: f64,
    eval_users: usize,
    attackers: usize,
    trajectory: usize,
    dim: usize,
    episodes: usize,
}

/// The E1 real-step cell: Phone twin × BPR, where the M parallel BPR
/// retrains and the PPO update carry the step.
const LOCAL: Cell = Cell {
    dataset: PaperDataset::Phone,
    ranker: RankerKind::Bpr,
    scale: 0.12,
    eval_users: 256,
    attackers: 20,
    trajectory: 20,
    dim: 16,
    episodes: 8,
};

/// Steam twin × CoVisitation with a small policy: retrains are cheap,
/// so the 2+E round trips of each observation carry the step.
const WIRE: Cell = Cell {
    dataset: PaperDataset::Steam,
    ranker: RankerKind::CoVisitation,
    scale: 0.1,
    eval_users: 64,
    attackers: 16,
    trajectory: 20,
    dim: 4,
    episodes: 4,
};

impl Cell {
    fn system_config(&self, seed: u64) -> SystemConfig {
        SystemConfig {
            eval_users: self.eval_users,
            seed,
            reserve_attackers: 32,
            ..SystemConfig::default()
        }
    }

    fn trainer_config(&self, seed: u64) -> PoisonRecConfig {
        PoisonRecConfig {
            policy: PolicyConfig {
                dim: self.dim,
                num_attackers: self.attackers,
                trajectory_len: self.trajectory,
                init_scale: 0.1,
            },
            ppo: PpoConfig {
                samples_per_step: self.episodes,
                batch: self.episodes,
                ..PpoConfig::default()
            },
            action_space: ActionSpaceKind::BcbtPopular,
            seed: seed ^ 0xBE7C,
            threads: report::nproc(),
        }
    }

    fn build(&self, seed: u64, times: &mut SetupTimes) -> BlackBoxSystem {
        build_victim(
            self.dataset,
            self.ranker,
            self.scale,
            self.system_config(seed),
            times,
        )
    }

    /// One set-up repetition: builds the victim and, on the wire, serves
    /// it and connects.
    fn set_up(
        &self,
        wire: bool,
        seed: u64,
        access_log: &std::path::Path,
        times: &mut SetupTimes,
    ) -> Victim {
        let _span = telemetry::trace::span("setup", "bench");
        let start = Instant::now();
        let system = self.build(seed, times);
        let built = if wire {
            let server = timed(&mut times.start, "server_start", || {
                start_server(system, None, access_log)
            });
            Victim::Wire {
                remote: RemoteSystem::connect(server.local_addr().to_string())
                    .expect("connect to the served system"),
                server,
            }
        } else {
            Victim::Local(system)
        };
        times.total.push(start.elapsed().as_secs_f64());
        built
    }
}

/// Generates the dataset (seeded by `cfg.seed`) and fits the victim,
/// timing each phase.
pub fn build_victim(
    dataset: PaperDataset,
    ranker: RankerKind,
    scale: f64,
    cfg: SystemConfig,
    times: &mut SetupTimes,
) -> BlackBoxSystem {
    let data = timed(&mut times.generate, "generate", || {
        dataset.generate_scaled(scale, cfg.seed)
    });
    timed(&mut times.fit, "fit", || {
        let ranker = ranker.build(&recsys::data::LogView::clean(&data), cfg.reserve_attackers);
        BlackBoxSystem::build(data, ranker, cfg)
    })
}

/// Runs `f` inside a `bench/<name>` span, appending its wall time to `log`.
pub fn timed<T>(log: &mut Vec<f64>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = telemetry::trace::span(name, "bench");
    let start = Instant::now();
    let out = f();
    log.push(start.elapsed().as_secs_f64());
    out
}

/// Serves `system` on an OS-assigned port with one handler thread and
/// an access log.
pub fn start_server(
    system: BlackBoxSystem,
    defense: Option<DefenseStack>,
    access_log: &std::path::Path,
) -> Server {
    let cfg = ServerConfig::builder()
        .threads(1)
        .access_log(access_log)
        .build()
        .expect("valid server config");
    Server::start(RecApp::new(system, defense), cfg).expect("bind 127.0.0.1:0")
}

/// Per-phase set-up times, one entry per repetition.
#[derive(Default)]
pub struct SetupTimes {
    pub total: Vec<f64>,
    pub generate: Vec<f64>,
    pub fit: Vec<f64>,
    pub calibrate: Vec<f64>,
    pub start: Vec<f64>,
}

impl SetupTimes {
    pub fn push_metrics(&self, out: &mut Metrics) {
        let reps = self.total.len() as u64;
        let med = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
        out.push("setup_s", med(&self.total), "s", reps);
        out.push("datasets.generate_s", med(&self.generate), "s", reps);
        out.push("rankers.fit_s", med(&self.fit), "s", reps);
        out.push(
            "defense.calibrate_s",
            med(&self.calibrate),
            "s",
            self.calibrate.len() as u64,
        );
        out.push(
            "serve.start_s",
            med(&self.start),
            "s",
            self.start.len() as u64,
        );
    }
}

/// The victim an attack runs against.
enum Victim {
    Local(BlackBoxSystem),
    Wire {
        server: Server,
        remote: RemoteSystem,
    },
}

/// One trainer step as the benchmark saw it.
struct StepRecord {
    wall: f64,
    stats: StepStats,
    traced: bool,
    /// CPU seconds the hypervisor stole from this machine during the
    /// step, summed over its CPUs.
    stolen_s: f64,
    /// `(batch size, seconds)` of the step's observe batches.
    batches: Vec<(usize, f64)>,
    registry: Registry,
}

pub fn run(run: &Run) -> Outcome {
    let wire = run.workload == Workload::AttackWire;
    let cell = if wire { &WIRE } else { &LOCAL };
    let access_log = run.file("access.jsonl");
    let mut metrics = Metrics::default();
    let mut violations = Vec::new();

    // ---- set-up, repeated; the last build is the one attacked --------
    if run.traced {
        layers::trace_reset();
        telemetry::trace::enable();
    }
    let mut times = SetupTimes::default();
    let mut victim = None;
    for rep in 0..SETUP_BEFORE {
        let built = cell.set_up(wire, run.seed, &access_log, &mut times);
        if rep + 1 == SETUP_BEFORE {
            victim = Some(built);
        } else if let Victim::Wire { server, .. } = built {
            let _ = server.shutdown();
        }
    }
    telemetry::trace::disable();
    let victim = victim.expect("at least one set-up repetition");

    // ---- the attack: untraced, or alternating traced/untraced steps --
    let system: &dyn ObservableSystem = match &victim {
        Victim::Local(system) => system,
        Victim::Wire { remote, .. } => remote,
    };
    let timed = TimedSystem::new(system);
    let mut trainer = PoisonRecTrainer::new(cell.trainer_config(run.seed), &timed);
    let requests_before = Registry::read().requests;
    let clock = Instant::now();
    let mut steps: Vec<StepRecord> = Vec::new();
    let mut counted_profile = None;
    let min_steps = if run.traced {
        2 * DIGEST_STEPS
    } else {
        DIGEST_STEPS
    };
    while steps.len() < min_steps || clock.elapsed().as_secs_f64() < run.seconds as f64 {
        let traced = run.traced && steps.len() % 2 == 1;
        if traced {
            telemetry::trace::enable();
        }
        let before = Registry::read();
        let span = telemetry::trace::span("step", "bench");
        let clock = StealClock::start();
        let stats = trainer.step(&timed);
        let (wall, stolen_s) = clock.read();
        drop(span);
        telemetry::trace::disable();
        steps.push(StepRecord {
            wall,
            stats,
            traced,
            stolen_s,
            batches: timed.take_batches(),
            registry: Registry::read().since(&before),
        });
        if traced && steps.iter().filter(|s| s.traced).count() == DIGEST_STEPS {
            counted_profile = Some(tensor::profile::snapshot());
        }
    }
    let attack_requests = Registry::read().requests - requests_before;
    // Read before the checks below, whose reference run and access-log
    // parse would otherwise set the peak.
    let peak_rss_mb = layers::peak_rss_mb();
    // ---- correctness, outside every timed region --------------------
    let m = cell.episodes as u64;
    let observations = steps.len() as u64 * m;
    let final_reward = steps.last().map_or(0.0, |s| s.stats.mean_reward);
    println!(
        "attack: {} step(s), {observations} observation(s), final mean RecNum {final_reward:.2}",
        steps.len()
    );
    if final_reward <= 0.0 {
        violations.push(format!(
            "final mean RecNum is {final_reward}: a zero reward cannot prove the reward path"
        ));
    }
    let spent = match &victim {
        Victim::Local(system) => system.observations_spent(),
        Victim::Wire { server, .. } => server.app().system().observations_spent(),
    };
    if spent != observations || trainer.history().last().map(|s| s.observations) != Some(spent) {
        violations.push(format!(
            "observations_spent is {spent}, expected steps × M = {observations}"
        ));
    }
    let digest = reward_digest(&trainer.history()[..DIGEST_STEPS]);
    println!("reward digest over the first {DIGEST_STEPS} steps: {digest}");
    if final_reward > 0.0 && wire {
        // The wire run must replay the in-process run exactly.
        let mut scratch = SetupTimes::default();
        let reference = cell.build(run.seed, &mut scratch);
        let mut local = PoisonRecTrainer::new(cell.trainer_config(run.seed), &reference);
        local.train(&reference, DIGEST_STEPS);
        let expected = reward_digest(local.history());
        if expected != digest {
            violations.push(format!(
                "wire digest {digest} differs from the in-process reference {expected}"
            ));
        } else {
            println!("wire digest equals the in-process reference");
        }
    }

    // The server's ledger and access log close at shutdown.
    let (log, generations) = match victim {
        Victim::Wire { server, remote } => {
            drop(remote);
            let generations = server.generation();
            let ledger = server.shutdown();
            if ledger.dropped() != 0 {
                violations.push(format!("server dropped {} request(s)", ledger.dropped()));
            }
            match AccessLog::read(&access_log) {
                Ok(log) => (Some(log), generations),
                Err(err) => {
                    violations.push(err);
                    (None, generations)
                }
            }
        }
        Victim::Local(_) => (None, 0),
    };

    // The remaining set-up repetitions, after the attack.
    let setup_log = run.file("setup-access.jsonl");
    for _ in SETUP_BEFORE..SETUP_REPS {
        if let Victim::Wire { server, .. } = cell.set_up(wire, run.seed, &setup_log, &mut times) {
            let _ = server.shutdown();
        }
    }
    times.push_metrics(&mut metrics);

    // ---- end-to-end (untraced steps) ----------------------------------
    // Each untraced step counts its wall time less the CPU time the
    // hypervisor stole from the machine meanwhile. Steal is time given
    // to other guests, which the program cannot cause; on a shared VM
    // its bursts stretch round trips on both sides of the socket and
    // otherwise dominate the run-to-run spread. Steal arrives in whole
    // ticks, so single steps are corrected coarsely, but every step of
    // every run is corrected the same way.
    let walls: Vec<f64> = steps.iter().filter(|s| !s.traced).map(|s| s.wall).collect();
    let net: Vec<f64> = steps
        .iter()
        .filter(|s| !s.traced)
        .map(|s| (s.wall - s.stolen_s).max(0.0))
        .collect();
    let stolen: f64 = walls.iter().sum::<f64>() - net.iter().sum::<f64>();
    println!(
        "{} untraced step(s); {stolen:.3} s of {:.3} s step time was stolen",
        net.len(),
        walls.iter().sum::<f64>()
    );
    let n_net = net.len() as u64;
    let net_obs = n_net * m;
    metrics.push("peak_rss_mb", peak_rss_mb, "MB", 1);
    metrics.push(
        "throughput_per_s",
        net_obs as f64 / net.iter().sum::<f64>(),
        "1/s",
        net_obs,
    );
    metrics.push("latency_s", stats::quantile(&net, 0.9), "s", n_net);
    metrics.push("error_rate", 0.0, "ratio", observations);
    let mut table = Metrics::default();
    table.copy(&metrics, "setup_s");
    table.copy(&metrics, "peak_rss_mb");
    table.copy(&metrics, "error_rate");
    table.copy_as(&metrics, "throughput_per_s", "attack.obs_per_s");
    table.push("attack.step_p50_s", stats::median(&net), "s", n_net);
    table.copy_as(&metrics, "latency_s", "attack.step_p90_s");
    // The highest percentile with at least ten steps beyond it.
    let tail_q = stats::tail_percentile(net.len(), 10);
    if tail_q > 0.9 {
        table.push(
            format!("attack.step_p{}_s", (tail_q * 100.0).round()),
            stats::quantile(&net, tail_q),
            "s",
            n_net,
        );
    }
    // The same figures from raw wall times, steal included.
    let all_obs = walls.len() as u64 * m;
    table.push(
        "attack.wall.obs_per_s",
        all_obs as f64 / walls.iter().sum::<f64>(),
        "1/s",
        all_obs,
    );
    table.push(
        "attack.wall.step_p50_s",
        stats::median(&walls),
        "s",
        walls.len() as u64,
    );
    table.push(
        "attack.wall.step_p90_s",
        stats::quantile(&walls, 0.9),
        "s",
        walls.len() as u64,
    );

    // ---- per-layer (traced steps of a traced run) --------------------
    if run.traced {
        let traced: Vec<&StepRecord> = steps.iter().filter(|s| s.traced).collect();
        push_layers(
            &mut metrics,
            &mut violations,
            run,
            counted_profile
                .as_ref()
                .expect("traced runs take at least 2 × DIGEST_STEPS steps"),
            &traced,
            &walls,
            steps
                .iter()
                .flat_map(|s| &s.batches)
                .map(|&(_, secs)| secs)
                .sum(),
            log.as_ref(),
            generations,
        );
    }
    if wire {
        // Exact request count per observation over the whole attack.
        let per_obs = attack_requests as f64 / observations as f64;
        let expected = 2 + cell.eval_users as u64;
        if attack_requests != expected * observations {
            violations.push(format!(
                "{attack_requests} request(s) for {observations} observation(s); expected 2+E = {expected} each"
            ));
        }
        metrics.push("wire.requests_per_obs", per_obs, "count", observations);
    }
    Outcome {
        metrics,
        table,
        violations,
        attempted: observations,
        failed: 0,
        digest: Some(digest),
    }
}

fn reward_digest(history: &[StepStats]) -> String {
    let mut digest = Digest::default();
    for s in history {
        digest.push_u32(s.mean_reward.to_bits());
        digest.push_u32(s.max_reward.to_bits());
    }
    digest.hex()
}

#[allow(clippy::too_many_arguments)]
fn push_layers(
    metrics: &mut Metrics,
    violations: &mut Vec<String>,
    run: &Run,
    counted: &tensor::OpProfile,
    traced: &[&StepRecord],
    untraced_walls: &[f64],
    all_batch_secs: f64,
    log: Option<&AccessLog>,
    generations: u64,
) {
    let n = traced.len() as u64;
    let pick = |f: fn(&StepRecord) -> f64| -> Vec<f64> { traced.iter().map(|s| f(s)).collect() };
    let sample = pick(|s| s.stats.sample_secs);
    let score = pick(|s| s.stats.score_secs);
    let update = pick(|s| s.stats.update_secs);
    let walls = pick(|s| s.wall);
    metrics.push("core.sample_s_p50", stats::median(&sample), "s", n);
    metrics.push("core.score_s_p50", stats::median(&score), "s", n);
    metrics.push("core.update_s_p50", stats::median(&update), "s", n);
    let covered: f64 = sample.iter().chain(&score).chain(&update).sum();
    let wall_sum: f64 = walls.iter().sum();
    let residual = 1.0 - covered / wall_sum;
    metrics.push("core.step_residual_frac", residual, "ratio", n);
    if residual > 0.1 {
        violations.push(format!(
            "sample + score + update cover only {:.1}% of step wall time",
            100.0 * (1.0 - residual)
        ));
    }

    let batches: Vec<(usize, f64)> = traced.iter().flat_map(|s| s.batches.clone()).collect();
    let batch_secs: Vec<f64> = batches.iter().map(|&(_, secs)| secs).collect();
    metrics.push(
        "system.observe_batch_s_p50",
        stats::median(&batch_secs),
        "s",
        batch_secs.len() as u64,
    );
    let mut reg = Registry::default();
    for s in traced {
        reg.add(&s.registry);
    }
    let per = |total: f64, count: u64| {
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    };
    metrics.push(
        "system.retrain_calls",
        per(reg.retrain_count as f64, n),
        "count",
        n,
    );
    metrics.push(
        "system.retrain_mean_s",
        per(reg.retrain_sum, reg.retrain_count),
        "s",
        reg.retrain_count,
    );
    // In-process observations retrain inside `observe`; the rest is the
    // RecNum evaluation. Served retrains happen outside any observe.
    let eval = if reg.observe_count > 0 {
        per(reg.observe_sum - reg.retrain_sum, reg.observe_count)
    } else {
        0.0
    };
    metrics.push("system.eval_mean_s", eval, "s", reg.observe_count);
    metrics.push("runtime.jobs", per(reg.jobs as f64, n), "count", n);
    let threads = report::nproc() as f64;
    let utilization = reg.observe_sum / (batch_secs.iter().sum::<f64>() * threads);
    metrics.push(
        "runtime.score_utilization",
        utilization,
        "ratio",
        reg.observe_count,
    );

    // Spans and the op profile of the traced steps, written as a
    // Chrome trace and read back the way `trace_report` reads it.
    let trace_path = run.file("trace.json");
    match layers::write_trace(&trace_path) {
        Ok(profile) => {
            let op_secs = layers::push_op_profile(metrics, &profile, counted, DIGEST_STEPS as u64);
            let tape_phases: f64 = sample.iter().chain(&update).sum();
            metrics.push(
                "tensor.op_share_of_update",
                op_secs / tape_phases,
                "ratio",
                n,
            );
            match layers::read_trace(&trace_path) {
                Ok(aggs) => {
                    for (name, cat) in [("step", "bench"), ("score", "trainer")] {
                        let Some(agg) = aggs.iter().find(|a| a.name == name && a.cat == cat) else {
                            violations.push(format!("trace has no {cat}/{name} span"));
                            continue;
                        };
                        let self_share = agg.self_ns as f64 / agg.total_ns.max(1) as f64;
                        println!(
                            "trace: {cat}/{name} x{}: child spans cover {:.1}% of its wall time",
                            agg.count,
                            100.0 * (1.0 - self_share)
                        );
                        if self_share > 0.1 {
                            violations.push(format!(
                                "child spans cover only {:.1}% of {cat}/{name}",
                                100.0 * (1.0 - self_share)
                            ));
                        }
                    }
                }
                Err(err) => violations.push(err),
            }
        }
        Err(err) => violations.push(err),
    }

    if let Some(log) = log {
        // Requests of the attack itself (the set-up `GET /info` aside).
        let served: Vec<&layers::Access> = log.lines.iter().filter(|a| a.path != "/info").collect();
        let handler_secs: f64 = served.iter().map(|a| a.micros as f64 * 1e-6).sum();
        let obs_wall: Vec<f64> = batches
            .iter()
            .map(|&(size, secs)| secs / size.max(1) as f64)
            .collect();
        metrics.push(
            "wire.obs_s_p50",
            stats::median(&obs_wall),
            "s",
            obs_wall.len() as u64,
        );
        metrics.push(
            "wire.server_share",
            handler_secs / all_batch_secs,
            "ratio",
            served.len() as u64,
        );
        layers::push_server_layers(metrics, log);
        metrics.push("serve.generations", generations as f64, "count", 1);
    }
    let traced_p50 = stats::median(&walls);
    let untraced_p50 = stats::median(untraced_walls);
    metrics.push(
        "trace.overhead_frac",
        traced_p50 / untraced_p50 - 1.0,
        "ratio",
        n,
    );
}
