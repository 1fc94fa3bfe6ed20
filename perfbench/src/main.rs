//! `perfbench`: one command for the attack loop and the served read
//! path, with a traced per-layer breakdown. See `README.md` for the
//! workloads and the layer → metric → workload table.
//!
//! ```text
//! perfbench --workload attack-local|attack-wire|serve-mixed \
//!           --seed N --seconds S --trace 0|1
//! perfbench compare BASE.json CHANGE.json
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics untraced, the
//! per-layer metrics traced). A stamped copy with sample counts goes to
//! `.perfbench_runs/<workload>-seed<N>-trace<T>.json`; `compare` reads
//! two such files. The exit code is non-zero when any correctness check
//! fails.

mod attack;
mod layers;
mod loadgen;
mod report;
mod serve_mixed;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{Metrics, RunResult, Stamp};

/// Where runs leave their result files, traces and access logs,
/// relative to the directory the benchmark runs from.
const RUN_DIR: &str = ".perfbench_runs";

/// The end-to-end metrics every workload reports, untraced. What each
/// means per workload is in `README.md`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_s", "s"),
];

/// The per-layer metrics every workload reports, traced. A layer a
/// workload does not exercise reads 0 there.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("error_rate", "ratio"),
        ("datasets.generate_s", "s"),
        ("rankers.fit_s", "s"),
        ("defense.calibrate_s", "s"),
        ("serve.start_s", "s"),
        ("core.sample_s_p50", "s"),
        ("core.score_s_p50", "s"),
        ("core.update_s_p50", "s"),
        ("core.step_residual_frac", "ratio"),
        ("system.observe_batch_s_p50", "s"),
        ("system.retrain_calls", "count"),
        ("system.retrain_mean_s", "s"),
        ("system.eval_mean_s", "s"),
        ("runtime.jobs", "count"),
        ("runtime.score_utilization", "ratio"),
        ("tensor.op_share_of_update", "ratio"),
        ("wire.obs_s_p50", "s"),
        ("wire.requests_per_obs", "count"),
        ("wire.server_share", "ratio"),
        ("serve.recommend_us_p50", "us"),
        ("serve.feedback_us_p50", "us"),
        ("serve.retrain_us_p50", "us"),
        ("serve.feedback_p50_s", "s"),
        ("serve.retrain_p50_s", "s"),
        ("serve.loop_lag_us_p50", "us"),
        ("serve.loop_lag_us_p99", "us"),
        ("serve.read_queue_us_p99", "us"),
        ("serve.requests_per_conn", "count"),
        ("serve.generations", "count"),
        ("serve.conflicts_409", "count"),
        ("defense.judge_us_p50", "us"),
        ("defense.admitted", "count"),
        ("defense.flagged", "count"),
        ("defense.rate_limited", "count"),
        ("defense.throttled", "count"),
        ("loadgen.late_us_p99", "us"),
        ("loadgen.backlog_end", "count"),
        ("trace.overhead_frac", "ratio"),
    ]
    .into_iter()
    .map(|(name, unit)| (name.to_string(), unit))
    .collect();
    for kind in layers::COVERED_OPS {
        let op = kind.name();
        for (field, unit) in [
            ("calls", "count"),
            ("fwd_ns", "ns"),
            ("bwd_ns", "ns"),
            ("flops", "flop"),
            ("bytes", "B"),
        ] {
            out.push((format!("tensor.{op}.{field}"), unit));
        }
    }
    out
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    AttackLocal,
    AttackWire,
    ServeMixed,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::AttackLocal,
        Workload::AttackWire,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AttackLocal => "attack-local",
            Workload::AttackWire => "attack-wire",
            Workload::ServeMixed => "serve-mixed",
        }
    }
}

/// One run's settings, parsed from the command line.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Directory for this run's files.
    pub dir: PathBuf,
}

impl Run {
    /// Path of a per-run file, named after the workload and mode.
    pub fn file(&self, what: &str) -> PathBuf {
        self.dir.join(format!(
            "{}-trace{}-{what}",
            self.workload.name(),
            u8::from(self.traced)
        ))
    }
}

/// What a workload hands back: its metrics (both kinds; the caller
/// keeps the ones the mode reports), correctness, and op counts.
pub struct Outcome {
    pub metrics: Metrics,
    /// The end-to-end figures under the workload's own names.
    pub table: Metrics,
    /// Failed correctness checks, one line each.
    pub violations: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub digest: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1\n       \
         perfbench compare BASE.json CHANGE.json",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Option<Run> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Workload::ALL.into_iter().find(|w| w.name() == value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|&s: &u64| s > 0),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return None,
        }
    }
    Some(Run {
        workload: workload?,
        seed: seed?,
        seconds: seconds?,
        traced: traced?,
        dir: PathBuf::from(RUN_DIR),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, base, change] = args.as_slice() else {
            return usage();
        };
        return match report::compare(Path::new(base), Path::new(change)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("perfbench compare: {err}");
                ExitCode::from(2)
            }
        };
    }
    let Some(run) = parse(&args) else {
        return usage();
    };
    if let Err(err) = std::fs::create_dir_all(&run.dir) {
        eprintln!("perfbench: cannot create {}: {err}", run.dir.display());
        return ExitCode::FAILURE;
    }
    // Traced runs keep every span in memory until the end; size the
    // per-thread rings for a full run before any thread records.
    telemetry::trace::set_ring_capacity(1 << 18);

    let stamp = Stamp::collect();
    println!(
        "perfbench {} seed={} seconds={} traced={} | cpu={} nproc={} kernel={} {} commit={}",
        run.workload.name(),
        run.seed,
        run.seconds,
        run.traced,
        stamp.cpu,
        stamp.nproc,
        stamp.kernel,
        stamp.rustc,
        stamp.commit
    );
    let cpu_before = report::CpuTimes::read();
    let mut outcome = match run.workload {
        Workload::AttackLocal | Workload::AttackWire => attack::run(&run),
        Workload::ServeMixed => serve_mixed::run(&run),
    };
    // Time the hypervisor gave this VM's CPUs to other guests during
    // the run: the host's contribution to the run's noise.
    if let (Some(before), Some(after)) = (cpu_before, report::CpuTimes::read()) {
        outcome.table.push(
            "host.steal_frac",
            after.steal_share_since(&before),
            "ratio",
            1,
        );
    }

    // Keep exactly the metric set of this mode, in catalogue order;
    // layers a workload does not exercise read 0.
    let wanted: Vec<(String, &'static str)> = if run.traced {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_string(), unit))
            .collect()
    };
    let mut metrics = Metrics::default();
    for (name, unit) in wanted {
        match outcome.metrics.get(&name) {
            Some(m) => {
                assert_eq!(m.unit, unit, "metric {name} reported in the wrong unit");
                metrics.push(name, m.value, unit, m.samples);
            }
            None => metrics.push(name, 0.0, unit, 0),
        }
    }
    outcome
        .table
        .print_table(&format!("end-to-end ({})", run.workload.name()));
    for violation in &outcome.violations {
        println!("CHECK FAILED: {violation}");
    }
    let result = RunResult {
        workload: run.workload.name(),
        seed: run.seed,
        seconds: run.seconds,
        traced: run.traced,
        stamp,
        digest: outcome.digest,
        correct: outcome.violations.is_empty(),
        attempted: outcome.attempted.max(1),
        failed: outcome.failed,
        metrics,
        figures: outcome.table,
    };
    let path = run.dir.join(format!(
        "{}-seed{}-trace{}.json",
        run.workload.name(),
        run.seed,
        u8::from(run.traced)
    ));
    if let Err(err) = std::fs::write(&path, result.to_json().render()) {
        println!("CHECK FAILED: cannot write {}: {err}", path.display());
        return ExitCode::FAILURE;
    }
    println!("result -> {}", path.display());
    println!("{}", result.final_line());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::json::{self, Json};

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// program reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("{key} missing");
            };
            items
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layer);
    }

    #[test]
    fn parse_requires_every_flag() {
        let args = |s: &str| s.split(' ').map(str::to_string).collect::<Vec<_>>();
        let run = parse(&args(
            "--workload serve-mixed --seed 3 --seconds 5 --trace 1",
        ))
        .unwrap();
        assert_eq!(run.workload, Workload::ServeMixed);
        assert!(run.traced);
        assert!(parse(&args("--workload serve-mixed --seed 3 --seconds 5")).is_none());
        assert!(parse(&args("--workload nope --seed 3 --seconds 5 --trace 0")).is_none());
        assert!(parse(&args(
            "--workload attack-local --seed 3 --seconds 0 --trace 0"
        ))
        .is_none());
    }
}
