//! Measurement taken from outside the layers: a wrapper around the
//! black-box system trait, deltas of the program's own metric
//! registry, the tensor op profile, and the server's access log.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use recsys::data::Trajectory;
use recsys::system::{ConfigError, ObservableSystem, Observation, PublicInfo, SystemConfig};
use telemetry::json::{self, Json};
use telemetry::metrics::MetricValue;

use crate::report::Metrics;
use crate::stats;

/// Times every `observe_batch` of the wrapped system and records a
/// `bench/observe_batch` span around it; otherwise a pass-through.
pub struct TimedSystem<'a> {
    inner: &'a dyn ObservableSystem,
    batches: Mutex<Vec<(usize, f64)>>,
}

impl<'a> TimedSystem<'a> {
    pub fn new(inner: &'a dyn ObservableSystem) -> Self {
        Self {
            inner,
            batches: Mutex::new(Vec::new()),
        }
    }

    /// `(batch size, wall seconds)` of every batch since the last call.
    pub fn take_batches(&self) -> Vec<(usize, f64)> {
        std::mem::take(&mut *self.batches.lock().expect("batch log poisoned"))
    }
}

impl ObservableSystem for TimedSystem<'_> {
    fn config(&self) -> &SystemConfig {
        self.inner.config()
    }

    fn public_info(&self) -> PublicInfo {
        self.inner.public_info()
    }

    fn ranker_name(&self) -> &str {
        self.inner.ranker_name()
    }

    fn observations_spent(&self) -> u64 {
        self.inner.observations_spent()
    }

    fn restore_observations_spent(&self, spent: u64) -> Result<(), ConfigError> {
        self.inner.restore_observations_spent(spent)
    }

    fn observe_batch(&self, batch: &[&[Trajectory]], threads: usize) -> Vec<Observation> {
        let span = telemetry::trace::span("observe_batch", "bench");
        let start = Instant::now();
        let out = self.inner.observe_batch(batch, threads);
        let secs = start.elapsed().as_secs_f64();
        drop(span);
        self.batches
            .lock()
            .expect("batch log poisoned")
            .push((batch.len(), secs));
        out
    }

    fn caps(&self) -> recsys::attack::SystemCaps {
        self.inner.caps()
    }

    fn defense_state(&self) -> Vec<u8> {
        self.inner.defense_state()
    }

    fn restore_defense_state(&self, state: &[u8]) -> Result<(), ConfigError> {
        self.inner.restore_defense_state(state)
    }
}

/// The registry instruments the benchmark reads, at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct Registry {
    pub retrain_count: u64,
    pub retrain_sum: f64,
    pub observe_count: u64,
    pub observe_sum: f64,
    pub jobs: u64,
    pub requests: u64,
}

impl Registry {
    pub fn read() -> Self {
        let snap = telemetry::metrics::snapshot();
        let hist = |name: &str| match snap.get(name) {
            Some(MetricValue::Histogram { count, sum, .. }) => (*count, *sum),
            _ => (0, 0.0),
        };
        let counter = |name: &str| snap.counter(name).unwrap_or(0);
        let (retrain_count, retrain_sum) = hist("system_retrain_seconds");
        let (observe_count, observe_sum) = hist("system_observe_seconds");
        Self {
            retrain_count,
            retrain_sum,
            observe_count,
            observe_sum,
            jobs: counter("runtime_jobs_total"),
            requests: counter("serve_requests_total"),
        }
    }

    /// `self - earlier`, instrument by instrument.
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            retrain_count: self.retrain_count - earlier.retrain_count,
            retrain_sum: self.retrain_sum - earlier.retrain_sum,
            observe_count: self.observe_count - earlier.observe_count,
            observe_sum: self.observe_sum - earlier.observe_sum,
            jobs: self.jobs - earlier.jobs,
            requests: self.requests - earlier.requests,
        }
    }

    pub fn add(&mut self, other: &Self) {
        self.retrain_count += other.retrain_count;
        self.retrain_sum += other.retrain_sum;
        self.observe_count += other.observe_count;
        self.observe_sum += other.observe_sum;
        self.jobs += other.jobs;
        self.requests += other.requests;
    }
}

/// The tape ops the PPO update spends its time in.
pub const COVERED_OPS: [tensor::profile::OpKind; 8] = {
    use tensor::profile::OpKind;
    [
        OpKind::MatMulT,
        OpKind::LogSoftmaxRows,
        OpKind::ConcatCols,
        OpKind::GatherVar,
        OpKind::MatMul,
        OpKind::Gather,
        OpKind::Tanh,
        OpKind::Sigmoid,
    ]
};

/// Per covered op: calls per step (from `counted`, the profile after a
/// fixed number of steps, so the count repeats exactly), and from the
/// whole `profile`: forward and backward ns per call, FLOPs per call
/// (forward + backward), and bytes per call. Bytes are the op's output
/// element count times four (f32): the profile counts output elements
/// only, so input traffic is not in this figure. Returns the summed
/// time of every profiled op (covered or not).
pub fn push_op_profile(
    out: &mut Metrics,
    profile: &tensor::OpProfile,
    counted: &tensor::OpProfile,
    steps: u64,
) -> f64 {
    for kind in COVERED_OPS {
        let row = profile.rows.iter().find(|r| r.kind == kind);
        let name = kind.name();
        let counted_calls = counted
            .rows
            .iter()
            .find(|r| r.kind == kind)
            .map_or(0, |r| r.fwd_calls);
        let (calls, fwd_ns, bwd_calls, bwd_ns, elems, flops) =
            row.map_or((0, 0, 0, 0, 0, 0), |r| {
                (
                    r.fwd_calls,
                    r.fwd_ns,
                    r.bwd_calls,
                    r.bwd_ns,
                    r.elems,
                    r.flops + r.bwd_flops,
                )
            });
        let per = |total: u64, n: u64| if n == 0 { 0.0 } else { total as f64 / n as f64 };
        out.push(
            format!("tensor.{name}.calls"),
            per(counted_calls, steps),
            "count",
            steps,
        );
        out.push(
            format!("tensor.{name}.fwd_ns"),
            per(fwd_ns, calls),
            "ns",
            calls,
        );
        out.push(
            format!("tensor.{name}.bwd_ns"),
            per(bwd_ns, bwd_calls),
            "ns",
            bwd_calls,
        );
        out.push(
            format!("tensor.{name}.flops"),
            per(flops, calls),
            "flop",
            calls,
        );
        out.push(
            format!("tensor.{name}.bytes"),
            per(elems * 4, calls),
            "B",
            calls,
        );
    }
    profile.total_ns() as f64 * 1e-9
}

/// One line of the server's access log.
#[derive(Clone, Debug)]
pub struct Access {
    pub conn: u64,
    pub path: String,
    pub micros: u64,
    pub lag_micros: u64,
}

/// The access log's request lines plus its closing drop count.
pub struct AccessLog {
    pub lines: Vec<Access>,
    pub dropped: u64,
}

impl AccessLog {
    pub fn read(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|err| format!("cannot read access log {}: {err}", path.display()))?;
        let mut lines = Vec::new();
        let mut dropped = None;
        for (i, line) in text.lines().enumerate() {
            let doc = json::parse(line).map_err(|err| format!("access log line {i}: {err}"))?;
            let num = |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
            let text = |key: &str| {
                doc.get(key)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            match doc.get("type").and_then(Json::as_str) {
                Some("access") => lines.push(Access {
                    conn: num("conn"),
                    path: text("path"),
                    micros: num("micros"),
                    lag_micros: num("lag_micros"),
                }),
                Some("access-summary") => dropped = Some(num("dropped")),
                _ => {}
            }
        }
        let dropped = dropped.ok_or("access log has no closing summary (server not shut down?)")?;
        Ok(Self { lines, dropped })
    }
}

/// The server layer as its access log saw it: median handler time per
/// route (0 where a route saw no traffic), event-loop lag, and requests
/// per connection.
pub fn push_server_layers(out: &mut Metrics, log: &AccessLog) {
    for (name, route) in [
        ("serve.recommend_us_p50", "/recommend"),
        ("serve.feedback_us_p50", "/feedback"),
        ("serve.retrain_us_p50", "/retrain"),
    ] {
        let micros: Vec<f64> = log
            .lines
            .iter()
            .filter(|a| a.path.starts_with(route))
            .map(|a| a.micros as f64)
            .collect();
        let p50 = if micros.is_empty() {
            0.0
        } else {
            stats::median(&micros)
        };
        out.push(name, p50, "us", micros.len() as u64);
    }
    let lag: Vec<f64> = log.lines.iter().map(|a| a.lag_micros as f64).collect();
    let n = lag.len() as u64;
    out.push("serve.loop_lag_us_p50", stats::median(&lag), "us", n);
    out.push(
        "serve.loop_lag_us_p99",
        stats::quantile(&lag, 0.99),
        "us",
        n,
    );
    let conns: std::collections::BTreeSet<u64> = log.lines.iter().map(|a| a.conn).collect();
    out.push(
        "serve.requests_per_conn",
        n as f64 / conns.len().max(1) as f64,
        "count",
        conns.len() as u64,
    );
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Validates a written Chrome trace the way `trace_report` does and
/// returns the per-name aggregates.
pub fn read_trace(path: &Path) -> Result<Vec<telemetry::trace::NameAgg>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|err| format!("cannot read trace {}: {err}", path.display()))?;
    let doc = json::parse(&text).map_err(|err| format!("{}: {err}", path.display()))?;
    telemetry::trace::validate_chrome(&doc)
        .map_err(|err| format!("{}: invalid trace: {err}", path.display()))?;
    let (aggs, _) = telemetry::trace::aggregate_chrome(&doc)?;
    Ok(aggs)
}

/// Clears spans and the op profile (call at quiescence, tracing off).
pub fn trace_reset() {
    telemetry::trace::reset();
    tensor::profile::reset();
}

/// Writes the spans recorded so far, plus the op profile, as a Chrome
/// trace `trace_report` reads.
pub fn write_trace(path: &Path) -> Result<tensor::OpProfile, String> {
    let snapshot = telemetry::TraceCollector::collect();
    let profile = tensor::profile::snapshot();
    snapshot
        .write_chrome(path, &[("opProfile", profile.to_json())])
        .map_err(|err| format!("cannot write trace {}: {err}", path.display()))?;
    if snapshot.dropped > 0 {
        println!(
            "note: {} trace event(s) lost to ring wrap-around",
            snapshot.dropped
        );
    }
    Ok(profile)
}
