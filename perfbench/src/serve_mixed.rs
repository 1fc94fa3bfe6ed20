//! `serve-mixed`: the operator's read path with writes beside it.
//!
//! One reader sends open-loop `GET /recommend/{u}?k=10` at a ladder of
//! fixed rates, each user drawn in proportion to their activity in the
//! dataset; one writer sends `POST /feedback`
//! (organic replays mixed with target-heavy sessions) then
//! `POST /retrain` at a fixed rate. The server runs the Steam twin ×
//! BPR with the full defense stack judging feedback at admission.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use datasets::PaperDataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recsys::data::{Dataset, ItemId, Trajectory};
use recsys::defense::{DefenseKind, DefenseStack};
use recsys::rankers::RankerKind;
use recsys::remote::HttpClient;
use recsys::system::{BlackBoxSystem, SystemConfig};
use serve::Server;
use telemetry::json::{self, Json};

use crate::attack::{build_victim, start_server, timed, SetupTimes};
use crate::layers::{self, AccessLog, Registry};
use crate::loadgen::{self, RealClock, Rung};
use crate::report::Metrics;
use crate::stats;
use crate::{Outcome, Run};

const SCALE: f64 = 0.25;
/// Set-up repetitions per run (defense calibration dominates each):
/// `SETUP_BEFORE` before the load, which runs against the last of them,
/// and the rest after it, so the median samples the host's drifting
/// speed at both ends of the run.
const SETUP_REPS: usize = 9;
const SETUP_BEFORE: usize = 5;
/// Items per read.
const K: usize = 10;
/// Organic false-positive rate the defense is calibrated to.
const DEFENSE_FPR: f64 = 0.05;
/// The p99 read latency a rate must meet to count as sustained.
pub const READ_P99_LIMIT_S: f64 = 0.002;
/// Read rates of the ladder (requests/s), ascending, and the share of
/// the run each gets. No traffic trace backs these rates or the
/// writer's below; they are chosen for what they exercise. The third
/// rung is the nominal rate: fast enough
/// that neither side sleeps long between reads, so wake-up jitter does
/// not dominate its figures. The last rung offers more than one
/// connection can carry, so it measures the read path's capacity.
const LADDER: [(f64, f64); 4] = [
    (2000.0, 0.15),
    (4000.0, 0.15),
    (8000.0, 0.4),
    (32000.0, 0.3),
];
const NOMINAL: usize = 2;
/// Writer cycles (feedback + retrain) per second.
const WRITE_RATE: f64 = 4.0;
/// Trajectories per feedback: organic replays and target-heavy ones.
const ORGANIC_PER_WRITE: usize = 4;
const TARGETED_PER_WRITE: usize = 2;
const SESSION_LEN: usize = 20;
/// Traced runs alternate tracing on and off in blocks of this many
/// seconds of schedule, so one run measures tracing's overhead.
const TRACE_BLOCK_S: f64 = 0.25;

fn system_config(seed: u64) -> SystemConfig {
    SystemConfig {
        eval_users: 64,
        seed,
        reserve_attackers: 32,
        ..SystemConfig::default()
    }
}

/// Builds the defended server once, timing each set-up phase.
fn build(seed: u64, access_log: &std::path::Path, times: &mut SetupTimes) -> Server {
    let _span = telemetry::trace::span("setup", "bench");
    let total = Instant::now();
    let system = build_victim(
        PaperDataset::Steam,
        RankerKind::Bpr,
        SCALE,
        system_config(seed),
        times,
    );
    let stack = timed(&mut times.calibrate, "calibrate", || {
        DefenseStack::build(DefenseKind::Full, system.base(), DEFENSE_FPR)
            .expect("the full stack is a real defense")
    });
    let server = timed(&mut times.start, "server_start", || {
        start_server(system, Some(stack), access_log)
    });
    times.total.push(total.elapsed().as_secs_f64());
    server
}

/// Reader users, each drawn with probability proportional to the
/// length of their history: the dataset's own activity skew, so a user
/// who interacted more asks for recommendations more often.
fn reader_users(rng: &mut StdRng, base: &Dataset, count: usize) -> Vec<u32> {
    let cdf: Vec<f64> = (0..base.num_users())
        .scan(0.0, |acc, u| {
            *acc += base.sequence(u).len() as f64;
            Some(*acc)
        })
        .collect();
    let total = *cdf.last().expect("the dataset has users");
    (0..count)
        .map(|_| {
            let x = rng.gen::<f64>() * total;
            cdf.partition_point(|&c| c <= x).min(cdf.len() - 1) as u32
        })
        .collect()
}

/// Share of reads whose user was already read since the last writer
/// cycle began, over `users` read at `rate`: the reuse a read-side
/// cache of one generation could serve.
fn repeat_share(users: &[u32], rate: f64) -> f64 {
    let window = (rate / WRITE_RATE).ceil() as usize;
    let mut seen = std::collections::HashSet::new();
    let mut repeats = 0usize;
    for chunk in users.chunks(window.max(1)) {
        seen.clear();
        repeats += chunk.iter().filter(|u| !seen.insert(**u)).count();
    }
    repeats as f64 / users.len().max(1) as f64
}

/// The writer's feedback bodies, one per cycle: organic session
/// replays plus sessions that interleave target and popular items.
fn writer_stream(rng: &mut StdRng, system: &BlackBoxSystem, cycles: usize) -> Vec<Vec<Trajectory>> {
    let base = system.base();
    let info = system.public_info();
    let mut popular: Vec<ItemId> = (0..info.num_items).collect();
    popular.sort_by_key(|&i| std::cmp::Reverse(info.popularity[i as usize]));
    popular.truncate(50);
    (0..cycles)
        .map(|_| {
            let mut batch: Vec<Trajectory> = (0..ORGANIC_PER_WRITE)
                .map(|_| {
                    let user = rng.gen_range(0..base.num_users());
                    let seq = base.sequence(user);
                    seq[..seq.len().min(SESSION_LEN)].to_vec()
                })
                .collect();
            for _ in 0..TARGETED_PER_WRITE {
                batch.push(
                    (0..SESSION_LEN)
                        .map(|j| {
                            if j % 2 == 0 {
                                info.target_items[rng.gen_range(0..info.target_items.len())]
                            } else {
                                popular[rng.gen_range(0..popular.len())]
                            }
                        })
                        .collect(),
                );
            }
            batch
        })
        .collect()
}

fn feedback_body(batch: &[Trajectory]) -> Json {
    Json::obj().field(
        "trajectories",
        Json::Arr(
            batch
                .iter()
                .map(|t| Json::Arr(t.iter().map(|&i| Json::from(i)).collect()))
                .collect(),
        ),
    )
}

/// What the writer saw.
#[derive(Default)]
struct WriterLog {
    cycles: usize,
    feedback_secs: Vec<f64>,
    retrain_secs: Vec<f64>,
    /// Trajectories offered in feedback requests answered 200.
    offered_ok: u64,
    conflicts: u64,
    failed: u64,
}

fn writer(addr: &str, stream: &[Vec<Trajectory>], stop: &AtomicBool) -> WriterLog {
    let mut client = HttpClient::new(addr.to_string());
    let mut log = WriterLog::default();
    let clock = Instant::now();
    for (cycle, batch) in stream.iter().enumerate() {
        let due = cycle as f64 / WRITE_RATE;
        while clock.elapsed().as_secs_f64() < due && !stop.load(Ordering::Relaxed) {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let _cycle_span = telemetry::trace::span("write_cycle", "bench");
        let body = feedback_body(batch);
        let span = telemetry::trace::span("feedback", "bench");
        let t = Instant::now();
        let feedback = client.request("POST", "/feedback", Some(&body));
        log.feedback_secs.push(t.elapsed().as_secs_f64());
        drop(span);
        match feedback {
            Ok((200, _)) => log.offered_ok += batch.len() as u64,
            Ok((409, _)) => log.conflicts += 1,
            _ => log.failed += 1,
        }
        let span = telemetry::trace::span("retrain", "bench");
        let t = Instant::now();
        let retrain = client.request("POST", "/retrain", None);
        log.retrain_secs.push(t.elapsed().as_secs_f64());
        drop(span);
        match retrain {
            Ok((200, _)) => {}
            Ok((409, _)) => log.conflicts += 1,
            _ => log.failed += 1,
        }
        log.cycles += 1;
    }
    log
}

/// Whether request `i` of a rung at `rate` falls in a traced block.
fn traced_block(i: usize, rate: f64) -> bool {
    (i as f64 / rate / TRACE_BLOCK_S) as u64 % 2 == 1
}

pub fn run(run: &Run) -> Outcome {
    let access_log = run.file("access.jsonl");
    let mut metrics = Metrics::default();
    let mut violations = Vec::new();
    let mut rng = StdRng::seed_from_u64(run.seed ^ 0x5E7E);

    if run.traced {
        layers::trace_reset();
        telemetry::trace::enable();
    }
    let mut times = SetupTimes::default();
    let mut server = None;
    for rep in 0..SETUP_BEFORE {
        let built = build(run.seed, &access_log, &mut times);
        if rep + 1 == SETUP_BEFORE {
            server = Some(built);
        } else {
            let _ = built.shutdown();
        }
    }
    telemetry::trace::disable();
    let server = server.expect("at least one set-up repetition");
    let addr = server.local_addr().to_string();

    // Inputs, generated before any timing.
    let seconds = run.seconds as f64;
    let total_reads: usize = LADDER
        .iter()
        .map(|&(rate, share)| (rate * share * seconds).ceil() as usize)
        .sum();
    let users = reader_users(&mut rng, server.app().system().base(), total_reads);
    let cycles = (seconds * WRITE_RATE).ceil() as usize + 1;
    let stream = writer_stream(&mut rng, server.app().system(), cycles);

    let mut reader = HttpClient::new(addr.clone());
    match reader.request("GET", "/healthz", None) {
        Ok((200, _)) => {}
        other => violations.push(format!("reader warm-up failed: {other:?}")),
    }
    let before = Registry::read();
    let stop = AtomicBool::new(false);
    let mut bad_reads = 0u64;
    let (rungs, wlog) = std::thread::scope(|scope| {
        let writer_handle = scope.spawn(|| writer(&addr, &stream, &stop));
        let mut next_user = 0usize;
        let mut rungs: Vec<Rung> = Vec::new();
        for &(rate, share) in &LADDER {
            let mut clock = RealClock::start();
            let rung = loadgen::run_rung(
                &mut clock,
                rate,
                share * seconds,
                |_, i| {
                    let on = run.traced && traced_block(i, rate);
                    if on {
                        telemetry::trace::enable();
                    }
                    let user = users[(next_user + i) % users.len()];
                    let span = telemetry::trace::span("read", "bench");
                    let response =
                        reader.request_text("GET", &format!("/recommend/{user}?k={K}"), None);
                    drop(span);
                    if on {
                        telemetry::trace::disable();
                    }
                    match response {
                        Ok((200, body)) => Some(body),
                        _ => None,
                    }
                },
                |body| {
                    let items = json::parse(&body)
                        .ok()
                        .and_then(|doc| match doc.get("items") {
                            Some(Json::Arr(items)) => Some(items.len()),
                            _ => None,
                        });
                    if items != Some(K) {
                        bad_reads += 1;
                    }
                },
            );
            next_user += rung.samples.len();
            rungs.push(rung);
        }
        stop.store(true, Ordering::Relaxed);
        let wlog = writer_handle.join().expect("writer thread panicked");
        (rungs, wlog)
    });
    let reg = Registry::read().since(&before);
    // Read before the traced run's judge replay and access-log parse.
    let peak_rss_mb = layers::peak_rss_mb();

    // ---- correctness, outside the timed load -------------------------
    let counts = server.app().defense_counts();
    let generations = server.generation();
    drop(reader);
    let ledger = server.shutdown();
    if ledger.dropped() != 0 {
        violations.push(format!("server dropped {} request(s)", ledger.dropped()));
    }
    // The remaining set-up repetitions, after the load.
    let setup_log = run.file("setup-access.jsonl");
    for _ in SETUP_BEFORE..SETUP_REPS {
        let _ = build(run.seed, &setup_log, &mut times).shutdown();
    }
    times.push_metrics(&mut metrics);
    if counts.offered() != wlog.offered_ok {
        violations.push(format!(
            "defense judged {} trajectories but {} were offered",
            counts.offered(),
            wlog.offered_ok
        ));
    }
    let failed_reads: u64 = rungs.iter().map(|r| r.failed()).sum();
    if failed_reads > 0 {
        violations.push(format!("{failed_reads} read(s) failed or were refused"));
    }
    if wlog.failed > 0 {
        violations.push(format!("{} write(s) failed", wlog.failed));
    }
    if bad_reads > 0 {
        violations.push(format!(
            "{bad_reads} read(s) answered 200 without {K} items"
        ));
    }
    if wlog.cycles == 0 {
        violations.push("the writer completed no cycle".into());
    }

    // ---- end-to-end --------------------------------------------------
    let nominal = &rungs[NOMINAL];
    let reads: u64 = rungs.iter().map(|r| r.samples.len() as u64).sum();
    let attempted = reads + 2 * wlog.cycles as u64;
    let failed = failed_reads + wlog.conflicts + wlog.failed;
    let nominal_n = nominal.latencies().len() as u64;
    let saturated = rungs.last().expect("the ladder has rungs");
    // The gated figures are per-request service times: a host that
    // steals a vCPU for milliseconds delays every read due meanwhile,
    // but stretches only the one in flight. Due-time figures follow
    // in the table.
    let service = nominal.service_times();
    let saturated_service = saturated.service_times();
    metrics.push("peak_rss_mb", peak_rss_mb, "MB", 1);
    // Capacity uses the middle 80% of back-to-back round trips: a mean,
    // so it follows how long the scheduler kept client and server on
    // one vCPU (faster) or on two, without the steal bursts of the tail.
    metrics.push(
        "throughput_per_s",
        1.0 / stats::trimmed_mean(&saturated_service, 0.1),
        "1/s",
        saturated_service.len() as u64,
    );
    metrics.push(
        "latency_s",
        stats::median(&service),
        "s",
        service.len() as u64,
    );
    metrics.push(
        "error_rate",
        failed as f64 / attempted as f64,
        "ratio",
        attempted,
    );
    let n_writes = wlog.cycles as u64;
    metrics.push(
        "serve.feedback_p50_s",
        stats::median(&wlog.feedback_secs),
        "s",
        n_writes,
    );
    metrics.push(
        "serve.retrain_p50_s",
        stats::median(&wlog.retrain_secs),
        "s",
        n_writes,
    );
    metrics.push(
        "serve.conflicts_409",
        wlog.conflicts as f64,
        "count",
        n_writes,
    );

    for rung in &rungs {
        println!(
            "rung {:>6.0}/s: {:>6} read(s), {:.0}/s done, p50 {:.6}s p90 {:.6}s p99 {:.6}s, \
             late p99 {:.6}s, backlog mid {} end {}, {}",
            rung.rate,
            rung.samples.len(),
            rung.achieved_rate(),
            rung.quantile(0.5),
            rung.quantile(0.9),
            rung.quantile(0.99),
            stats::quantile(&rung.lateness(), 0.99),
            rung.backlog_mid,
            rung.backlog_end,
            if rung.meets(READ_P99_LIMIT_S) {
                "meets"
            } else {
                "misses"
            }
        );
    }
    println!(
        "writer: {} cycle(s), {} trajectories judged; defense {:?}",
        wlog.cycles, wlog.offered_ok, counts
    );
    let mut table = Metrics::default();
    table.copy(&metrics, "setup_s");
    table.copy(&metrics, "peak_rss_mb");
    table.copy(&metrics, "error_rate");
    table.copy_as(&metrics, "throughput_per_s", "serve.conn_capacity_rps");
    table.copy_as(&metrics, "latency_s", "serve.read_service_p50_s");
    table.push(
        "serve.read_service_p90_s",
        stats::quantile(&service, 0.9),
        "s",
        service.len() as u64,
    );
    for (name, q) in [
        ("serve.read_p50_s", 0.5),
        ("serve.read_p90_s", 0.9),
        ("serve.read_p99_s", 0.99),
    ] {
        table.push(name, nominal.quantile(q), "s", nominal_n);
    }
    let best = loadgen::max_sustained(&rungs, READ_P99_LIMIT_S);
    table.push(
        "serve.max_read_rps",
        best.map_or(0.0, |r| r.rate),
        "1/s",
        best.map_or(0, |r| r.samples.len() as u64),
    );
    table.push(
        "serve.saturated_read_rps",
        saturated.achieved_rate(),
        "1/s",
        saturated.samples.len() as u64,
    );
    let first: usize = rungs[..NOMINAL].iter().map(|r| r.samples.len()).sum();
    table.push(
        "serve.read_repeat_share",
        repeat_share(&users[first..first + nominal.samples.len()], nominal.rate),
        "ratio",
        nominal_n,
    );
    table.copy(&metrics, "serve.feedback_p50_s");
    table.copy(&metrics, "serve.retrain_p50_s");
    if !run.traced {
        return Outcome {
            metrics,
            table,
            violations,
            attempted,
            failed,
            digest: None,
        };
    }

    // ---- per-layer (traced run) --------------------------------------
    let per_cycle = |total: f64| total / n_writes.max(1) as f64;
    metrics.push(
        "system.retrain_calls",
        per_cycle(reg.retrain_count as f64),
        "count",
        n_writes,
    );
    metrics.push(
        "system.retrain_mean_s",
        reg.retrain_sum / reg.retrain_count.max(1) as f64,
        "s",
        reg.retrain_count,
    );
    metrics.push(
        "runtime.jobs",
        per_cycle(reg.jobs as f64),
        "count",
        n_writes,
    );
    metrics.push("serve.generations", generations as f64, "count", 1);
    metrics.push(
        "defense.admitted",
        counts.admitted as f64,
        "count",
        counts.offered(),
    );
    metrics.push(
        "defense.flagged",
        counts.flagged as f64,
        "count",
        counts.offered(),
    );
    metrics.push(
        "defense.rate_limited",
        counts.rate_limited as f64,
        "count",
        counts.offered(),
    );
    metrics.push(
        "defense.throttled",
        counts.throttled as f64,
        "count",
        counts.offered(),
    );
    let late: Vec<f64> = nominal.lateness().iter().map(|s| s * 1e6).collect();
    metrics.push(
        "loadgen.late_us_p99",
        stats::quantile(&late, 0.99),
        "us",
        late.len() as u64,
    );
    metrics.push(
        "loadgen.backlog_end",
        nominal.backlog_end as f64,
        "count",
        1,
    );

    // Tracing overhead: traced against untraced blocks of the nominal rung.
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for (i, s) in nominal.samples.iter().enumerate() {
        if s.ok {
            let latency = s.done - s.due;
            if traced_block(i, nominal.rate) {
                on.push(latency)
            } else {
                off.push(latency)
            }
        }
    }
    metrics.push(
        "trace.overhead_frac",
        stats::median(&on) / stats::median(&off) - 1.0,
        "ratio",
        on.len() as u64,
    );

    // The defense judge alone, over the writer's stream, on a fresh
    // stack calibrated like the served one.
    let base = PaperDataset::Steam.generate_scaled(SCALE, run.seed);
    let mut stack = DefenseStack::build(DefenseKind::Full, &base, DEFENSE_FPR)
        .expect("the full stack is a real defense");
    let judge_us: Vec<f64> = stream[..wlog.cycles]
        .iter()
        .flatten()
        .map(|traj| {
            let t = Instant::now();
            let verdict = stack.judge(&base, traj);
            std::hint::black_box(verdict);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    metrics.push(
        "defense.judge_us_p50",
        stats::median(&judge_us),
        "us",
        judge_us.len() as u64,
    );

    match layers::write_trace(&run.file("trace.json"))
        .and_then(|_| layers::read_trace(&run.file("trace.json")))
    {
        Ok(aggs) => {
            let reads_traced = aggs
                .iter()
                .find(|a| a.name == "read")
                .map_or(0, |a| a.count);
            println!("trace: {reads_traced} traced read span(s)");
        }
        Err(err) => violations.push(err),
    }

    match AccessLog::read(&access_log) {
        Ok(log) => {
            layers::push_server_layers(&mut metrics, &log);
            // Join the reader's requests to their access-log lines (one
            // connection, answered in order) to split client latency
            // into server handling and everything else.
            let reader_lines: Vec<&layers::Access> = log
                .lines
                .iter()
                .filter(|a| a.path.starts_with("/recommend"))
                .collect();
            let samples: Vec<&loadgen::Sample> = rungs.iter().flat_map(|r| &r.samples).collect();
            if reader_lines.len() == samples.len() && log.dropped == 0 {
                // The nominal rung's requests, by position in the stream.
                let queue: Vec<f64> = nominal
                    .samples
                    .iter()
                    .zip(&reader_lines[first..])
                    .filter(|(s, _)| s.ok)
                    .map(|(s, a)| (s.done - s.due) * 1e6 - a.micros as f64)
                    .collect();
                metrics.push(
                    "serve.read_queue_us_p99",
                    stats::quantile(&queue, 0.99),
                    "us",
                    queue.len() as u64,
                );
            } else {
                println!(
                    "note: access log holds {} read line(s) for {} read(s) ({} dropped); no queue split",
                    reader_lines.len(),
                    samples.len(),
                    log.dropped
                );
            }
        }
        Err(err) => violations.push(err),
    }
    Outcome {
        metrics,
        table,
        violations,
        attempted,
        failed,
        digest: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_follow_history_length() {
        // Two held-out events per user leave sequences of 3 and 30.
        let base = Dataset::from_histories("t", vec![vec![0; 5], vec![1; 32]], 2, 1);
        assert_eq!(base.sequence(0).len() * 10, base.sequence(1).len());
        let users = reader_users(&mut StdRng::seed_from_u64(7), &base, 11_000);
        let heavy = users.iter().filter(|&&u| u == 1).count() as f64;
        let share = heavy / users.len() as f64;
        assert!(
            (share - 10.0 / 11.0).abs() < 0.01,
            "heavy user share {share}"
        );
    }

    #[test]
    fn repeats_count_within_one_writer_cycle() {
        // At 8 reads/s and 4 writer cycles/s a cycle spans two reads.
        assert_eq!(repeat_share(&[1, 1, 2, 3, 3, 3], 8.0), 2.0 / 6.0);
        assert_eq!(repeat_share(&[1, 2, 1, 2], 8.0), 0.0);
    }
}
