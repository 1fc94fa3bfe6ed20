//! Open-loop load generation at a fixed rate, timed from each
//! request's due time.
//!
//! Request `i` of a rung is due at `i / rate` seconds after the rung
//! starts, whether or not earlier requests have completed. One client
//! connection cannot have two requests in flight, so when a response
//! is late the generator sends the next request as soon as it can;
//! its latency still counts from its due time. A server stall therefore
//! charges the wait to every request that came due during it, which a
//! closed-loop client timing from its own send would hide.
//!
//! Requests that fail, and requests that came due but were never sent
//! before the rung ended (the backlog), count as infinitely slow: they
//! miss any latency limit.

use std::time::{Duration, Instant};

use crate::stats;

/// Time source of the generator, in seconds since the rung started.
/// The benchmark uses [`RealClock`]; tests script a virtual clock.
pub trait Clock {
    fn now(&self) -> f64;
    fn sleep_until(&mut self, t: f64);
}

/// Wall-clock time: sleeps most of the gap, then spins the rest so a
/// request leaves close to its due time.
pub struct RealClock {
    start: Instant,
}

impl RealClock {
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }
}

impl Clock for RealClock {
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn sleep_until(&mut self, t: f64) {
        const SPIN: f64 = 100e-6;
        let gap = t - self.now();
        if gap > SPIN {
            std::thread::sleep(Duration::from_secs_f64(gap - SPIN));
        }
        while self.now() < t {
            std::thread::yield_now();
        }
    }
}

/// One request: when it was due, sent and answered (seconds since the
/// rung started), and whether it succeeded.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    pub ok: bool,
}

/// The outcome of one fixed-rate step of the ladder.
#[derive(Clone, Debug)]
pub struct Rung {
    pub rate: f64,
    pub duration: f64,
    pub samples: Vec<Sample>,
    /// Requests due but not yet sent, halfway through the rung.
    pub backlog_mid: u64,
    /// Requests due but not yet sent when the rung ended.
    pub backlog_end: u64,
}

/// Drives one rung: `send(clock, i)` performs request `i` and returns
/// its response (`None` when it failed or was refused); `after` then
/// checks the response outside the request's timed window.
pub fn run_rung<C: Clock, T>(
    clock: &mut C,
    rate: f64,
    duration: f64,
    mut send: impl FnMut(&mut C, usize) -> Option<T>,
    mut after: impl FnMut(T),
) -> Rung {
    assert!(
        rate > 0.0 && duration > 0.0,
        "rung needs a positive rate and duration"
    );
    let due_by = |t: f64| -> u64 { ((t * rate).floor() as u64 + 1).min(total_due(rate, duration)) };
    let mut samples = Vec::with_capacity(total_due(rate, duration) as usize);
    let mut backlog_mid = None;
    loop {
        let i = samples.len();
        let due = i as f64 / rate;
        let now = clock.now();
        if due >= duration || now >= duration {
            break;
        }
        if backlog_mid.is_none() && now >= duration / 2.0 {
            backlog_mid = Some(due_by(now).saturating_sub(i as u64));
        }
        if now < due {
            clock.sleep_until(due);
        }
        let sent = clock.now();
        let response = send(clock, i);
        let done = clock.now();
        let ok = response.is_some();
        samples.push(Sample {
            due,
            sent,
            done,
            ok,
        });
        if let Some(response) = response {
            after(response);
        }
    }
    let backlog_end = total_due(rate, duration) - samples.len() as u64;
    Rung {
        rate,
        duration,
        samples,
        backlog_mid: backlog_mid.unwrap_or(0),
        backlog_end,
    }
}

/// Requests due within `[0, duration)` at `rate`.
fn total_due(rate: f64, duration: f64) -> u64 {
    (duration * rate).ceil() as u64
}

impl Rung {
    /// Latency of every request due in the rung, from its due time;
    /// failures and the unsent backlog are infinite.
    pub fn latencies(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self
            .samples
            .iter()
            .map(|s| if s.ok { s.done - s.due } else { f64::INFINITY })
            .collect();
        out.extend(std::iter::repeat_n(
            f64::INFINITY,
            self.backlog_end as usize,
        ));
        out
    }

    /// Each request's round trip from its own send, which leaves out
    /// time spent waiting behind earlier requests: what a closed-loop
    /// client would have measured. Failures are infinite here too, so
    /// a read that fails fast cannot make these figures look better.
    pub fn service_times(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| if s.ok { s.done - s.sent } else { f64::INFINITY })
            .collect()
    }

    /// How late the generator sent each request against its schedule.
    pub fn lateness(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| (s.sent - s.due).max(0.0))
            .collect()
    }

    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    pub fn quantile(&self, q: f64) -> f64 {
        stats::quantile(&self.latencies(), q)
    }

    /// The backlog grows when more requests wait at the end than at
    /// the midpoint, and more than `limit` seconds' worth of them.
    pub fn backlog_grows(&self, limit: f64) -> bool {
        let allowance = ((self.rate * limit).ceil() as u64).max(2);
        self.backlog_end > self.backlog_mid && self.backlog_end >= allowance
    }

    /// Whether this rate is sustained: p99 within `limit` and no
    /// growing backlog.
    pub fn meets(&self, limit: f64) -> bool {
        self.quantile(0.99) <= limit && !self.backlog_grows(limit)
    }

    /// Successful requests completed per second of rung time.
    pub fn achieved_rate(&self) -> f64 {
        (self.samples.len() as u64 - self.failed()) as f64 / self.duration
    }
}

/// The highest-rate rung that meets `limit`.
pub fn max_sustained(rungs: &[Rung], limit: f64) -> Option<&Rung> {
    rungs
        .iter()
        .filter(|r| r.meets(limit))
        .max_by(|a, b| a.rate.total_cmp(&b.rate))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted clock: requests advance it by their service time,
    /// sleeps land exactly on time plus a fixed overshoot.
    struct VirtualClock {
        t: f64,
        overshoot: f64,
    }

    impl VirtualClock {
        fn new(overshoot: f64) -> Self {
            Self { t: 0.0, overshoot }
        }
    }

    impl Clock for VirtualClock {
        fn now(&self) -> f64 {
            self.t
        }

        fn sleep_until(&mut self, t: f64) {
            self.t = self.t.max(t) + self.overshoot;
        }
    }

    const SERVICE: f64 = 100e-6;

    fn scripted(rate: f64, duration: f64, service: impl Fn(usize) -> (f64, bool)) -> Rung {
        let mut clock = VirtualClock::new(0.0);
        run_rung(
            &mut clock,
            rate,
            duration,
            |clock, i| {
                let (secs, ok) = service(i);
                clock.t += secs;
                ok.then_some(())
            },
            |()| {},
        )
    }

    #[test]
    fn on_schedule_requests_see_only_service_time() {
        let rung = scripted(1000.0, 1.0, |_| (SERVICE, true));
        assert_eq!(rung.samples.len(), 1000);
        assert_eq!(rung.backlog_end, 0);
        assert!((rung.quantile(0.99) - SERVICE).abs() < 1e-9);
        assert!(stats::quantile(&rung.lateness(), 0.99) < 1e-9);
        assert!(rung.meets(1e-3));
    }

    #[test]
    fn a_stall_inflates_open_loop_p99_but_not_closed_loop() {
        let stall = 50e-3;
        let rung = scripted(1000.0, 1.0, |i| {
            (if i == 500 { stall } else { SERVICE }, true)
        });
        let open_p99 = rung.quantile(0.99);
        let closed_p99 = stats::quantile(&rung.service_times(), 0.99);
        // Closed loop: one slow sample in a thousand stays above p99.
        assert!(closed_p99 <= 2.0 * SERVICE, "closed-loop p99 {closed_p99}");
        // Open loop: the ~50 requests due during the stall all waited
        // for it, so the tenth-worst still waited most of it.
        assert!(open_p99 >= 0.75 * stall, "open-loop p99 {open_p99}");
        assert!(open_p99 - closed_p99 >= 0.75 * stall);
        // The generator sent the queued requests late, and says so.
        assert!(stats::quantile(&rung.lateness(), 0.99) >= 0.75 * stall);
        assert!(!rung.meets(1e-3));
        // It caught up before the rung ended.
        assert_eq!(rung.backlog_end, 0);
    }

    #[test]
    fn overload_grows_the_backlog() {
        // Capacity 500/s offered 1000/s.
        let rung = scripted(1000.0, 1.0, |_| (2e-3, true));
        assert!(rung.backlog_end >= 400, "backlog {}", rung.backlog_end);
        assert!(rung.backlog_end > rung.backlog_mid);
        assert!(rung.backlog_grows(1e-3));
        assert!(!rung.meets(1.0), "a growing backlog fails any limit");
        assert_eq!(rung.quantile(0.99), f64::INFINITY);
    }

    #[test]
    fn failed_requests_miss_the_limit() {
        let rung = scripted(1000.0, 1.0, |i| (SERVICE, i % 50 != 0));
        assert_eq!(rung.failed(), 20);
        assert_eq!(rung.quantile(0.99), f64::INFINITY);
        assert!(!rung.meets(1.0));
        assert!((rung.achieved_rate() - 980.0).abs() < 1e-9);
    }

    #[test]
    fn fast_failures_worsen_service_times() {
        // Every tenth read fails at once instead of taking SERVICE.
        let healthy = scripted(1000.0, 1.0, |_| (SERVICE, true));
        let failing = scripted(1000.0, 1.0, |i| {
            if i % 10 == 0 {
                (1e-6, false)
            } else {
                (SERVICE, true)
            }
        });
        let (ok, bad) = (healthy.service_times(), failing.service_times());
        assert_eq!(stats::quantile(&bad, 0.95), f64::INFINITY);
        assert!(stats::quantile(&bad, 0.5) >= stats::quantile(&ok, 0.5));
        assert!(stats::quantile(&bad, 0.9) >= stats::quantile(&ok, 0.9));
        assert!(stats::trimmed_mean(&bad, 0.05) > stats::trimmed_mean(&ok, 0.05));
    }

    #[test]
    fn generator_lateness_is_reported() {
        let mut clock = VirtualClock::new(30e-6);
        let rung = run_rung(
            &mut clock,
            1000.0,
            0.5,
            |clock, _| {
                clock.t += SERVICE;
                Some(())
            },
            |()| {},
        );
        let late = stats::quantile(&rung.lateness(), 0.99);
        assert!((late - 30e-6).abs() < 1e-9, "lateness {late}");
        assert!((rung.quantile(0.5) - (30e-6 + SERVICE)).abs() < 1e-9);
    }

    #[test]
    fn max_sustained_picks_the_highest_passing_rate() {
        let rungs: Vec<Rung> = [500.0, 1000.0, 4000.0]
            .into_iter()
            .map(|rate| scripted(rate, 0.5, |_| (400e-6, true)))
            .collect();
        // 400 µs of service sustains 500/s and 1000/s but not 4000/s.
        let best = max_sustained(&rungs, 1e-3).expect("a rung passes");
        assert_eq!(best.rate, 1000.0);
        assert!(!rungs[2].meets(1e-3));
        assert!(max_sustained(&rungs[2..], 1e-3).is_none());
    }

    #[test]
    fn checks_run_after_the_timed_window() {
        let mut checked = Vec::new();
        let mut clock = VirtualClock::new(0.0);
        let rung = run_rung(
            &mut clock,
            100.0,
            0.1,
            |clock, i| {
                clock.t += SERVICE;
                Some(i)
            },
            |i| checked.push(i),
        );
        assert_eq!(checked, (0..10).collect::<Vec<_>>());
        assert_eq!(rung.samples.len(), 10);
    }
}
