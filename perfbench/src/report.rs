//! Named metrics, the host/build stamp, the result line and the
//! compare step.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use telemetry::json::{self, Json};

/// One reported figure with its unit and the number of samples it was
/// computed from.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

/// Ordered, name-unique metric list.
#[derive(Default, Debug)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: u64) {
        let name = name.into();
        assert!(
            self.0.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.0.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Copies `name` from `other` under the same name.
    pub fn copy(&mut self, other: &Metrics, name: &str) {
        self.copy_as(other, name, name);
    }

    /// Copies `from` out of `other`, renamed `to`.
    pub fn copy_as(&mut self, other: &Metrics, from: &str, to: &str) {
        let m = other
            .get(from)
            .unwrap_or_else(|| panic!("metric {from} not reported"));
        self.push(to, m.value, m.unit, m.samples);
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }

    /// Prints a `name value unit (n=samples)` table.
    pub fn print_table(&self, title: &str) {
        println!("{title}");
        for m in &self.0 {
            println!(
                "  {:<34} {:>16} {:<6} (n={})",
                m.name,
                format_value(m.value),
                m.unit,
                m.samples
            );
        }
    }
}

fn format_value(v: f64) -> String {
    if v != 0.0 && v.abs() < 1e-3 {
        format!("{v:.6e}")
    } else {
        format!("{v:.6}")
    }
}

/// Where the run happened and what built it. Results from different
/// hosts are never compared.
#[derive(Clone, Debug, PartialEq)]
pub struct Stamp {
    pub cpu: String,
    pub nproc: usize,
    pub kernel: String,
    pub rustc: String,
    pub commit: String,
}

impl Stamp {
    pub fn collect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        Self {
            cpu,
            nproc: nproc(),
            kernel,
            rustc: command_line("rustc", &["--version"]),
            commit: command_line("git", &["rev-parse", "HEAD"]),
        }
    }

    /// The part of the stamp that identifies the machine.
    pub fn host_key(&self) -> (String, usize, String) {
        (self.cpu.clone(), self.nproc, self.kernel.clone())
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .field("cpu", self.cpu.as_str())
            .field("nproc", self.nproc)
            .field("kernel", self.kernel.as_str())
            .field("rustc", self.rustc.as_str())
            .field("commit", self.commit.as_str())
    }

    fn from_json(doc: &Json) -> Option<Self> {
        let text = |key: &str| doc.get(key).and_then(Json::as_str).map(str::to_string);
        Some(Self {
            cpu: text("cpu")?,
            nproc: doc.get("nproc").and_then(Json::as_u64)? as usize,
            kernel: text("kernel")?,
            rustc: text("rustc")?,
            commit: text("commit")?,
        })
    }
}

/// Aggregate CPU time counters of the machine (`/proc/stat`, in ticks).
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    pub fn read() -> Option<Self> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .strip_prefix("cpu ")?
            .split_whitespace()
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        Some(Self {
            total: fields.iter().sum(),
            steal: *fields.get(7)?,
        })
    }

    /// CPU seconds stolen from the machine since `earlier`, summed over
    /// its CPUs. The kernel reports steal in ticks of 1/`USER_HZ` s,
    /// which Linux fixes at 100 for `/proc/stat`, so a short theft
    /// shows up whole one reading early or late.
    pub fn stolen_secs_since(&self, earlier: &Self) -> f64 {
        const USER_HZ: f64 = 100.0;
        self.steal.saturating_sub(earlier.steal) as f64 / USER_HZ
    }

    /// Share of all CPU time since `earlier` that was stolen.
    pub fn steal_share_since(&self, earlier: &Self) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// A wall clock that also reads the machine's steal counter, so a
/// timing can leave out the CPU time the hypervisor gave to other
/// guests meanwhile, which the program cannot cause.
pub struct StealClock {
    start: Instant,
    cpu: Option<CpuTimes>,
}

impl StealClock {
    pub fn start() -> Self {
        Self {
            cpu: CpuTimes::read(),
            start: Instant::now(),
        }
    }

    /// Wall seconds since the start, and the CPU seconds stolen from
    /// the machine meanwhile (0 where `/proc/stat` cannot be read).
    pub fn read(&self) -> (f64, f64) {
        let wall = self.start.elapsed().as_secs_f64();
        let stolen = match (&self.cpu, CpuTimes::read()) {
            (Some(before), Some(after)) => after.stolen_secs_since(before),
            _ => 0.0,
        };
        (wall, stolen)
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First output line of a command, or `"unknown"` when it cannot run
/// (a source checkout without git history, say).
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Everything one run produced.
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub stamp: Stamp,
    pub digest: Option<String>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the final line (end-to-end untraced, per-layer
    /// traced).
    pub metrics: Metrics,
    /// The workload's own end-to-end figures, under their workload
    /// names (`attack.obs_per_s`, `serve.read_p99_s`, ...).
    pub figures: Metrics,
}

impl RunResult {
    /// The result file: the final line's content plus the stamp,
    /// sample counts and digest, for the compare step.
    pub fn to_json(&self) -> Json {
        let figures = self
            .figures
            .iter()
            .filter(|f| self.metrics.get(&f.name).is_none());
        let metrics = self
            .metrics
            .iter()
            .chain(figures)
            .fold(Json::obj(), |acc, m| {
                acc.field(
                    &m.name,
                    Json::obj()
                        .field("value", json_number(m.value))
                        .field("unit", m.unit)
                        .field("samples", m.samples),
                )
            });
        Json::obj()
            .field("schema", "perfbench-v1")
            .field("workload", self.workload)
            .field("seed", self.seed)
            .field("seconds", self.seconds)
            .field("traced", self.traced)
            .field("stamp", self.stamp.to_json())
            .field(
                "digest",
                self.digest.as_deref().map_or(Json::Null, Json::from),
            )
            .field("correct", self.correct)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", metrics)
    }

    /// The contract's last stdout line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, every value with all its digits.
    pub fn final_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number_literal(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity: an infinite latency (requests that
/// failed or were never sent) prints as the largest finite number, so
/// it still reads as worse than any measurement; a metric with no
/// samples reads 0.
fn number_literal(v: f64) -> String {
    if v == f64::INFINITY {
        format!("{:?}", f64::MAX)
    } else if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn json_number(v: f64) -> Json {
    if v.is_finite() {
        Json::F64(v)
    } else {
        Json::Null
    }
}

/// Compares two result files metric by metric. Refuses (returns `Err`)
/// when they come from different hosts, workloads or tracing modes,
/// or when runs of one seed disagree on the reward digest.
pub fn compare(base: &Path, change: &Path) -> Result<(), String> {
    let load = |path: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|err| format!("cannot read {}: {err}", path.display()))?;
        json::parse(&text).map_err(|err| format!("{}: {err}", path.display()))
    };
    let (a, b) = (load(base)?, load(change)?);
    let stamp = |doc: &Json, path: &Path| {
        doc.get("stamp")
            .and_then(Stamp::from_json)
            .ok_or_else(|| format!("{}: no host stamp", path.display()))
    };
    let (sa, sb) = (stamp(&a, base)?, stamp(&b, change)?);
    if sa.host_key() != sb.host_key() {
        return Err(format!(
            "refusing to compare results from different hosts: {:?} vs {:?}",
            sa.host_key(),
            sb.host_key()
        ));
    }
    for key in ["workload", "traced", "seconds"] {
        if a.get(key) != b.get(key) {
            return Err(format!(
                "refusing to compare runs with different {key}: {:?} vs {:?}",
                a.get(key),
                b.get(key)
            ));
        }
    }
    if a.get("seed") == b.get("seed") && a.get("digest") != b.get("digest") {
        return Err(format!(
            "runs of one seed disagree on the reward digest: {:?} vs {:?}",
            a.get("digest"),
            b.get("digest")
        ));
    }
    let metrics = |doc: &Json| -> BTreeMap<String, (f64, String)> {
        match doc.get("metrics") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .filter_map(|(name, m)| {
                    let value = m.get("value").and_then(Json::as_f64)?;
                    let unit = m.get("unit").and_then(Json::as_str)?.to_string();
                    Some((name.clone(), (value, unit)))
                })
                .collect(),
            _ => BTreeMap::new(),
        }
    };
    let (ma, mb) = (metrics(&a), metrics(&b));
    println!(
        "{:<34} {:>14} {:>14} {:>9}  unit",
        "metric", "base", "change", "change%"
    );
    for (name, (va, unit)) in &ma {
        let Some((vb, _)) = mb.get(name) else {
            println!("{name:<34} {va:>14.6} {:>14} {:>9}  {unit}", "-", "-");
            continue;
        };
        let pct = if *va != 0.0 {
            format!("{:+.1}", 100.0 * (vb - va) / va.abs())
        } else {
            "-".into()
        };
        println!("{name:<34} {va:>14.6} {vb:>14.6} {pct:>9}  {unit}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(cpu: &str, digest: &str, latency: f64) -> RunResult {
        let mut metrics = Metrics::default();
        metrics.push("latency_p50_s", latency, "s", 100);
        RunResult {
            workload: "attack-local",
            seed: 1,
            seconds: 10,
            traced: false,
            stamp: Stamp {
                cpu: cpu.into(),
                nproc: 2,
                kernel: "6.1".into(),
                rustc: "rustc 1.0".into(),
                commit: "unknown".into(),
            },
            digest: Some(digest.into()),
            correct: true,
            attempted: 10,
            failed: 0,
            metrics,
            figures: Metrics::default(),
        }
    }

    fn write(dir: &Path, name: &str, r: &RunResult) -> std::path::PathBuf {
        let path = dir.join(name);
        std::fs::write(&path, r.to_json().render()).unwrap();
        path
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbench-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn final_line_has_exactly_the_contract_keys() {
        let line = result("cpu", "d", 0.0123456789).final_line();
        let doc = json::parse(&line).unwrap();
        let Json::Obj(fields) = &doc else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = doc.get("metrics").unwrap().get("latency_p50_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.0123456789));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn compare_refuses_other_hosts_and_diverging_digests() {
        let dir = scratch("compare");
        let a = write(&dir, "a.json", &result("cpu A", "d1", 1.0));
        let same = write(&dir, "b.json", &result("cpu A", "d1", 1.1));
        let other_host = write(&dir, "c.json", &result("cpu B", "d1", 1.0));
        let other_digest = write(&dir, "d.json", &result("cpu A", "d2", 1.0));
        assert!(compare(&a, &same).is_ok());
        assert!(compare(&a, &other_host)
            .unwrap_err()
            .contains("different hosts"));
        assert!(compare(&a, &other_digest).unwrap_err().contains("digest"));
        std::fs::remove_dir_all(dir).unwrap();
    }
}
