//! What the run measured on: sample statistics, the process's peak
//! memory, and the host facts (cores, CPU model, the pinned CPU and
//! hypervisor steal) that let a run taken during a noisy spell be
//! recognised afterwards.

use std::fs;

/// The `p`-quantile (`0.0..=1.0`) of an ascending-sorted sample, by
/// linear interpolation between the two nearest ranks.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// The median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM:").map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The process's resident set now (`VmRSS`) in MiB.
pub fn rss_mib() -> f64 {
    status_field("VmRSS:").map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The CPUs this process may run on, as `/proc/self/status` lists them
/// (`"1"` when pinned to CPU 1).
pub fn allowed_cpus() -> String {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn status_field(name: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(name))?;
    line[name.len()..].split_whitespace().next()?.parse().ok()
}

/// Jiffies of one `/proc/stat` CPU line: total and steal.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

/// The `/proc/stat` times of every CPU together (`cpu`) and of the
/// CPUs the process may run on, summed.
#[derive(Clone, Copy, Debug, Default)]
pub struct StatSnapshot {
    all: CpuTimes,
    pinned: CpuTimes,
}

impl StatSnapshot {
    /// Reads `/proc/stat` now (empty when it is unreadable).
    pub fn take() -> StatSnapshot {
        let Ok(stat) = fs::read_to_string("/proc/stat") else {
            return StatSnapshot::default();
        };
        let cpus = cpu_names(&allowed_cpus());
        let mut snap = StatSnapshot::default();
        for line in stat.lines().filter(|l| l.starts_with("cpu")) {
            let mut fields = line.split_whitespace();
            let name = fields.next().unwrap_or_default().to_string();
            let jiffies: Vec<u64> = fields.filter_map(|f| f.parse().ok()).collect();
            // user nice system idle iowait irq softirq steal [guest guest_nice]:
            // guest time is already counted in user, so the first eight sum.
            let times = CpuTimes {
                total: jiffies.iter().take(8).sum(),
                steal: jiffies.get(7).copied().unwrap_or(0),
            };
            if name == "cpu" {
                snap.all = times;
            } else if cpus.contains(&name) {
                snap.pinned.total += times.total;
                snap.pinned.steal += times.steal;
            }
        }
        snap
    }

    /// Steal as a share of all CPU time since `earlier`, over the whole
    /// host and over the pinned CPUs.
    pub fn steal_since(&self, earlier: &StatSnapshot) -> (f64, f64) {
        let share = |now: CpuTimes, then: CpuTimes| {
            let total = now.total.saturating_sub(then.total);
            if total == 0 {
                0.0
            } else {
                now.steal.saturating_sub(then.steal) as f64 / total as f64
            }
        };
        (
            share(self.all, earlier.all),
            share(self.pinned, earlier.pinned),
        )
    }
}

/// `"0-1,3"` → `["cpu0", "cpu1", "cpu3"]`.
fn cpu_names(list: &str) -> Vec<String> {
    let mut names = Vec::new();
    for part in list.split(',') {
        let mut ends = part.trim().splitn(2, '-').map(str::parse::<usize>);
        match (ends.next(), ends.next()) {
            (Some(Ok(a)), Some(Ok(b))) => names.extend((a..=b).map(|c| format!("cpu{c}"))),
            (Some(Ok(a)), None) => names.push(format!("cpu{a}")),
            _ => {}
        }
    }
    names
}

/// One diagnostic line naming the host: logical cores, CPU model and the
/// CPUs this process is pinned to. The core count comes from
/// `/proc/cpuinfo`, not `available_parallelism`, which would report the
/// pinned set.
pub fn describe() -> String {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cores = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, v)| v.trim());
    format!(
        "cores={cores} model={model:?} pinned_cpus={}",
        allowed_cpus()
    )
}
