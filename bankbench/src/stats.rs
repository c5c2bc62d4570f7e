//! The benchmark's own arithmetic and host probes: percentiles with their
//! sample counts, medians, process CPU time, peak RSS, and the provenance
//! facts recorded with every result.

use std::path::Path;

/// A latency percentile together with the sample count it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank `ceil(q * n)` (1-based).
    pub value: f64,
    /// Number of samples the percentile was taken from.
    pub samples: usize,
}

/// Nearest-rank percentile of `sorted` (ascending) for `q` in `(0, 1]`:
/// the smallest sample with at least `q * n` samples at or below it.
/// `None` for an empty input.
pub fn percentile(sorted: &[u32], q: f64) -> Option<Percentile> {
    assert!(q > 0.0 && q <= 1.0, "percentile rank must lie in (0, 1]");
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples must be sorted");
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile { value: f64::from(sorted[rank - 1]), samples: n })
}

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty input.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + system) consumed so far by every thread of this
/// process, including ones the engine starts itself such as the
/// group-commit daemon, in seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, matching the C layout) that outlives the
    // call, and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Parses the `VmHWM` line (peak resident set) of a `/proc/<pid>/status`
/// text into MiB. `None` when the line is missing or malformed.
pub fn parse_vmhwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: u64 = fields.next()?.parse().ok()?;
    if fields.next()? != "kB" {
        return None;
    }
    Some(kib as f64 / 1024.0)
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vmhwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// The first `model name` of a `/proc/cpuinfo` text.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// This host's CPU model, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| parse_cpu_model(&s))
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the git repository at `repo`, read from
/// `.git` without running git; `"unknown"` outside a git checkout.
pub fn git_commit(repo: &Path) -> String {
    let git = repo.join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(hash) = read(&git.join(reference)) {
        return hash;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank_and_reports_the_count() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(Percentile { value: 50.0, samples: 100 }));
        assert_eq!(percentile(&v, 0.99), Some(Percentile { value: 99.0, samples: 100 }));
        assert_eq!(percentile(&v, 1.0).map(|p| p.value), Some(100.0));
        // 1000 samples: p99 is the 990th, leaving ten samples beyond it.
        let w: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile(&w, 0.99), Some(Percentile { value: 990.0, samples: 1000 }));
        assert_eq!(percentile(&[7], 0.99), Some(Percentile { value: 7.0, samples: 1 }));
        assert_eq!(percentile(&[3, 9], 0.5).map(|p| p.value), Some(3.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn ratio_of_zero_base_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }

    #[test]
    fn process_cpu_time_includes_other_threads() {
        let before = process_cpu_s();
        // A second thread burns ~60 ms of CPU while this one sleeps in join,
        // as the client threads do while the group-commit daemon works.
        std::thread::spawn(|| {
            let t0 = std::time::Instant::now();
            let mut x = 0u64;
            while t0.elapsed() < std::time::Duration::from_millis(60) {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
            }
        })
        .join()
        .expect("spinner thread panicked");
        let spent = process_cpu_s() - before;
        assert!(spent >= 0.04, "only {spent} CPU-s counted for a 60 ms spinner thread");
    }

    #[test]
    fn vmhwm_is_parsed_from_proc_status() {
        let status = "Name:\tbench\nVmPeak:\t  300000 kB\nVmHWM:\t  183296 kB\nVmRSS:\t  1000 kB\n";
        assert_eq!(parse_vmhwm_mb(status), Some(179.0));
        assert_eq!(parse_vmhwm_mb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vmhwm_mb("VmHWM:\t many kB\n"), None);
        assert_eq!(parse_vmhwm_mb("VmHWM:\t 12 MB\n"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn cpu_model_is_the_first_model_name() {
        let info = "processor\t: 0\nmodel name\t: Example CPU @ 2.0GHz\nprocessor\t: 1\nmodel name\t: Other\n";
        assert_eq!(parse_cpu_model(info).as_deref(), Some("Example CPU @ 2.0GHz"));
        assert_eq!(parse_cpu_model("processor : 0\n"), None);
    }
}
