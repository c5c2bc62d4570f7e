//! Turns rounds into named metrics: end-to-end figures from the measured
//! (untraced) rounds, per-layer figures and the ledger from the traced
//! ones.

use mdts_engine::{MetricsSnapshot, Phase};

use crate::bank::{EngineKind, Round, Spec};
use crate::ledger::Ledger;
use crate::stats::{median, ratio};
use crate::timed::CoreCall;

/// End-to-end metrics in `BENCHMARK.json`: present and non-zero on every
/// workload, printed on the result line of an untraced run.
pub const END_TO_END: [&str; 8] = [
    "setup_s",
    "commits_per_s",
    "commits_per_cpu_s",
    "transfer_p50_us",
    "transfer_p99_us",
    "audit_p50_us",
    "audit_p99_us",
    "peak_rss_mb",
];

/// Per-layer metrics in `BENCHMARK.json`: measured and non-zero on every
/// workload it lists, printed on the result line of a traced run. The
/// report line carries every other per-layer metric where it applies.
pub const PER_LAYER: [&str; 24] = [
    "core.begin_ns",
    "core.read_ns",
    "core.write_ns",
    "core.validate_ns",
    "core.release_ns",
    "core.warm_probes_ns",
    "core.read_reject_frac",
    "core.validate_reject_frac",
    "core.live_rows",
    "core.row_chunks",
    "engine.admit_ns",
    "engine.read_ns",
    "engine.write_ns",
    "engine.commit_ns",
    "engine.backoff_ns_per_commit",
    "engine.wasted_ns_per_commit",
    "engine.useful_incarnation_frac",
    "engine.access_aborts_per_commit",
    "engine.validation_aborts_per_commit",
    "engine.trace_overhead_frac",
    "vector.order_cache_hit_frac",
    "vector.order_cache_bulk_fills_per_commit",
    "vector.batched_compares_per_commit",
    "storage.fetch_ns",
];

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind a percentile, if it is one.
    pub samples: Option<usize>,
}

/// An ordered list of metrics.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit, samples: None });
    }

    fn put_n(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric { name, value, unit, samples: Some(samples) });
    }

    /// The metric called `name`.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }
}

fn med(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>()).unwrap_or(0.0)
}

fn cps(r: &Round) -> f64 {
    ratio(r.commits() as f64, r.window_s)
}

/// Median over rounds of a per-round latency percentile (see
/// [`Round::latency`]), in µs, with the total sample count behind it.
fn latency(rounds: &[&Round], which: usize) -> (f64, usize) {
    let per_round: Vec<_> = rounds.iter().filter_map(|r| r.latency[which]).collect();
    let values: Vec<f64> = per_round.iter().map(|p| p.value / 1e3).collect();
    (median(&values).unwrap_or(0.0), per_round.iter().map(|p| p.samples).sum())
}

/// End-to-end metrics over the measured rounds, plus the report-only
/// ones (`failed_frac`, and `recovery_s`/`wal_bytes_per_commit` on the
/// durable workload). `peak_rss_mb` is the process's VmHWM.
pub fn end_to_end(spec: &Spec, rounds: &[&Round], peak_rss_mb: f64) -> Metrics {
    let mut m = Metrics::default();
    m.put("setup_s", med(rounds, |r| r.setup_s), "s");
    m.put("commits_per_s", med(rounds, cps), "1/s");
    m.put("commits_per_cpu_s", med(rounds, |r| ratio(r.commits() as f64, r.cpu_s)), "1/s");
    for (which, name) in ["transfer_p50_us", "transfer_p99_us", "audit_p50_us", "audit_p99_us"]
        .into_iter()
        .enumerate()
    {
        let (v, n) = latency(rounds, which);
        m.put_n(name, v, "us", n);
    }
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.retries_exhausted + r.durability_unknown).sum();
    m.put("failed_frac", ratio(failed as f64, attempted as f64), "frac");
    m.put("peak_rss_mb", peak_rss_mb, "MiB");
    if spec.engine == EngineKind::Durable {
        m.put("recovery_s", med(rounds, |r| r.recovery_s.unwrap_or(0.0)), "s");
        m.put(
            "wal_bytes_per_commit",
            med(rounds, |r| {
                let bytes = r.metrics.wal_bytes - r.setup_metrics.wal_bytes;
                ratio(bytes as f64, r.commits() as f64)
            }),
            "B",
        );
    }
    m
}

/// Counters over the traced rounds, summed.
#[derive(Default)]
struct Sums {
    commits: f64,
    aborts: f64,
    access_aborts: f64,
    validation_aborts: f64,
    reads: f64,
    snapshot_txns: f64,
    blocked_waits: f64,
    hits: f64,
    misses: f64,
    bulk_fills: f64,
    batched: f64,
    phase_ns: [f64; mdts_engine::PHASE_COUNT],
    phase_spans: [f64; mdts_engine::PHASE_COUNT],
    core_ns: [f64; crate::timed::CORE_CALLS],
    core_calls: [f64; crate::timed::CORE_CALLS],
    read_rejects: f64,
    validate_rejects: f64,
    release_in_access_ns: f64,
    span_read_ns: f64,
    span_reads: f64,
    span_write_ns: f64,
    span_writes: f64,
    snapshot_read_ns: f64,
    snapshot_reads: f64,
    ledger: Ledger,
    admit_batches: f64,
    admit_txns: f64,
    admit_parked: f64,
    pruned: f64,
    fetch_ns: f64,
    fetches: f64,
    wal_commits: f64,
    wal_fsyncs: f64,
}

fn delta(r: &Round) -> MetricsSnapshot {
    r.metrics.delta(&r.setup_metrics)
}

fn sums(rounds: &[&Round]) -> Sums {
    let mut s = Sums::default();
    for r in rounds {
        let m = delta(r);
        let g = &r.metrics.gauges;
        s.commits += m.commits as f64;
        s.aborts += m.aborts as f64;
        s.access_aborts += m.access_aborts as f64;
        s.validation_aborts += m.validation_aborts as f64;
        s.reads += m.reads as f64;
        s.snapshot_txns += m.snapshot_txns as f64;
        s.blocked_waits += m.blocked_waits as f64;
        s.hits += m.order_cache_hits as f64;
        s.misses += m.order_cache_misses as f64;
        s.bulk_fills += m.order_cache_bulk_fills as f64;
        s.batched += m.batched_compares as f64;
        s.wal_commits += m.wal_commits as f64;
        s.wal_fsyncs += m.wal_fsyncs as f64;
        for p in Phase::ALL {
            s.phase_ns[p as usize] += m.phases.total_ns[p as usize] as f64;
            s.phase_spans[p as usize] += m.phases.spans[p as usize].count as f64;
        }
        for i in 0..s.core_ns.len() {
            s.core_ns[i] += r.core.ns[i] as f64;
            s.core_calls[i] += r.core.calls[i] as f64;
        }
        s.read_rejects += r.core.read_rejects as f64;
        s.validate_rejects += r.core.validate_rejects as f64;
        s.release_in_access_ns += r.core.release_in_access_ns as f64;
        for c in &r.spans {
            s.span_read_ns += c.read_ns as f64;
            s.span_reads += c.reads as f64;
            s.span_write_ns += c.write_ns as f64;
            s.span_writes += c.writes as f64;
            s.snapshot_read_ns += c.snapshot_read_ns as f64;
            s.snapshot_reads += c.snapshot_reads as f64;
        }
        for l in &r.ledgers {
            s.ledger.add(l);
        }
        s.admit_batches += g.admit_batches as f64;
        s.admit_txns += g.admit_batched_txns as f64;
        s.admit_parked += g.admit_parked as f64;
        s.pruned += g.mv_pruned as f64;
        if let Some((ns, n)) = r.fetch {
            s.fetch_ns += ns as f64;
            s.fetches += n as f64;
        }
    }
    s
}

/// Upper bound of the MV chain-length bucket holding the 99th percentile
/// chain (bucket `b` covers lengths `2^(b-1)+1 ..= 2^b`).
pub fn chain_len_p99(buckets: &[u64]) -> f64 {
    let total: u64 = buckets.iter().sum();
    let mut seen = 0;
    for (b, &n) in buckets.iter().enumerate() {
        seen += n;
        if total > 0 && seen as f64 >= 0.99 * total as f64 {
            return (1u64 << b) as f64;
        }
    }
    0.0
}

/// Per-layer metrics over the traced rounds; `untraced` gives the
/// baseline for the trace overhead. A metric that does not apply to the
/// workload, or that needs the core wrapper where it cannot be
/// installed, is omitted.
pub fn per_layer(spec: &Spec, traced: &[&Round], untraced: &[&Round]) -> Metrics {
    let s = sums(traced);
    let wrapped = spec.engine != EngineKind::MultiVersion;
    let mut m = Metrics::default();
    let per_commit = |x: f64| ratio(x, s.commits);
    let core = |c: CoreCall| ratio(s.core_ns[c as usize], s.core_calls[c as usize]);
    let phase = |p: Phase| s.phase_ns[p as usize];
    let incarnations = s.commits + s.aborts;

    if wrapped {
        m.put("core.begin_ns", core(CoreCall::Begin), "ns");
        m.put("core.read_ns", core(CoreCall::Read), "ns");
        m.put("core.write_ns", core(CoreCall::Write), "ns");
        m.put("core.validate_ns", core(CoreCall::Validate), "ns");
        m.put("core.release_ns", core(CoreCall::Release), "ns");
        m.put("core.warm_probes_ns", per_commit(s.core_ns[CoreCall::WarmProbes as usize]), "ns");
        m.put(
            "core.read_reject_frac",
            ratio(s.read_rejects, s.core_calls[CoreCall::Read as usize]),
            "frac",
        );
        m.put(
            "core.validate_reject_frac",
            ratio(s.validate_rejects, s.core_calls[CoreCall::Validate as usize]),
            "frac",
        );
    } else {
        // Same definitions from the engine's counters: MT(k) rejects only
        // reads at access time and only writes at validation.
        m.put("core.read_reject_frac", ratio(s.access_aborts, s.reads + s.access_aborts), "frac");
        let validations = s.commits - s.snapshot_txns + s.validation_aborts;
        m.put("core.validate_reject_frac", ratio(s.validation_aborts, validations), "frac");
    }
    m.put("core.live_rows", med(traced, |r| r.metrics.gauges.sched_live_rows as f64), "count");
    m.put("core.row_chunks", med(traced, |r| r.metrics.gauges.sched_row_chunks as f64), "count");

    if wrapped {
        let admit_core =
            s.core_ns[CoreCall::Begin as usize] + s.core_ns[CoreCall::WarmProbes as usize];
        m.put("engine.admit_ns", ratio(phase(Phase::Admission) - admit_core, incarnations), "ns");
    }
    m.put("engine.admit_batch_mean", ratio(s.admit_txns, s.admit_batches), "count");
    m.put("engine.admit_parked_frac", ratio(s.admit_parked, s.admit_txns), "frac");
    if wrapped {
        m.put("engine.read_ns", ratio(s.span_read_ns, s.span_reads), "ns");
        m.put("engine.write_ns", ratio(s.span_write_ns, s.span_writes), "ns");
        let commit_core = s.core_ns[CoreCall::Validate as usize]
            + s.core_ns[CoreCall::Release as usize]
            - s.release_in_access_ns;
        m.put(
            "engine.commit_ns",
            ratio(phase(Phase::Commit) - commit_core, s.phase_spans[Phase::Commit as usize]),
            "ns",
        );
    }
    m.put("engine.backoff_ns_per_commit", per_commit(phase(Phase::Backoff)), "ns");
    m.put("engine.block_wait_ns_per_commit", per_commit(phase(Phase::BlockWait)), "ns");
    m.put("engine.blocked_waits_per_commit", per_commit(s.blocked_waits), "count");
    m.put("engine.wasted_ns_per_commit", per_commit(s.ledger.wasted as f64), "ns");
    m.put("engine.useful_incarnation_frac", ratio(s.commits, incarnations), "frac");
    m.put("engine.access_aborts_per_commit", per_commit(s.access_aborts), "count");
    m.put("engine.validation_aborts_per_commit", per_commit(s.validation_aborts), "count");
    if spec.engine == EngineKind::MultiVersion {
        m.put("engine.snapshot_read_ns", ratio(s.snapshot_read_ns, s.snapshot_reads), "ns");
    }
    if spec.engine == EngineKind::Durable {
        m.put("engine.fsync_wait_ns_per_commit", per_commit(phase(Phase::FsyncWait)), "ns");
    }
    m.put(
        "engine.unattributed_frac",
        ratio(s.ledger.unattributed as f64, s.ledger.wall as f64),
        "frac",
    );
    m.put("engine.trace_overhead_frac", 1.0 - ratio(med(traced, cps), med(untraced, cps)), "frac");

    m.put("vector.order_cache_hit_frac", ratio(s.hits, s.hits + s.misses), "frac");
    m.put("vector.order_cache_bulk_fills_per_commit", per_commit(s.bulk_fills), "count");
    m.put("vector.batched_compares_per_commit", per_commit(s.batched), "count");
    m.put(
        "vector.order_cache_epoch_flushes",
        med(traced, |r| r.metrics.gauges.order_cache_epoch_flushes as f64),
        "count",
    );

    if s.fetches > 0.0 {
        m.put("storage.fetch_ns", ratio(s.fetch_ns, s.fetches), "ns");
    }
    if spec.engine == EngineKind::MultiVersion {
        m.put(
            "storage.chain_walk_ns",
            ratio(phase(Phase::ChainWalk), s.phase_spans[Phase::ChainWalk as usize]),
            "ns",
        );
        m.put(
            "storage.mv_chain_len_p99",
            med(traced, |r| chain_len_p99(&r.metrics.gauges.mv_chain_len_buckets)),
            "count",
        );
        m.put("storage.mv_pruned_per_commit", per_commit(s.pruned), "count");
    }
    if spec.engine == EngineKind::Durable {
        m.put("storage.wal_fsyncs_per_commit", per_commit(s.wal_fsyncs), "count");
        m.put("storage.commits_per_epoch", ratio(s.wal_commits, s.wal_fsyncs), "count");
        m.put("storage.recovery_commits", med(traced, |r| r.recovery_commits as f64), "count");
        m.put(
            "storage.recovery_mb_per_s",
            med(traced, |r| ratio(r.wal_file_bytes as f64 / 1e6, r.recovery_s.unwrap_or(0.0))),
            "MB/s",
        );
    }
    m
}

/// The ledger summed over every client of every traced round, with the
/// engine's `BlockWait` phase total moved out of the engine part.
pub fn ledger(traced: &[&Round]) -> Ledger {
    let s = sums(traced);
    let mut l = s.ledger;
    let block = (s.phase_ns[Phase::BlockWait as usize] as i64).min(l.engine);
    l.block_wait += block;
    l.engine -= block;
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_len_p99_reads_the_bucket_upper_bound() {
        assert_eq!(chain_len_p99(&[0; 4]), 0.0);
        assert_eq!(chain_len_p99(&[100, 0, 0]), 1.0);
        assert_eq!(chain_len_p99(&[90, 9, 1]), 2.0);
        assert_eq!(chain_len_p99(&[90, 8, 2]), 4.0);
        assert_eq!(chain_len_p99(&[99, 1, 0]), 1.0);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = mdts_trace::Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            match doc.get(key) {
                Some(mdts_trace::Json::Arr(items)) => items
                    .iter()
                    .map(|m| m.get("name").and_then(|n| n.as_str()).expect("named").to_string())
                    .collect(),
                _ => panic!("{key} is not a list"),
            }
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        assert_eq!(names("workloads"), crate::bank::GATED_WORKLOADS);
    }
}
