//! The four bank workloads and one round of each: build and pre-fund a
//! fresh database, drive it from closed-loop clients, and check the run.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use mdts_engine::db::Aborted;
use mdts_engine::{
    ConcurrentCc, Database, DurabilityConfig, MetricsSnapshot, ShardedMtCc, TxError,
};
use mdts_model::ItemId;
use mdts_storage::{ShardedStore, Store, DEFAULT_STORE_SHARDS};
use mdts_trace::TraceSink;

use crate::gen::{client_ops, Accounts, Mix, Op};
use crate::ledger::{Ledger, NoProbe, Probe, Recorder, SpanCounts};
use crate::stats::{percentile, process_cpu_s, Percentile};
use crate::timed::{take_core, CoreTls, TimedCc};

/// MT(k) vector size for every workload.
pub const K: usize = 3;
/// Restart budget per transaction, as in the repository's engine benches.
/// A transaction that exhausts it counts as failed.
pub const MAX_RESTARTS: usize = 2_000;
/// Opening balance of every account.
pub const BALANCE: i64 = 1_000;

/// Which engine configuration a workload runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// Single-version sharded MT(k), in memory.
    InMemory,
    /// MV-MT(k): audits are snapshot transactions.
    MultiVersion,
    /// Single-version sharded MT(k) with the group-commit WAL.
    Durable,
}

/// One workload: engine, clients, operation mix and round size.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Engine configuration.
    pub engine: EngineKind,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Operation mix.
    pub mix: Mix,
    /// Transactions per round, over all clients.
    pub round_txns: usize,
}

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] =
    ["transfer-uniform", "transfer-hot", "audit-mv", "transfer-durable"];

/// The workloads `BENCHMARK.json` lists: the ones whose figures repeat
/// within their bounds on a shared 2-vCPU host. `audit-mv` and
/// `transfer-durable` run and are checked the same way, but their
/// run-to-run spread is wider than any allowed bound (see README.md).
pub const GATED_WORKLOADS: [&str; 2] = ["transfer-uniform", "transfer-hot"];

impl Spec {
    /// The named workload.
    pub fn named(name: &str) -> Option<Spec> {
        let (engine, clients, accounts, theta, audit_frac, scan, round_txns) = match name {
            "transfer-uniform" => (EngineKind::InMemory, 1, 1 << 20, 0.0, 0.25, 4, 200_000),
            "transfer-hot" => (EngineKind::InMemory, 2, 256, 0.9, 0.25, 4, 300_000),
            "audit-mv" => (EngineKind::MultiVersion, 2, 256, 0.9, 0.95, 8, 400_000),
            "transfer-durable" => (EngineKind::Durable, 2, 1 << 16, 0.0, 0.25, 4, 12_000),
            _ => return None,
        };
        let name = WORKLOADS.into_iter().find(|w| *w == name)?;
        Some(Spec {
            name,
            engine,
            clients,
            mix: Mix { accounts, theta, audit_frac, scan },
            round_txns,
        })
    }

    /// Each client's operations for `seed` (the same in every round).
    pub fn inputs(&self, seed: u64) -> Vec<Vec<Op>> {
        let accounts = Accounts::new(self.mix.accounts, self.mix.theta);
        let per_client = self.round_txns / self.clients;
        (0..self.clients).map(|c| client_ops(&self.mix, &accounts, seed, c, per_client)).collect()
    }
}

/// What one round measured and checked.
#[derive(Debug)]
pub struct Round {
    /// Building and pre-funding the database, with the WAL opened and
    /// checkpointed on the durable workload.
    pub setup_s: f64,
    /// The timed window.
    pub window_s: f64,
    /// Process CPU time over the window.
    pub cpu_s: f64,
    /// Operations issued.
    pub attempted: u64,
    /// Operations that ended in `RetriesExhausted`.
    pub retries_exhausted: u64,
    /// Operations that ended in `DurabilityUnknown`.
    pub durability_unknown: u64,
    /// Audits issued.
    pub audits: u64,
    /// Client-side wall time of each transfer call, ns.
    pub transfer_ns: Vec<u32>,
    /// Client-side wall time of each audit call, ns.
    pub audit_ns: Vec<u32>,
    /// Engine counters and gauges when the window opened.
    pub setup_metrics: MetricsSnapshot,
    /// Engine counters and gauges after the window.
    pub metrics: MetricsSnapshot,
    /// Cold recovery of the round's log (durable only), seconds.
    pub recovery_s: Option<f64>,
    /// Commits that recovery replayed (durable only).
    pub recovery_commits: u64,
    /// Size of the round's log file (durable only).
    pub wal_file_bytes: u64,
    /// Per-client ledgers (traced rounds).
    pub ledgers: Vec<Ledger>,
    /// Per-client span counts (traced rounds).
    pub spans: Vec<SpanCounts>,
    /// Core-call charges summed over the clients (traced rounds).
    pub core: CoreTls,
    /// Nanoseconds and lookups of [`time_fetches`] (traced rounds).
    pub fetch: Option<(u64, u64)>,
    /// Failed correctness checks; empty when the round is correct.
    pub errors: Vec<String>,
    /// Transfer p50/p99 and audit p50/p99 of this round, filled by
    /// [`Round::summarize`].
    pub latency: [Option<Percentile>; 4],
}

impl Round {
    /// Committed transactions in the window.
    pub fn commits(&self) -> u64 {
        self.metrics.commits - self.setup_metrics.commits
    }

    /// Computes the latency percentiles and frees the samples, so that
    /// kept rounds do not add to the process's peak memory.
    pub fn summarize(&mut self) {
        for (i, v) in [&mut self.transfer_ns, &mut self.audit_ns].into_iter().enumerate() {
            v.sort_unstable();
            self.latency[2 * i] = percentile(v, 0.5);
            self.latency[2 * i + 1] = percentile(v, 0.99);
            *v = Vec::new();
        }
    }
}

/// What a client thread hands back.
struct ClientOut {
    transfer_ns: Vec<u32>,
    audit_ns: Vec<u32>,
    retries_exhausted: u64,
    durability_unknown: u64,
    audits: u64,
    ledger: Option<(Ledger, SpanCounts)>,
    core: CoreTls,
}

fn ns_since(t: Instant) -> u32 {
    u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX)
}

/// Drives one client's operations in a closed loop.
fn client<P: Probe>(db: &Database<i64>, ops: &[Op], probe: &mut P) -> ClientOut {
    let mv = db.has_multiversion();
    let mut out = ClientOut {
        transfer_ns: Vec::with_capacity(ops.len()),
        audit_ns: Vec::with_capacity(ops.len()),
        retries_exhausted: 0,
        durability_unknown: 0,
        audits: 0,
        ledger: None,
        core: CoreTls::default(),
    };
    for op in ops {
        probe.call_start();
        let t0 = Instant::now();
        let result: Result<(), TxError> = match *op {
            Op::Transfer { src, dst } => {
                let r = db.run_with_footprint(MAX_RESTARTS, &[src, dst], |tx| {
                    probe.enter();
                    let body = (|| {
                        let a = probe.read(tx, src)?.unwrap_or(0);
                        let b = probe.read(tx, dst)?.unwrap_or(0);
                        probe.write(tx, src, a - 1)?;
                        probe.write(tx, dst, b + 1)?;
                        Ok::<(), Aborted>(())
                    })();
                    probe.exit(body.is_ok());
                    body
                });
                out.transfer_ns.push(ns_since(t0));
                r
            }
            Op::Audit { items, len } => {
                let items = &items[..usize::from(len)];
                out.audits += 1;
                let r = if mv {
                    let sum = db.run_read_only(|tx| {
                        probe.enter();
                        let sum: i64 =
                            items.iter().map(|&a| probe.snapshot_read(tx, a).unwrap_or(0)).sum();
                        probe.exit(true);
                        sum
                    });
                    std::hint::black_box(sum);
                    Ok(())
                } else {
                    db.run(MAX_RESTARTS, |tx| {
                        probe.enter();
                        let body = (|| {
                            let mut sum = 0i64;
                            for &a in items {
                                sum += probe.read(tx, a)?.unwrap_or(0);
                            }
                            Ok::<i64, Aborted>(sum)
                        })();
                        probe.exit(body.is_ok());
                        body
                    })
                    .map(|sum| {
                        std::hint::black_box(sum);
                    })
                };
                out.audit_ns.push(ns_since(t0));
                r
            }
        };
        match result {
            Ok(()) => probe.call_end(true),
            Err(TxError::DurabilityUnknown) => {
                out.durability_unknown += 1;
                probe.call_end(true);
            }
            Err(TxError::RetriesExhausted) => {
                out.retries_exhausted += 1;
                probe.call_end(false);
            }
        }
    }
    out
}

/// The protocol, behind the timing wrapper in traced rounds.
fn protocol(traced: bool) -> Box<dyn ConcurrentCc> {
    let cc = ShardedMtCc::new(K);
    if traced {
        Box::new(TimedCc::new(cc))
    } else {
        Box::new(cc)
    }
}

/// A pre-funded sharded store laid out as the engine lays out its own:
/// the same accounts over the same number of shards.
pub fn twin_store(spec: &Spec) -> ShardedStore<i64> {
    ShardedStore::from_store(Store::with_items(spec.mix.accounts, BALANCE), DEFAULT_STORE_SHARDS)
}

/// Times the sharded store from outside the engine: every account the
/// operations read, in order, fetched from `store` the way `Tx::read`
/// fetches a value (lock the item's shard, then search it). Returns the
/// nanoseconds and the lookup count, or `None` if an account is missing.
pub fn time_fetches(store: &ShardedStore<i64>, inputs: &[Vec<Op>]) -> Option<(u64, u64)> {
    let mut items: Vec<ItemId> = Vec::new();
    for op in inputs.iter().flatten() {
        match *op {
            Op::Transfer { src, dst } => items.extend([src, dst]),
            Op::Audit { items: scan, len } => items.extend_from_slice(&scan[..usize::from(len)]),
        }
    }
    let t0 = Instant::now();
    let mut found = 0u64;
    for &item in &items {
        let shard = store.lock_shard(store.shard_index(item));
        found += u64::from(std::hint::black_box(shard.get(&item)).is_some());
    }
    let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (found == items.len() as u64).then_some((ns, found))
}

fn build(spec: &Spec, traced: bool, wal: &Path) -> std::io::Result<Database<i64>> {
    let store = Store::with_items(spec.mix.accounts, BALANCE);
    Ok(match spec.engine {
        EngineKind::InMemory => Database::with_store_concurrent(protocol(traced), store),
        // The multiversion constructor takes the concrete protocol, so
        // its core calls cannot be wrapped.
        EngineKind::MultiVersion => Database::with_store_multiversion_traced(
            ShardedMtCc::new(K),
            store,
            TraceSink::disabled(),
        ),
        EngineKind::Durable => {
            remove_if_present(wal)?;
            let config = DurabilityConfig::new(wal);
            let (db, recovered) = Database::with_store_concurrent_durable(
                protocol(traced),
                store,
                TraceSink::disabled(),
                &config,
            )?;
            assert_eq!(recovered.report.replayed_commits, 0, "a fresh log recovered commits");
            db
        }
    })
}

fn remove_if_present(path: &Path) -> std::io::Result<()> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Runs one round of `spec` over `inputs` (one operation list per
/// client). `traced` also times the core calls through [`TimedCc`] and
/// records client-side spans and engine phase timers; `wal_dir` holds the
/// durable workload's log.
pub fn run_round(
    spec: &Spec,
    inputs: &[Vec<Op>],
    traced: bool,
    wal_dir: &Path,
) -> std::io::Result<Round> {
    assert_eq!(inputs.len(), spec.clients, "one input list per client");
    static ROUNDS: AtomicU64 = AtomicU64::new(0);
    let n = ROUNDS.fetch_add(1, Ordering::Relaxed);
    let wal: PathBuf = wal_dir.join(format!("{}-{}-{n}.wal", spec.name, std::process::id()));
    let round_start = Instant::now();
    let db = build(spec, traced, &wal)?;
    let setup_s = round_start.elapsed().as_secs_f64();
    if traced {
        db.set_phase_timing(true);
    }
    // The multiversion constructor takes the concrete protocol (see build).
    let wrapped = traced && spec.engine != EngineKind::MultiVersion;
    let durable = spec.engine == EngineKind::Durable;
    let setup_metrics = db.metrics();
    let barrier = Barrier::new(spec.clients + 1);
    let (outs, t0, cpu0) = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .iter()
            .map(|ops| {
                let (db, barrier) = (&db, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    if traced {
                        let mut rec = Recorder::new(wrapped, durable);
                        let mut out = client(db, ops, &mut rec);
                        out.ledger = Some(rec.finish());
                        out.core = take_core();
                        out
                    } else {
                        client(db, ops, &mut NoProbe)
                    }
                })
            })
            .collect();
        barrier.wait();
        let (t0, cpu0) = (Instant::now(), process_cpu_s());
        let outs: Vec<ClientOut> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        (outs, t0, cpu0)
    });
    let mut round = Round {
        setup_s,
        window_s: t0.elapsed().as_secs_f64(),
        cpu_s: process_cpu_s() - cpu0,
        attempted: 0,
        retries_exhausted: 0,
        durability_unknown: 0,
        audits: 0,
        transfer_ns: Vec::new(),
        audit_ns: Vec::new(),
        setup_metrics,
        metrics: setup_metrics,
        recovery_s: None,
        recovery_commits: 0,
        wal_file_bytes: 0,
        ledgers: Vec::new(),
        spans: Vec::new(),
        core: CoreTls::default(),
        fetch: None,
        errors: Vec::new(),
        latency: [None; 4],
    };
    for out in outs {
        round.attempted += (out.transfer_ns.len() + out.audit_ns.len()) as u64;
        round.retries_exhausted += out.retries_exhausted;
        round.durability_unknown += out.durability_unknown;
        round.audits += out.audits;
        round.transfer_ns.extend(out.transfer_ns);
        round.audit_ns.extend(out.audit_ns);
        if let Some((ledger, spans)) = out.ledger {
            round.ledgers.push(ledger);
            round.spans.push(spans);
        }
        add_core(&mut round.core, &out.core);
    }
    check_round(spec, db, &wal, &mut round)?;
    Ok(round)
}

fn add_core(acc: &mut CoreTls, c: &CoreTls) {
    for i in 0..acc.ns.len() {
        acc.ns[i] += c.ns[i];
        acc.calls[i] += c.calls[i];
    }
    acc.read_rejects += c.read_rejects;
    acc.validate_rejects += c.validate_rejects;
    acc.release_in_access_ns += c.release_in_access_ns;
    acc.total_ns += c.total_ns;
}

/// The correctness gate: conservation, snapshot accounting, and on the
/// durable workload a clean sync and an exact cold recovery.
fn check_round(
    spec: &Spec,
    db: Database<i64>,
    wal: &Path,
    round: &mut Round,
) -> std::io::Result<()> {
    let expected = i64::from(spec.mix.accounts) * BALANCE;
    let errors = &mut round.errors;
    if spec.engine == EngineKind::Durable && !db.sync() {
        errors.push("db.sync() reported a WAL failure".into());
    }
    round.metrics = db.metrics();
    let m = &round.metrics;
    let snapshot = db.snapshot();
    let total: i64 = snapshot.values().sum();
    if total != expected {
        errors.push(format!("bank total {total} != {expected}"));
    }
    if snapshot.len() != spec.mix.accounts as usize {
        errors.push(format!(
            "{} accounts in the store, {} funded",
            snapshot.len(),
            spec.mix.accounts
        ));
    }
    let issued = round.attempted - round.retries_exhausted;
    if m.commits != issued {
        errors.push(format!("{} commits for {issued} operations that did not fail", m.commits));
    }
    // Traced rounds: every incarnation the engine ran entered a closure
    // the client loop timed, so the spans cover the engine's whole count.
    if !round.spans.is_empty() {
        let entered: u64 = round.spans.iter().map(|c| c.incarnations).sum();
        if entered != m.commits + m.aborts {
            errors.push(format!(
                "{entered} closure entries for {} commits + {} aborts",
                m.commits, m.aborts
            ));
        }
    }
    if spec.engine == EngineKind::MultiVersion && m.snapshot_txns != round.audits {
        errors.push(format!("{} snapshot txns for {} audits", m.snapshot_txns, round.audits));
    }
    if spec.engine == EngineKind::Durable {
        if m.wal_unacked != 0 {
            errors.push(format!("{} commits were never acknowledged", m.wal_unacked));
        }
        drop(db);
        round.wal_file_bytes = std::fs::metadata(wal)?.len();
        let t = Instant::now();
        let recovered = mdts_storage::recover::<i64>(wal)?;
        round.recovery_s = Some(t.elapsed().as_secs_f64());
        let r = &recovered.report;
        round.recovery_commits = r.replayed_commits;
        let rec_total: i64 = recovered.store.iter().map(|(_, v)| *v).sum();
        if rec_total != expected {
            errors.push(format!("recovered bank total {rec_total} != {expected}"));
        }
        if r.scan.torn || r.unsealed_tail || r.malformed {
            errors.push(format!("recovery found a damaged tail: {r:?}"));
        }
        if r.replayed_commits != m.wal_commits {
            errors.push(format!(
                "recovery replayed {} commits, the WAL framed {}",
                r.replayed_commits, m.wal_commits
            ));
        }
        let same = recovered.store.len() == snapshot.len()
            && recovered.store.iter().all(|(item, v)| snapshot.get(&item) == Some(v));
        if !same {
            errors.push("recovered store differs from the final in-memory store".into());
        }
        remove_if_present(wal)?;
    }
    Ok(())
}
