//! The benchmark's harness checked against the engine: the core wrapper
//! is decision-neutral, the traced ledger closes, and the correctness
//! gate passes on every engine configuration.

use std::path::Path;

use mdts_bankbench::bank::{run_round, time_fetches, twin_store, Round, Spec, K};
use mdts_bankbench::gen::{Mix, Op};
use mdts_bankbench::timed::{CoreCall, TimedCc};
use mdts_engine::{ConcurrentCc, ShardedMtCc};
use mdts_model::{ItemId, TxId};

fn small(name: &str, round_txns: usize) -> Spec {
    Spec { round_txns, ..Spec::named(name).expect("known workload") }
}

fn round(spec: &Spec, traced: bool) -> Round {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let r = run_round(spec, &spec.inputs(42), traced, dir).expect("round I/O");
    assert_eq!(r.errors, Vec::<String>::new(), "{} failed its correctness gate", spec.name);
    r
}

/// The counters the forwarding test compares: commits, aborts by reason,
/// order-cache and batched-compare traffic, and the scheduler gauges.
fn decisions(r: &Round) -> [u64; 12] {
    let m = &r.metrics;
    [
        m.commits,
        m.aborts,
        m.access_aborts,
        m.validation_aborts,
        m.epoch_aborts,
        m.order_cache_hits,
        m.order_cache_misses,
        m.order_cache_bulk_fills,
        m.batched_compares,
        m.gauges.sched_live_rows,
        m.gauges.sched_row_chunks,
        m.gauges.admit_prewarm_pairs,
    ]
}

#[test]
fn wrapped_and_unwrapped_transfer_uniform_runs_decide_identically() {
    // One client, so every decision is a function of the seed alone.
    let spec = small("transfer-uniform", 20_000);
    let bare = round(&spec, false);
    assert!(bare.metrics.aborts > 0, "the run must exercise restarts");
    assert!(bare.metrics.order_cache_bulk_fills > 0, "the run must exercise the prewarm");
    let timed = round(&spec, true);
    assert_eq!(decisions(&timed), decisions(&bare));
    for call in [
        CoreCall::Begin,
        CoreCall::Read,
        CoreCall::Write,
        CoreCall::Validate,
        CoreCall::Release,
        CoreCall::WarmProbes,
    ] {
        assert!(timed.core.calls[call as usize] > 0, "{call:?} was never timed");
    }
    let m = &timed.metrics;
    assert_eq!(timed.core.read_rejects, m.access_aborts);
    assert_eq!(timed.core.validate_rejects, m.validation_aborts);
    assert_eq!(timed.core.calls[CoreCall::Release as usize], m.commits + m.aborts);
}

#[test]
fn the_wrapper_forwards_every_query() {
    let bare = ShardedMtCc::new(K);
    let timed = TimedCc::new(ShardedMtCc::new(K));
    for cc in [&bare as &dyn ConcurrentCc, &timed] {
        cc.begin(TxId(1));
        cc.begin_restarted(TxId(2), TxId(1));
        let _ = cc.read(TxId(2), ItemId(7));
        let mut pairs = [(ItemId(7), TxId(2))];
        cc.warm_probes(&mut pairs);
        cc.committed(TxId(2));
    }
    assert_eq!(timed.name(), bare.name());
    assert_eq!(timed.epoch(), bare.epoch());
    assert_eq!(timed.order_cache_stats(), bare.order_cache_stats());
    assert_eq!(timed.scheduler_gauges(), bare.scheduler_gauges());
    assert_eq!(timed.batched_compare_stats(), bare.batched_compare_stats());
}

#[test]
fn traced_rounds_close_their_ledgers() {
    for (name, txns) in [("transfer-hot", 20_000), ("audit-mv", 20_000), ("transfer-durable", 600)]
    {
        let spec = small(name, txns);
        let r = round(&spec, true);
        assert_eq!(r.ledgers.len(), spec.clients);
        for l in &r.ledgers {
            assert_eq!(l.check(), Ok(()), "{name}");
            assert!(l.wall > 0);
            // Every committed call was split into its parts.
            assert!(l.admission > 0 && l.engine > 0 && l.commit > 0, "{name}: {l:?}");
        }
        let wrapped = spec.name != "audit-mv";
        assert_eq!(r.ledgers.iter().all(|l| l.core > 0), wrapped, "{name}");
        let durable = spec.name == "transfer-durable";
        assert_eq!(r.ledgers.iter().all(|l| l.fsync_wait > 0), durable, "{name}");
    }
}

#[test]
fn durable_rounds_recover_every_commit() {
    let spec = small("transfer-durable", 600);
    let r = round(&spec, false);
    // The checkpoint plus one record per committed transaction.
    assert_eq!(r.recovery_commits, r.metrics.commits + 1);
    assert!(r.recovery_s.is_some_and(|s| s > 0.0));
    assert!(r.wal_file_bytes > 0);
}

#[test]
fn fetch_timing_looks_up_every_account_read() {
    let spec = small("transfer-uniform", 2_000);
    let inputs = spec.inputs(42);
    let (ns, lookups) = time_fetches(&twin_store(&spec), &inputs).expect("every account funded");
    // 75% two-account transfers, 25% four-account audits.
    let expected: u64 = inputs
        .iter()
        .flatten()
        .map(|op| match *op {
            Op::Transfer { .. } => 2,
            Op::Audit { len, .. } => u64::from(len),
        })
        .sum();
    assert_eq!(lookups, expected);
    assert!(ns > 0);
    let stranger = Spec { mix: Mix { accounts: 16, ..spec.mix }, ..spec };
    assert_eq!(time_fetches(&twin_store(&stranger), &inputs), None);
}
