//! The `mdts-core` timing boundary: a [`ConcurrentCc`] that forwards
//! every call to [`ShardedMtCc`] and charges each call's wall time and
//! outcome to the calling thread.
//!
//! The charges go to a per-thread accumulator ([`CoreTls`]) that the
//! client loop's own spans read as they open and close, so an engine span's
//! self time is its duration minus the core time recorded inside it.

use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

use mdts_core::BatchedCompareStats;
use mdts_engine::{CommitDecision, ConcurrentCc, SchedulerGauges, ShardedMtCc, Verdict};
use mdts_model::{ItemId, TxId};
use mdts_vector::OrderCacheStats;

/// Nanoseconds since a process-wide origin: one monotonic clock shared by
/// every span, so adjacent spans telescope exactly.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    u64::try_from(ORIGIN.get_or_init(Instant::now).elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The timed core calls, one bucket per per-layer metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoreCall {
    /// `begin` and `begin_restarted`.
    Begin = 0,
    /// `read`: RT/WT lookup, Definition 6 and the order cache.
    Read = 1,
    /// `write` (deferred: an announcement only).
    Write = 2,
    /// `validate_commit`: the deferred writes' RT/WT checks.
    Validate = 3,
    /// `committed` and `aborted`: reclamation.
    Release = 4,
    /// `warm_probes`: the admission prewarm.
    WarmProbes = 5,
}

/// Number of [`CoreCall`] buckets.
pub const CORE_CALLS: usize = 6;

/// One thread's core-call charges and the markers the client loop's ledger
/// reads to place boundaries it cannot see from outside the engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreTls {
    /// Nanoseconds per [`CoreCall`].
    pub ns: [u64; CORE_CALLS],
    /// Calls per [`CoreCall`].
    pub calls: [u64; CORE_CALLS],
    /// `read` calls answered `Abort`.
    pub read_rejects: u64,
    /// `validate_commit` calls answered `Abort`.
    pub validate_rejects: u64,
    /// Nanoseconds of `aborted` calls made inside a `Tx::read`/`Tx::write`
    /// span (access rejects) — the rest of `Release` is commit-time.
    pub release_in_access_ns: u64,
    /// Running total of every core nanosecond on this thread.
    pub total_ns: u64,
    /// Set by the client loop while it is inside a `Tx::read`/`Tx::write`.
    pub in_access: bool,
    /// Set by the client loop when an incarnation ends; the next `begin*` call
    /// on this thread (its own re-admission as leader) records its start
    /// in `own_begin_start` and clears the flag.
    pub armed: bool,
    /// Start of this thread's own re-admission `begin*` call, if it led.
    pub own_begin_start: Option<u64>,
    /// `total_ns` just before that call.
    pub own_begin_core_mark: u64,
    /// End of the latest `committed`/`aborted` call.
    pub release_end: u64,
    /// `total_ns` at `release_end`.
    pub release_core_mark: u64,
}

thread_local! {
    static CORE: RefCell<CoreTls> = RefCell::new(CoreTls::default());
}

/// Runs `f` on this thread's core accumulator.
pub fn with_core<T>(f: impl FnOnce(&mut CoreTls) -> T) -> T {
    CORE.with(|c| f(&mut c.borrow_mut()))
}

/// Takes this thread's core accumulator, leaving a fresh one.
pub fn take_core() -> CoreTls {
    with_core(std::mem::take)
}

/// [`ShardedMtCc`] behind a timing boundary. It only times and forwards,
/// so a wrapped run makes exactly the decisions of an unwrapped one.
pub struct TimedCc {
    inner: ShardedMtCc,
}

impl TimedCc {
    /// Wraps `inner`.
    pub fn new(inner: ShardedMtCc) -> Self {
        TimedCc { inner }
    }

    #[inline]
    fn charge<T>(&self, call: CoreCall, f: impl FnOnce() -> T, rejected: impl Fn(&T) -> bool) -> T {
        let t0 = now_ns();
        if call == CoreCall::Begin {
            with_core(|c| {
                if c.armed {
                    c.armed = false;
                    c.own_begin_start = Some(t0);
                    c.own_begin_core_mark = c.total_ns;
                }
            });
        }
        let out = f();
        let t1 = now_ns();
        let rej = rejected(&out);
        with_core(|c| {
            let ns = t1 - t0;
            c.ns[call as usize] += ns;
            c.calls[call as usize] += 1;
            c.total_ns += ns;
            match call {
                CoreCall::Read if rej => c.read_rejects += 1,
                CoreCall::Validate if rej => c.validate_rejects += 1,
                CoreCall::Release => {
                    if c.in_access {
                        c.release_in_access_ns += ns;
                    }
                    c.release_end = t1;
                    c.release_core_mark = c.total_ns;
                }
                _ => {}
            }
        });
        out
    }
}

impl ConcurrentCc for TimedCc {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn begin(&self, tx: TxId) {
        self.charge(CoreCall::Begin, || self.inner.begin(tx), |_| false)
    }

    fn begin_restarted(&self, new_tx: TxId, aborted: TxId) {
        self.charge(CoreCall::Begin, || self.inner.begin_restarted(new_tx, aborted), |_| false)
    }

    fn read(&self, tx: TxId, item: ItemId) -> Verdict {
        self.charge(CoreCall::Read, || self.inner.read(tx, item), |v| *v == Verdict::Abort)
    }

    fn write(&self, tx: TxId, item: ItemId) -> Verdict {
        self.charge(CoreCall::Write, || self.inner.write(tx, item), |_| false)
    }

    fn validate_commit(&self, tx: TxId, writes: &[ItemId]) -> CommitDecision {
        self.charge(
            CoreCall::Validate,
            || self.inner.validate_commit(tx, writes),
            |d| *d == CommitDecision::Abort,
        )
    }

    fn committed(&self, tx: TxId) {
        self.charge(CoreCall::Release, || self.inner.committed(tx), |_| false)
    }

    fn aborted(&self, tx: TxId) {
        self.charge(CoreCall::Release, || self.inner.aborted(tx), |_| false)
    }

    fn warm_probes(&self, pairs: &mut [(ItemId, TxId)]) {
        self.charge(CoreCall::WarmProbes, || self.inner.warm_probes(pairs), |_| false)
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn order_cache_stats(&self) -> Option<OrderCacheStats> {
        self.inner.order_cache_stats()
    }

    fn scheduler_gauges(&self) -> Option<SchedulerGauges> {
        self.inner.scheduler_gauges()
    }

    fn batched_compare_stats(&self) -> Option<BatchedCompareStats> {
        self.inner.batched_compare_stats()
    }
}
