//! Client-side spans and the per-client wall-time ledger.
//!
//! A client thread's timeline is cut at boundaries the benchmark sees
//! from outside the engine — call start and end, closure entry and exit,
//! each `Tx::read`/`Tx::write`/`SnapshotTx::read` — plus three markers
//! the core wrapper ([`crate::timed`]) leaves on the same thread: the
//! running core total, the start of the thread's own re-admission
//! `begin*` call, and the end of the last `committed`/`aborted` call.
//! Every interval between two boundaries is charged to exactly one part,
//! so the parts of a thread sum to its wall time by construction; the
//! closure check ([`Ledger::check`]) confirms no part went negative,
//! which is what a span charged twice or a core span leaking out of its
//! parent would produce.

use mdts_engine::db::Aborted;
use mdts_engine::{SnapshotTx, Tx};
use mdts_model::ItemId;

use crate::timed::{now_ns, with_core};

/// Where one client thread's wall time went, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    /// The thread's timed window.
    pub wall: i64,
    /// Outside engine calls, and client code inside committed bodies.
    pub client: i64,
    /// Admission of committed incarnations, minus core calls.
    pub admission: i64,
    /// Core calls made by committed incarnations and by their admission
    /// (a leader's admission includes `begin` for the batch it drains).
    pub core: i64,
    /// `Tx::read`/`Tx::write`/`SnapshotTx::read` of committed
    /// incarnations, minus core calls and block waits.
    pub engine: i64,
    /// Closure exit to the end of `committed`, minus core calls (to the
    /// call's return on in-memory databases).
    pub commit: i64,
    /// End of an aborted incarnation to the start of the thread's own
    /// re-admission (restart backoff).
    pub backoff: i64,
    /// Blocked waits inside accesses, apportioned from the engine's
    /// `BlockWait` phase total (MT(k) never blocks, so this stays 0).
    pub block_wait: i64,
    /// End of `committed` to the call's return on durable databases.
    pub fsync_wait: i64,
    /// Incarnations that did not commit, from admission to abort.
    pub wasted: i64,
    /// Gaps between incarnations the outside view cannot split into
    /// backoff and re-admission: the thread parked as an admission
    /// follower, or the protocol is not wrapped.
    pub unattributed: i64,
}

impl Ledger {
    /// The parts, by name, in ledger order.
    pub fn parts(&self) -> [(&'static str, i64); 10] {
        [
            ("client", self.client),
            ("admission", self.admission),
            ("core", self.core),
            ("engine", self.engine),
            ("commit", self.commit),
            ("backoff", self.backoff),
            ("block_wait", self.block_wait),
            ("fsync_wait", self.fsync_wait),
            ("wasted", self.wasted),
            ("unattributed", self.unattributed),
        ]
    }

    /// Sums two ledgers part by part.
    pub fn add(&mut self, o: &Ledger) {
        self.wall += o.wall;
        self.client += o.client;
        self.admission += o.admission;
        self.core += o.core;
        self.engine += o.engine;
        self.commit += o.commit;
        self.backoff += o.backoff;
        self.block_wait += o.block_wait;
        self.fsync_wait += o.fsync_wait;
        self.wasted += o.wasted;
        self.unattributed += o.unattributed;
    }

    /// The closure check: every part is non-negative and the parts sum to
    /// the wall time exactly.
    pub fn check(&self) -> Result<(), String> {
        if let Some((name, v)) = self.parts().into_iter().find(|(_, v)| *v < 0) {
            return Err(format!("ledger part {name} is negative ({v} ns)"));
        }
        let sum: i64 = self.parts().iter().map(|(_, v)| v).sum();
        if sum != self.wall {
            return Err(format!("ledger parts sum to {sum} ns, wall time is {} ns", self.wall));
        }
        Ok(())
    }
}

/// Per-layer counts the client-side spans collect on one thread.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanCounts {
    /// Self time (minus core) of `Tx::read` calls.
    pub read_ns: u64,
    /// `Tx::read` calls.
    pub reads: u64,
    /// Self time (minus core) of `Tx::write` calls.
    pub write_ns: u64,
    /// `Tx::write` calls.
    pub writes: u64,
    /// Wall time of `SnapshotTx::read` calls.
    pub snapshot_read_ns: u64,
    /// `SnapshotTx::read` calls.
    pub snapshot_reads: u64,
    /// Closure entries (incarnations).
    pub incarnations: u64,
}

/// The client loop's hooks around engine calls. [`NoProbe`] compiles to the
/// bare calls (the untraced, measured runs); [`Recorder`] records spans.
pub trait Probe {
    /// Before `run*` is called.
    fn call_start(&mut self) {}
    /// After `run*` returned; `committed` unless it failed.
    fn call_end(&mut self, committed: bool) {
        let _ = committed;
    }
    /// First statement of the transaction closure.
    fn enter(&mut self) {}
    /// Last statement of the closure; `ok` when it returns `Ok`.
    fn exit(&mut self, ok: bool) {
        let _ = ok;
    }
    /// `Tx::read`.
    fn read(&mut self, tx: &mut Tx<'_, i64>, item: ItemId) -> Result<Option<i64>, Aborted> {
        tx.read(item)
    }
    /// `Tx::write`.
    fn write(&mut self, tx: &mut Tx<'_, i64>, item: ItemId, v: i64) -> Result<(), Aborted> {
        tx.write(item, v)
    }
    /// `SnapshotTx::read`.
    fn snapshot_read(&mut self, tx: &mut SnapshotTx<'_, i64>, item: ItemId) -> Option<i64> {
        tx.read(item)
    }
}

/// No spans: the measured runs.
pub struct NoProbe;

impl Probe for NoProbe {}

/// Records one client thread's spans into its [`Ledger`].
pub struct Recorder {
    ledger: Ledger,
    counts: SpanCounts,
    /// Whether the core wrapper is installed (its markers are valid).
    wrapped: bool,
    /// Whether commits wait for a WAL fsync after `committed`.
    durable: bool,
    thread_start: u64,
    /// End of the previous call (or the thread start).
    prev_end: u64,
    call_start: u64,
    /// Whether the current call has entered its closure yet.
    entered: bool,
    /// Current incarnation: admission wall and core, body start, wall
    /// and core of its accesses.
    adm_wall: u64,
    adm_core: u64,
    body_start: u64,
    acc_wall: u64,
    acc_core: u64,
    /// Closure exit of the current incarnation, whether it returned
    /// `Ok`, and the core total then.
    exit_at: u64,
    exit_ok: bool,
    exit_core: u64,
}

fn core_total() -> u64 {
    with_core(|c| c.total_ns)
}

/// Marks this thread as inside a `Tx::read`/`Tx::write` and returns the
/// core total at entry.
fn enter_access() -> u64 {
    with_core(|c| {
        c.in_access = true;
        c.total_ns
    })
}

/// Clears the mark and returns the core total at exit.
fn leave_access() -> u64 {
    with_core(|c| {
        c.in_access = false;
        c.total_ns
    })
}

fn d(a: u64, b: u64) -> i64 {
    b as i64 - a as i64
}

impl Recorder {
    /// Starts a thread's ledger now.
    pub fn new(wrapped: bool, durable: bool) -> Self {
        let t = now_ns();
        Recorder {
            ledger: Ledger::default(),
            counts: SpanCounts::default(),
            wrapped,
            durable,
            thread_start: t,
            prev_end: t,
            call_start: t,
            entered: false,
            adm_wall: 0,
            adm_core: 0,
            body_start: 0,
            acc_wall: 0,
            acc_core: 0,
            exit_at: 0,
            exit_ok: false,
            exit_core: 0,
        }
    }

    /// Closes the thread's window and returns its ledger and counts.
    pub fn finish(mut self) -> (Ledger, SpanCounts) {
        let t = now_ns();
        self.ledger.client += d(self.prev_end, t);
        self.ledger.wall = d(self.thread_start, t);
        (self.ledger, self.counts)
    }

    /// End of the current (aborted) incarnation: closure exit, or the end
    /// of the `aborted` call of a failed commit.
    fn incarnation_end(&self) -> (u64, u64) {
        if self.exit_ok && self.wrapped {
            with_core(|c| (c.release_end, c.release_core_mark))
        } else {
            (self.exit_at, self.exit_core)
        }
    }

    fn arm() {
        with_core(|c| {
            c.armed = true;
            c.own_begin_start = None;
        });
    }
}

impl Probe for Recorder {
    fn call_start(&mut self) {
        let t = now_ns();
        self.ledger.client += d(self.prev_end, t);
        self.call_start = t;
        self.entered = false;
        Self::arm();
        // Core total at call start; `enter` takes the admission's core
        // calls as the difference.
        self.exit_core = core_total();
    }

    fn enter(&mut self) {
        let e = now_ns();
        let core = core_total();
        if !self.entered {
            self.adm_wall = e - self.call_start;
            self.adm_core = core - self.exit_core;
        } else {
            // The previous incarnation aborted: charge it whole to
            // `wasted`, then split the gap before this entry.
            let (end, end_core) = self.incarnation_end();
            self.ledger.wasted += (self.adm_wall + (end - self.body_start)) as i64;
            let own = with_core(|c| c.own_begin_start.map(|s| (s, c.own_begin_core_mark)));
            match own {
                Some((b, b_core)) if self.wrapped && b >= end => {
                    self.ledger.backoff += d(end, b);
                    self.adm_wall = e - b;
                    self.adm_core = core - b_core;
                }
                _ => {
                    self.ledger.unattributed += d(end, e);
                    self.adm_wall = 0;
                    self.adm_core = 0;
                    // Core calls inside an unsplit gap stay core time.
                    self.ledger.core += (core - end_core) as i64;
                    self.ledger.unattributed -= (core - end_core) as i64;
                }
            }
        }
        self.entered = true;
        self.counts.incarnations += 1;
        self.body_start = e;
        self.acc_wall = 0;
        self.acc_core = 0;
    }

    fn exit(&mut self, ok: bool) {
        self.exit_at = now_ns();
        self.exit_ok = ok;
        Self::arm();
        self.exit_core = core_total();
    }

    fn call_end(&mut self, committed: bool) {
        let c1 = now_ns();
        if committed {
            let l = &mut self.ledger;
            let body = self.exit_at - self.body_start;
            l.admission += (self.adm_wall - self.adm_core) as i64;
            l.client += (body - self.acc_wall) as i64;
            l.engine += (self.acc_wall - self.acc_core) as i64;
            let (commit_end, commit_core) = if self.wrapped {
                with_core(|c| (c.release_end, c.release_core_mark - self.exit_core))
            } else {
                (c1, 0)
            };
            l.core += (self.adm_core + self.acc_core + commit_core) as i64;
            l.commit += d(self.exit_at, commit_end) - commit_core as i64;
            if self.durable {
                l.fsync_wait += d(commit_end, c1);
            } else {
                l.commit += d(commit_end, c1);
            }
        } else {
            // Retries exhausted: the whole last incarnation was wasted.
            self.ledger.wasted += d(self.body_start - self.adm_wall, c1);
        }
        self.prev_end = c1;
    }

    fn read(&mut self, tx: &mut Tx<'_, i64>, item: ItemId) -> Result<Option<i64>, Aborted> {
        let c0 = enter_access();
        let t0 = now_ns();
        let out = tx.read(item);
        let span = now_ns() - t0;
        let c1 = leave_access();
        self.acc_wall += span;
        self.acc_core += c1 - c0;
        self.counts.read_ns += span - (c1 - c0);
        self.counts.reads += 1;
        out
    }

    fn write(&mut self, tx: &mut Tx<'_, i64>, item: ItemId, v: i64) -> Result<(), Aborted> {
        let c0 = enter_access();
        let t0 = now_ns();
        let out = tx.write(item, v);
        let span = now_ns() - t0;
        let c1 = leave_access();
        self.acc_wall += span;
        self.acc_core += c1 - c0;
        self.counts.write_ns += span - (c1 - c0);
        self.counts.writes += 1;
        out
    }

    fn snapshot_read(&mut self, tx: &mut SnapshotTx<'_, i64>, item: ItemId) -> Option<i64> {
        let t0 = now_ns();
        let out = tx.read(item);
        let span = now_ns() - t0;
        self.acc_wall += span;
        self.counts.snapshot_read_ns += span;
        self.counts.snapshot_reads += 1;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(parts: [i64; 10]) -> Ledger {
        let [client, admission, core, engine, commit, backoff, block_wait, fsync_wait, wasted, unattributed] =
            parts;
        Ledger {
            wall: parts.iter().sum(),
            client,
            admission,
            core,
            engine,
            commit,
            backoff,
            block_wait,
            fsync_wait,
            wasted,
            unattributed,
        }
    }

    #[test]
    fn check_accepts_a_closed_ledger_and_rejects_gaps_and_negatives() {
        let ok = ledger([1, 2, 3, 4, 5, 6, 0, 7, 8, 9]);
        assert_eq!(ok.check(), Ok(()));
        let mut gap = ok;
        gap.wall += 1;
        assert!(gap.check().is_err());
        let mut neg = ok;
        neg.core = -1;
        neg.engine += 5;
        neg.wall = neg.parts().iter().map(|(_, v)| v).sum();
        assert!(neg.check().unwrap_err().contains("core"));
        let mut sum = ok;
        sum.add(&ok);
        assert_eq!(sum.wall, 2 * ok.wall);
        assert_eq!(sum.check(), Ok(()));
    }

    #[test]
    fn recorder_without_engine_calls_charges_everything_to_the_client() {
        let mut r = Recorder::new(true, false);
        r.call_start();
        r.enter();
        r.exit(true);
        r.call_end(true);
        let (l, counts) = r.finish();
        assert_eq!(l.check(), Ok(()));
        assert_eq!(counts.incarnations, 1);
        assert_eq!(l.backoff + l.wasted + l.fsync_wait + l.unattributed, 0);
    }
}
