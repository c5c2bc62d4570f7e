//! A chunked, append-only concurrent row table for timestamp vectors.
//!
//! The concurrent scheduler used to keep every transaction's vector in one
//! `RwLock<Vec<Option<Row>>>`: every `begin`/`commit`/`abort` took the
//! *write* lock (to resize or reclaim) and stalled all concurrent
//! Definition 6 decisions. This table removes the global lock entirely:
//!
//! * **Chunked, append-only storage.** Slots live in geometrically growing
//!   chunks (`BASE << b` slots each), published once through an
//!   `AtomicPtr` spine and never moved or freed before drop. A `&RowSlot`
//!   therefore stays valid for the table's lifetime — no lock is needed to
//!   *address* a slot, only to touch its row.
//! * **Per-slot interior locking.** Each slot carries its own small
//!   `RwLock<Option<TsVec>>`. Creating, reading, defining into, and
//!   reclaiming a row touch exactly the slots involved; transactions on
//!   different rows never contend. Multi-slot acquisitions (the
//!   comparison/encode paths) order locks by ascending slot index for
//!   deadlock freedom.
//! * **Slab-style reuse.** Reclamation (III-D-6b) just sets the row back
//!   to `None` and flags the slot; the slot's atomics (refcount, finished,
//!   restart hint) survive so O(1) reclamation and the III-D-4 hint
//!   hand-off need no side tables. [`RowSlot::arm`] reports whether a
//!   previous incarnation lived in the slot, so callers can invalidate
//!   anything keyed by the transaction id (e.g. the order cache).
//!
//! The spine covers the whole `u32` id space (the last chunk is merely
//! never fully resident on real workloads); `ensure_slot` materializes a
//! chunk on first touch with a CAS, and losers free their allocation.
//!
//! Addressing a slot writes nothing shared: once its chunk is resident,
//! `ensure_slot` is one Acquire load of a spine pointer. In particular
//! the table keeps no high-water mark of touched indices — maintaining
//! one is a `fetch_max` on every `begin`/`read`/`write`, on a line beside
//! the spine that every `slot()` reads, and under two clients that line
//! bounces on every access. Inspection instead walks every resident
//! chunk: chunks are never freed before drop, so the resident set only
//! grows.

use std::sync::PoisonError;

use mdts_vector::TsVec;

use crate::sync::{
    AtomicBool, AtomicI64, AtomicPtr, AtomicU32, Ordering, RwLock, RwLockReadGuard,
    RwLockWriteGuard,
};

/// Slots in the first chunk; chunk `b` holds `BASE << b` slots.
#[cfg(not(loom))]
const BASE: usize = 1024;
/// Under loom a chunk is two slots, so a model touching indices 0 and 2
/// exercises chunk materialization (including the CAS-loser free path)
/// without registering a thousand model objects.
#[cfg(loom)]
const BASE: usize = 2;

/// Chunks in the spine. `BASE * (2^BUCKETS − 1) > u32::MAX`, so every
/// possible transaction id has a slot.
const BUCKETS: usize = 23;

/// One slot of the row table: the vector row plus the per-transaction
/// state that must survive the row itself (reclamation bookkeeping and
/// the III-D-4 restart hint).
#[derive(Debug)]
pub struct RowSlot {
    /// The timestamp vector; `None` = never begun, or reclaimed.
    row: RwLock<Option<TsVec>>,
    /// Number of `RT`/`WT` entries naming this transaction.
    refs: AtomicU32,
    /// Set when the transaction committed or aborted.
    finished: AtomicBool,
    /// Set by reclamation; consumed by [`arm`](Self::arm) on reuse.
    reclaimed: AtomicBool,
    /// Starvation-avoidance restart hint (III-D-4), valid iff `hint_set`.
    hint: AtomicI64,
    hint_set: AtomicBool,
}

impl RowSlot {
    fn new() -> Self {
        RowSlot {
            row: RwLock::new(None),
            refs: AtomicU32::new(0),
            finished: AtomicBool::new(false),
            reclaimed: AtomicBool::new(false),
            hint: AtomicI64::new(0),
            hint_set: AtomicBool::new(false),
        }
    }

    /// Read access to the row (poison-transparent).
    pub fn read(&self) -> RwLockReadGuard<'_, Option<TsVec>> {
        self.row.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Write access to the row (poison-transparent).
    pub fn write(&self) -> RwLockWriteGuard<'_, Option<TsVec>> {
        self.row.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The `RT`/`WT` reference count.
    pub fn refs(&self) -> &AtomicU32 {
        &self.refs
    }

    /// The committed/aborted flag.
    pub fn finished(&self) -> &AtomicBool {
        &self.finished
    }

    /// Prepares the slot for a new incarnation (caller must hold the
    /// write guard on an empty row): clears `finished` and the reclaim
    /// flag. Returns whether a previous incarnation was reclaimed from
    /// this slot — if so, any state keyed by the transaction id outside
    /// the slot (such as memoized orders) is stale and must be
    /// invalidated before the new row becomes visible.
    pub fn arm(&self) -> bool {
        debug_assert_eq!(self.refs.load(Ordering::SeqCst), 0, "arming a referenced slot");
        self.finished.store(false, Ordering::SeqCst);
        self.reclaimed.swap(false, Ordering::Relaxed)
    }

    /// Marks the slot as torn down (caller must hold the write guard and
    /// have just taken the row).
    pub fn retire(&self) {
        self.reclaimed.store(true, Ordering::Relaxed);
    }

    /// Records the III-D-4 restart hint, overwriting any previous one.
    ///
    /// Ordering contract (audited in PR 4, checked by
    /// `rowtable_hint_handoff` in tests/loom_models.rs): classic message
    /// passing — the payload store may be Relaxed because the flag store
    /// is Release, and [`take_hint`](Self::take_hint) consumes the flag
    /// with an Acquire swap, so a taker that observes `hint_set == true`
    /// also observes the hint value that Release-preceded it.
    pub fn set_hint(&self, first: i64) {
        self.hint.store(first, Ordering::Relaxed);
        self.hint_set.store(true, Ordering::Release);
    }

    /// Consumes the restart hint, if one was recorded.
    pub fn take_hint(&self) -> Option<i64> {
        if self.hint_set.swap(false, Ordering::Acquire) {
            Some(self.hint.load(Ordering::Relaxed))
        } else {
            None
        }
    }

    /// Discards the restart hint (a committed transaction needs none).
    pub fn clear_hint(&self) {
        self.hint_set.store(false, Ordering::Relaxed);
    }
}

/// The lock-free-addressable row table. See the module docs.
pub struct RowTable {
    spine: [AtomicPtr<RowSlot>; BUCKETS],
}

impl std::fmt::Debug for RowTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowTable").field("resident_chunks", &self.resident_chunks()).finish()
    }
}

/// Chunk index, chunk length, and offset within the chunk for a slot.
#[inline]
fn locate(idx: usize) -> (usize, usize, usize) {
    let b = (usize::BITS - 1 - (idx / BASE + 1).leading_zeros()) as usize;
    let start = ((1usize << b) - 1) * BASE;
    (b, BASE << b, idx - start)
}

impl RowTable {
    /// An empty table (no chunks resident).
    pub fn new() -> Self {
        RowTable { spine: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())) }
    }

    /// The slot for `idx`, if its chunk has been materialized.
    ///
    /// Ordering contract (audited in PR 4, checked by
    /// `rowtable_chunk_publication` in tests/loom_models.rs): the spine
    /// load must be Acquire to pair with the Release side of the
    /// publishing CAS in [`ensure_slot`](Self::ensure_slot) — it
    /// synchronizes-with the publication, so the chunk's initialized
    /// slot contents (written before the CAS) are visible before any
    /// access through the returned reference.
    pub fn slot(&self, idx: usize) -> Option<&RowSlot> {
        let (b, _, off) = locate(idx);
        let chunk = self.spine[b].load(Ordering::Acquire);
        if chunk.is_null() {
            None
        } else {
            // SAFETY: a published chunk is never moved or freed before
            // drop, and `off < len` by construction of `locate`.
            Some(unsafe { &*chunk.add(off) })
        }
    }

    /// The slot for `idx`, materializing its chunk on first touch.
    pub fn ensure_slot(&self, idx: usize) -> &RowSlot {
        let (b, len, off) = locate(idx);
        assert!(b < BUCKETS, "slot index {idx} beyond table capacity");
        let mut chunk = self.spine[b].load(Ordering::Acquire);
        if chunk.is_null() {
            let fresh: Box<[RowSlot]> = (0..len).map(|_| RowSlot::new()).collect();
            let ptr = Box::into_raw(fresh) as *mut RowSlot;
            // Publication CAS: the success ordering must include Release
            // so the freshly initialized slots above happen-before any
            // Acquire spine load that observes `ptr`; the Acquire half
            // (and the failure ordering) pair with the *winner's*
            // Release when we lose, making the winner's initialization
            // visible before we hand out references into its chunk.
            match self.spine[b].compare_exchange(
                std::ptr::null_mut(),
                ptr,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => chunk = ptr,
                Err(winner) => {
                    // SAFETY: the CAS failed, so `ptr` was never published
                    // and we still own the allocation.
                    drop(unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, len)) });
                    chunk = winner;
                }
            }
        }
        // SAFETY: as in `slot`.
        unsafe { &*chunk.add(off) }
    }

    /// Iterates every slot of every resident chunk in index order
    /// (inspection only: a chunk published concurrently may or may not be
    /// included). Slots never touched read as empty rows.
    pub fn iter_slots(&self) -> impl Iterator<Item = (usize, &RowSlot)> {
        self.spine.iter().enumerate().flat_map(|(b, cell)| {
            let chunk = cell.load(Ordering::Acquire);
            let slots: &[RowSlot] = if chunk.is_null() {
                &[]
            } else {
                // SAFETY: a published chunk holds `BASE << b` initialized
                // slots (Acquire pairs with the publishing CAS, as in
                // `slot`) and is never moved or freed before drop.
                unsafe { std::slice::from_raw_parts(chunk, BASE << b) }
            };
            let start = ((1usize << b) - 1) * BASE;
            slots.iter().enumerate().map(move |(off, slot)| (start + off, slot))
        })
    }

    /// Byte address range of the spine, for cache-line layout checks.
    #[cfg(test)]
    pub(crate) fn spine_span(&self) -> std::ops::Range<usize> {
        mdts_vector::stripes::span_of(&self.spine)
    }

    /// Number of spine chunks currently materialized (telemetry gauge;
    /// chunks are never freed before drop, so this only grows).
    pub fn resident_chunks(&self) -> usize {
        self.spine.iter().filter(|cell| !cell.load(Ordering::Acquire).is_null()).count()
    }
}

impl Default for RowTable {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for RowTable {
    fn drop(&mut self) {
        for (b, cell) in self.spine.iter().enumerate() {
            // `&mut self` already guarantees exclusive access; the load
            // is Acquire (not `get_mut`, which the loom shim cannot
            // offer) so the publishing CAS is visible even when the
            // drop happens on a thread that never touched the spine.
            let ptr = cell.load(Ordering::Acquire);
            if !ptr.is_null() {
                // SAFETY: `ptr` came from `Box::into_raw` of a `BASE << b`
                // slice and was published exactly once.
                drop(unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, BASE << b)) });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_covers_chunk_boundaries() {
        assert_eq!(locate(0), (0, BASE, 0));
        assert_eq!(locate(BASE - 1), (0, BASE, BASE - 1));
        assert_eq!(locate(BASE), (1, 2 * BASE, 0));
        assert_eq!(locate(3 * BASE - 1), (1, 2 * BASE, 2 * BASE - 1));
        assert_eq!(locate(3 * BASE), (2, 4 * BASE, 0));
        // The whole u32 id space stays within the spine.
        let (b, len, off) = locate(u32::MAX as usize);
        assert!(b < BUCKETS && off < len);
    }

    #[test]
    fn slots_are_stable_and_lazy() {
        let t = RowTable::new();
        assert!(t.slot(5).is_none(), "chunks materialize on demand");
        let a = t.ensure_slot(5) as *const RowSlot;
        *t.ensure_slot(5).write() = Some(TsVec::undefined(2));
        let b = t.ensure_slot(5) as *const RowSlot;
        assert_eq!(a, b, "a slot address never changes");
        assert_eq!(t.resident_chunks(), 1);
        assert_eq!(t.iter_slots().count(), BASE, "only chunk 0 is resident");
        assert_eq!(t.iter_slots().filter(|(_, s)| s.read().is_some()).count(), 1);
    }

    /// Without a watermark the scans walk resident chunks: materialize
    /// only chunk 0 and chunk 3 and the walk must yield exactly their
    /// slots, in index order, each at its own address.
    #[test]
    fn iter_slots_walks_exactly_the_resident_chunks() {
        let t = RowTable::new();
        let far = 7 * BASE + 3; // chunk 3 starts at BASE * (2^3 - 1)
        assert_eq!(locate(far).0, 3);
        *t.ensure_slot(0).write() = Some(TsVec::undefined(2));
        *t.ensure_slot(far).write() = Some(TsVec::undefined(2));
        assert_eq!(t.resident_chunks(), 2);

        let seen: Vec<usize> = t.iter_slots().map(|(idx, _)| idx).collect();
        let expected: Vec<usize> = (0..BASE).chain(7 * BASE..15 * BASE).collect();
        assert_eq!(seen, expected, "chunks 1 and 2 are not resident");
        for (idx, slot) in t.iter_slots().step_by(BASE / 2) {
            assert!(std::ptr::eq(slot, t.slot(idx).expect("resident")));
        }
        let live: Vec<usize> =
            t.iter_slots().filter(|(_, s)| s.read().is_some()).map(|(idx, _)| idx).collect();
        assert_eq!(live, [0, far]);
    }

    #[test]
    fn arm_reports_previous_incarnation() {
        let t = RowTable::new();
        let slot = t.ensure_slot(7);
        {
            let mut row = slot.write();
            assert!(!slot.arm(), "first incarnation is clean");
            *row = Some(TsVec::undefined(2));
        }
        slot.finished().store(true, Ordering::SeqCst);
        {
            let mut row = slot.write();
            *row = None;
            slot.retire();
        }
        let mut row = slot.write();
        assert!(slot.arm(), "reuse after reclamation must be reported");
        assert!(!slot.finished().load(Ordering::SeqCst));
        *row = Some(TsVec::undefined(2));
        drop(row);
        assert!(!slot.arm(), "the reclaim flag is consumed");
    }

    #[test]
    fn hints_survive_reclamation() {
        let t = RowTable::new();
        let slot = t.ensure_slot(3);
        assert_eq!(slot.take_hint(), None);
        slot.set_hint(4);
        slot.set_hint(9); // overwrites
        *slot.write() = None;
        slot.retire();
        assert_eq!(slot.take_hint(), Some(9), "hints outlive the row");
        assert_eq!(slot.take_hint(), None, "taking consumes");
        slot.set_hint(2);
        slot.clear_hint();
        assert_eq!(slot.take_hint(), None);
    }

    /// Satellite (PR 4): the two `Box::from_raw` paths — the CAS-loser
    /// free in `ensure_slot` and the spine teardown in `Drop` — must not
    /// free memory another thread can still reach. Threads race chunk
    /// materialization (so some lose the CAS and free their allocation)
    /// while others hold `with_ts`-style read borrows into slots of the
    /// *same contested chunk* and write through them; the table drops
    /// only after every borrow ends. Run under `cargo miri test` (the CI
    /// miri lane does) to prove the absence of use-after-free rather
    /// than just the absence of a crash.
    #[test]
    fn retire_paths_never_free_reachable_memory() {
        for _ in 0..8 {
            let t = RowTable::new();
            std::thread::scope(|scope| {
                // Racers: all try to materialize the same second chunk;
                // exactly one CAS wins, the rest free their fresh boxes
                // while winners' slots are already in use.
                for i in 0..4 {
                    let t = &t;
                    scope.spawn(move || {
                        let slot = t.ensure_slot(BASE + i);
                        *slot.write() = Some(TsVec::undefined(2));
                    });
                }
                // Borrowers: hold read guards into the contested chunk
                // and look at the rows mid-race, `with_ts`-style.
                for i in 0..4 {
                    let t = &t;
                    scope.spawn(move || {
                        let slot = t.ensure_slot(BASE + i);
                        for _ in 0..16 {
                            let row = slot.read();
                            if let Some(ts) = row.as_ref() {
                                assert_eq!(ts.k(), 2);
                            }
                        }
                    });
                }
            });
            // `t` drops here: the spine teardown `Box::from_raw` runs
            // with no outstanding borrows.
        }
    }

    #[test]
    fn concurrent_ensure_publishes_one_chunk() {
        let t = RowTable::new();
        let addrs: Vec<usize> = std::thread::scope(|scope| {
            (0..8)
                .map(|i| {
                    let t = &t;
                    scope.spawn(move || {
                        let slot = t.ensure_slot(BASE + 17 + (i % 2));
                        slot as *const RowSlot as usize
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let first_even = addrs[0];
        for (i, &a) in addrs.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(a, first_even, "all threads must see the same chunk");
            }
        }
    }
}
