//! A sharded single-version store: the engine's value state split into
//! independently locked partitions.
//!
//! [`Store`](crate::Store) is a plain map the engine used to keep behind
//! one global mutex together with everything else. [`ShardedStore`]
//! stripes items over a power-of-two number of shards, each behind its own
//! `Mutex`, so accesses to items in different shards never contend.
//!
//! The locking is *exposed* rather than hidden: the engine must hold an
//! item's shard across a protocol grant **and** the value fetch (so a
//! concurrent committer cannot apply between the two), and hold all of a
//! write-set's shards across commit validation **and** apply (so the
//! commit becomes visible atomically). [`ShardedStore::lock_shard`] hands
//! out the guard; convenience accessors ([`ShardedStore::get_cloned`],
//! [`ShardedStore::snapshot`]) lock internally for callers outside the
//! critical path.
//!
//! Lock order: shard indices ascending. `snapshot` and multi-shard commits
//! follow it; single-shard accesses trivially comply.
//!
//! Each shard is a dense table, the layout the protocol's own `RT`/`WT`
//! shard tables use: items are striped by the low `log2(shard_count)`
//! bits of their id, so the high bits are a dense per-shard index and a
//! lookup is one bounds-checked load, with no tree walk. A shard's table
//! grows on the first insert past its end and never shrinks, so once the
//! item set is in place reads and overwrites never allocate. Memory is
//! therefore O(largest item id) per store, the same bound the `RT`/`WT`
//! tables already have for every item the protocol touches.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use mdts_model::ItemId;

use crate::store::Store;

/// Default shard count (power of two).
pub const DEFAULT_STORE_SHARDS: usize = 64;

/// Guard over one shard's items.
pub type ShardGuard<'a, V> = MutexGuard<'a, Shard<V>>;

/// One shard's items: a dense table indexed by `item >> shift`. Slot
/// `local` holds item `(local << shift) | index`; a `None` slot is an
/// absent item.
#[derive(Debug)]
pub struct Shard<V> {
    /// This shard's index: the low `shift` bits of every id it holds.
    index: usize,
    /// `log2` of the shard count.
    shift: u32,
    /// Number of `Some` slots.
    len: usize,
    slots: Vec<Option<V>>,
}

impl<V> Shard<V> {
    fn with_slots(index: usize, shift: u32, slots: usize) -> Self {
        Shard { index, shift, len: 0, slots: std::iter::repeat_with(|| None).take(slots).collect() }
    }

    /// The dense slot of `item`, or `None` if the item is striped to
    /// another shard.
    #[inline]
    fn local(&self, item: ItemId) -> Option<usize> {
        let low = item.index() & ((1 << self.shift) - 1);
        (low == self.index).then_some(item.index() >> self.shift)
    }

    /// The stored value of `item` (`None` if absent or striped to another
    /// shard).
    #[inline]
    pub fn get(&self, item: &ItemId) -> Option<&V> {
        self.slots.get(self.local(*item)?)?.as_ref()
    }

    /// Stores `value` for `item`, returning the previous value. Grows
    /// the table if `item` lies past its end.
    ///
    /// # Panics
    /// Panics if `item` is striped to another shard.
    #[inline]
    pub fn insert(&mut self, item: ItemId, value: V) -> Option<V> {
        let local = self.local(item).expect("item is striped to another shard");
        if local >= self.slots.len() {
            self.slots.resize_with(local + 1, || None);
        }
        let old = self.slots[local].replace(value);
        self.len += usize::from(old.is_none());
        old
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the shard stores nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The stored items in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (ItemId, &V)> {
        let (index, shift) = (self.index, self.shift);
        self.slots.iter().enumerate().filter_map(move |(local, slot)| {
            let id = u32::try_from((local << shift) | index).expect("slot of a u32 item id");
            Some((ItemId(id), slot.as_ref()?))
        })
    }
}

/// A single-version key-value store striped over independently locked
/// shards.
/// The shard array sits behind an `Arc` so long-lived background work
/// (the WAL checkpoint encoder) can hold its own [`shard_handle`] to the
/// same shards without entangling the owning engine's reference counts.
///
/// [`shard_handle`]: ShardedStore::shard_handle
#[derive(Debug)]
pub struct ShardedStore<V> {
    mask: usize,
    shards: Arc<[Mutex<Shard<V>>]>,
}

impl<V: Clone> Default for ShardedStore<V> {
    /// Empty store with [`DEFAULT_STORE_SHARDS`] shards.
    fn default() -> Self {
        Self::new(DEFAULT_STORE_SHARDS)
    }
}

impl<V: Clone> ShardedStore<V> {
    /// Empty store with at least `shards` shards (rounded up to a power of
    /// two so striping is a mask).
    pub fn new(shards: usize) -> Self {
        Self::from_store(Store::new(), shards)
    }

    /// Pre-populates items `0..n` with a value.
    pub fn with_items(n: u32, value: V, shards: usize) -> Self {
        Self::from_store(Store::with_items(n, value), shards)
    }

    /// Partitions a flat [`Store`] into at least `shards` shards (rounded
    /// up to a power of two). Every shard's table is sized once, from the
    /// largest id, before any item is placed.
    pub fn from_store(store: Store<V>, shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        let shift = n.trailing_zeros();
        let slots = store.iter().next_back().map_or(0, |(last, _)| (last.index() >> shift) + 1);
        let mut tables: Vec<Shard<V>> =
            (0..n).map(|i| Shard::with_slots(i, shift, slots)).collect();
        for (item, value) in store.iter() {
            tables[item.index() & (n - 1)].insert(item, value.clone());
        }
        ShardedStore { mask: n - 1, shards: tables.into_iter().map(Mutex::new).collect() }
    }

    /// A second handle onto the **same** shards — not a copy. Writes
    /// through either handle are visible through both; the shard data
    /// stays alive until the last handle drops. Deliberately not `Clone`:
    /// aliasing a store is an explicit act.
    pub fn shard_handle(&self) -> ShardedStore<V> {
        ShardedStore { mask: self.mask, shards: Arc::clone(&self.shards) }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard holding `item`.
    pub fn shard_index(&self, item: ItemId) -> usize {
        item.index() & self.mask
    }

    /// Locks one shard. The caller decides how long to hold it; see the
    /// module docs for the two critical sections the engine needs.
    pub fn lock_shard(&self, index: usize) -> ShardGuard<'_, V> {
        self.shards[index].lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Reads one item, locking its shard just for the lookup.
    pub fn get_cloned(&self, item: ItemId) -> Option<V> {
        self.lock_shard(self.shard_index(item)).get(&item).cloned()
    }

    /// Writes one item, locking its shard just for the insert.
    pub fn set(&self, item: ItemId, value: V) -> Option<V> {
        self.lock_shard(self.shard_index(item)).insert(item, value)
    }

    /// Total number of stored items (locks each shard in turn).
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|i| self.lock_shard(i).len()).sum()
    }

    /// True iff nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the whole store, shards locked in ascending order.
    ///
    /// Taken concurrently with commits this is a *per-shard* consistent
    /// view; for a transactionally consistent read the caller should run
    /// an auditing transaction instead.
    pub fn snapshot(&self) -> BTreeMap<ItemId, V> {
        let mut out = BTreeMap::new();
        for i in 0..self.shards.len() {
            for (item, value) in self.lock_shard(i).iter() {
                out.insert(item, value.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    /// The highest id the oracle test writes: past every table end the
    /// first 100 ascending inputs leave.
    const MAX_ID: u32 = 4095;

    #[test]
    fn dense_shards_match_a_btreemap_oracle() {
        for shards in [1, 4, 64] {
            let s: ShardedStore<i64> = ShardedStore::new(shards);
            let mut oracle = BTreeMap::new();
            let mut rng = StdRng::seed_from_u64(shards as u64);
            // Ascending ids grow each table one slot at a time; then id 0
            // and the highest id, each overwritten; then random ids, which
            // both overwrite and land past the current table end.
            let mut ops: Vec<(u32, i64)> = (0..100u32).map(|i| (i, i64::from(i) * 3)).collect();
            ops.extend([(0, -1), (MAX_ID, 7), (0, -2), (MAX_ID, 8)]);
            ops.extend((0..2000).map(|_| (rng.gen_range(0..=MAX_ID), rng.gen_range(-50i64..50))));
            for (n, &(id, value)) in ops.iter().enumerate() {
                let item = ItemId(id);
                let shard = s.shard_index(item);
                assert_eq!(
                    s.get_cloned(item),
                    oracle.get(&item).copied(),
                    "{shards} shards, op {n}"
                );
                assert_eq!(s.lock_shard(shard).get(&item), oracle.get(&item));
                let before = if n % 2 == 0 {
                    s.set(item, value)
                } else {
                    s.lock_shard(shard).insert(item, value)
                };
                assert_eq!(before, oracle.insert(item, value), "{shards} shards, op {n}");
                assert_eq!(s.len(), oracle.len(), "{shards} shards, op {n}");
            }
            assert_eq!(s.get_cloned(ItemId(MAX_ID + 1)), None);
            assert_eq!(s.snapshot(), oracle);
            for i in 0..s.shard_count() {
                let want: Vec<(ItemId, i64)> = oracle
                    .iter()
                    .filter(|(&item, _)| s.shard_index(item) == i)
                    .map(|(&k, &v)| (k, v))
                    .collect();
                let guard = s.lock_shard(i);
                assert_eq!(guard.iter().map(|(k, &v)| (k, v)).collect::<Vec<_>>(), want);
                assert_eq!(guard.len(), want.len());
            }
        }
    }

    #[test]
    fn default_store_has_the_default_shard_count() {
        let s: ShardedStore<i64> = ShardedStore::default();
        assert_eq!(s.shard_count(), DEFAULT_STORE_SHARDS);
        assert_eq!(s.set(ItemId(5), 1), None);
        assert_eq!(s.get_cloned(ItemId(5)), Some(1));
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedStore::<i64>::new(1).shard_count(), 1);
        assert_eq!(ShardedStore::<i64>::new(5).shard_count(), 8);
        assert_eq!(ShardedStore::<i64>::new(64).shard_count(), 64);
    }

    #[test]
    fn from_store_partitions_everything() {
        let flat = Store::with_items(33, 7i64);
        let s = ShardedStore::from_store(flat.clone(), 8);
        assert_eq!(s.snapshot(), flat.snapshot());
        // Items actually land in distinct shards.
        let occupied = (0..s.shard_count()).filter(|&i| !s.lock_shard(i).is_empty()).count();
        assert_eq!(occupied, 8);
    }

    #[test]
    fn guard_holds_items_of_its_shard_only() {
        let s: ShardedStore<i64> = ShardedStore::new(4);
        for i in 0..16u32 {
            s.set(ItemId(i), 1);
        }
        let g = s.lock_shard(2);
        assert!(g.iter().all(|(item, _)| s.shard_index(item) == 2));
        assert_eq!(g.len(), 4);
        // An item of another shard is absent here, not aliased to a slot.
        assert_eq!(g.get(&ItemId(3)), None);
    }
}
