//! The flat in-memory item store.

use std::collections::BTreeMap;

use mdts_model::ItemId;

/// A single-version key-value store over database items.
///
/// Items that were never written read as `None`; the engine layers a
/// default on top where a workload needs one (e.g. opening balances).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Store<V> {
    values: BTreeMap<ItemId, V>,
}

impl<V: Clone> Store<V> {
    /// Empty store.
    pub fn new() -> Self {
        Store { values: BTreeMap::new() }
    }

    /// Pre-populates items `0..n` with a value.
    pub fn with_items(n: u32, value: V) -> Self {
        Store { values: (0..n).map(|i| (ItemId(i), value.clone())).collect() }
    }

    /// Reads an item.
    pub fn get(&self, item: ItemId) -> Option<&V> {
        self.values.get(&item)
    }

    /// Writes an item, returning the before-image.
    pub fn set(&mut self, item: ItemId, value: V) -> Option<V> {
        self.values.insert(item, value)
    }

    /// Removes an item (used by undo when the before-image was absence).
    pub fn remove(&mut self, item: ItemId) -> Option<V> {
        self.values.remove(&item)
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True iff nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates items in ascending id order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (ItemId, &V)> {
        self.values.iter().map(|(&k, v)| (k, v))
    }

    /// Snapshot of the whole store (for equivalence checks in tests).
    pub fn snapshot(&self) -> BTreeMap<ItemId, V> {
        self.values.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip_and_before_image() {
        let mut s: Store<i64> = Store::new();
        assert_eq!(s.set(ItemId(1), 10), None);
        assert_eq!(s.set(ItemId(1), 20), Some(10));
        assert_eq!(s.get(ItemId(1)), Some(&20));
        assert_eq!(s.get(ItemId(2)), None);
    }

    #[test]
    fn with_items_prefills() {
        let s = Store::with_items(3, 100i64);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(ItemId(2)), Some(&100));
        assert_eq!(s.get(ItemId(3)), None);
    }

    #[test]
    fn snapshot_is_detached() {
        let mut s = Store::with_items(1, 5i64);
        let snap = s.snapshot();
        s.set(ItemId(0), 9);
        assert_eq!(snap[&ItemId(0)], 5);
    }
}
