//! Indexes over an observation: key typing and the element → writer map
//! that recoverability (§4.2.3) depends on.

use elle_history::{Elem, History, Key, Mop, TxnId, TxnStatus};
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};

/// The datatype a key is used as.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// Append-only list (traceable).
    List,
    /// Read-write register.
    Register,
    /// Counter.
    Counter,
    /// Grow-only set.
    Set,
}

/// A single write occurrence: which transaction, where in it, and whether
/// it is that transaction's *final* write to the key (final writes install
/// versions; earlier ones are intermediate — §4.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteRef {
    /// The writing transaction.
    pub txn: TxnId,
    /// Micro-op position within the transaction.
    pub mop: usize,
    /// Is this the transaction's last write to this key?
    pub final_for_key: bool,
    /// The writer's observed status.
    pub status: TxnStatus,
}

/// How each key is used, with conflicts detected.
///
/// Buildable in one shot ([`KeyTypes::infer`]) or incrementally
/// ([`KeyTypes::note_txn`]) — the streaming checker feeds transactions
/// as they arrive. `conflicts` is kept sorted by key, so batch and
/// incremental construction agree byte-for-byte no matter the order
/// evidence arrived in.
#[derive(Debug, Default)]
pub struct KeyTypes {
    /// Bitmask of noted [`DataType`]s per key (bit = discriminant).
    /// A set, not a last-writer slot, so the inferred type of a
    /// conflicted key is a function of *what* touched it, never of the
    /// order evidence arrived in.
    types: FxHashMap<Key, u8>,
    /// Keys used as more than one datatype (malformed workloads),
    /// sorted ascending.
    pub conflicts: Vec<Key>,
}

const DATATYPES: [DataType; 4] = [
    DataType::List,
    DataType::Register,
    DataType::Counter,
    DataType::Set,
];

fn type_bit(ty: DataType) -> u8 {
    1 << DATATYPES.iter().position(|t| *t == ty).expect("listed")
}

impl KeyTypes {
    /// An empty typing (for incremental construction).
    pub fn new() -> KeyTypes {
        KeyTypes::default()
    }

    /// Infer key types from write and observed-read shapes.
    pub fn infer(history: &History) -> KeyTypes {
        let mut kt = KeyTypes::default();
        for t in history.txns() {
            kt.note_txn(t);
        }
        kt
    }

    /// Fold one transaction's operations into the typing. Idempotent:
    /// re-noting a transaction (e.g. at completion, after its invocation
    /// was already noted) changes nothing.
    pub fn note_txn(&mut self, t: &elle_history::Transaction) {
        use elle_history::ReadValue;
        let note = |key: Key, ty: DataType, kt: &mut KeyTypes| {
            let mask = kt.types.entry(key).or_insert(0);
            *mask |= type_bit(ty);
            if mask.count_ones() > 1 {
                if let Err(at) = kt.conflicts.binary_search(&key) {
                    kt.conflicts.insert(at, key);
                }
            }
        };
        for m in &t.mops {
            match m {
                Mop::Append { key, .. } => note(*key, DataType::List, self),
                Mop::Write { key, .. } => note(*key, DataType::Register, self),
                Mop::Increment { key, .. } => note(*key, DataType::Counter, self),
                Mop::AddToSet { key, .. } => note(*key, DataType::Set, self),
                Mop::Read { key, value } => match value {
                    Some(ReadValue::List(_)) => note(*key, DataType::List, self),
                    Some(ReadValue::Register(_)) => note(*key, DataType::Register, self),
                    Some(ReadValue::Counter(_)) => note(*key, DataType::Counter, self),
                    Some(ReadValue::Set(_)) => note(*key, DataType::Set, self),
                    None => {}
                },
            }
        }
    }

    /// The inferred type of `key`, if any operation touched it
    /// decisively. Conflicted keys resolve to the first noted type in
    /// [`DataType`] declaration order (their inferences are unreliable
    /// either way; the checker warns about them).
    pub fn get(&self, key: Key) -> Option<DataType> {
        let mask = *self.types.get(&key)?;
        DATATYPES.iter().copied().find(|t| mask & type_bit(*t) != 0)
    }

    /// The raw type bitmask noted for `key` (0 if nothing touched it).
    pub fn mask_of(&self, key: Key) -> u8 {
        self.types.get(&key).copied().unwrap_or(0)
    }

    /// OR a previously observed bitmask back into the typing. Windowed
    /// checkers restore retired keys' masks this way: the evidence that
    /// established a key's type may be gone from the history, but the
    /// inferred type (and any conflict) must survive so partitions and
    /// warnings stay byte-identical to an uninterrupted run.
    pub fn preload_mask(&mut self, key: Key, mask: u8) {
        if mask == 0 {
            return;
        }
        let slot = self.types.entry(key).or_insert(0);
        *slot |= mask;
        if slot.count_ones() > 1 {
            if let Err(at) = self.conflicts.binary_search(&key) {
                self.conflicts.insert(at, key);
            }
        }
    }

    /// All keys of a given type.
    pub fn keys_of(&self, ty: DataType) -> Vec<Key> {
        let mut ks: Vec<Key> = self
            .types
            .keys()
            .copied()
            .filter(|k| self.get(*k) == Some(ty))
            .collect();
        ks.sort_unstable();
        ks
    }
}

/// The element → writer index for element-carrying writes (appends,
/// register writes, set adds).
///
/// Recoverability (§4.2.3): a version is recoverable when exactly one
/// observed write could have produced it. Duplicate `(key, element)` writes
/// destroy recoverability for that key; they are recorded and the affected
/// keys excluded from dependency inference.
///
/// **Key-partitioned**: instead of one global `(Key, Elem)` hash map
/// (whose probes go cold once the map outgrows L2), writers live in
/// per-key slabs — sorted `(Elem, WriteRef)` arrays reached through a
/// small key → slab map. The per-key spine scans of the datatype
/// drivers then resolve each element inside the key's own contiguous
/// postings, which stay L1/L2-resident for the duration of the scan.
/// Batch builds bulk-load each slab and sort it once; streaming ingest
/// appends to a bounded unsorted tail that is merged into the sorted
/// run when it fills.
#[derive(Debug, Default)]
pub struct ElemIndex {
    /// key → index into `slabs`.
    keys: FxHashMap<Key, u32>,
    slabs: Vec<KeySlab>,
    /// `(key, elem)` pairs written more than once, with all writers.
    pub duplicates: Vec<(Key, Elem, Vec<TxnId>)>,
    /// Distinct `(key, elem)` entries across all slabs.
    len: usize,
}

/// One key's element → writer postings: a sorted run plus a small
/// unsorted tail (streaming inserts land there; lookups scan it
/// linearly, and it merges into the run at [`TAIL_MAX`]).
#[derive(Debug, Default)]
struct KeySlab {
    sorted: Vec<(Elem, WriteRef)>,
    tail: Vec<(Elem, WriteRef)>,
}

/// Tail length at which a slab merges its unsorted tail into the
/// sorted run (amortizes streaming inserts without per-insert shifts).
const TAIL_MAX: usize = 64;

impl KeySlab {
    fn find_mut(&mut self, elem: Elem) -> Option<&mut (Elem, WriteRef)> {
        if let Ok(at) = self.sorted.binary_search_by_key(&elem, |&(e, _)| e) {
            return Some(&mut self.sorted[at]);
        }
        self.tail.iter_mut().find(|(e, _)| *e == elem)
    }

    fn find(&self, elem: Elem) -> Option<&WriteRef> {
        if let Ok(at) = self.sorted.binary_search_by_key(&elem, |&(e, _)| e) {
            return Some(&self.sorted[at].1);
        }
        self.tail.iter().find(|(e, _)| *e == elem).map(|(_, w)| w)
    }

    /// Merge the (duplicate-free, disjoint) tail into the sorted run.
    fn merge_tail(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        self.tail.sort_unstable_by_key(|&(e, _)| e);
        let mut merged = Vec::with_capacity(self.sorted.len() + self.tail.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.sorted.len() && j < self.tail.len() {
            if self.sorted[i].0 < self.tail[j].0 {
                merged.push(self.sorted[i]);
                i += 1;
            } else {
                merged.push(self.tail[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&self.sorted[i..]);
        merged.extend_from_slice(&self.tail[j..]);
        self.sorted = merged;
        self.tail.clear();
    }
}

impl ElemIndex {
    /// An empty index (for incremental construction).
    pub fn new() -> ElemIndex {
        ElemIndex::default()
    }

    fn slab_mut(&mut self, key: Key) -> &mut KeySlab {
        let next = self.slabs.len() as u32;
        let slot = *self.keys.entry(key).or_insert(next);
        if slot == next {
            self.slabs.push(KeySlab::default());
        }
        &mut self.slabs[slot as usize]
    }

    /// Build the index over every element-carrying write in the history:
    /// bulk-load each key's slab in write order, then sort and
    /// duplicate-scan each slab once.
    pub fn build(history: &History) -> ElemIndex {
        let mut idx = ElemIndex::default();
        // One reused last-write map cleared per transaction, so the
        // bulk build does no per-transaction allocation.
        let mut last_write: FxHashMap<Key, usize> = FxHashMap::default();
        for t in history.txns() {
            last_write.clear();
            for (i, m) in t.mops.iter().enumerate() {
                if m.is_write() {
                    last_write.insert(m.key(), i);
                }
            }
            for (i, k, e) in t.elem_writes() {
                let wref = WriteRef {
                    txn: t.id,
                    mop: i,
                    final_for_key: last_write.get(&k) == Some(&i),
                    status: t.status,
                };
                // Raw append; duplicates are resolved in the finish pass.
                idx.slab_mut(k).tail.push((e, wref));
            }
        }
        idx.finish_bulk();
        idx
    }

    /// Sort every bulk-loaded slab and resolve duplicates: within one
    /// element's group (stable sort = write order) the last writer wins
    /// the slot, and groups of two or more record a duplicates entry —
    /// exactly the semantics of inserting one write at a time.
    fn finish_bulk(&mut self) {
        let mut keys: Vec<(Key, u32)> = self.keys.iter().map(|(k, s)| (*k, *s)).collect();
        keys.sort_unstable();
        for (key, slot) in keys {
            let slab = &mut self.slabs[slot as usize];
            let mut raw = std::mem::take(&mut slab.tail);
            raw.sort_by_key(|&(e, _)| e); // stable: preserves write order
            let mut i = 0usize;
            while i < raw.len() {
                let e = raw[i].0;
                let mut j = i + 1;
                while j < raw.len() && raw[j].0 == e {
                    j += 1;
                }
                if j - i > 1 {
                    self.duplicates
                        .push((key, e, raw[i..j].iter().map(|(_, w)| w.txn).collect()));
                }
                slab.sorted.push(raw[j - 1]); // last writer wins the slot
                self.len += 1;
                i = j;
            }
        }
        // Keys were visited in sorted order and elements ascend within
        // a key, so `duplicates` is already sorted by `(key, elem)`.
        debug_assert!(self
            .duplicates
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
    }

    /// Drop the slabs of `retired` keys (sorted, deduplicated) — the
    /// windowed stream checker's retirement of keys that have gone
    /// quiescent. Their `(key, elem)` entries leave [`ElemIndex::len`]
    /// and their duplicate records are dropped; the caller must first
    /// fold any anomalies those records witnessed into its own
    /// retired-prefix stash.
    pub fn retire_keys(&mut self, retired: &[Key]) {
        debug_assert!(retired.windows(2).all(|w| w[0] < w[1]));
        if retired.is_empty() {
            return;
        }
        let mut slabs = std::mem::take(&mut self.slabs);
        let mut keys: Vec<(Key, u32)> = self.keys.drain().collect();
        keys.sort_unstable();
        let mut kept = Vec::with_capacity(slabs.len().saturating_sub(retired.len()));
        for (key, slot) in keys {
            let slab = std::mem::take(&mut slabs[slot as usize]);
            if retired.binary_search(&key).is_ok() {
                self.len -= slab.sorted.len() + slab.tail.len();
            } else {
                self.keys.insert(key, kept.len() as u32);
                kept.push(slab);
            }
        }
        self.slabs = kept;
        self.duplicates
            .retain(|(k, _, _)| retired.binary_search(k).is_err());
    }

    /// Bytes resident in the index's postings — deterministic (based on
    /// entry counts, not allocator capacities) so windowed residency
    /// metering reproduces across runs. O(1): every slab entry is
    /// counted in [`ElemIndex::len`].
    pub fn resident_bytes(&self) -> usize {
        self.postings_bytes(self.len)
    }

    /// [`ElemIndex::resident_bytes`], counted slab by slab.
    pub(crate) fn recount_resident_bytes(&self) -> usize {
        self.postings_bytes(
            self.slabs
                .iter()
                .map(|s| s.sorted.len() + s.tail.len())
                .sum(),
        )
    }

    fn postings_bytes(&self, entries: usize) -> usize {
        entries * std::mem::size_of::<(Elem, WriteRef)>()
            + self.keys.len() * (std::mem::size_of::<Key>() + std::mem::size_of::<u32>())
    }

    /// Index one transaction's element-carrying writes. Feed
    /// transactions in id order for duplicate writer lists to match a
    /// batch [`ElemIndex::build`] (the `duplicates` vector is kept
    /// sorted by `(key, elem)` either way).
    pub fn index_txn(&mut self, t: &elle_history::Transaction) {
        let mut last_write: FxHashMap<Key, usize> = FxHashMap::default();
        for (i, m) in t.mops.iter().enumerate() {
            if m.is_write() {
                last_write.insert(m.key(), i);
            }
        }
        for (i, k, e) in t.elem_writes() {
            let wref = WriteRef {
                txn: t.id,
                mop: i,
                final_for_key: last_write.get(&k) == Some(&i),
                status: t.status,
            };
            // Field-level borrows: the slab lives in `self.slabs`, the
            // duplicate bookkeeping in `self.duplicates`.
            let next = self.slabs.len() as u32;
            let slot = *self.keys.entry(k).or_insert(next);
            if slot == next {
                self.slabs.push(KeySlab::default());
            }
            let slab = &mut self.slabs[slot as usize];
            match slab.find_mut(e) {
                Some(slot) => {
                    let prev = slot.1;
                    slot.1 = wref; // last writer wins
                    match self
                        .duplicates
                        .binary_search_by_key(&(k, e), |d| (d.0, d.1))
                    {
                        Ok(at) => self.duplicates[at].2.push(t.id),
                        Err(at) => self.duplicates.insert(at, (k, e, vec![prev.txn, t.id])),
                    }
                }
                None => {
                    slab.tail.push((e, wref));
                    self.len += 1;
                    if slab.tail.len() >= TAIL_MAX {
                        slab.merge_tail();
                    }
                }
            }
        }
    }

    /// Update the recorded status of `t`'s writes after its outcome
    /// became known (streaming: a completion resolving an open
    /// invocation). Only entries still owned by `t` are touched.
    pub fn update_status(&mut self, t: &elle_history::Transaction) {
        for (_, k, e) in t.elem_writes() {
            if let Some(slot) = self.keys.get(&k).copied() {
                if let Some((_, w)) = self.slabs[slot as usize].find_mut(e) {
                    if w.txn == t.id {
                        w.status = t.status;
                    }
                }
            }
        }
    }

    /// The unique writer of `(key, elem)`, if recorded — one small map
    /// probe to the key's slab, then a binary search of its sorted
    /// postings.
    ///
    /// When duplicates exist the last writer won the slot; callers must
    /// consult [`ElemIndex::duplicates`] / [`ElemIndex::key_is_recoverable`]
    /// before trusting this for inference.
    pub fn writer(&self, key: Key, elem: Elem) -> Option<WriteRef> {
        let slot = *self.keys.get(&key)?;
        self.slabs[slot as usize].find(elem).copied()
    }

    /// A borrowed view of one key's postings: hoists the key → slab
    /// probe out of per-element loops, so a spine scan resolves every
    /// element inside the key's own (cache-resident) sorted array.
    pub fn key_writers(&self, key: Key) -> KeyWriters<'_> {
        KeyWriters {
            slab: self.keys.get(&key).map(|slot| &self.slabs[*slot as usize]),
        }
    }

    /// Is inference on `key` safe (no duplicate writes observed)?
    pub fn key_is_recoverable(&self, key: Key) -> bool {
        !self.duplicates.iter().any(|(k, _, _)| *k == key)
    }

    /// Number of indexed writes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A borrowed single-key view of an [`ElemIndex`] — see
/// [`ElemIndex::key_writers`].
#[derive(Debug, Clone, Copy)]
pub struct KeyWriters<'a> {
    slab: Option<&'a KeySlab>,
}

impl KeyWriters<'_> {
    /// The unique writer of `elem` under this view's key, if recorded.
    pub fn writer(&self, elem: Elem) -> Option<WriteRef> {
        self.slab.and_then(|s| s.find(elem).copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elle_history::HistoryBuilder;

    #[test]
    fn infers_types_from_writes_and_reads() {
        let mut b = HistoryBuilder::new();
        b.txn(0)
            .append(1, 1)
            .write(2, 1)
            .increment(3, 1)
            .add_to_set(4, 1)
            .commit();
        b.txn(1).read_list(5, [1]).commit();
        let h = b.build();
        let kt = KeyTypes::infer(&h);
        assert_eq!(kt.get(Key(1)), Some(DataType::List));
        assert_eq!(kt.get(Key(2)), Some(DataType::Register));
        assert_eq!(kt.get(Key(3)), Some(DataType::Counter));
        assert_eq!(kt.get(Key(4)), Some(DataType::Set));
        assert_eq!(kt.get(Key(5)), Some(DataType::List));
        assert_eq!(kt.get(Key(9)), None);
        assert!(kt.conflicts.is_empty());
        assert_eq!(kt.keys_of(DataType::List), vec![Key(1), Key(5)]);
    }

    #[test]
    fn detects_type_conflicts() {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).write(1, 2).commit();
        let h = b.build();
        let kt = KeyTypes::infer(&h);
        assert_eq!(kt.conflicts, vec![Key(1)]);
    }

    #[test]
    fn unresolved_reads_do_not_type_keys() {
        let mut b = HistoryBuilder::new();
        b.txn(0).read(7).commit();
        let h = b.build();
        assert_eq!(KeyTypes::infer(&h).get(Key(7)), None);
    }

    #[test]
    fn elem_index_marks_final_writes() {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).append(1, 2).append(2, 3).commit();
        let h = b.build();
        let idx = ElemIndex::build(&h);
        assert!(!idx.writer(Key(1), Elem(1)).unwrap().final_for_key);
        assert!(idx.writer(Key(1), Elem(2)).unwrap().final_for_key);
        assert!(idx.writer(Key(2), Elem(3)).unwrap().final_for_key);
        assert_eq!(idx.len(), 3);
        assert!(!idx.is_empty());
    }

    #[test]
    fn elem_index_records_status() {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).abort();
        b.txn(1).append(1, 2).indeterminate();
        let h = b.build();
        let idx = ElemIndex::build(&h);
        assert_eq!(
            idx.writer(Key(1), Elem(1)).unwrap().status,
            TxnStatus::Aborted
        );
        assert_eq!(
            idx.writer(Key(1), Elem(2)).unwrap().status,
            TxnStatus::Indeterminate
        );
    }

    #[test]
    fn duplicates_break_recoverability() {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 7).commit();
        b.txn(1).append(1, 7).commit();
        b.txn(2).append(2, 9).commit();
        let h = b.build();
        let idx = ElemIndex::build(&h);
        assert!(!idx.key_is_recoverable(Key(1)));
        assert!(idx.key_is_recoverable(Key(2)));
        assert_eq!(idx.duplicates.len(), 1);
        assert_eq!(idx.duplicates[0].0, Key(1));
        assert_eq!(idx.duplicates[0].2, vec![TxnId(0), TxnId(1)]);
    }

    #[test]
    fn retire_keys_drops_slabs_duplicates_and_len() {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).append(2, 2).commit();
        b.txn(1).append(1, 1).append(3, 3).commit(); // duplicate (1, 1)
        let h = b.build();
        let mut idx = ElemIndex::build(&h);
        assert_eq!(idx.len(), 3, "duplicate writers share one slot");
        assert_eq!(idx.duplicates.len(), 1);
        let before = idx.resident_bytes();

        idx.retire_keys(&[Key(1)]);
        assert_eq!(idx.len(), 2, "key 1's entry left the count");
        assert!(idx.duplicates.is_empty(), "retired keys drop duplicates");
        assert!(idx.writer(Key(1), Elem(1)).is_none());
        assert!(idx.writer(Key(2), Elem(2)).is_some(), "slab remap intact");
        assert!(idx.writer(Key(3), Elem(3)).is_some());
        assert!(idx.resident_bytes() < before);

        // Retiring nothing is a no-op.
        idx.retire_keys(&[]);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn register_and_set_writes_indexed_too() {
        let mut b = HistoryBuilder::new();
        b.txn(0).write(1, 5).add_to_set(2, 6).commit();
        let h = b.build();
        let idx = ElemIndex::build(&h);
        assert!(idx.writer(Key(1), Elem(5)).is_some());
        assert!(idx.writer(Key(2), Elem(6)).is_some());
    }
}
