//! A B\*-tree over variable-length byte keys with front-coded leaves
//! (restart-point incremental key compression, see [`crate::page`]) and a
//! doubly linked leaf chain.
//!
//! Keyed on encoded SPLIDs this is the paper's *document index* +
//! *document container* in one structure (Figure 6a): leaves hold the
//! node records in document order; the chained pages are the container.
//! The same structure also backs the element index and the ID attribute
//! index (Figure 6b).

use crate::error::StorageError;
use crate::latch::{Latch, WriteGuard};
use crate::page;
use crate::pool::{PageId, PagePool, StorageStats, NO_PAGE};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use xtc_obs::{stripe, CacheLine, STRIPES};

/// Tuning knobs for a [`BTree`].
#[derive(Debug, Clone)]
pub struct BTreeConfig {
    /// Page size in bytes (default 8192).
    pub page_size: usize,
    /// Maximum key length (default 128, the paper's "key length < 128B"
    /// B-tree restriction).
    pub max_key: usize,
    /// Simulated per-page-read latency (default zero) — see
    /// [`PagePool::with_latency`].
    pub read_latency: std::time::Duration,
    /// Buffer residency budget: at most this many pages stay buffered;
    /// the excess is evicted under `policy` (`None` = unbounded).
    pub max_resident: Option<usize>,
    /// Simulated per-write-back latency (default zero), charged as
    /// `page_write_us` virtual time.
    pub write_latency: std::time::Duration,
    /// Extra simulated latency charged only on buffer misses (default
    /// zero) — the storage bench's price for a fault-in.
    pub miss_latency: std::time::Duration,
    /// Eviction policy under the residency budget (default:
    /// scan-resistant LRU-2).
    pub policy: crate::EvictPolicy,
    /// Page-byte backend: simulated memory (default) or a real page file.
    pub backend: crate::PageBackendConfig,
    /// Hit/miss counting window — see [`crate::PoolConfig::burst_ticks`].
    pub burst_ticks: u64,
}

impl Default for BTreeConfig {
    fn default() -> Self {
        BTreeConfig {
            page_size: 8192,
            max_key: 128,
            read_latency: std::time::Duration::ZERO,
            max_resident: None,
            write_latency: std::time::Duration::ZERO,
            miss_latency: std::time::Duration::ZERO,
            policy: crate::EvictPolicy::default(),
            backend: crate::PageBackendConfig::Sim,
            burst_ticks: crate::DEFAULT_CORRELATED_TICKS,
        }
    }
}

/// Storage occupancy summary — backs the paper's ">96 % storage occupancy"
/// claim reproduction (§3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancyReport {
    /// Live pages (leaf + inner).
    pub pages: usize,
    /// Leaf pages.
    pub leaf_pages: usize,
    /// Inner pages.
    pub inner_pages: usize,
    /// Bytes in use across live pages (headers + slots + cells).
    pub used_bytes: usize,
    /// Total bytes of live pages.
    pub total_bytes: usize,
    /// Bytes of key material physically stored in leaves (restart keys +
    /// front-coded suffixes).
    pub key_bytes_stored: usize,
    /// Bytes the full (uncompressed) keys would occupy.
    pub key_bytes_logical: usize,
}

impl OccupancyReport {
    /// Fraction of page space in use.
    pub fn occupancy(&self) -> f64 {
        if self.total_bytes == 0 {
            return 1.0;
        }
        self.used_bytes as f64 / self.total_bytes as f64
    }

    /// Average physically stored bytes per key (after prefix compression).
    pub fn stored_bytes_per_key(&self, keys: usize) -> f64 {
        if keys == 0 {
            return 0.0;
        }
        self.key_bytes_stored as f64 / keys as f64
    }
}

struct Inner {
    pool: PagePool,
    root: PageId,
    len: usize,
}

/// The B\*-tree. All operations take `&self`; a tree-level reader-writer
/// latch serializes physical access (see DESIGN.md §5 — logical lock waits
/// in the experiments dominate page latching by orders of magnitude). The
/// latch is reader-striped ([`Latch`]): concurrent readers write no
/// common cache line.
///
/// Reads keep their place: each reader stripe remembers the leaf its last
/// lookup ended on, and the next lookup asks that leaf first
/// ([`BTree::locate`]) — in document order the next key is almost always
/// on it, which is the point of the taDOM layout.
pub struct BTree {
    inner: Latch<Inner>,
    /// Mutations begun so far; see [`BTree::version`].
    version: AtomicU64,
    /// Per reader stripe, the leaf that stripe's last lookup ended on, or
    /// `NO_PAGE`. A hint is only ever stored under the stripe's read
    /// latch and every mutation clears all of them before it touches a
    /// page, so a hint read under the read latch names a live leaf that
    /// no mutation has touched since. The stripe's lock orders the
    /// accesses; the atomics only make them data-race free.
    hints: [CacheLine<AtomicU32>; STRIPES],
    stats: StorageStats,
    config: BTreeConfig,
}

/// What an insert below some page hands its parent: the value it
/// replaced, and — when the page split — the separator and new right
/// sibling the parent has to take in.
type Inserted = (Option<Vec<u8>>, Option<(Vec<u8>, PageId)>);

impl BTree {
    /// Creates an empty tree with default configuration.
    pub fn new() -> Self {
        Self::with_config(BTreeConfig::default(), StorageStats::default())
    }

    /// Creates an empty tree with explicit configuration and a shared
    /// statistics handle.
    pub fn with_config(config: BTreeConfig, stats: StorageStats) -> Self {
        assert!(config.page_size >= 256, "page size too small");
        assert!(
            config.max_key <= u8::MAX as usize,
            "front-coded cells store key lengths in one byte (the paper's \
             'key length < 128B' B-tree restriction)"
        );
        let mut pool = PagePool::with_config(
            crate::PoolConfig {
                page_size: config.page_size,
                read_latency: config.read_latency,
                write_latency: config.write_latency,
                miss_latency: config.miss_latency,
                max_resident: config.max_resident,
                policy: config.policy,
                backend: config.backend.clone(),
                burst_ticks: config.burst_ticks,
            },
            stats.clone(),
        );
        let root = pool.alloc();
        page::init_leaf(pool.write(root), NO_PAGE, NO_PAGE);
        pool.pin(root);
        BTree {
            inner: Latch::new(Inner { pool, root, len: 0 }),
            version: AtomicU64::new(0),
            hints: Default::default(),
            stats,
            config,
        }
    }

    fn max_val(&self) -> usize {
        self.config.page_size / 4
    }

    /// Shared page-access statistics.
    pub fn stats(&self) -> &StorageStats {
        &self.stats
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.inner.read().len
    }

    /// `true` when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many mutations ([`BTree::insert`], [`BTree::remove`],
    /// [`BTree::remove_range`]) have begun. A mutation counts itself once
    /// it holds the write latch and before it changes a page, so reads
    /// made between two equal `version()` results all saw one and the
    /// same tree — what a caller needs to know that a plan it made
    /// before waiting for a lock still stands.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// The write latch for a mutation: counts it and clears the hints.
    fn mutate(&self) -> WriteGuard<'_, Inner> {
        let g = self.inner.write();
        self.version.fetch_add(1, Ordering::SeqCst);
        for hint in &self.hints {
            // Relaxed: ordered against every reader by the stripe locks held.
            hint.0.store(NO_PAGE, Ordering::Relaxed);
        }
        g
    }

    /// The bytes of the leaf `key` belongs on, and [`page::leaf_search`]'s
    /// answer there. Asks the stripe's hinted leaf first — two key
    /// compares ([`page::leaf_covers`]) on a page that is only looked at,
    /// and read like any other once it is the one — and walks down from
    /// the root, leaving a new hint, only when the key is not provably on
    /// it. A hinted leaf that is not in the buffer is not asked: a hint
    /// never costs I/O the walk would not have done.
    fn locate<'a>(&self, g: &'a Inner, key: &[u8]) -> (&'a [u8], Result<usize, usize>) {
        let hint = &self.hints[stripe()].0;
        let hinted = hint.load(Ordering::Relaxed);
        if hinted != NO_PAGE && g.pool.peek(hinted).is_some_and(|p| page::leaf_covers(p, key)) {
            self.stats.count_hint_hit();
            let p = g.pool.read(hinted);
            return (p, page::leaf_search(p, key));
        }
        self.stats.count_descent();
        let mut cur = g.root;
        loop {
            let p = g.pool.read(cur);
            if page::page_type(p) == page::TYPE_LEAF {
                hint.store(cur, Ordering::Relaxed);
                return (p, page::leaf_search(p, key));
            }
            cur = page::inner_descend(p, key).0;
        }
    }

    /// Looks up the value stored under `key`.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.get_with(key, <[u8]>::to_vec)
    }

    /// Hands `f` the value stored under `key`, where it lies on the page.
    pub fn get_with<R>(&self, key: &[u8], f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let g = self.inner.read();
        let (p, found) = self.locate(&g, key);
        found.ok().map(|i| f(page::leaf_val(p, i)))
    }

    /// `true` if `key` is present.
    pub fn contains(&self, key: &[u8]) -> bool {
        let g = self.inner.read();
        self.locate(&g, key).1.is_ok()
    }

    /// Inserts or replaces; returns the previous value, if any.
    pub fn insert(&self, key: &[u8], val: &[u8]) -> Result<Option<Vec<u8>>, StorageError> {
        if key.len() > self.config.max_key {
            return Err(StorageError::KeyTooLarge {
                len: key.len(),
                max: self.config.max_key,
            });
        }
        if val.len() > self.max_val() {
            return Err(StorageError::ValueTooLarge {
                len: val.len(),
                max: self.max_val(),
            });
        }
        let mut g = self.mutate();
        let root = g.root;
        let (old, split) = insert_rec(&mut g, root, key, val);
        if let Some((sep, right)) = split {
            grow_root(&mut g, sep, right);
        }
        if old.is_none() {
            g.len += 1;
        }
        Ok(old)
    }

    /// Removes `key`; returns the previous value, if any.
    pub fn remove(&self, key: &[u8]) -> Option<Vec<u8>> {
        let mut g = self.mutate();
        let root = g.root;
        let old = delete_rec(&mut g, root, key)?;
        g.len -= 1;
        collapse_root(&mut g);
        Some(old)
    }

    /// Hands `f` the smallest entry with key strictly greater than `key`.
    pub fn next_after<R>(&self, key: &[u8], f: impl FnOnce(&[u8], &[u8]) -> R) -> Option<R> {
        let g = self.inner.read();
        let (p, found) = self.locate(&g, key);
        let pos = match found {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        if pos < page::count(p) {
            // Where the search ended: the key is built from `key`'s own bytes.
            return Some(f(&page::leaf_search_end_key(p, key, pos), page::leaf_val(p, pos)));
        }
        entry_at_or_after(&g.pool, p, pos, f)
    }

    /// Hands `f` the greatest entry with key strictly less than `key`.
    pub fn prev_before<R>(&self, key: &[u8], f: impl FnOnce(&[u8], &[u8]) -> R) -> Option<R> {
        let g = self.inner.read();
        let (p, found) = self.locate(&g, key);
        let (Ok(pos) | Err(pos)) = found;
        entry_before(&g.pool, p, pos, f)
    }

    /// The smallest entry.
    pub fn first(&self) -> Option<(Vec<u8>, Vec<u8>)> {
        let g = self.inner.read();
        let mut p = g.pool.read(g.root);
        while page::page_type(p) != page::TYPE_LEAF {
            p = g.pool.read(page::link(p));
        }
        entry_at_or_after(&g.pool, p, 0, |k, v| (k.to_vec(), v.to_vec()))
    }

    /// The greatest entry.
    pub fn last(&self) -> Option<(Vec<u8>, Vec<u8>)> {
        let g = self.inner.read();
        let mut p = g.pool.read(g.root);
        while page::page_type(p) != page::TYPE_LEAF {
            let n = page::count(p);
            p = g.pool.read(if n == 0 {
                page::link(p)
            } else {
                page::inner_cell(p, n - 1).1
            });
        }
        entry_before(&g.pool, p, page::count(p), |k, v| (k.to_vec(), v.to_vec()))
    }

    /// All entries with `lo < key < hi`, in order, collected under a single
    /// read latch. This is the subtree-scan primitive (bounds from
    /// `xtc_splid::subtree_upper_bound`).
    pub fn scan_range(&self, lo_excl: &[u8], hi_excl: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        self.for_each_in_range(lo_excl, hi_excl, |k, v| {
            out.push((k.to_vec(), v.to_vec()));
            true
        });
        out
    }

    /// Streams entries with `lo < key < hi` to `f`; stop early by returning
    /// `false`.
    pub fn for_each_in_range(
        &self,
        lo_excl: &[u8],
        hi_excl: &[u8],
        mut f: impl FnMut(&[u8], &[u8]) -> bool,
    ) {
        let g = self.inner.read();
        let (mut p, found) = self.locate(&g, lo_excl);
        let mut pos = match found {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        loop {
            let mut done = false;
            page::leaf_for_each_from(p, pos, |_, k, v| {
                if k >= hi_excl || !f(k, v) {
                    done = true;
                    return false;
                }
                true
            });
            let next = page::link(p);
            if done || next == NO_PAGE {
                return;
            }
            p = g.pool.read(next);
            pos = 0;
        }
    }

    /// Deletes all entries with `lo < key < hi`; returns how many were
    /// removed. Used for subtree deletion.
    pub fn remove_range(&self, lo_excl: &[u8], hi_excl: &[u8]) -> usize {
        // Collect first (cheap: keys only), then delete under one latch.
        let keys: Vec<Vec<u8>> = {
            let mut ks = Vec::new();
            self.for_each_in_range(lo_excl, hi_excl, |k, _| {
                ks.push(k.to_vec());
                true
            });
            ks
        };
        let mut g = self.mutate();
        let mut removed = 0;
        for k in &keys {
            let root = g.root;
            if delete_rec(&mut g, root, k).is_some() {
                g.len -= 1;
                removed += 1;
            }
            collapse_root(&mut g);
        }
        removed
    }

    /// Writes back every dirty page whose covering log record is durable
    /// (`page_lsn <= durable_lsn`); see [`PagePool::flush_dirty`].
    /// Returns how many pages were flushed.
    pub fn flush_dirty(&self, durable_lsn: u64) -> usize {
        self.inner.write().pool.flush_dirty(durable_lsn)
    }

    /// Buffer-manager snapshot (hits, misses, dirty count, flushes,
    /// evictions) for this tree's pool.
    pub fn pool_stats(&self) -> crate::pool::PoolStats {
        self.inner.read().pool.pool_stats()
    }

    /// Walks every live page and reports space usage.
    pub fn occupancy(&self) -> OccupancyReport {
        let g = self.inner.read();
        let mut rep = OccupancyReport {
            pages: 0,
            leaf_pages: 0,
            inner_pages: 0,
            used_bytes: 0,
            total_bytes: 0,
            key_bytes_stored: 0,
            key_bytes_logical: 0,
        };
        visit_pages(&g.pool, g.root, &mut rep);
        rep
    }
}

impl Default for BTree {
    fn default() -> Self {
        BTree::new()
    }
}

fn visit_pages(pool: &PagePool, page_id: PageId, rep: &mut OccupancyReport) {
    let p = pool.read(page_id);
    rep.pages += 1;
    rep.total_bytes += p.len();
    if page::page_type(p) == page::TYPE_LEAF {
        rep.used_bytes += page::leaf_live_bytes(p);
        rep.leaf_pages += 1;
        let (stored, logical) = page::leaf_key_byte_stats(p);
        rep.key_bytes_stored += stored;
        rep.key_bytes_logical += logical;
    } else {
        rep.used_bytes += page::used_bytes(p);
        rep.inner_pages += 1;
        let children: Vec<PageId> = std::iter::once(page::link(p))
            .chain(page::inner_entries(p).into_iter().map(|(_, c)| c))
            .collect();
        for c in children {
            visit_pages(pool, c, rep);
        }
    }
}

/// Hands `f` the entry at slot `pos` of leaf `p`, or the first one of the
/// leaves behind it when `p` ends there.
fn entry_at_or_after<'a, R>(
    pool: &'a PagePool,
    mut p: &'a [u8],
    mut pos: usize,
    f: impl FnOnce(&[u8], &[u8]) -> R,
) -> Option<R> {
    while pos >= page::count(p) {
        let next = page::link(p);
        if next == NO_PAGE {
            return None;
        }
        p = pool.read(next);
        pos = 0;
    }
    Some(f(&page::leaf_key(p, pos), page::leaf_val(p, pos)))
}

/// Hands `f` the entry before slot `pos` of leaf `p`, or the last one of
/// the leaves ahead of it when `pos` is `p`'s first slot.
fn entry_before<'a, R>(
    pool: &'a PagePool,
    mut p: &'a [u8],
    mut pos: usize,
    f: impl FnOnce(&[u8], &[u8]) -> R,
) -> Option<R> {
    while pos == 0 {
        let prev = page::prev_link(p);
        if prev == NO_PAGE {
            return None;
        }
        p = pool.read(prev);
        pos = page::count(p);
    }
    Some(f(&page::leaf_key(p, pos - 1), page::leaf_val(p, pos - 1)))
}

/// Grows a new root after the old root split.
fn grow_root(g: &mut Inner, sep: Vec<u8>, right: PageId) {
    let new_root = g.pool.alloc();
    let old_root = g.root;
    page::init_inner(g.pool.write(new_root), old_root);
    page::inner_insert(g.pool.write(new_root), &sep, right);
    g.root = new_root;
    g.pool.unpin(old_root);
    g.pool.pin(new_root);
}

/// Adds separator `sep` → `right` to inner page `cur`, splitting it when
/// full. Returns the promoted `(separator, new right sibling)` on split.
fn inner_add_child(g: &mut Inner, cur: PageId, sep: Vec<u8>, right: PageId) -> Option<(Vec<u8>, PageId)> {
    if page::inner_fits(g.pool.read(cur), &sep) {
        page::inner_insert(g.pool.write(cur), &sep, right);
        return None;
    }
    // Short of room. Removed separators leave dead cells behind: lay the
    // live ones out afresh, and split only when they really do not fit.
    let leftmost = page::link(g.pool.read(cur));
    let mut entries = page::inner_entries(g.pool.read(cur));
    let at = entries
        .binary_search_by(|(k, _)| k.as_slice().cmp(&sep))
        .unwrap_err();
    entries.insert(at, (sep, right));
    if page::inner_size(&entries) <= g.pool.page_size() {
        page::inner_rebuild(g.pool.write(cur), leftmost, &entries);
        return None;
    }
    let mid = entries.len() / 2;
    let (promoted, right_leftmost) = (entries[mid].0.clone(), entries[mid].1);
    let new_right = g.pool.alloc();
    page::inner_rebuild(g.pool.write(new_right), right_leftmost, &entries[mid + 1..]);
    page::inner_rebuild(g.pool.write(cur), leftmost, &entries[..mid]);
    Some((promoted, new_right))
}

fn insert_rec(g: &mut Inner, cur: PageId, key: &[u8], val: &[u8]) -> Inserted {
    let p = g.pool.read(cur);
    if page::page_type(p) == page::TYPE_LEAF {
        return leaf_insert(g, cur, key, val);
    }
    let (child, _) = page::inner_descend(p, key);
    let (old, split) = insert_rec(g, child, key, val);
    (old, split.and_then(|(sep, right)| inner_add_child(g, cur, sep, right)))
}

fn leaf_insert(g: &mut Inner, cur: PageId, key: &[u8], val: &[u8]) -> Inserted {
    let p = g.pool.read(cur);
    let (at, old) = match page::leaf_search(p, key) {
        Ok(i) => {
            let old = page::leaf_val(p, i).to_vec();
            let p = g.pool.write(cur);
            if page::leaf_replace_val_at(p, i, val) {
                return (Some(old), None);
            }
            // The value outgrew its cell: take the cell out, insert anew.
            page::leaf_remove_at(p, i);
            (i, Some(old))
        }
        Err(i) => (i, None),
    };
    if page::leaf_insert_at(g.pool.write(cur), at, key, val) {
        return (old, None);
    }
    // Chaos-test hook: `Delay` stretches the window in which a page split
    // holds the tree latch. Splits sit below the undo-log granularity, so
    // an `Error` cannot unwind from here — instead it poisons the shared
    // stats handle, which the transaction layer converts into a WAL crash
    // after the mutation returns (the mid-split-kill scenario).
    if xtc_failpoint::fire_delay_in(g.pool.stats().failpoint_scope(), "btree.split") {
        g.pool.stats().poison();
    }
    let next = page::link(g.pool.read(cur));
    let right = g.pool.alloc();
    // The pool lends one page at a time: fill the right half aside.
    let mut half = vec![0u8; g.pool.page_size()];
    page::init_leaf(&mut half, next, cur);
    let left = g.pool.write(cur);
    assert!(
        page::leaf_split_insert(left, &mut half, at, key, val),
        "no leaf split fits a {}-byte key with a {}-byte value on {}-byte pages \
         (key/value limits should make this unreachable)",
        key.len(),
        val.len(),
        half.len()
    );
    page::set_link(left, right);
    g.pool.write(right).copy_from_slice(&half);
    if next != NO_PAGE {
        page::set_prev_link(g.pool.write(next), right);
    }
    (old, Some((page::leaf_key(&half, 0).to_vec(), right)))
}

/// Removes `key` below `cur` and returns its value. A removal never needs
/// room ([`page::leaf_remove_at`]), so unlike an insert it cannot split.
fn delete_rec(g: &mut Inner, cur: PageId, key: &[u8]) -> Option<Vec<u8>> {
    let p = g.pool.read(cur);
    if page::page_type(p) == page::TYPE_LEAF {
        let i = page::leaf_search(p, key).ok()?;
        let old = page::leaf_val(p, i).to_vec();
        page::leaf_remove_at(g.pool.write(cur), i);
        return Some(old);
    }
    let (child, sep_idx) = page::inner_descend(p, key);
    let old = delete_rec(g, child, key)?;
    fix_child(g, cur, child, sep_idx);
    Some(old)
}

/// Post-deletion maintenance: frees empty children, collapses inner pages
/// down to a single child, and opportunistically merges underfull leaves
/// with their right sibling under the same parent.
fn fix_child(g: &mut Inner, parent: PageId, child: PageId, sep_idx: Option<usize>) {
    let (is_leaf, child_count) = {
        let p = g.pool.read(child);
        (page::page_type(p) == page::TYPE_LEAF, page::count(p))
    };
    if child_count == 0 {
        if is_leaf {
            unlink_leaf(g, child);
        } else {
            // An inner page holding only its leftmost child: splice the
            // grandchild into the parent and free the inner page.
            let grandchild = page::link(g.pool.read(child));
            replace_child(g, parent, sep_idx, grandchild);
            g.pool.free(child);
            return;
        }
        remove_child_ref(g, parent, sep_idx);
        g.pool.free(child);
        return;
    }
    if is_leaf && page::leaf_live_bytes(g.pool.read(child)) < g.pool.page_size() / 4 {
        try_merge_with_right(g, parent, child, sep_idx);
    }
}

fn unlink_leaf(g: &mut Inner, leaf: PageId) {
    let (prev, next) = {
        let p = g.pool.read(leaf);
        (page::prev_link(p), page::link(p))
    };
    if prev != NO_PAGE {
        page::set_link(g.pool.write(prev), next);
    }
    if next != NO_PAGE {
        page::set_prev_link(g.pool.write(next), prev);
    }
}

/// Removes the reference to a (freed) child from `parent`.
fn remove_child_ref(g: &mut Inner, parent: PageId, sep_idx: Option<usize>) {
    match sep_idx {
        Some(i) => page::inner_remove_at(g.pool.write(parent), i),
        None => {
            // Freed the leftmost child: promote the first separator's child.
            let p = g.pool.read(parent);
            debug_assert!(page::count(p) > 0, "inner page lost its only child");
            let (_, first_child) = page::inner_cell(p, 0);
            let pw = g.pool.write(parent);
            page::set_link(pw, first_child);
            page::inner_remove_at(pw, 0);
        }
    }
}

/// Replaces the child reference at `sep_idx` with `new_child`.
fn replace_child(g: &mut Inner, parent: PageId, sep_idx: Option<usize>, new_child: PageId) {
    match sep_idx {
        None => page::set_link(g.pool.write(parent), new_child),
        Some(i) => page::inner_set_child(g.pool.write(parent), i, new_child),
    }
}

fn try_merge_with_right(g: &mut Inner, parent: PageId, child: PageId, sep_idx: Option<usize>) {
    // Identify the right sibling under the same parent and the separator
    // that owns it.
    let right_sep = sep_idx.map_or(0, |i| i + 1);
    let right = {
        let p = g.pool.read(parent);
        if right_sep >= page::count(p) {
            return; // child is the last under this parent
        }
        page::inner_cell(p, right_sep).1
    };
    let merged = page::leaf_live_bytes(g.pool.read(child)) + page::leaf_live_bytes(g.pool.read(right))
        - page::HEADER;
    if merged > g.pool.page_size() * 7 / 8 {
        return; // merged page would be too full to absorb further inserts
    }
    // The pool lends one page at a time: the right one is freed anyway.
    let mut from = g.pool.read(right).to_vec();
    let next = page::link(&from);
    let into = g.pool.write(child);
    if !page::leaf_move_tail(&mut from, 0, into) {
        return;
    }
    page::set_link(into, next);
    if next != NO_PAGE {
        page::set_prev_link(g.pool.write(next), child);
    }
    g.pool.free(right);
    page::inner_remove_at(g.pool.write(parent), right_sep);
}

fn collapse_root(g: &mut Inner) {
    loop {
        let p = g.pool.read(g.root);
        if page::page_type(p) == page::TYPE_LEAF || page::count(p) > 0 {
            return;
        }
        let only_child = page::link(p);
        let old_root = g.root;
        g.root = only_child;
        g.pool.free(old_root);
        g.pool.pin(only_child);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_tree() -> BTree {
        BTree::with_config(
            BTreeConfig {
                page_size: 256,
                max_key: 64,
                ..BTreeConfig::default()
            },
            StorageStats::default(),
        )
    }

    fn key(i: u32) -> Vec<u8> {
        format!("key-{i:06}").into_bytes()
    }

    #[test]
    fn insert_get_overwrite() {
        let t = BTree::new();
        assert_eq!(t.insert(b"a", b"1").unwrap(), None);
        assert_eq!(t.insert(b"a", b"2").unwrap(), Some(b"1".to_vec()));
        assert_eq!(t.get(b"a"), Some(b"2".to_vec()));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(b"b"), None);
    }

    #[test]
    fn many_inserts_cause_splits_and_stay_ordered() {
        let t = small_tree();
        let n = 2000u32;
        for i in 0..n {
            t.insert(&key(i * 7 % n), &i.to_le_bytes()).unwrap();
        }
        assert_eq!(t.len(), n as usize);
        // Full ordered iteration via the leaf chain.
        let all = t.scan_range(b"", b"\xff");
        assert_eq!(all.len(), n as usize);
        for w in all.windows(2) {
            assert!(w[0].0 < w[1].0, "entries out of order");
        }
        let rep = t.occupancy();
        assert!(rep.inner_pages >= 1, "splits should have produced inner pages");
        for i in 0..n {
            assert!(t.get(&key(i)).is_some(), "missing key {i}");
        }
    }

    #[test]
    fn delete_all_collapses_tree() {
        let t = small_tree();
        let n = 1200u32;
        for i in 0..n {
            t.insert(&key(i), b"v").unwrap();
        }
        for i in 0..n {
            assert_eq!(t.remove(&key(i)), Some(b"v".to_vec()), "key {i}");
        }
        assert_eq!(t.len(), 0);
        assert_eq!(t.first(), None);
        assert_eq!(t.last(), None);
        let rep = t.occupancy();
        assert_eq!(rep.pages, 1, "tree should collapse to a single root leaf");
        assert_eq!(t.remove(b"nope"), None);
    }

    #[test]
    fn next_after_and_prev_before() {
        let t = small_tree();
        for i in (0..100u32).map(|i| i * 2) {
            t.insert(&key(i), b"").unwrap();
        }
        let next = |i| t.next_after(&key(i), |k, _| k.to_vec());
        let prev = |i| t.prev_before(&key(i), |k, _| k.to_vec());
        assert_eq!(next(10), Some(key(12)));
        assert_eq!(next(11), Some(key(12)));
        assert_eq!(next(198), None);
        assert_eq!(prev(10), Some(key(8)));
        assert_eq!(prev(11), Some(key(10)));
        assert_eq!(prev(0), None);
        assert_eq!(t.first().unwrap().0, key(0));
        assert_eq!(t.last().unwrap().0, key(198));
    }

    /// Every stored key and a key in every gap, so also from the last slot
    /// of each leaf to the first of the next and back, against a model —
    /// after a shuffled load and removals on 256-byte pages.
    #[test]
    fn next_and_prev_agree_with_a_model_across_leaves() {
        use std::collections::BTreeMap;
        use std::ops::Bound::{Excluded, Unbounded};
        let t = small_tree();
        let mut model = BTreeMap::new();
        let stem = |i: u32| format!("doc/{}/{:04}", i % 3, i).into_bytes();
        for i in 0..1500u32 {
            let k = stem(i * 611 % 1500);
            t.insert(&k, &i.to_le_bytes()).unwrap();
            model.insert(k, i.to_le_bytes().to_vec());
        }
        for i in (0..1500u32).filter(|i| i % 7 == 3 || i % 64 < 9) {
            assert_eq!(t.remove(&stem(i)), model.remove(&stem(i)));
        }
        assert!(t.occupancy().leaf_pages > 40);
        let probes = model.keys().flat_map(|k| {
            let (&last, head) = k.split_last().unwrap();
            [k.clone(), [k, &b"+"[..]].concat(), [head, &[last - 1, 0xFF]].concat(), head.to_vec()]
        });
        for probe in probes.chain([vec![], b"doc".to_vec(), b"e".to_vec()]) {
            let pair = |k: &[u8], v: &[u8]| (k.to_vec(), v.to_vec());
            let next = model.range::<Vec<u8>, _>((Excluded(&probe), Unbounded)).next();
            assert_eq!(t.next_after(&probe, pair), next.map(|(k, v)| pair(k, v)), "after {probe:?}");
            let prev = model.range::<Vec<u8>, _>(..&probe).next_back();
            assert_eq!(t.prev_before(&probe, pair), prev.map(|(k, v)| pair(k, v)), "before {probe:?}");
            assert_eq!(t.get_with(&probe, <[u8]>::to_vec), model.get(&probe).cloned(), "get {probe:?}");
        }
    }

    #[test]
    fn range_scan_and_range_delete() {
        let t = small_tree();
        for i in 0..500u32 {
            t.insert(&key(i), &i.to_le_bytes()).unwrap();
        }
        let hits = t.scan_range(&key(100), &key(110));
        assert_eq!(hits.len(), 9, "exclusive bounds");
        assert_eq!(hits[0].0, key(101));
        assert_eq!(hits[8].0, key(109));
        let removed = t.remove_range(&key(100), &key(200));
        assert_eq!(removed, 99);
        assert_eq!(t.len(), 500 - 99);
        assert!(t.get(&key(150)).is_none());
        assert!(t.get(&key(100)).is_some());
        assert!(t.get(&key(200)).is_some());
    }

    #[test]
    fn oversized_keys_and_values_rejected() {
        let t = small_tree();
        assert!(matches!(
            t.insert(&[0u8; 65], b"v"),
            Err(StorageError::KeyTooLarge { .. })
        ));
        assert!(matches!(
            t.insert(b"k", &[0u8; 100]),
            Err(StorageError::ValueTooLarge { .. })
        ));
    }

    #[test]
    fn occupancy_stays_high_under_random_updates() {
        let t = BTree::with_config(
            BTreeConfig::default(),
            StorageStats::default(),
        );
        // Sequential build (document order) then random value updates —
        // the §3.1 workload shape.
        for i in 0..20_000u32 {
            t.insert(&key(i), &[0u8; 16]).unwrap();
        }
        for i in (0..20_000u32).step_by(3) {
            t.insert(&key(i), &[1u8; 12]).unwrap();
        }
        let rep = t.occupancy();
        assert!(
            rep.occupancy() > 0.5,
            "occupancy {:.2} collapsed",
            rep.occupancy()
        );
    }

    #[test]
    fn prefix_compression_shrinks_keys() {
        let t = BTree::new();
        for i in 0..5_000u32 {
            // Long shared prefix, short distinct tail — the SPLID shape.
            let k = format!("shared/document/prefix/{i:08}");
            t.insert(k.as_bytes(), b"v").unwrap();
        }
        let rep = t.occupancy();
        assert!(
            rep.key_bytes_stored * 2 < rep.key_bytes_logical,
            "prefix compression should at least halve stored key bytes \
             ({} vs {})",
            rep.key_bytes_stored,
            rep.key_bytes_logical
        );
    }

    #[test]
    fn a_delete_never_allocates() {
        // Wide keys on the smallest pages: full leaves whose successors
        // regrow on removal, and inner pages that hold two or three
        // separators and fill up with dead ones under the merges.
        let t = small_tree();
        let wide = |i: u64| format!("a/long/stem/that/most/keys/share/{:03}/{:05}", i % 7, i).into_bytes();
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut removals = 0;
        while removals < 20_000 {
            let r = next();
            let k = wide(r % 1500);
            if r % 5 < 3 {
                t.insert(&k, &[r as u8; 5][..(r % 6) as usize]).unwrap();
                continue;
            }
            let allocs = t.stats().page_allocs();
            if r % 5 == 3 {
                t.remove(&k);
            } else {
                t.remove_range(&k, &wide(r % 1500 + r % 9));
            }
            assert_eq!(t.stats().page_allocs(), allocs, "removal {removals} allocated a page");
            removals += 1;
        }
        let all = t.scan_range(b"", b"\xff");
        assert_eq!(all.len(), t.len());
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "entries out of order");
    }

    #[test]
    fn value_outgrowing_its_cell_on_a_full_page_splits() {
        // How many entries one root leaf takes before it splits.
        let fill = |n: u32| {
            let t = small_tree();
            for i in 0..n {
                t.insert(&key(i), b"12345678").unwrap();
            }
            t
        };
        let full = (1..).find(|&n| fill(n + 1).occupancy().pages > 1).unwrap();
        let t = fill(full);
        assert_eq!(t.occupancy().pages, 1);
        let allocs = t.stats().page_allocs();
        let grown = [9u8; 60];
        assert_eq!(t.insert(&key(full / 2), &grown).unwrap(), Some(b"12345678".to_vec()));
        assert_eq!(t.stats().page_allocs(), allocs + 2, "a right leaf and a new root");
        assert_eq!(t.len(), full as usize);
        for i in 0..full {
            let want = if i == full / 2 { &grown[..] } else { b"12345678" };
            assert_eq!(t.get(&key(i)).as_deref(), Some(want), "key {i}");
        }
    }

    #[test]
    fn occupancy_counts_live_cells_and_thinned_leaves_merge() {
        let t = BTree::with_config(
            BTreeConfig {
                page_size: 1024,
                ..BTreeConfig::default()
            },
            StorageStats::default(),
        );
        let n = 4000u32;
        for i in 0..n {
            t.insert(&key(i), b"value").unwrap();
        }
        let full = t.occupancy();
        assert!(full.occupancy() > 0.9, "key-order load: {:.2}", full.occupancy());
        // Every second key gone: nothing merges yet (no leaf is under a
        // quarter full), and the dead cells must not count as occupied.
        for i in (1..n).step_by(2) {
            t.remove(&key(i));
        }
        let half = t.occupancy();
        assert_eq!(half.leaf_pages, full.leaf_pages);
        let ratio = half.occupancy() / full.occupancy();
        assert!((0.45..0.65).contains(&ratio), "half the keys occupy {ratio:.2} of the bytes");
        // One key in eight left: each leaf drops under a quarter full once
        // and folds its right neighbour in; the pair then stays above it.
        for i in (0..n).step_by(2).filter(|i| i % 8 != 0) {
            t.remove(&key(i));
        }
        let thin = t.occupancy();
        assert!(
            thin.leaf_pages <= full.leaf_pages / 2 + 1,
            "{} of {} leaves left for an eighth of the keys",
            thin.leaf_pages,
            full.leaf_pages
        );
        assert!(thin.occupancy() > 0.25, "merged leaves are {:.2} full", thin.occupancy());
        assert_eq!(t.scan_range(b"", b"\xff").len(), n as usize / 8);
    }

    /// Readers check `get` / `next_after` / `prev_before` against a model
    /// between the writer's batches of `insert` / `remove` / `remove_range`
    /// on 256-byte pages: splits, merges, pages freed and their ids reused,
    /// all under standing hints. One reader more than there are stripes,
    /// so two of them share one and race on its hint, whichever stripes
    /// the threads of other tests took.
    #[test]
    fn hinted_lookups_agree_with_a_model_from_threads_sharing_a_stripe() {
        use std::collections::BTreeMap;
        use std::ops::Bound::{Excluded, Unbounded};
        use std::sync::{mpsc, RwLock};
        const READERS: u64 = STRIPES as u64 + 1;
        const ROUNDS: usize = 250;
        const KEYS: u64 = 900;
        let rng = |seed: u64| {
            let mut x = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(seed + 1);
            move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            }
        };
        let t = small_tree();
        let model = RwLock::new(BTreeMap::<Vec<u8>, Vec<u8>>::new());
        let reused = std::thread::scope(|s| {
            // The writer starts each reader's round and hears when it is
            // over; a reader that fails hangs up and fails the writer.
            let readers: Vec<_> = (0..READERS)
                .map(|r| {
                    let (go, round) = mpsc::channel::<usize>();
                    let (done, over) = mpsc::channel::<usize>();
                    let (t, model) = (&t, &model);
                    s.spawn(move || {
                        let mut next = rng(r);
                        for round in round {
                            let model = model.read().expect("the writer failed");
                            // A walk in key order, forwards or backwards,
                            // with a lookup somewhere else after every step.
                            let mut at = key((next() % KEYS) as u32);
                            for step in 0..12 {
                                let (got, want) = if (round as u64 + r).is_multiple_of(2) {
                                    (
                                        t.next_after(&at, |k, v| (k.to_vec(), v.to_vec())),
                                        model.range::<Vec<u8>, _>((Excluded(&at), Unbounded)).next(),
                                    )
                                } else {
                                    (
                                        t.prev_before(&at, |k, v| (k.to_vec(), v.to_vec())),
                                        model.range::<Vec<u8>, _>(..&at).next_back(),
                                    )
                                };
                                let want = want.map(|(k, v)| (k.clone(), v.clone()));
                                assert_eq!(got, want, "round {round} step {step} from {at:?}");
                                if let Some((k, v)) = got {
                                    assert_eq!(t.get(&k), Some(v), "round {round}: get of {k:?}");
                                    at = k;
                                }
                                let far = key((next() % KEYS) as u32);
                                assert_eq!(t.get(&far), model.get(&far).cloned(), "round {round}: get of {far:?}");
                                assert_eq!(t.contains(&far), model.contains_key(&far));
                            }
                            drop(model);
                            done.send(stripe()).expect("the writer failed");
                        }
                    });
                    (go, over)
                })
                .collect();
            let mut next = rng(READERS);
            // Freed page ids waiting for reuse, and how many were reused:
            // a removal only frees and an insert only allocates.
            let (mut free_list, mut reused) = (0u64, 0u64);
            for round in 0..ROUNDS {
                let mut model = model.write().expect("a reader failed");
                for _ in 0..25 {
                    let r = next();
                    let k = key((r % KEYS) as u32);
                    let (allocs, frees) = (t.stats().page_allocs(), t.stats().page_frees());
                    match r >> 32 & 7 {
                        0..=3 => {
                            let v = r.to_le_bytes()[..(r >> 40 & 7) as usize].to_vec();
                            assert_eq!(t.insert(&k, &v).unwrap(), model.insert(k, v));
                        }
                        4 | 5 => assert_eq!(t.remove(&k), model.remove(&k)),
                        _ => {
                            let hi = key((r % KEYS + 1 + (r >> 40) % 80) as u32);
                            let doomed: Vec<_> = model
                                .range::<Vec<u8>, _>((Excluded(&k), Excluded(&hi)))
                                .map(|(k, _)| k.clone())
                                .collect();
                            assert_eq!(t.remove_range(&k, &hi), doomed.len());
                            for k in doomed {
                                model.remove(&k);
                            }
                        }
                    }
                    let took = (t.stats().page_allocs() - allocs).min(free_list);
                    reused += took;
                    free_list = free_list - took + (t.stats().page_frees() - frees);
                }
                if round % 8 == 7 {
                    // Every key out and in again: the tree collapses to its
                    // root leaf and regrows, so the page ids the stripes'
                    // hints held come back as leaves *and* as inner pages.
                    t.remove_range(b"", &key(KEYS as u32));
                    for i in 0..KEYS as u32 {
                        model.insert(key(i), b"back".to_vec());
                        t.insert(&key(i), b"back").unwrap();
                    }
                }
                drop(model);
                for (go, _) in &readers {
                    go.send(round).expect("a reader failed");
                }
                let mut stripes: Vec<usize> = readers
                    .iter()
                    .map(|(_, over)| over.recv().expect("a reader failed"))
                    .collect();
                stripes.sort_unstable();
                assert!(stripes.windows(2).any(|w| w[0] == w[1]), "no two readers shared a stripe");
            }
            reused
        });
        assert!(reused > 0, "no freed page id was handed out again");
        let pool = t.pool_stats();
        assert!(pool.hint_hits > 0 && pool.descents > 0, "{pool:?}");
        assert_eq!(t.len(), model.read().unwrap().len());
    }

    /// Only a mutation evicts, and it clears the hints first, so a hinted
    /// leaf is resident as things stand. `locate` does not lean on that:
    /// with a stale hint planted by hand, a lookup faults in exactly the
    /// pages it faults in on a twin tree without the hint.
    #[test]
    fn a_hinted_leaf_that_is_not_resident_is_not_asked() {
        let dir = std::env::temp_dir().join(format!("xtc-btree-hint-{}", std::process::id()));
        let build = |file: &str| {
            let t = BTree::with_config(
                BTreeConfig {
                    page_size: 512,
                    max_resident: Some(4),
                    policy: crate::EvictPolicy::CleanLru,
                    backend: crate::PageBackendConfig::File { path: dir.join(file) },
                    ..BTreeConfig::default()
                },
                StorageStats::default(),
            );
            for i in 0..3000 {
                t.insert(&key(i), b"value").unwrap();
            }
            // A lookup leaves its leaf as the hint; the inserts that
            // follow clear it and push that leaf out of the buffer.
            assert!(t.get(&key(100)).is_some());
            let leaf = t.hints[stripe()].0.load(Ordering::Relaxed);
            assert_ne!(leaf, NO_PAGE);
            t.flush_dirty(u64::MAX);
            for i in 3000..3200 {
                t.insert(&key(i), b"value").unwrap();
            }
            t.flush_dirty(u64::MAX);
            assert!(t.inner.read().pool.peek(leaf).is_none(), "leaf {leaf} still buffered");
            (t, leaf)
        };
        let (hinted, leaf) = build("hinted.pages");
        let (plain, twin) = build("plain.pages");
        assert_eq!(leaf, twin, "same history, same page ids");
        // On the hinted leaf, beside it, and far from it.
        for probe in [101, 99, 130, 2000] {
            assert!(hinted.inner.read().pool.peek(leaf).is_none(), "leaf {leaf} still buffered");
            hinted.hints[stripe()].0.store(leaf, Ordering::Relaxed);
            plain.hints[stripe()].0.store(NO_PAGE, Ordering::Relaxed);
            let before = (hinted.pool_stats(), plain.pool_stats());
            assert_eq!(hinted.get(&key(probe)), plain.get(&key(probe)));
            let after = (hinted.pool_stats(), plain.pool_stats());
            assert_eq!(
                after.0.misses - before.0.misses,
                after.1.misses - before.1.misses,
                "fault-ins for key {probe}"
            );
            assert_eq!(after.0.hint_hits, before.0.hint_hits, "key {probe} was answered by the hint");
            // Evict what the probe brought in, on both trees alike.
            for t in [&hinted, &plain] {
                for i in 3000..3200 {
                    t.insert(&key(i), b"value").unwrap();
                }
                t.flush_dirty(u64::MAX);
            }
        }
        drop((hinted, plain));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interleaved_insert_delete_model_check() {
        use std::collections::BTreeMap;
        let t = small_tree();
        let mut model = BTreeMap::new();
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for step in 0..30_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = key((x % 700) as u32);
            if x.is_multiple_of(3) {
                let a = t.remove(&k);
                let b = model.remove(&k);
                assert_eq!(a, b, "step {step}");
            } else {
                let v = (step as u64).to_le_bytes().to_vec();
                let a = t.insert(&k, &v).unwrap();
                let b = model.insert(k, v);
                assert_eq!(a, b, "step {step}");
            }
        }
        assert_eq!(t.len(), model.len());
        let all = t.scan_range(b"", b"\xff");
        let expect: Vec<_> = model.into_iter().collect();
        assert_eq!(all, expect);
    }
}
