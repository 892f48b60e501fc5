//! Slotted-page layout for B*-tree nodes, with **front-coded leaves**.
//!
//! Two page kinds share a common header:
//!
//! ```text
//! offset  size  field
//! 0       1     page type (1 = leaf, 2 = inner)
//! 1       2     cell count (u16 LE)
//! 3       2     cell area start: lowest cell offset (u16 LE)
//! 5       4     leaf: next-leaf page id / inner: leftmost child (u32 LE)
//! 9       4     leaf: previous-leaf page id (u32 LE)
//! 13      —     slot array (u16 offsets); cells grow down from the end.
//! ```
//!
//! Leaf cell:  `[shared u8][suffix_len u8][val_len u16][key suffix][value]`
//! Inner cell: `[key_len u16][key][child u32]`
//!
//! Leaves use *front coding* (restart-point incremental encoding): each
//! cell stores only the bytes of its key that differ from the previous
//! slot's key — `shared` is the length of the common prefix with the
//! predecessor, `suffix` the distinct tail. Every
//! [`RESTART_INTERVAL`]-th slot is a *restart point* holding its full key
//! (`shared == 0`), so binary search runs over the restart keys and then
//! decodes at most one interval linearly. Restart positions are implicit
//! (slot index divisible by the interval) — the slot array doubles as the
//! restart array, and no separate offset list is needed.
//!
//! Consecutive SPLIDs in document order differ almost only in their final
//! division, so per-key front coding is what delivers the paper's §3.2
//! "2–3 bytes per stored SPLID" — a page-wide common prefix cannot, since
//! one divergent key on the page destroys the whole saving.
//!
//! Mutation rules keeping the restart invariant cheap:
//!
//! * appends (`leaf_append`) and tail removals extend/shrink the slot
//!   array in place — document-order builds never rebuild;
//! * value replacement reuses the cell when the new value fits;
//! * any other insert or removal re-encodes the page from its entries
//!   (`leaf_rebuild`), which also compacts dead cell space.

use crate::pool::PageId;
use std::cmp::Ordering;
use xtc_splid::common_prefix_len;

pub const HEADER: usize = 13;
pub const TYPE_LEAF: u8 = 1;
pub const TYPE_INNER: u8 = 2;

/// Every `RESTART_INTERVAL`-th leaf slot stores its full key. Smaller
/// intervals cost stored bytes, larger ones lengthen the linear decode in
/// searches; 16 keeps both at a few percent (see DESIGN.md, storage).
pub const RESTART_INTERVAL: usize = 16;

// ---- header accessors ------------------------------------------------

pub fn page_type(p: &[u8]) -> u8 {
    p[0]
}

pub fn count(p: &[u8]) -> usize {
    u16::from_le_bytes([p[1], p[2]]) as usize
}

fn set_count(p: &mut [u8], n: usize) {
    p[1..3].copy_from_slice(&(n as u16).to_le_bytes());
}

fn cell_start(p: &[u8]) -> usize {
    u16::from_le_bytes([p[3], p[4]]) as usize
}

fn set_cell_start(p: &mut [u8], off: usize) {
    p[3..5].copy_from_slice(&(off as u16).to_le_bytes());
}

/// Leaf: next leaf in the chain. Inner: leftmost child.
pub fn link(p: &[u8]) -> PageId {
    u32::from_le_bytes([p[5], p[6], p[7], p[8]])
}

pub fn set_link(p: &mut [u8], id: PageId) {
    p[5..9].copy_from_slice(&id.to_le_bytes());
}

/// Leaf: previous leaf in the chain.
pub fn prev_link(p: &[u8]) -> PageId {
    u32::from_le_bytes([p[9], p[10], p[11], p[12]])
}

pub fn set_prev_link(p: &mut [u8], id: PageId) {
    p[9..13].copy_from_slice(&id.to_le_bytes());
}

fn slot(p: &[u8], i: usize) -> usize {
    let off = HEADER + i * 2;
    u16::from_le_bytes([p[off], p[off + 1]]) as usize
}

fn set_slot(p: &mut [u8], i: usize, cell: usize) {
    let off = HEADER + i * 2;
    p[off..off + 2].copy_from_slice(&(cell as u16).to_le_bytes());
}

/// Free bytes between the slot array and the cell area.
pub fn free_space(p: &[u8]) -> usize {
    cell_start(p) - (HEADER + count(p) * 2)
}

/// Bytes of payload currently stored (cells + slots + header) — used for
/// occupancy reporting.
pub fn used_bytes(p: &[u8]) -> usize {
    p.len() - free_space(p)
}

// ---- leaf pages --------------------------------------------------------

pub fn init_leaf(p: &mut [u8], next: PageId, prev: PageId) {
    let len = p.len();
    p[0] = TYPE_LEAF;
    set_count(p, 0);
    set_cell_start(p, len);
    set_link(p, next);
    set_prev_link(p, prev);
}

/// Front-coding parts of leaf cell `i`: bytes shared with the previous
/// slot's key, and the distinct suffix. Restart slots have `shared == 0`
/// and carry the full key as their suffix.
pub fn leaf_suffix_parts(p: &[u8], i: usize) -> (usize, &[u8]) {
    let off = slot(p, i);
    let shared = p[off] as usize;
    let slen = p[off + 1] as usize;
    (shared, &p[off + 4..off + 4 + slen])
}

/// Value of leaf cell `i`.
pub fn leaf_val(p: &[u8], i: usize) -> &[u8] {
    let off = slot(p, i);
    let slen = p[off + 1] as usize;
    let vlen = u16::from_le_bytes([p[off + 2], p[off + 3]]) as usize;
    &p[off + 4 + slen..off + 4 + slen + vlen]
}

/// Full key of leaf cell `i`, reconstructed from the covering restart
/// point (at most [`RESTART_INTERVAL`] incremental steps).
pub fn leaf_key(p: &[u8], i: usize) -> Vec<u8> {
    let restart = i - i % RESTART_INTERVAL;
    let mut key = Vec::new();
    for j in restart..=i {
        let (shared, suffix) = leaf_suffix_parts(p, j);
        key.truncate(shared);
        key.extend_from_slice(suffix);
    }
    key
}

/// Binary search in a leaf: `Ok(i)` if `key` is at slot `i`, `Err(i)` for
/// the insertion position. Searches the restart keys (full keys, direct
/// slice compare), then decodes one restart interval incrementally.
pub fn leaf_search(p: &[u8], key: &[u8]) -> Result<usize, usize> {
    let n = count(p);
    if n == 0 {
        return Err(0);
    }
    // First restart whose full key is strictly greater than `key`.
    let restarts = n.div_ceil(RESTART_INTERVAL);
    let mut lo = 0usize;
    let mut hi = restarts;
    while lo < hi {
        let mid = (lo + hi) / 2;
        let (_, full) = leaf_suffix_parts(p, mid * RESTART_INTERVAL);
        if full <= key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if lo == 0 {
        return Err(0); // key sorts before the first key on the page
    }
    let start = (lo - 1) * RESTART_INTERVAL;
    let end = (start + RESTART_INTERVAL).min(n);
    let mut cur = Vec::new();
    for i in start..end {
        let (shared, suffix) = leaf_suffix_parts(p, i);
        cur.truncate(shared);
        cur.extend_from_slice(suffix);
        match cur.as_slice().cmp(key) {
            Ordering::Equal => return Ok(i),
            Ordering::Greater => return Err(i),
            Ordering::Less => {}
        }
    }
    Err(end)
}

/// Streams `(slot, full key, value)` from slot `start` to the end of the
/// page, decoding keys incrementally; stop early by returning `false`.
pub fn leaf_for_each_from(p: &[u8], start: usize, mut f: impl FnMut(usize, &[u8], &[u8]) -> bool) {
    let n = count(p);
    if start >= n {
        return;
    }
    let mut cur = leaf_key(p, start);
    if !f(start, &cur, leaf_val(p, start)) {
        return;
    }
    for i in start + 1..n {
        let (shared, suffix) = leaf_suffix_parts(p, i);
        cur.truncate(shared);
        cur.extend_from_slice(suffix);
        if !f(i, &cur, leaf_val(p, i)) {
            return;
        }
    }
}

/// Physically stored vs logical (uncompressed) key bytes on a leaf — the
/// `OccupancyReport` inputs behind the §3.2 "2–3 bytes per SPLID" claim.
pub fn leaf_key_byte_stats(p: &[u8]) -> (usize, usize) {
    let mut stored = 0;
    let mut logical = 0;
    leaf_for_each_from(p, 0, |i, key, _| {
        let (_, suffix) = leaf_suffix_parts(p, i);
        stored += suffix.len();
        logical += key.len();
        true
    });
    (stored, logical)
}

fn front_coded_shared(i: usize, prev_key: &[u8], key: &[u8]) -> usize {
    if i.is_multiple_of(RESTART_INTERVAL) {
        0
    } else {
        common_prefix_len(prev_key, key)
    }
}

/// Whether appending `key`/`val` after the current last slot fits in
/// place. Returns the required cell size on success. (Caller guarantees
/// `key` sorts after every key on the page.)
pub fn leaf_append_fits(p: &[u8], key: &[u8], val: &[u8]) -> Option<usize> {
    let n = count(p);
    let shared = if n == 0 || n.is_multiple_of(RESTART_INTERVAL) {
        0
    } else {
        common_prefix_len(&leaf_key(p, n - 1), key)
    };
    let cell = 4 + (key.len() - shared) + val.len();
    if free_space(p) >= cell + 2 {
        Some(cell)
    } else {
        None
    }
}

/// In-place append after the last slot (caller checked
/// [`leaf_append_fits`]). The document-order build fast path: positions
/// never shift, so restart points stay put.
pub fn leaf_append(p: &mut [u8], key: &[u8], val: &[u8]) {
    let n = count(p);
    let shared = if n == 0 || n.is_multiple_of(RESTART_INTERVAL) {
        0
    } else {
        common_prefix_len(&leaf_key(p, n - 1), key)
    };
    debug_assert!(!n.is_multiple_of(RESTART_INTERVAL) || shared == 0);
    push_cell(p, n, shared, &key[shared..], val);
}

/// Writes a cell for slot `i` (which must be the current count) into the
/// cell area and appends its slot.
fn push_cell(p: &mut [u8], i: usize, shared: usize, suffix: &[u8], val: &[u8]) {
    debug_assert!(shared <= u8::MAX as usize && suffix.len() <= u8::MAX as usize);
    let cell = 4 + suffix.len() + val.len();
    let off = cell_start(p) - cell;
    p[off] = shared as u8;
    p[off + 1] = suffix.len() as u8;
    p[off + 2..off + 4].copy_from_slice(&(val.len() as u16).to_le_bytes());
    p[off + 4..off + 4 + suffix.len()].copy_from_slice(suffix);
    p[off + 4 + suffix.len()..off + cell].copy_from_slice(val);
    set_cell_start(p, off);
    set_count(p, i + 1);
    set_slot(p, i, off);
}

/// Replaces the value of slot `i` in place when the new value fits in the
/// old cell footprint; returns false otherwise (caller rebuilds). Keys
/// and positions are untouched, so the front coding stays valid.
pub fn leaf_replace_val_at(p: &mut [u8], i: usize, val: &[u8]) -> bool {
    let off = slot(p, i);
    let slen = p[off + 1] as usize;
    let vlen = u16::from_le_bytes([p[off + 2], p[off + 3]]) as usize;
    if val.len() > vlen {
        return false;
    }
    p[off + 2..off + 4].copy_from_slice(&(val.len() as u16).to_le_bytes());
    p[off + 4 + slen..off + 4 + slen + val.len()].copy_from_slice(val);
    true
}

/// Removes slot `i`. Removing the last slot is O(1); any other removal
/// re-encodes the page (the successor's front coding and every later
/// restart position depend on slot indexes), which also compacts dead
/// cell space.
pub fn leaf_remove_at(p: &mut [u8], i: usize) {
    let n = count(p);
    if i == n - 1 {
        set_count(p, n - 1);
        return;
    }
    let mut entries = leaf_entries(p);
    entries.remove(i);
    let (next, prev) = (link(p), prev_link(p));
    leaf_rebuild(p, &entries, next, prev);
}

/// Decodes all (full key, value) pairs of a leaf in one sequential pass.
pub fn leaf_entries(p: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut out = Vec::with_capacity(count(p));
    leaf_for_each_from(p, 0, |_, k, v| {
        out.push((k.to_vec(), v.to_vec()));
        true
    });
    out
}

/// Rebuilds a leaf from sorted entries with fresh front coding and
/// restart points. Caller guarantees the entries fit
/// (see [`leaf_build_size`]).
pub fn leaf_rebuild(p: &mut [u8], entries: &[(Vec<u8>, Vec<u8>)], next: PageId, prev: PageId) {
    init_leaf(p, next, prev);
    for (i, (k, v)) in entries.iter().enumerate() {
        let shared = front_coded_shared(i, if i == 0 { &[] } else { &entries[i - 1].0 }, k);
        debug_assert!(
            free_space(p) >= 2 + 4 + (k.len() - shared) + v.len(),
            "rebuild overflow"
        );
        push_cell(p, i, shared, &k[shared..], v);
    }
}

/// Bytes a rebuilt leaf would occupy for these entries (header + slots +
/// front-coded cells).
pub fn leaf_build_size(entries: &[(Vec<u8>, Vec<u8>)]) -> usize {
    let mut size = HEADER;
    for (i, (k, v)) in entries.iter().enumerate() {
        let shared = front_coded_shared(i, if i == 0 { &[] } else { &entries[i - 1].0 }, k);
        size += 2 + 4 + (k.len() - shared) + v.len();
    }
    size
}

// ---- inner pages -------------------------------------------------------

pub fn init_inner(p: &mut [u8], leftmost: PageId) {
    let len = p.len();
    p[0] = TYPE_INNER;
    set_count(p, 0);
    set_cell_start(p, len);
    set_link(p, leftmost);
    set_prev_link(p, 0);
}

/// Separator key and right-child of inner cell `i`.
pub fn inner_cell(p: &[u8], i: usize) -> (&[u8], PageId) {
    let off = slot(p, i);
    let klen = u16::from_le_bytes([p[off], p[off + 1]]) as usize;
    let key = &p[off + 2..off + 2 + klen];
    let c = off + 2 + klen;
    let child = u32::from_le_bytes([p[c], p[c + 1], p[c + 2], p[c + 3]]);
    (key, child)
}

/// Repoints inner cell `i` at `child`, in place: the separator and the
/// cell footprint stay as they are, so no free space is needed.
pub fn inner_set_child(p: &mut [u8], i: usize, child: PageId) {
    let off = slot(p, i);
    let klen = u16::from_le_bytes([p[off], p[off + 1]]) as usize;
    p[off + 2 + klen..off + 2 + klen + 4].copy_from_slice(&child.to_le_bytes());
}

/// Child page to descend into for `key`: the child of the greatest
/// separator `<= key`, or the leftmost child. Returns (child, separator
/// slot index or None for leftmost).
pub fn inner_descend(p: &[u8], key: &[u8]) -> (PageId, Option<usize>) {
    let n = count(p);
    let mut lo = 0usize;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        let (sep, _) = inner_cell(p, mid);
        if sep <= key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if lo == 0 {
        (link(p), None)
    } else {
        (inner_cell(p, lo - 1).1, Some(lo - 1))
    }
}

/// Whether a separator insert fits.
pub fn inner_fits(p: &[u8], key: &[u8]) -> bool {
    free_space(p) >= 2 + 2 + key.len() + 4
}

/// Inserts separator `key` → `child` keeping separator order.
pub fn inner_insert(p: &mut [u8], key: &[u8], child: PageId) {
    // The cell is written below `cell_start`: without room it would run
    // into the slot directory, and the page would be silently corrupt.
    assert!(inner_fits(p, key), "inner_insert without room");
    let n = count(p);
    let mut i = 0;
    while i < n && inner_cell(p, i).0 < key {
        i += 1;
    }
    let cell = 2 + key.len() + 4;
    let off = cell_start(p) - cell;
    p[off..off + 2].copy_from_slice(&(key.len() as u16).to_le_bytes());
    p[off + 2..off + 2 + key.len()].copy_from_slice(key);
    p[off + 2 + key.len()..off + cell].copy_from_slice(&child.to_le_bytes());
    set_cell_start(p, off);
    p.copy_within(HEADER + i * 2..HEADER + n * 2, HEADER + i * 2 + 2);
    set_count(p, n + 1);
    set_slot(p, i, off);
}

/// Removes separator slot `i`.
pub fn inner_remove_at(p: &mut [u8], i: usize) {
    let n = count(p);
    p.copy_within(HEADER + (i + 1) * 2..HEADER + n * 2, HEADER + i * 2);
    set_count(p, n - 1);
}

/// All (separator, child) pairs.
pub fn inner_entries(p: &[u8]) -> Vec<(Vec<u8>, PageId)> {
    (0..count(p))
        .map(|i| {
            let (k, c) = inner_cell(p, i);
            (k.to_vec(), c)
        })
        .collect()
}

/// Rebuilds an inner page from a leftmost child and sorted separators.
pub fn inner_rebuild(p: &mut [u8], leftmost: PageId, entries: &[(Vec<u8>, PageId)]) {
    init_inner(p, leftmost);
    for (k, c) in entries {
        inner_insert(p, k, *c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page() -> Vec<u8> {
        vec![0u8; 512]
    }

    fn build(entries: &[(&[u8], &[u8])]) -> Vec<u8> {
        let owned: Vec<(Vec<u8>, Vec<u8>)> = entries
            .iter()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect();
        let mut p = page();
        leaf_rebuild(&mut p, &owned, 0, 0);
        p
    }

    #[test]
    fn leaf_append_search_remove() {
        let mut p = page();
        init_leaf(&mut p, 7, 9);
        assert_eq!(link(&p), 7);
        assert_eq!(prev_link(&p), 9);
        for (i, k) in [b"xya", b"xyc", b"xye"].iter().enumerate() {
            assert_eq!(leaf_search(&p, *k), Err(i));
            assert!(leaf_append_fits(&p, *k, &[i as u8]).is_some());
            leaf_append(&mut p, *k, &[i as u8]);
        }
        assert_eq!(count(&p), 3);
        assert_eq!(leaf_search(&p, b"xyc"), Ok(1));
        assert_eq!(leaf_search(&p, b"xyb"), Err(1));
        assert_eq!(leaf_search(&p, b"xx"), Err(0));
        assert_eq!(leaf_search(&p, b"xz"), Err(3));
        let (shared, suffix) = leaf_suffix_parts(&p, 1);
        assert_eq!((shared, suffix), (2, &b"c"[..]), "front-coded tail only");
        assert_eq!(leaf_val(&p, 1), &[1]);
        assert_eq!(leaf_key(&p, 2), b"xye");
        leaf_remove_at(&mut p, 1);
        assert_eq!(count(&p), 2);
        assert_eq!(leaf_search(&p, b"xyc"), Err(1));
        assert_eq!(leaf_key(&p, 1), b"xye");
        assert_eq!(link(&p), 7, "interior removal keeps chain links");
        assert_eq!(prev_link(&p), 9);
    }

    #[test]
    fn leaf_value_replace() {
        let mut p = page();
        init_leaf(&mut p, 0, 0);
        leaf_append(&mut p, b"k", b"hello");
        assert!(leaf_replace_val_at(&mut p, 0, b"hi"));
        assert_eq!(leaf_val(&p, 0), b"hi");
        assert!(!leaf_replace_val_at(&mut p, 0, b"toolongnow"));
    }

    #[test]
    fn leaf_rebuild_front_codes() {
        let mut p = page();
        let entries = vec![
            (b"abc1".to_vec(), b"v1".to_vec()),
            (b"abc2".to_vec(), b"v2".to_vec()),
            (b"abd".to_vec(), b"v3".to_vec()),
        ];
        leaf_rebuild(&mut p, &entries, 0, 0);
        assert_eq!(leaf_suffix_parts(&p, 0), (0, &b"abc1"[..]), "restart = full key");
        assert_eq!(leaf_suffix_parts(&p, 1), (3, &b"2"[..]));
        assert_eq!(leaf_suffix_parts(&p, 2), (2, &b"d"[..]));
        assert_eq!(leaf_entries(&p), entries);
        assert_eq!(used_bytes(&p), leaf_build_size(&entries));
        let (stored, logical) = leaf_key_byte_stats(&p);
        assert_eq!(stored, 4 + 1 + 1);
        assert_eq!(logical, 4 + 4 + 3);
    }

    #[test]
    fn restart_points_recur_every_interval() {
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..3 * RESTART_INTERVAL)
            .map(|i| (format!("key{i:05}").into_bytes(), vec![]))
            .collect();
        let mut p = vec![0u8; 2048];
        leaf_rebuild(&mut p, &entries, 0, 0);
        for (i, (k, _)) in entries.iter().enumerate() {
            let (shared, _) = leaf_suffix_parts(&p, i);
            if i % RESTART_INTERVAL == 0 {
                assert_eq!(shared, 0, "slot {i} must be a restart");
            }
            assert_eq!(&leaf_key(&p, i), k, "slot {i}");
            assert_eq!(leaf_search(&p, k), Ok(i), "slot {i}");
        }
        // Appends continue the pattern without a rebuild.
        let k = b"key99999";
        leaf_append(&mut p, k, b"");
        let n = count(&p);
        assert_eq!(leaf_search(&p, k), Ok(n - 1));
        let (shared, _) = leaf_suffix_parts(&p, n - 1);
        assert_eq!(shared, if (n - 1).is_multiple_of(RESTART_INTERVAL) { 0 } else { 3 });
    }

    #[test]
    fn search_across_restart_boundaries() {
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..5 * RESTART_INTERVAL as u32)
            .map(|i| (format!("pfx/{:04}", i * 2).into_bytes(), vec![i as u8]))
            .collect();
        let mut p = vec![0u8; 4096];
        leaf_rebuild(&mut p, &entries, 0, 0);
        for (i, (k, v)) in entries.iter().enumerate() {
            assert_eq!(leaf_search(&p, k), Ok(i));
            assert_eq!(leaf_val(&p, i), v.as_slice());
            // Probe the gap right after each key: insertion point i + 1.
            let mut gap = k.clone();
            gap.push(b'!');
            assert_eq!(leaf_search(&p, &gap), Err(i + 1));
        }
        assert_eq!(leaf_search(&p, b"pfx/"), Err(0));
        assert_eq!(leaf_search(&p, b"pfx/9999"), Err(entries.len()));
    }

    #[test]
    fn interior_remove_reencodes_successor() {
        // Removing a key must re-expand its successor's suffix: with
        // `abc` gone, `abd`'s predecessor shares only `ab`… and restart
        // positions shift too.
        let p0 = build(&[(b"abc", b"1"), (b"abd", b"2"), (b"abe", b"3")]);
        let mut p = p0.clone();
        leaf_remove_at(&mut p, 0);
        assert_eq!(leaf_suffix_parts(&p, 0), (0, &b"abd"[..]));
        assert_eq!(leaf_entries(&p), vec![
            (b"abd".to_vec(), b"2".to_vec()),
            (b"abe".to_vec(), b"3".to_vec()),
        ]);
        // Tail removal is the in-place fast path.
        let mut p = p0.clone();
        let used_before = used_bytes(&p);
        leaf_remove_at(&mut p, 2);
        assert_eq!(count(&p), 2);
        assert_eq!(used_bytes(&p), used_before - 2, "only the slot is dropped");
    }

    #[test]
    fn inner_descend_picks_ranges() {
        let mut p = page();
        init_inner(&mut p, 10);
        inner_insert(&mut p, b"m", 20);
        inner_insert(&mut p, b"t", 30);
        assert_eq!(inner_descend(&p, b"a"), (10, None));
        assert_eq!(inner_descend(&p, b"m"), (20, Some(0)));
        assert_eq!(inner_descend(&p, b"p"), (20, Some(0)));
        assert_eq!(inner_descend(&p, b"t"), (30, Some(1)));
        assert_eq!(inner_descend(&p, b"z"), (30, Some(1)));
        inner_remove_at(&mut p, 0);
        assert_eq!(inner_descend(&p, b"p"), (10, None));
    }

    #[test]
    fn empty_key_and_value_edge_cases() {
        let mut p = page();
        init_leaf(&mut p, 0, 0);
        leaf_append(&mut p, b"", b"");
        assert_eq!(leaf_search(&p, b""), Ok(0));
        assert_eq!(leaf_suffix_parts(&p, 0), (0, &b""[..]));
        assert_eq!(leaf_val(&p, 0), b"");
    }
}
