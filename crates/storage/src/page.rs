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
//! slot's key — `shared` is the length of a common prefix with the
//! predecessor, `suffix` the distinct tail. Consecutive SPLIDs in document
//! order differ almost only in their final division, so per-key front
//! coding is what delivers the paper's §3.2 "2–3 bytes per stored SPLID" —
//! a page-wide common prefix cannot, since one divergent key on the page
//! destroys the whole saving.
//!
//! A *restart* is a cell with `shared == 0`: it holds its full key. That is
//! a property of the cell, not of its slot index, and two invariants make
//! it enough: slot 0 is a restart, and no *run* — a restart and the
//! non-restart cells behind it — is longer than [`RESTART_INTERVAL`]. A
//! stored `shared` may be *less* than what the two keys really share; that
//! costs bytes, never correctness.
//!
//! A search ([`leaf_search`]) narrows over restart keys and then walks one
//! run **without rebuilding a key**. It keeps `cpl`, the bytes of the
//! search key known equal to the previous cell's key (which was less):
//!
//! * `shared > cpl` — the cell repeats the previous key up to and past
//!   the byte at which that key fell below the search key: it is less
//!   too, `cpl` stands, and not a byte of it is read;
//! * `shared == cpl` — its suffix begins where the two keys part:
//!   comparing the suffix with `key[shared..]` decides;
//! * `shared < cpl` — its first `shared` bytes are the search key's as
//!   well, so the same compare decides. Were `shared` maximal the cell
//!   would be greater unread, but an understated `shared` only means the
//!   suffix repeats bytes of the previous key, and the compare reads them.
//!
//! Either way the compare yields the new `cpl`. Where the search ends —
//! the insertion slot, or the slot behind a match — the cell fell under
//! the second or third case, or follows the match itself: its prefix is
//! the *search key's*, and [`leaf_search_end_key`] builds its key as
//! `key[..shared] + suffix`. Everything else that needs a full key
//! ([`leaf_key`], [`leaf_for_each_from`], the edits) decodes a run into a
//! [`KeyBuf`] on the stack.
//!
//! Because restarts travel with their cells, an edit touches the cell it
//! is about and at most the one behind it: [`leaf_insert_at`] encodes only
//! the new cell, [`leaf_remove_at`] never needs room (a delete cannot
//! split a page), and [`leaf_move_tail`] — split and merge — copies cells
//! verbatim but for the first; each says why. A removed restart hands the
//! role to its successor, so under churn runs shrink and do not re-join:
//! update-phase bytes per key settle about 7 % above a fresh load's.
//! Edits leave dead cell space behind; an insert short of room squeezes it
//! out (`leaf_reserve`), and [`leaf_live_bytes`] is what a leaf holds.

use crate::pool::PageId;
use std::cmp::Ordering;
use xtc_splid::common_prefix_len;

pub const HEADER: usize = 13;
pub const TYPE_LEAF: u8 = 1;
pub const TYPE_INNER: u8 = 2;

/// Longest run of leaf cells decoded from one full key. Smaller intervals
/// cost stored bytes, larger ones lengthen the linear walk in searches;
/// 16 keeps both at a few percent (see DESIGN.md, storage).
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

/// Bytes outside the free gap (header + slots + cell area, dead cells
/// included). What an inner page holds for occupancy reporting; for a leaf
/// see [`leaf_live_bytes`].
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

/// Bytes of the leaf cell at offset `off`.
fn cell_len(p: &[u8], off: usize) -> usize {
    4 + p[off + 1] as usize + u16::from_le_bytes([p[off + 2], p[off + 3]]) as usize
}

/// Stored `shared` of leaf cell `i`; zero marks a restart.
fn shared(p: &[u8], i: usize) -> usize {
    p[slot(p, i)] as usize
}

/// Front-coding parts of leaf cell `i`: bytes shared with the previous
/// slot's key, and the distinct suffix. Restart cells have `shared == 0`
/// and carry the full key as their suffix.
pub fn leaf_suffix_parts(p: &[u8], i: usize) -> (usize, &[u8]) {
    let off = slot(p, i);
    (p[off] as usize, &p[off + 4..off + 4 + p[off + 1] as usize])
}

/// Value of leaf cell `i`.
pub fn leaf_val(p: &[u8], i: usize) -> &[u8] {
    let off = slot(p, i);
    &p[off + 4 + p[off + 1] as usize..off + cell_len(p, off)]
}

/// Header, slots and live cells of a leaf. Edits leave dead cell space
/// behind until an insert short of room squeezes it out, so this — not
/// [`used_bytes`] — is what a leaf holds.
pub fn leaf_live_bytes(p: &[u8]) -> usize {
    (0..count(p)).fold(HEADER, |acc, i| acc + 2 + cell_len(p, slot(p, i)))
}

/// Cells of the run that ends at slot `i - 1`, back to its restart
/// (0 when `i == 0`).
fn run_back(p: &[u8], i: usize) -> usize {
    (0..i).rev().take_while(|&j| shared(p, j) != 0).count() + usize::from(i > 0)
}

/// Cells from slot `i` on that belong to the run of the cell before them.
fn run_ahead(p: &[u8], i: usize) -> usize {
    (i..count(p)).take_while(|&j| shared(p, j) != 0).count()
}

/// A decoded key on the stack: front-coded cells store key lengths in one
/// byte, so 256 bytes hold any of them.
pub struct KeyBuf {
    buf: [u8; 256],
    len: usize,
}

impl KeyBuf {
    fn new() -> Self {
        KeyBuf { buf: [0; 256], len: 0 }
    }

    /// One decode step: keep `shared` bytes, append `suffix`.
    #[inline]
    fn step(&mut self, shared: usize, suffix: &[u8]) {
        self.len = shared + suffix.len();
        self.buf[shared..self.len].copy_from_slice(suffix);
    }
}

impl std::ops::Deref for KeyBuf {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

/// Full key of leaf cell `i`, reconstructed from the covering restart
/// (at most [`RESTART_INTERVAL`] incremental steps).
pub fn leaf_key(p: &[u8], i: usize) -> KeyBuf {
    let mut key = KeyBuf::new();
    for j in i + 1 - run_back(p, i + 1)..=i {
        let (shared, suffix) = leaf_suffix_parts(p, j);
        key.step(shared, suffix);
    }
    key
}

/// Full key of cell `pos`, where a [`leaf_search`] for `key` ended: the
/// insertion slot, or the slot behind the match (`pos < count`). That
/// cell's stored prefix is a prefix of `key` (module doc), so no run is
/// decoded.
pub fn leaf_search_end_key(p: &[u8], key: &[u8], pos: usize) -> KeyBuf {
    let (shared, suffix) = leaf_suffix_parts(p, pos);
    let mut out = KeyBuf::new();
    out.step(0, &key[..shared]);
    out.step(shared, suffix);
    out
}

/// Whether `key` provably belongs on this leaf: at or above its first key
/// and below the key of a restart near its end (the one covering the last
/// slot whose index is a multiple of the interval — on a page still laid
/// out by its load that slot itself). Both are stored in full, so this is
/// two slice compares; the cells behind that restart would need decoding
/// and get "no".
pub fn leaf_covers(p: &[u8], key: &[u8]) -> bool {
    let n = count(p);
    if n == 0 || key < leaf_suffix_parts(p, 0).1 {
        return false;
    }
    let aligned = (n - 1) - (n - 1) % RESTART_INTERVAL;
    key < leaf_suffix_parts(p, aligned + 1 - run_back(p, aligned + 1)).1
}

/// Binary search in a leaf: `Ok(i)` if `key` is at slot `i`, `Err(i)` for
/// the insertion position. Narrows `lo..hi` over restart cells (full
/// keys, direct slice compare) until one run is left, then walks it in
/// place — the module doc has the rule.
pub fn leaf_search(p: &[u8], key: &[u8]) -> Result<usize, usize> {
    let n = count(p);
    if n == 0 || key < leaf_suffix_parts(p, 0).1 {
        return Err(0);
    }
    // `lo` is a restart whose key is <= `key`; every slot from `hi` on
    // holds a greater key.
    let (mut lo, mut hi) = (0, n);
    loop {
        // A restart near the middle: the one covering `from` or, when that
        // is `lo`, the next one ahead. None below `hi`: `lo..hi` is a
        // single run. A key-order load leaves the restarts on multiples of
        // the interval, so the walk back starts on one where it can.
        let mid = lo + (hi - lo) / 2;
        let aligned = mid - mid % RESTART_INTERVAL;
        let from = if aligned > lo { aligned } else { mid };
        let mut r = from + 1 - run_back(p, from + 1);
        if r == lo {
            r = from + 1 + run_ahead(p, from + 1);
            if r >= hi {
                break;
            }
        }
        match leaf_suffix_parts(p, r).1.cmp(key) {
            Ordering::Less => lo = r,
            Ordering::Equal => return Ok(r),
            Ordering::Greater => hi = r,
        }
    }
    // Bytes of `key` equal to the previous cell's key; `lo` shares none.
    let mut cpl = 0;
    for i in lo..hi {
        let (shared, suffix) = leaf_suffix_parts(p, i);
        if shared > cpl {
            continue;
        }
        let rest = &key[shared..];
        let same = common_prefix_len(suffix, rest);
        match suffix[same..].first().cmp(&rest[same..].first()) {
            Ordering::Equal => return Ok(i),
            Ordering::Greater => return Err(i),
            Ordering::Less => cpl = shared + same,
        }
    }
    Err(hi)
}

/// Streams `(slot, full key, value)` from slot `start` to the end of the
/// page, decoding keys incrementally; stop early by returning `false`.
pub fn leaf_for_each_from(p: &[u8], start: usize, mut f: impl FnMut(usize, &[u8], &[u8]) -> bool) {
    if start >= count(p) {
        return;
    }
    let mut cur = KeyBuf::new();
    for i in start + 1 - run_back(p, start + 1)..count(p) {
        let (shared, suffix) = leaf_suffix_parts(p, i);
        cur.step(shared, suffix);
        if i >= start && !f(i, &cur, leaf_val(p, i)) {
            return;
        }
    }
}

/// Physically stored vs logical (uncompressed) key bytes on a leaf — the
/// `OccupancyReport` inputs behind the §3.2 "2–3 bytes per SPLID" claim.
/// A key is as long as what it shares plus what it stores.
pub fn leaf_key_byte_stats(p: &[u8]) -> (usize, usize) {
    (0..count(p)).fold((0, 0), |(stored, logical), i| {
        let (shared, suffix) = leaf_suffix_parts(p, i);
        (stored + suffix.len(), logical + shared + suffix.len())
    })
}

/// Makes `need` bytes free between the slot array and the cell area,
/// squeezing out dead cell space only when that is what it takes. Returns
/// false, with the page untouched, when even that is not enough.
fn leaf_reserve(p: &mut [u8], need: usize) -> bool {
    if free_space(p) >= need {
        return true;
    }
    if p.len() - leaf_live_bytes(p) < need {
        return false;
    }
    let old = p.to_vec();
    let mut end = p.len();
    for i in 0..count(p) {
        let off = slot(&old, i);
        let len = cell_len(&old, off);
        end -= len;
        p[end..end + len].copy_from_slice(&old[off..off + len]);
        set_slot(p, i, end);
    }
    set_cell_start(p, end);
    true
}

/// Opens slot `i` over a fresh cell of `len` bytes (room reserved by the
/// caller) and returns the cell's offset.
fn alloc_cell(p: &mut [u8], i: usize, len: usize) -> usize {
    let n = count(p);
    let off = cell_start(p) - len;
    set_cell_start(p, off);
    p.copy_within(HEADER + i * 2..HEADER + n * 2, HEADER + i * 2 + 2);
    set_count(p, n + 1);
    set_slot(p, i, off);
    off
}

/// Writes `[shared][suffix_len][val_len][suffix][val]` as slot `i`, if
/// there is room for it.
fn put_cell(p: &mut [u8], i: usize, shared: usize, suffix: &[u8], val: &[u8]) -> bool {
    debug_assert!(shared <= u8::MAX as usize && suffix.len() <= u8::MAX as usize);
    let len = 4 + suffix.len() + val.len();
    if !leaf_reserve(p, 2 + len) {
        return false;
    }
    let off = alloc_cell(p, i, len);
    p[off] = shared as u8;
    p[off + 1] = suffix.len() as u8;
    p[off + 2..off + 4].copy_from_slice(&(val.len() as u16).to_le_bytes());
    p[off + 4..off + 4 + suffix.len()].copy_from_slice(suffix);
    p[off + 4 + suffix.len()..off + len].copy_from_slice(val);
    true
}

/// Whether a cell must enter as a restart: it is the first on its page,
/// or the run it would join — `back` cells behind it, `ahead` non-restart
/// cells in front — is full.
fn must_restart(back: usize, ahead: usize) -> bool {
    back == 0 || back + 1 + ahead > RESTART_INTERVAL
}

/// Inserts `key`/`val` at slot `i` (from [`leaf_search`]), encoding only
/// the new cell. Returns false, with the page unchanged, without room.
///
/// The old cell `i` stays valid where it lies: what it shared with its
/// old predecessor it shares with `key` too, since `cpl(pred, succ) =
/// min(cpl(pred, key), cpl(key, succ))`. Where it now shares more it is
/// shortened in place — unless it is a restart whose run, joined to the
/// new cell's, would be too long.
pub fn leaf_insert_at(p: &mut [u8], i: usize, key: &[u8], val: &[u8]) -> bool {
    let back = run_back(p, i);
    let shared = if must_restart(back, run_ahead(p, i)) {
        0
    } else {
        common_prefix_len(&leaf_key(p, i - 1), key)
    };
    if !put_cell(p, i, shared, &key[shared..], val) {
        return false;
    }
    if i + 1 < count(p) {
        let run = if shared == 0 { 1 } else { back + 1 };
        let off = slot(p, i + 1);
        let (succ_shared, succ_suffix) = leaf_suffix_parts(p, i + 1);
        if succ_shared != 0 || run + 1 + run_ahead(p, i + 2) <= RESTART_INTERVAL {
            // Drop the suffix's first `d` bytes: the header moves up to them.
            let d = common_prefix_len(&key[succ_shared..], succ_suffix);
            let header = [(succ_shared + d) as u8, p[off + 1] - d as u8, p[off + 2], p[off + 3]];
            p[off + d..off + d + 4].copy_from_slice(&header);
            set_slot(p, i + 1, off + d);
        }
    }
    true
}

/// Replaces the value of slot `i` in place when the new value fits in the
/// old one's bytes; returns false otherwise (caller removes and inserts).
/// Keys and positions are untouched, so the front coding stays valid.
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

/// Removes slot `i`. It never needs room, so it cannot fail.
///
/// With its new predecessor the successor shares `min(shared_i,
/// shared_succ)`. If that is less than it stored, the missing bytes are
/// the head of the removed cell's suffix — no key is decoded — and the
/// successor grows by less than the removed cell frees. A removed restart
/// (`shared_i == 0`) hands its role on this way, so no run grows.
pub fn leaf_remove_at(p: &mut [u8], i: usize) {
    let n = count(p);
    let off = slot(p, i);
    let mut regrown = Vec::new();
    if i + 1 < n && p[slot(p, i + 1)] > p[off] {
        let succ = slot(p, i + 1);
        let d = p[succ] - p[off];
        regrown.extend_from_slice(&[p[off], p[succ + 1] + d, p[succ + 2], p[succ + 3]]);
        regrown.extend_from_slice(&p[off + 4..off + 4 + d as usize]);
        regrown.extend_from_slice(&p[succ + 4..succ + cell_len(p, succ)]);
    }
    // The successor's old cell goes with the removed one.
    let gone = if regrown.is_empty() { 1 } else { 2 };
    p.copy_within(HEADER + (i + gone) * 2..HEADER + n * 2, HEADER + i * 2);
    set_count(p, n - gone);
    if !regrown.is_empty() {
        let fits = leaf_reserve(p, 2 + regrown.len());
        debug_assert!(fits, "a removed cell frees more than its successor grows");
        let to = alloc_cell(p, i, regrown.len());
        p[to..to + regrown.len()].copy_from_slice(&regrown);
    }
}

/// Moves cells `from..` of `src` behind the last cell of `dst` (a split
/// when `dst` is fresh, a merge when `from == 0`). The first moved cell
/// is re-coded against `dst`'s last key, the rest are copied as they are.
/// Returns false, with both pages unchanged, when `dst` lacks the room.
pub fn leaf_move_tail(src: &mut [u8], from: usize, dst: &mut [u8]) -> bool {
    let (n, m) = (count(src), count(dst));
    if from == n {
        return true;
    }
    let key = leaf_key(src, from);
    let shared = if must_restart(run_back(dst, m), run_ahead(src, from + 1)) {
        0
    } else {
        common_prefix_len(&leaf_key(dst, m - 1), &key)
    };
    let rest: usize = (from + 1..n).map(|j| 2 + cell_len(src, slot(src, j))).sum();
    let first = 2 + 4 + key.len() - shared + leaf_val(src, from).len();
    if !leaf_reserve(dst, first + rest) {
        return false;
    }
    put_cell(dst, m, shared, &key[shared..], leaf_val(src, from));
    for j in from + 1..n {
        let off = slot(src, j);
        let len = cell_len(src, off);
        let to = alloc_cell(dst, m + j - from, len);
        dst[to..to + len].copy_from_slice(&src[off..off + len]);
    }
    set_count(src, from);
    true
}

/// Where to cut a leaf that has no room for a new cell of `new` bytes
/// (slot included) at slot `at`. The result `c` counts entries *including*
/// the new one: the first `c` stay left.
///
/// A tail insert keeps every old cell on the left page — the B\*-tree's
/// asymmetric split, which is what sustains the paper's > 96 % occupancy
/// for documents loaded in document order (§3.1). Any other insert takes
/// the cut nearest the middle byte at which both halves fit; cells move
/// verbatim but for the right page's first, which regains its `shared`
/// bytes, so both sizes are running sums of cell lengths.
fn leaf_split_point(p: &[u8], at: usize, new: usize) -> Option<usize> {
    let n = count(p);
    if at == n {
        return Some(n);
    }
    let room = p.len() - HEADER;
    let total = leaf_live_bytes(p) - HEADER + new;
    let mut left = 0;
    let mut best = None;
    for c in 1..=n {
        left += match (c - 1).cmp(&at) {
            Ordering::Less => 2 + cell_len(p, slot(p, c - 1)),
            Ordering::Equal => new,
            Ordering::Greater => 2 + cell_len(p, slot(p, c - 2)),
        };
        let right = total - left + shared(p, c - usize::from(at < c));
        let off_middle = (2 * left).abs_diff(total);
        if left <= room && right <= room && best.is_none_or(|(d, _)| off_middle < d) {
            best = Some((off_middle, c));
        }
    }
    best.map(|(_, c)| c)
}

/// Splits `left`, which refused `key`/`val` at slot `at`, into itself and
/// the empty leaf `right`, and inserts them on their side of the cut.
/// Returns false when no cut lets both halves fit.
pub fn leaf_split_insert(left: &mut [u8], right: &mut [u8], at: usize, key: &[u8], val: &[u8]) -> bool {
    let Some(cut) = leaf_split_point(left, at, 2 + 4 + key.len() + val.len()) else {
        return false;
    };
    let mid = cut - usize::from(at < cut);
    leaf_move_tail(left, mid, right)
        && if at < cut {
            leaf_insert_at(left, at, key, val)
        } else {
            leaf_insert_at(right, at - mid, key, val)
        }
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

/// Bytes of an inner page rebuilt from these separators.
pub fn inner_size(entries: &[(Vec<u8>, PageId)]) -> usize {
    entries.iter().fold(HEADER, |acc, (k, _)| acc + 2 + 2 + k.len() + 4)
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

    type Entries = Vec<(Vec<u8>, Vec<u8>)>;

    fn leaf(size: usize) -> Vec<u8> {
        let mut p = vec![0u8; size];
        init_leaf(&mut p, 0, 0);
        p
    }

    /// A leaf loaded in key order, the way a document-order build does.
    fn build(size: usize, entries: &[(Vec<u8>, Vec<u8>)]) -> Vec<u8> {
        let mut p = leaf(size);
        for (i, (k, v)) in entries.iter().enumerate() {
            assert!(leaf_insert_at(&mut p, i, k, v), "entry {i} does not fit");
        }
        p
    }

    fn entries(p: &[u8]) -> Entries {
        let mut out = Vec::new();
        leaf_for_each_from(p, 0, |_, k, v| {
            out.push((k.to_vec(), v.to_vec()));
            true
        });
        out
    }

    /// The codec's invariants, and agreement with `model` entry by entry
    /// and probe by probe.
    fn check(p: &[u8], model: &[(Vec<u8>, Vec<u8>)], ctx: &str) {
        assert_eq!(entries(p), model, "{ctx}: entries");
        assert!(leaf_live_bytes(p) <= used_bytes(p), "{ctx}: live bytes exceed used bytes");
        let mut run = 0;
        // `leaf_covers` says yes from the first key up to the restart that
        // covers the last slot on a multiple of the interval.
        let aligned = model.len().saturating_sub(1) / RESTART_INTERVAL * RESTART_INTERVAL;
        let fence = (0..model.len().min(aligned + 1)).rev().find(|&i| leaf_suffix_parts(p, i).0 == 0);
        for (i, (k, v)) in model.iter().enumerate() {
            assert_eq!(leaf_covers(p, k), Some(i) < fence, "{ctx}: covers slot {i}");
            let (shared, suffix) = leaf_suffix_parts(p, i);
            run = if shared == 0 { 1 } else { run + 1 };
            assert!(i > 0 || shared == 0, "{ctx}: slot 0 is not a restart");
            assert!(run <= RESTART_INTERVAL, "{ctx}: run of {run} cells ends at slot {i}");
            if i > 0 {
                let cpl = common_prefix_len(&model[i - 1].0, k);
                assert!(shared <= cpl, "{ctx}: slot {i} stores shared {shared}, keys share {cpl}");
            }
            assert_eq!(suffix, &k[shared..], "{ctx}: slot {i} suffix");
            assert_eq!(&leaf_key(p, i)[..], k, "{ctx}: slot {i} key");
            assert_eq!(leaf_val(p, i), v.as_slice(), "{ctx}: slot {i} value");
            assert_eq!(leaf_search(p, k), Ok(i), "{ctx}: search of slot {i}");
            let mut gap = k.clone();
            gap.push(0);
            let after = model.get(i + 1).is_none_or(|(next, _)| gap < *next);
            assert_eq!(
                leaf_search(p, &gap),
                if after { Err(i + 1) } else { Ok(i + 1) },
                "{ctx}: gap after slot {i}"
            );
            let below_fence = Some(i + usize::from(!after)) < fence;
            assert_eq!(leaf_covers(p, &gap), below_fence, "{ctx}: covers gap after slot {i}");
        }
        if let Some((first, _)) = model.first().filter(|(k, _)| !k.is_empty()) {
            let below = &first[..first.len() - 1];
            assert_eq!(leaf_search(p, below), Err(0), "{ctx}: below the first key");
            assert!(!leaf_covers(p, below), "{ctx}: covers below the first key");
        }
        assert_eq!(leaf_search(p, &[0xFF; 40]), Err(model.len()), "{ctx}: above the last key");
        assert!(!leaf_covers(p, &[0xFF; 40]), "{ctx}: covers above the last key");
    }

    /// SplitMix64.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// Keys off a few stems over a small alphabet: long common
        /// prefixes, frequent neighbours, 1–30 bytes.
        fn key(&mut self) -> Vec<u8> {
            let stem: &[u8] = [&b"a"[..], b"doc/1.3.", b"doc/1.3.5.7.", b"doc/1.5.", b"e"][self.below(5)];
            let mut k = stem.to_vec();
            for _ in 0..1 + self.below(6) {
                k.push(b'0' + self.below(4) as u8);
            }
            k
        }

        fn val(&mut self, max: usize) -> Vec<u8> {
            let len = self.below(max + 1);
            (0..len).map(|_| self.next() as u8).collect()
        }
    }

    #[test]
    fn leaf_append_search_remove() {
        let mut p = vec![0u8; 512];
        init_leaf(&mut p, 7, 9);
        assert_eq!(link(&p), 7);
        assert_eq!(prev_link(&p), 9);
        for (i, k) in [b"xya", b"xyc", b"xye"].iter().enumerate() {
            assert_eq!(leaf_search(&p, *k), Err(i));
            assert!(leaf_insert_at(&mut p, i, *k, &[i as u8]));
        }
        assert_eq!(count(&p), 3);
        assert_eq!(leaf_search(&p, b"xyc"), Ok(1));
        assert_eq!(leaf_search(&p, b"xyb"), Err(1));
        assert_eq!(leaf_search(&p, b"xx"), Err(0));
        assert_eq!(leaf_search(&p, b"xz"), Err(3));
        let (shared, suffix) = leaf_suffix_parts(&p, 1);
        assert_eq!((shared, suffix), (2, &b"c"[..]), "front-coded tail only");
        assert_eq!(leaf_val(&p, 1), &[1]);
        assert_eq!(&leaf_key(&p, 2)[..], b"xye");
        leaf_remove_at(&mut p, 1);
        assert_eq!(count(&p), 2);
        assert_eq!(leaf_search(&p, b"xyc"), Err(1));
        assert_eq!(&leaf_key(&p, 1)[..], b"xye");
        assert_eq!(link(&p), 7, "removal keeps chain links");
        assert_eq!(prev_link(&p), 9);
    }

    #[test]
    fn leaf_value_replace() {
        let mut p = build(512, &[(b"k".to_vec(), b"hello".to_vec())]);
        assert!(leaf_replace_val_at(&mut p, 0, b"hi"));
        assert_eq!(leaf_val(&p, 0), b"hi");
        assert!(!leaf_replace_val_at(&mut p, 0, b"toolongnow"));
    }

    #[test]
    fn key_order_load_front_codes() {
        let model = vec![
            (b"abc1".to_vec(), b"v1".to_vec()),
            (b"abc2".to_vec(), b"v2".to_vec()),
            (b"abd".to_vec(), b"v3".to_vec()),
        ];
        let p = build(512, &model);
        assert_eq!(leaf_suffix_parts(&p, 0), (0, &b"abc1"[..]), "restart = full key");
        assert_eq!(leaf_suffix_parts(&p, 1), (3, &b"2"[..]));
        assert_eq!(leaf_suffix_parts(&p, 2), (2, &b"d"[..]));
        check(&p, &model, "load");
        assert_eq!(leaf_live_bytes(&p), HEADER + 3 * (2 + 4 + 2) + 4 + 1 + 1);
        assert_eq!(used_bytes(&p), leaf_live_bytes(&p), "a load leaves no dead space");
        assert_eq!(leaf_key_byte_stats(&p), (4 + 1 + 1, 4 + 4 + 3));
    }

    #[test]
    fn key_order_load_restarts_every_interval() {
        let model: Entries = (0..3 * RESTART_INTERVAL + 5)
            .map(|i| (format!("key{i:05}").into_bytes(), vec![]))
            .collect();
        let p = build(2048, &model);
        for i in 0..model.len() {
            let (shared, _) = leaf_suffix_parts(&p, i);
            assert_eq!(shared == 0, i % RESTART_INTERVAL == 0, "slot {i}");
        }
        check(&p, &model, "load");
    }

    #[test]
    fn insert_shortens_the_successor_and_remove_regrows_it() {
        let model = vec![
            (b"abc".to_vec(), b"1".to_vec()),
            (b"abd".to_vec(), b"2".to_vec()),
            (b"abe".to_vec(), b"3".to_vec()),
        ];
        let mut p = build(512, &[model[0].clone(), model[2].clone()]);
        assert_eq!(leaf_suffix_parts(&p, 1), (2, &b"e"[..]));
        // `abd` shares no more with `abe` than `abc` did ...
        assert!(leaf_insert_at(&mut p, 1, b"abd", b"2"));
        assert_eq!(leaf_suffix_parts(&p, 2), (2, &b"e"[..]));
        check(&p, &model, "insert");
        // ... `abey` in front of `abez` does.
        assert!(leaf_insert_at(&mut p, 3, b"abez", b""));
        assert_eq!(leaf_suffix_parts(&p, 3), (3, &b"z"[..]));
        assert!(leaf_insert_at(&mut p, 3, b"abey", b""));
        assert_eq!(leaf_suffix_parts(&p, 4), (3, &b"z"[..]), "`abez` and `abey` share `abe`");
        // Removing the first key hands its restart role on: `abd` regains
        // the `ab` it shared, from the removed cell's suffix.
        leaf_remove_at(&mut p, 0);
        assert_eq!(leaf_suffix_parts(&p, 0), (0, &b"abd"[..]));
        // Removing `abey` costs `abez` nothing; removing `abe` then gives
        // it back the `e`.
        leaf_remove_at(&mut p, 2);
        assert_eq!(leaf_suffix_parts(&p, 2), (3, &b"z"[..]));
        leaf_remove_at(&mut p, 1);
        assert_eq!(leaf_suffix_parts(&p, 1), (2, &b"ez"[..]));
        check(&p, &[model[1].clone(), (b"abez".to_vec(), vec![])], "removes");
    }

    #[test]
    fn reverse_order_load_still_front_codes() {
        // Every insert lands on slot 0 and must be a restart; the old
        // first cell gives the role up while its run has room.
        let model: Entries = (0..40).map(|i| (format!("stem/{i:03}").into_bytes(), vec![])).collect();
        let mut p = leaf(1024);
        for (k, v) in model.iter().rev() {
            assert!(leaf_insert_at(&mut p, 0, k, v));
        }
        check(&p, &model, "reverse load");
        let restarts = (0..40).filter(|&i| leaf_suffix_parts(&p, i).0 == 0).count();
        assert_eq!(restarts, 40usize.div_ceil(RESTART_INTERVAL));
    }

    /// `leaf_search` against a binary search over the decoded keys, and the
    /// search-end key against `leaf_key`, for probes on and around every
    /// stored key: the key, its proper prefixes, extensions, a nudge below
    /// and above, the empty key and one above all.
    fn probe_search(p: &[u8], ctx: &str) {
        let keys: Vec<Vec<u8>> = entries(p).into_iter().map(|(k, _)| k).collect();
        let mut probes = vec![vec![], vec![0xFF; 40]];
        for k in &keys {
            probes.push(k.clone());
            probes.extend((0..k.len()).map(|cut| k[..cut].to_vec()));
            for tail in [&[0][..], b"0", b"2", b"33", &[0xFF]] {
                probes.push([k, tail].concat());
            }
            if let Some((&last, head)) = k.split_last() {
                // Just below `k` and just above everything `k` begins.
                probes.push([head, &[last.wrapping_sub(1), 0xFF]].concat());
                probes.push([head, &[last.wrapping_add(1)]].concat());
            }
        }
        for probe in &probes {
            let found = leaf_search(p, probe);
            assert_eq!(found, keys.binary_search(probe), "{ctx}: search for {probe:?}");
            let (Ok(pos) | Err(pos)) = found.map(|i| i + 1);
            if pos < keys.len() {
                let end = leaf_search_end_key(p, probe, pos);
                assert_eq!(&end[..], &leaf_key(p, pos)[..], "{ctx}: end of the search for {probe:?}");
                assert_eq!(&end[..], keys[pos], "{ctx}: end of the search for {probe:?}");
            }
        }
    }

    /// A page after `steps` random inserts and removals (a refused insert
    /// evicts a random cell): restarts wherever churn left them.
    fn churned(seed: u64, size: usize, steps: usize) -> Vec<u8> {
        let mut rng = Rng(seed);
        let mut p = leaf(size);
        for _ in 0..steps {
            let key = rng.key();
            match leaf_search(&p, &key) {
                Ok(i) if rng.below(2) == 0 => leaf_remove_at(&mut p, i),
                Ok(_) => {}
                Err(i) => {
                    if !leaf_insert_at(&mut p, i, &key, &rng.val(4)) {
                        let victim = rng.below(count(&p));
                        leaf_remove_at(&mut p, victim);
                    }
                }
            }
        }
        p
    }

    /// `keys` (sorted) laid out cell by cell with `shared` drawn below what
    /// neighbours really share — what the format allows and no edit path
    /// produces on purpose.
    fn understated(rng: &mut Rng, keys: &[Vec<u8>]) -> Vec<u8> {
        let mut p = leaf(8192);
        let (mut run, mut short) = (0, 0);
        for (i, k) in keys.iter().enumerate() {
            let full = if i == 0 { 0 } else { common_prefix_len(&keys[i - 1], k) };
            let shared = if run == RESTART_INTERVAL || full == 0 { 0 } else { 1 + rng.below(full) };
            run = if shared == 0 { 1 } else { run + 1 };
            short += usize::from(shared != 0 && shared < full);
            assert!(put_cell(&mut p, i, shared, &k[shared..], b"v"));
        }
        assert!(short > keys.len() / 4, "only {short} of {} cells understate", keys.len());
        p
    }

    #[test]
    fn search_agrees_with_decoded_keys_on_irregular_pages() {
        let mut rng = Rng(77);
        let mut keys: Vec<Vec<u8>> = (0..150).map(|_| rng.key()).collect();
        keys.sort();
        keys.dedup();
        let model: Entries = keys.iter().map(|k| (k.clone(), b"v".to_vec())).collect();
        let loaded = build(8192, &model);
        probe_search(&loaded, "key-order load");
        let mut reversed = leaf(8192);
        for (k, v) in model.iter().rev() {
            assert!(leaf_insert_at(&mut reversed, 0, k, v));
        }
        probe_search(&reversed, "reverse load");
        let p = understated(&mut rng, &keys);
        check(&p, &model, "understated");
        probe_search(&p, "understated");
        let mut off_grid = 0;
        for (seed, size) in [(21, 512), (22, 1024), (23, 2048), (24, 2048), (25, 4096)] {
            for steps in [300, 2000, 6000] {
                let p = churned(seed, size, steps);
                off_grid += (0..count(&p)).filter(|&i| shared(&p, i) == 0 && i % RESTART_INTERVAL != 0).count();
                probe_search(&p, &format!("churn seed {seed} size {size} after {steps}"));
            }
        }
        assert!(off_grid > 30, "churn left only {off_grid} restarts off the multiples of the interval");
        probe_search(&leaf(256), "empty page");
        probe_search(&build(256, &[(vec![], vec![])]), "the empty key alone");
    }

    /// Random inserts, removals and value growth against a model, every
    /// invariant checked after every step; an insert without room must
    /// leave the page as it was, and [`leaf_split_insert`] must then place
    /// it.
    #[test]
    fn random_edits_agree_with_model() {
        for (seed, size) in [(1, 256), (2, 256), (3, 256), (4, 512), (5, 512), (6, 512)] {
            let mut rng = Rng(seed);
            let mut p = leaf(size);
            let mut model: Entries = Vec::new();
            let mut refused = 0;
            for step in 0..4000 {
                let ctx = format!("seed {seed} step {step}");
                let key = rng.key();
                let found = leaf_search(&p, &key);
                assert_eq!(found, model.binary_search_by(|(k, _)| k.cmp(&key)), "{ctx}: search");
                match (found, rng.below(3)) {
                    (Ok(i), 0) => {
                        leaf_remove_at(&mut p, i);
                        model.remove(i);
                    }
                    (Ok(i), _) => {
                        // Replace, mostly with a longer value: in place
                        // when it fits, else out and in again.
                        let val = rng.val(model[i].1.len() + 6);
                        if leaf_replace_val_at(&mut p, i, &val) {
                            model[i].1 = val;
                        } else {
                            leaf_remove_at(&mut p, i);
                            model.remove(i);
                            if leaf_insert_at(&mut p, i, &key, &val) {
                                model.insert(i, (key, val));
                            }
                        }
                    }
                    (Err(i), _) => {
                        let val = rng.val(size / 8);
                        let before = p.clone();
                        if leaf_insert_at(&mut p, i, &key, &val) {
                            model.insert(i, (key, val));
                        } else {
                            assert_eq!(p, before, "{ctx}: a refused insert changed the page");
                            refused += 1;
                            split_and_check(&p, &model, i, &key, &val, &ctx);
                            // Make room the cheap way and go on.
                            let victim = rng.below(model.len());
                            leaf_remove_at(&mut p, victim);
                            model.remove(victim);
                        }
                    }
                }
                check(&p, &model, &ctx);
            }
            assert!(refused > 50, "seed {seed}: the page was full only {refused} times");
        }
    }

    /// Splits a copy of `p` around the refused insert, the way the tree does.
    fn split_and_check(p: &[u8], model: &[(Vec<u8>, Vec<u8>)], at: usize, key: &[u8], val: &[u8], ctx: &str) {
        let (mut left, mut right) = (p.to_vec(), leaf(p.len()));
        assert!(leaf_split_insert(&mut left, &mut right, at, key, val), "{ctx}: no cut fits");
        let mut want = model.to_vec();
        want.insert(at, (key.to_vec(), val.to_vec()));
        let cut = count(&left);
        assert!(cut > 0 && cut < want.len(), "{ctx}: a half is empty");
        check(&left, &want[..cut], &format!("{ctx}: left of {cut}"));
        check(&right, &want[cut..], &format!("{ctx}: right of {cut}"));
    }

    /// Fills a page to the last byte, then removes every cell in random
    /// order: a removal needs no room, whatever its successor regrows.
    #[test]
    fn removal_on_a_byte_full_page_succeeds() {
        for seed in 1..=20 {
            let mut rng = Rng(seed);
            let mut p = leaf(256);
            let mut model: Entries = Vec::new();
            for _ in 0..200 {
                let key = rng.key();
                if let Err(i) = leaf_search(&p, &key) {
                    let val = rng.val(8);
                    if leaf_insert_at(&mut p, i, &key, &val) {
                        model.insert(i, (key, val));
                    }
                }
            }
            // Pad the last value until not one byte is left.
            let last = model.len() - 1;
            let spare = p.len() - leaf_live_bytes(&p);
            leaf_remove_at(&mut p, last);
            model[last].1.extend(std::iter::repeat_n(7, spare));
            assert!(leaf_insert_at(&mut p, last, &model[last].0, &model[last].1), "seed {seed}: padding");
            assert_eq!(leaf_live_bytes(&p), p.len(), "seed {seed}: page is not byte-full");
            while !model.is_empty() {
                let i = rng.below(model.len());
                leaf_remove_at(&mut p, i);
                model.remove(i);
                check(&p, &model, &format!("seed {seed}: {} left", model.len()));
            }
        }
    }

    #[test]
    fn move_tail_splits_merges_and_fails_whole() {
        let mut rng = Rng(11);
        for round in 0..200 {
            let mut model: Entries = Vec::new();
            let mut p = leaf(512);
            for _ in 0..60 {
                let key = rng.key();
                if let Err(i) = leaf_search(&p, &key) {
                    let val = rng.val(10);
                    if leaf_insert_at(&mut p, i, &key, &val) {
                        model.insert(i, (key, val));
                    }
                }
            }
            let mid = rng.below(model.len() + 1);
            let (mut left, mut right) = (p.clone(), leaf(512));
            assert!(leaf_move_tail(&mut left, mid, &mut right));
            check(&left, &model[..mid], &format!("round {round}: left of {mid}"));
            check(&right, &model[mid..], &format!("round {round}: right of {mid}"));
            // Merging back needs the room the moved cells left dead.
            assert!(leaf_move_tail(&mut right, 0, &mut left));
            check(&left, &model, &format!("round {round}: merged"));
            assert_eq!(count(&right), 0);
            // A destination without the room is left alone, like the source.
            let mut small = leaf(256);
            assert!(leaf_insert_at(&mut small, 0, b"Z", &[0; 60]));
            let before = (left.clone(), small.clone());
            if leaf_live_bytes(&left) + leaf_live_bytes(&small) - HEADER > small.len() {
                assert!(!leaf_move_tail(&mut left, 0, &mut small), "round {round}");
                assert_eq!((left, small), before, "round {round}: a refused move changed a page");
            }
        }
    }

    #[test]
    fn inner_descend_picks_ranges() {
        let mut p = vec![0u8; 512];
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
        let p = build(512, &[(vec![], vec![])]);
        assert_eq!(leaf_search(&p, b""), Ok(0));
        assert_eq!(leaf_suffix_parts(&p, 0), (0, &b""[..]));
        assert_eq!(leaf_val(&p, 0), b"");
    }
}
