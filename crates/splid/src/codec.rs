//! Order-preserving, prefix-free byte encoding of SPLIDs.
//!
//! The paper reports Huffman-style division codes consuming 5–10 bytes per
//! label at tree depths up to 38, dropping to 2–3 bytes with B*-tree prefix
//! compression. We use the same design space: each division is emitted with
//! a length-prefixed binary code chosen so that
//!
//! 1. **bytewise `memcmp` of two encoded labels equals document order** —
//!    the B*-tree can treat keys as opaque byte strings, and
//! 2. **no encoded label is a zero-padding collision of another** — every
//!    division code contains at least one `1` bit, so appending a division
//!    always produces a strictly greater byte string.
//!
//! Code ranges (payload stores `value - range_base`):
//!
//! | prefix | payload bits | division values |
//! |--------|--------------|------------------|
//! | `0`    | 3 (value itself, 1..=7) | 1–7 |
//! | `10`   | 6  | 8–71 |
//! | `110`  | 12 | 72–4167 |
//! | `1110` | 20 | 4168–1,052,743 |
//! | `1111` | 32 | 1,052,744–u32::MAX |
//!
//! Typical divisions (3–71) therefore cost 4–8 bits, matching the paper's
//! "2–3 bytes in the average" once prefix compression is applied upstream.

use crate::label::INLINE;
use crate::SplId;

/// Error decoding an encoded SPLID.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Ran out of input bits in the middle of a division code.
    Truncated,
    /// Decoded a division sequence violating the label invariants.
    Invalid(crate::SplIdError),
    /// Range-1 payload `000` — division value 0 is never encoded.
    ZeroPayload,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "encoded label truncated"),
            DecodeError::Invalid(e) => write!(f, "decoded divisions invalid: {e}"),
            DecodeError::ZeroPayload => write!(f, "zero payload in range-1 code"),
        }
    }
}

impl std::error::Error for DecodeError {}

const R1_MAX: u32 = 7;
const R2_BASE: u32 = 8;
const R2_MAX: u32 = R2_BASE + (1 << 6) - 1; // 71
const R3_BASE: u32 = R2_MAX + 1; // 72
const R3_MAX: u32 = R3_BASE + (1 << 12) - 1; // 4167
const R4_BASE: u32 = R3_MAX + 1; // 4168
const R4_MAX: u32 = R4_BASE + (1 << 20) - 1; // 1_052_743
const R5_BASE: u32 = R4_MAX + 1; // 1_052_744

/// `d`'s code — range prefix and payload — right-aligned, and its length
/// in bits (at most 36).
#[inline]
fn division_code(d: u32) -> (u64, u32) {
    debug_assert!(d >= 1);
    let d64 = u64::from(d);
    if d <= R1_MAX {
        (d64, 4)
    } else if d <= R2_MAX {
        (0b10 << 6 | (d64 - u64::from(R2_BASE)), 8)
    } else if d <= R3_MAX {
        (0b110 << 12 | (d64 - u64::from(R3_BASE)), 15)
    } else if d <= R4_MAX {
        (0b1110 << 20 | (d64 - u64::from(R4_BASE)), 24)
    } else {
        (0b1111 << 32 | (d64 - u64::from(R5_BASE)), 36)
    }
}

/// The one encoder: packs the codes of `head` and then `last` most
/// significant bit first — one shift-and-or per division into a 64-bit
/// accumulator, whole bytes handed to `out` when the next code would not
/// fit — and zero-pads the final byte.
fn pack(head: &[u32], last: u32, out: &mut Vec<u8>) {
    // The low `used` bits of `acc` are packed and not yet handed on.
    let (mut acc, mut used) = (0u64, 0u32);
    for &d in head.iter().chain(std::iter::once(&last)) {
        let (code, n) = division_code(d);
        if used + n > 64 {
            out.extend_from_slice(&(acc << (64 - used)).to_be_bytes()[..used as usize / 8]);
            used %= 8;
        }
        acc = acc << n | code;
        used += n;
    }
    // At least one code of four bits went in: `used` is not zero.
    out.extend_from_slice(&(acc << (64 - used)).to_be_bytes()[..used.div_ceil(8) as usize]);
}

/// `pack` of a label's own divisions, the last one raised by `bump`.
fn pack_label(id: &SplId, bump: u32, out: &mut Vec<u8>) {
    let (&last, head) = id.divisions().split_last().expect("labels are non-empty");
    let last = last
        .checked_add(bump) // odd -> even; still a valid division value for a bound
        .expect("division u32::MAX is unreachable via LabelAllocator");
    pack(head, last, out);
}

/// Encodes a label, appending to `buf`. Returns the number of bytes written.
pub fn encode_into(id: &SplId, buf: &mut Vec<u8>) -> usize {
    let start = buf.len();
    pack_label(id, 0, buf);
    buf.len() - start
}

/// Encodes a label into a fresh byte vector.
pub fn encode(id: &SplId) -> Vec<u8> {
    let mut buf = Vec::with_capacity(id.len() + 2);
    pack_label(id, 0, &mut buf);
    buf
}

/// Encodes an arbitrary division sequence — used to build *range bounds*
/// that are not themselves valid labels (e.g. a label with its final
/// division incremented).
pub fn encode_divisions(divs: &[u32]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(divs.len() + 2);
    if let Some((&last, head)) = divs.split_last() {
        pack(head, last, &mut buf);
    }
    buf
}

/// Length of the longest common byte prefix of two encoded labels (or any
/// two byte strings).
///
/// Because the encoding is order-preserving and prefix-free, comparing and
/// front-coding encoded labels stays purely bytewise — storage layers can
/// strip `common_prefix_len` bytes from consecutive document-order keys
/// without decoding a single division. Consecutive SPLIDs share everything
/// but the tail division, which is what makes the paper's §3.2 "2–3 bytes
/// per stored SPLID" reachable.
pub fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// Exclusive upper bound (in encoded-byte order) for the subtree rooted at
/// `id`: every proper descendant `d` of `id` satisfies
/// `encode(id) < encode(d) < subtree_upper_bound(id)`, and every following
/// non-descendant encodes `>= subtree_upper_bound(id)`.
///
/// This is what makes subtree operations (reads, deletions, the *-2PL
/// group's IDX scans) single B*-tree range scans.
pub fn subtree_upper_bound(id: &SplId) -> Vec<u8> {
    let mut buf = Vec::with_capacity(id.len() + 2);
    pack_label(id, 1, &mut buf);
    buf
}

/// Decodes an encoded label produced by [`encode`].
///
/// Reads through a left-aligned 64-bit window: the top nibble names the
/// division's range (and, for range 1, is the division), one shift and
/// mask takes the payload. Fewer than four bits left are padding whatever
/// they hold; a `0000` nibble is padding when nothing but zeros follows
/// and a zero payload otherwise — the only place the rest is looked at.
pub fn decode(bytes: &[u8]) -> Result<SplId, DecodeError> {
    // The top `have` bits of `win` are the input from the read position
    // on, zeros below them; `next` is the first byte not yet in it.
    let (mut win, mut have, mut next) = (0u64, 0u32, 0usize);
    let mut divs = [0u32; INLINE];
    let mut spill = Vec::new();
    let mut n = 0;
    loop {
        while have <= 56 && next < bytes.len() {
            win |= u64::from(bytes[next]) << (56 - have);
            have += 8;
            next += 1;
        }
        // 57 bits or all there is: a whole code of 36 unless the input ends.
        if have < 4 {
            break;
        }
        let (d, len) = match win >> 60 {
            0 if win == 0 && bytes[next..].iter().all(|&b| b == 0) => break,
            0 => return Err(DecodeError::ZeroPayload),
            d @ 1..=7 => (d as u32, 4),
            0b1000..=0b1011 => (R2_BASE + (win >> 56 & 0x3F) as u32, 8),
            0b1100 | 0b1101 => (R3_BASE + (win >> 49 & 0xFFF) as u32, 15),
            0b1110 => (R4_BASE + (win >> 40 & 0xF_FFFF) as u32, 24),
            _ => (R5_BASE.wrapping_add((win >> 28) as u32), 36),
        };
        if len > have {
            return Err(DecodeError::Truncated);
        }
        win <<= len;
        have -= len;
        if n < INLINE {
            divs[n] = d;
        } else {
            if spill.is_empty() {
                spill.extend_from_slice(&divs);
            }
            spill.push(d);
        }
        n += 1;
    }
    if spill.is_empty() {
        SplId::from_inline(divs, n)
    } else {
        SplId::from_divisions(&spill)
    }
    .map_err(DecodeError::Invalid)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(s: &str) -> SplId {
        SplId::parse(s).unwrap()
    }

    #[test]
    fn round_trip_simple() {
        for s in [
            "1",
            "1.3",
            "1.3.4.3",
            "1.5.3.3.11.3.1",
            "1.7.71.72.4167.4169",
            "1.1052743.1052745",
        ] {
            let l = id(s);
            assert_eq!(decode(&encode(&l)).unwrap(), l, "label {s}");
        }
    }

    #[test]
    fn round_trip_large_divisions() {
        let l = SplId::from_divisions(&[1, u32::MAX, 3, (u32::MAX - 2) | 1]).unwrap();
        assert_eq!(decode(&encode(&l)).unwrap(), l);
    }

    #[test]
    fn bytewise_order_equals_document_order() {
        let labels = [
            "1",
            "1.3",
            "1.3.3",
            "1.3.4.3",
            "1.3.4.4.5",
            "1.3.5",
            "1.3.71",
            "1.3.73",
            "1.3.4201",
            "1.5",
            "1.5.3.3.11.3.1",
            "1.1052801",
        ];
        let mut by_label: Vec<SplId> = labels.iter().map(|s| id(s)).collect();
        by_label.sort();
        let mut by_bytes = by_label.clone();
        by_bytes.sort_by_key(encode);
        assert_eq!(by_label, by_bytes);
    }

    #[test]
    fn ancestor_encoding_is_byte_prefix_compatible() {
        // An ancestor's encoding must compare strictly less than the
        // descendant's — even when the descendant's first extra division is
        // the minimum value 1.
        let a = id("1.3.3");
        let b = a.reserved_child(); // 1.3.3.1
        assert!(encode(&a) < encode(&b));
    }

    #[test]
    fn typical_sizes_match_paper_claims() {
        // Level-6 node from Figure 5: 1.5.3.3.11.3.1 — 7 divisions, each
        // <= 11 → 4-8 bits each → at most 7 bytes, within the paper's
        // "5 to 10 bytes for tree depths up to 38".
        let l = id("1.5.3.3.11.3.1");
        assert!(encode(&l).len() <= 7, "got {}", encode(&l).len());
        // Small labels are tiny.
        assert!(encode(&id("1.3")).len() <= 2);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode(&[0xFF, 0xFF]).is_err()); // truncated range-5 code
        assert!(decode(&[]).is_err()); // empty → no divisions
    }

    #[test]
    fn subtree_bound_brackets_descendants_only() {
        let book = id("1.5.3.3");
        let bound = subtree_upper_bound(&book);
        let lo = encode(&book);
        // Descendants (from Figure 5) fall inside the bracket.
        for d in ["1.5.3.3.1", "1.5.3.3.5.3", "1.5.3.3.11.3.1"] {
            let e = encode(&id(d));
            assert!(lo < e && e < bound, "{d} should be in the subtree range");
        }
        // Following non-descendants fall outside.
        for f in ["1.5.3.5", "1.5.4.3", "1.5.5", "1.7"] {
            let e = encode(&id(f));
            assert!(e >= bound, "{f} should be past the subtree range");
        }
        // Preceding nodes and the root fall before.
        for p in ["1", "1.5.3", "1.5", "1.3.7"] {
            let e = encode(&id(p));
            assert!(e <= lo, "{p} should precede the subtree range");
        }
    }

    #[test]
    fn encode_into_appends() {
        let mut buf = vec![0xAB];
        let n = encode_into(&id("1.3"), &mut buf);
        assert_eq!(buf[0], 0xAB);
        assert_eq!(buf.len(), 1 + n);
    }
}
