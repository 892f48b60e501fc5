//! Deterministic fuzz of the SPLID codec: round trips over random valid
//! division sequences, order preservation, and graceful `DecodeError`s on
//! corrupted bytes, the label operations against a reference on plain
//! division slices on both sides of the inline-storage limit, and the
//! word-wise codec against the bit-at-a-time one it replaced
//! ([`reference`]): same bytes, same `Result`s. Fixed seeds, always run.

use xtc_splid::{
    common_prefix_len, decode, encode, encode_divisions, encode_into, subtree_upper_bound,
    DecodeError, LabelAllocator, SplId,
};

/// The codec as it was before it went word-wise — one loop turn per bit,
/// an O(bits) padding scan before every division — kept as the oracle.
mod reference {
    use xtc_splid::{DecodeError, SplId};

    const R2_BASE: u32 = 8;
    const R3_BASE: u32 = 72;
    const R4_BASE: u32 = 4168;
    const R5_BASE: u32 = 1_052_744;

    struct BitWriter<'a> {
        out: &'a mut Vec<u8>,
        cur: u8,
        used: u8,
    }

    impl BitWriter<'_> {
        /// Pushes the low `n` bits of `v`, most significant first.
        fn push(&mut self, v: u64, n: u8) {
            for i in (0..n).rev() {
                let bit = ((v >> i) & 1) as u8;
                self.cur = (self.cur << 1) | bit;
                self.used += 1;
                if self.used == 8 {
                    self.out.push(self.cur);
                    self.cur = 0;
                    self.used = 0;
                }
            }
        }

        fn finish(self) {
            if self.used > 0 {
                self.out.push(self.cur << (8 - self.used));
            }
        }
    }

    struct BitReader<'a> {
        data: &'a [u8],
        pos: usize, // bit position
    }

    impl BitReader<'_> {
        fn read(&mut self, n: u8) -> Option<u64> {
            let mut v = 0u64;
            for _ in 0..n {
                let byte = *self.data.get(self.pos / 8)?;
                let bit = (byte >> (7 - (self.pos % 8))) & 1;
                v = (v << 1) | bit as u64;
                self.pos += 1;
            }
            Some(v)
        }

        /// Remaining bits, all of which must be zero padding.
        fn only_zero_padding_left(&self) -> bool {
            (self.pos..self.data.len() * 8).all(|pos| (self.data[pos / 8] >> (7 - (pos % 8))) & 1 == 0)
        }

        /// True when fewer than 4 unread bits remain (nothing but padding fits).
        fn at_padding(&self) -> bool {
            self.data.len() * 8 - self.pos < 4 || self.only_zero_padding_left()
        }
    }

    fn push_division(w: &mut BitWriter<'_>, d: u32) {
        if d < R2_BASE {
            w.push(0, 1);
            w.push(d as u64, 3);
        } else if d < R3_BASE {
            w.push(0b10, 2);
            w.push((d - R2_BASE) as u64, 6);
        } else if d < R4_BASE {
            w.push(0b110, 3);
            w.push((d - R3_BASE) as u64, 12);
        } else if d < R5_BASE {
            w.push(0b1110, 4);
            w.push((d - R4_BASE) as u64, 20);
        } else {
            w.push(0b1111, 4);
            w.push((d - R5_BASE) as u64, 32);
        }
    }

    pub fn encode_divisions(divs: &[u32]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = BitWriter { out: &mut buf, cur: 0, used: 0 };
        for &d in divs {
            push_division(&mut w, d);
        }
        w.finish();
        buf
    }

    pub fn decode(bytes: &[u8]) -> Result<SplId, DecodeError> {
        let mut r = BitReader { data: bytes, pos: 0 };
        let mut divs = Vec::new();
        while !r.at_padding() {
            divs.push(read_division(&mut r)?);
        }
        SplId::from_divisions(&divs).map_err(DecodeError::Invalid)
    }

    fn read_division(r: &mut BitReader<'_>) -> Result<u32, DecodeError> {
        let mut read = |n| r.read(n).ok_or(DecodeError::Truncated);
        if read(1)? == 0 {
            return match read(3)? as u32 {
                0 => Err(DecodeError::ZeroPayload),
                v => Ok(v),
            };
        }
        if read(1)? == 0 {
            return Ok(R2_BASE + read(6)? as u32);
        }
        if read(1)? == 0 {
            return Ok(R3_BASE + read(12)? as u32);
        }
        if read(1)? == 0 {
            return Ok(R4_BASE + read(20)? as u32);
        }
        Ok(R5_BASE.wrapping_add(read(32)? as u32))
    }
}

/// xorshift64* — no external RNG dependency, stable across platforms.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Division values on and beside every range boundary, and inside each.
fn boundary_division(rng: &mut Rng) -> u32 {
    const EDGES: [u32; 12] = [1, 2, 7, 8, 71, 72, 4167, 4168, 1_052_743, 1_052_744, u32::MAX - 1, u32::MAX];
    match rng.below(8) {
        0..=2 => EDGES[rng.below(EDGES.len() as u64) as usize],
        3 => 1 + rng.below(7) as u32,
        4 => 8 + rng.below(64) as u32,
        5 => 72 + rng.below(4096) as u32,
        6 => 4168 + rng.below(1 << 20) as u32,
        _ => 1_052_744u32.saturating_add(rng.next() as u32),
    }
}

/// A valid label of `len` divisions drawn by [`boundary_division`].
fn boundary_label(len: usize, rng: &mut Rng) -> Vec<u32> {
    let mut divs = vec![1u32];
    divs.extend((1..len).map(|_| boundary_division(rng)));
    *divs.last_mut().unwrap() |= 1;
    divs
}

/// A random valid label of 1 to 12 divisions: starts at the root division
/// 1, never contains 0, ends odd.
fn random_divisions(rng: &mut Rng) -> Vec<u32> {
    boundary_label(1 + rng.below(12) as usize, rng)
}

#[test]
fn random_division_sequences_round_trip() {
    let mut rng = Rng(0x5EED_0001);
    for case in 0..4000 {
        let divs = random_divisions(&mut rng);
        let label = SplId::from_divisions(&divs).unwrap();
        let bytes = encode(&label);
        let back = decode(&bytes).unwrap_or_else(|e| panic!("case {case}: {label} -> {e}"));
        assert_eq!(back, label, "case {case}");
    }
}

#[test]
fn allocator_walks_round_trip_and_preserve_order() {
    // Labels produced the way the node manager produces them: child /
    // sibling / between navigation, at several dist settings.
    let mut rng = Rng(0x5EED_0002);
    let mut labels = Vec::new();
    for &dist in &[2u32, 4, 16, 64] {
        let alloc = LabelAllocator::new(dist);
        let mut cur = SplId::root();
        let mut prev_sib: Option<SplId> = None;
        for _ in 0..400 {
            cur = match rng.below(4) {
                0 => {
                    prev_sib = None;
                    alloc.first_child(&cur)
                }
                1 => {
                    let next = alloc
                        .next_sibling(&cur)
                        .unwrap_or_else(|_| alloc.first_child(&cur));
                    prev_sib = Some(cur);
                    next
                }
                2 => match &prev_sib {
                    // The tracked left neighbour can go stale across parent
                    // hops — fall back to a child step when it is no longer
                    // a sibling.
                    Some(p) if *p < cur => alloc
                        .between(Some(p), Some(&cur))
                        .unwrap_or_else(|_| alloc.first_child(&cur)),
                    _ => alloc.first_child(&cur),
                },
                _ => {
                    prev_sib = None;
                    cur.parent().unwrap_or_else(SplId::root)
                }
            };
            labels.push(cur.clone());
        }
    }
    for l in &labels {
        assert_eq!(decode(&encode(l)).unwrap(), *l, "round trip of {l}");
    }
    // Bytewise order of encodings == document order of labels.
    let mut by_label = labels.clone();
    by_label.sort();
    by_label.dedup();
    let mut by_bytes = by_label.clone();
    by_bytes.sort_by_key(encode);
    assert_eq!(by_label, by_bytes, "encoding must preserve document order");
    // Sanity for the storage layer's front coding: consecutive labels in
    // document order share a meaningful prefix on average.
    let shared: usize = by_label
        .windows(2)
        .map(|w| common_prefix_len(&encode(&w[0]), &encode(&w[1])))
        .sum();
    assert!(
        shared > by_label.len(),
        "document-order neighbours share almost nothing: {shared} bytes over {} pairs",
        by_label.len() - 1
    );
}

#[test]
fn truncation_and_bit_flips_never_panic() {
    let mut rng = Rng(0x5EED_0003);
    for _ in 0..500 {
        let divs = random_divisions(&mut rng);
        let label = SplId::from_divisions(&divs).unwrap();
        let bytes = encode(&label);
        // Every proper byte-truncation must decode to an error or to some
        // *other* valid label (a prefix cut on a code boundary) — never
        // panic, never reproduce the original.
        for cut in 0..bytes.len() {
            match decode(&bytes[..cut]) {
                Ok(other) => assert_ne!(other, label, "truncation reproduced the label"),
                Err(
                    DecodeError::Truncated | DecodeError::Invalid(_) | DecodeError::ZeroPayload,
                ) => {}
            }
        }
        // Single-bit corruption: decode must return, not panic.
        for _ in 0..8 {
            let mut bad = bytes.clone();
            let bit = rng.below((bad.len() * 8) as u64) as usize;
            bad[bit / 8] ^= 1 << (7 - bit % 8);
            let _ = decode(&bad);
        }
    }
}

#[test]
fn truncated_code_reports_truncated() {
    // `1110` opens a range-4 code needing 20 payload bits; only 4 remain.
    assert_eq!(decode(&[0b1110_0000]), Err(DecodeError::Truncated));
    // `1111` opens a range-5 code needing 32 payload bits.
    assert_eq!(decode(&[0xFF, 0xFF]), Err(DecodeError::Truncated));
}

#[test]
fn zero_payload_reports_zero_payload() {
    // `0 000` is a range-1 code with payload 0 — division 0 never occurs.
    // The trailing 1 bit keeps the reader from treating it as padding.
    assert_eq!(decode(&[0b0000_1000]), Err(DecodeError::ZeroPayload));
}

#[test]
fn structurally_invalid_sequences_report_invalid() {
    // Decodes fine but violates label invariants: bad root.
    assert!(matches!(
        decode(&encode_divisions(&[3, 3])),
        Err(DecodeError::Invalid(_))
    ));
    // Empty input: no divisions at all.
    assert!(matches!(decode(&[]), Err(DecodeError::Invalid(_))));
}

/// Reference on plain division slices: the parent prefix of a label.
fn parent_ref(d: &[u32]) -> Option<&[u32]> {
    if d.len() == 1 {
        return None;
    }
    let mut end = d.len() - 1;
    while end > 1 && d[end - 1].is_multiple_of(2) {
        end -= 1;
    }
    Some(&d[..end])
}

fn hash_of<T: std::hash::Hash + ?Sized>(v: &T) -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Labels keep up to 14 divisions in the value and spill to the heap past
/// that: every operation must agree with the slice reference on both
/// sides of the boundary, and comparisons across it.
#[test]
fn labels_agree_with_slice_reference_across_the_spill_boundary() {
    assert!(std::mem::size_of::<SplId>() <= 64);
    let mut rng = Rng(0x5EED_0005);
    // Small divisions: even connectors are as common as level steps.
    let long_label = |len: usize, rng: &mut Rng| -> Vec<u32> {
        let mut divs = vec![1u32];
        for _ in 1..len {
            divs.push(1 + rng.below(9) as u32);
        }
        *divs.last_mut().unwrap() |= 1;
        divs
    };
    for len in 1..=40usize {
        for _ in 0..40 {
            let a = long_label(len, &mut rng);
            // A second label sharing a random prefix with the first, of a
            // length on either side of the boundary.
            let mut b = long_label(1 + rng.below(40) as usize, &mut rng);
            let shared = rng.below(a.len().min(b.len()) as u64 + 1) as usize;
            b[..shared].copy_from_slice(&a[..shared]);
            *b.last_mut().unwrap() |= 1;
            let (la, lb) = (
                SplId::from_divisions(&a).unwrap(),
                SplId::from_divisions(&b).unwrap(),
            );
            assert_eq!(la.divisions(), &a[..]);
            assert_eq!(la.len(), a.len());
            assert_eq!(la == lb, a == b);
            assert_eq!(la.cmp(&lb), a.cmp(&b));
            assert_eq!(hash_of(&la), hash_of(&a[..]));
            assert_eq!(la.clone(), la);
            assert_eq!(decode(&encode(&la)).unwrap(), la);

            // parent / ancestors, both directions.
            let mut want: Vec<&[u32]> = Vec::new();
            let mut cur = &a[..];
            while let Some(p) = parent_ref(cur) {
                want.push(p);
                cur = p;
            }
            assert_eq!(
                la.parent().as_ref().map(|p| p.divisions()),
                want.first().copied()
            );
            let got: Vec<SplId> = la.ancestors().collect();
            assert_eq!(got.iter().map(|x| x.divisions()).collect::<Vec<_>>(), want);
            let mut back: Vec<SplId> = la.ancestors().rev().collect();
            back.reverse();
            assert_eq!(back, got);
            // Meeting in the middle yields every ancestor exactly once.
            let mut it = la.ancestors();
            let mut met = Vec::new();
            while let Some(front) = it.next() {
                met.push(front);
                met.extend(it.next_back());
            }
            met.sort();
            back.sort();
            assert_eq!(met, back);

            // ancestor_at_level: the own level is the label, levels above
            // it index the root-first path, levels below do not exist.
            let level = la.level();
            assert_eq!(level, want.len());
            assert_eq!(la.ancestor_at_level(level).as_ref(), Some(&la));
            assert_eq!(la.ancestor_at_level(level + 1), None);
            for (lvl, anc) in want.iter().rev().enumerate() {
                assert_eq!(la.ancestor_at_level(lvl).unwrap().divisions(), *anc);
            }

            // common_ancestor: longest common prefix, cut back to a node
            // unless one label is a prefix of the other.
            let mut common = a.iter().zip(&b).take_while(|(x, y)| x == y).count();
            if common < a.len() && common < b.len() {
                while common > 1 && a[common - 1].is_multiple_of(2) {
                    common -= 1;
                }
            }
            assert_eq!(la.common_ancestor(&lb).divisions(), &a[..common]);
            assert_eq!(
                la.is_ancestor_of(&lb),
                a.len() < b.len() && b.starts_with(&a)
            );

            let child = la.reserved_child();
            assert_eq!(child.divisions(), [&a[..], &[1]].concat());
            assert_eq!(child.parent().unwrap(), la);
        }
    }
}

/// The word-wise packer writes the bytes the bit-at-a-time one wrote, from
/// every entry point, for labels on both sides of the inline limit (14
/// divisions) across all five ranges and their boundaries.
#[test]
fn encoders_write_the_reference_bytes() {
    let mut rng = Rng(0x5EED_0006);
    for len in 1..=40usize {
        for case in 0..150 {
            let divs = boundary_label(len, &mut rng);
            let label = SplId::from_divisions(&divs).unwrap();
            let want = reference::encode_divisions(&divs);
            let ctx = format!("len {len} case {case}: {label}");
            assert_eq!(encode(&label), want, "{ctx}");
            assert_eq!(encode_divisions(&divs), want, "{ctx}");
            let mut buf = vec![0xAB, 0xCD];
            assert_eq!(encode_into(&label, &mut buf), want.len(), "{ctx}");
            assert_eq!(buf, [&[0xAB, 0xCD], &want[..]].concat(), "{ctx}");
            assert_eq!(decode(&want), Ok(label.clone()), "{ctx}");
            // The bound raises the last division; u32::MAX has no bound.
            if *divs.last().unwrap() != u32::MAX {
                let mut bumped = divs.clone();
                *bumped.last_mut().unwrap() += 1;
                let want = reference::encode_divisions(&bumped);
                assert_eq!(subtree_upper_bound(&label), want, "{ctx}: bound");
            }
        }
    }
    // Sequences that are no labels: no root, an even tail, nothing.
    for divs in [&[][..], &[2, 4], &[7, 8, 71, 72]] {
        assert_eq!(encode_divisions(divs), reference::encode_divisions(divs), "{divs:?}");
    }
}

/// `decode` gives the reference's `Result` — the error variant included —
/// on every truncation of a valid encoding, on set bits in and behind the
/// padding, on a `0000` nibble in front of set bits, and on random bytes.
#[test]
fn decode_answers_as_the_reference_does() {
    let same = |bytes: &[u8], ctx: &str| assert_eq!(decode(bytes), reference::decode(bytes), "{ctx}: {bytes:02x?}");
    let mut rng = Rng(0x5EED_0007);
    let mut errors = [0usize; 3];
    for len in 1..=40usize {
        for case in 0..40 {
            let divs = boundary_label(len, &mut rng);
            let bytes = reference::encode_divisions(&divs);
            let ctx = format!("len {len} case {case}");
            for cut in 0..=bytes.len() {
                same(&bytes[..cut], &ctx);
            }
            // Every bit of the last byte set in turn: padding that is not
            // zero, or a changed final division.
            for bit in 0..8 {
                let mut bad = bytes.clone();
                *bad.last_mut().unwrap() |= 1 << bit;
                same(&bad, &ctx);
            }
            // Zero bytes behind the label are padding; a set bit behind a
            // zero nibble makes that nibble a zero payload.
            for (zeros, tail) in [(1, 0), (9, 0), (1, 1), (2, 0x80), (9, 0x08)] {
                let mut bad = bytes.clone();
                bad.extend(std::iter::repeat_n(0, zeros));
                bad.push(tail);
                same(&bad, &ctx);
            }
            // A zero nibble spliced in at a byte boundary.
            let at = rng.below(bytes.len() as u64 + 1) as usize;
            let mut bad = bytes.clone();
            bad.insert(at, rng.next() as u8 & 0x0F);
            same(&bad, &ctx);
            // Any byte overwritten.
            let mut bad = bytes.clone();
            bad[rng.below(bytes.len() as u64) as usize] = rng.next() as u8;
            same(&bad, &ctx);
        }
    }
    for case in 0..20_000 {
        // Random bytes; every other case behind a root division so that
        // more of them get past the first check.
        let mut bytes: Vec<u8> = (0..rng.below(24)).map(|_| rng.next() as u8).collect();
        if case % 2 == 0 {
            bytes.insert(0, 0x10 | rng.next() as u8 & 0x0F);
        }
        same(&bytes, "random");
        match decode(&bytes) {
            Err(DecodeError::Truncated) => errors[0] += 1,
            Err(DecodeError::ZeroPayload) => errors[1] += 1,
            Err(DecodeError::Invalid(_)) => errors[2] += 1,
            Ok(_) => {}
        }
    }
    assert!(errors.iter().all(|&n| n > 100), "an error variant went unexercised: {errors:?}");
}
