//! Deterministic fuzz of the SPLID codec: round trips over random valid
//! division sequences, order preservation, and graceful `DecodeError`s on
//! corrupted bytes, and the label operations against a reference on plain
//! division slices on both sides of the inline-storage limit. Runs with
//! fixed seeds so local builds get the coverage
//! even where proptest is unavailable (`prop_splid.rs` covers the
//! generative variants in CI).

use xtc_splid::{common_prefix_len, decode, encode, DecodeError, LabelAllocator, SplId};

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

/// A random valid label: starts at the root division 1, never contains 0,
/// ends odd. Division magnitudes are drawn across all five code ranges so
/// every prefix/payload combination round-trips.
fn random_divisions(rng: &mut Rng) -> Vec<u32> {
    let len = 1 + rng.below(12) as usize;
    let mut divs = vec![1u32];
    for _ in 1..len {
        let d = match rng.below(5) {
            0 => 1 + rng.below(7) as u32,                       // range 1
            1 => 8 + rng.below(64) as u32,                      // range 2
            2 => 72 + rng.below(4096) as u32,                   // range 3
            3 => 4168 + rng.below(1 << 20) as u32,              // range 4
            _ => 1_052_744u32.saturating_add(rng.next() as u32), // range 5
        };
        divs.push(d.max(1));
    }
    if let Some(last) = divs.last_mut() {
        *last |= 1; // labels end in an odd division
    }
    divs
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
    use xtc_splid::encode_divisions;
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
