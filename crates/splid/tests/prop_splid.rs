//! Properties of SPLID labels over randomly navigated label populations.
//!
//! Driven by a hand-rolled deterministic generator rather than
//! `proptest!`, so the cases run — and reproduce by case number — in
//! every build, the offline one included (its proptest stand-in expands
//! `proptest!` to nothing).

use xtc_splid::{decode, encode, subtree_upper_bound, LabelAllocator, SplId};

/// xorshift64*: deterministic case generator.
struct Rng(u64);

impl Rng {
    fn for_case(case: u64) -> Rng {
        Rng(0x9E37_79B9_7F4A_7C15 ^ case.wrapping_mul(0x0101_0101))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A valid label built by random navigation from the root (child /
    /// next-sibling steps, occasional reserved children) under a random
    /// `dist`: up to 12 steps, so up to 13 divisions.
    fn label(&mut self) -> SplId {
        let alloc = LabelAllocator::new(2 + self.below(31) as u32);
        let mut cur = SplId::root();
        for _ in 0..self.below(12) {
            cur = match self.below(3) {
                0 => alloc.first_child(&cur),
                1 => alloc.next_sibling(&cur).unwrap_or_else(|_| alloc.first_child(&cur)),
                _ => cur.reserved_child(),
            };
        }
        cur
    }
}

const CASES: u64 = 512;

#[test]
fn encode_decode_round_trip() {
    for case in 0..CASES {
        let l = Rng::for_case(case).label();
        assert_eq!(decode(&encode(&l)).unwrap(), l, "case {case}");
    }
}

#[test]
fn encoded_order_matches_document_order() {
    for case in 0..CASES {
        let mut rng = Rng::for_case(case);
        let (a, b) = (rng.label(), rng.label());
        assert_eq!(encode(&a).cmp(&encode(&b)), a.cmp(&b), "case {case}: {a} vs {b}");
        // The subtree bound lies above the subtree and at or below
        // whatever follows it.
        if a.is_ancestor_of(&b) || a == b {
            assert!(encode(&b) < subtree_upper_bound(&a), "case {case}: {b} inside {a}");
        } else if a < b {
            assert!(subtree_upper_bound(&a) <= encode(&b), "case {case}: {b} behind {a}");
        }
    }
}

#[test]
fn ancestors_are_prefixes_and_strictly_smaller() {
    for case in 0..CASES {
        let l = Rng::for_case(case).label();
        let mut prev_len = l.divisions().len();
        for anc in l.ancestors() {
            assert!(anc.divisions().len() < prev_len, "case {case}");
            assert!(anc.is_ancestor_of(&l), "case {case}");
            assert!(anc < l, "case {case}");
            prev_len = anc.divisions().len();
        }
        // One proper ancestor per level above the label's own.
        assert_eq!(l.ancestors().count(), l.level(), "case {case}: {l}");
        assert_eq!(
            l.ancestors().next_back().map(|a| a.is_root()),
            if l.is_root() { None } else { Some(true) },
            "case {case}"
        );
    }
}

#[test]
fn parent_level_is_one_less() {
    for case in 0..CASES {
        let mut rng = Rng::for_case(case);
        let (l, other) = (rng.label(), rng.label());
        let Some(p) = l.parent() else {
            assert!(l.is_root(), "case {case}");
            continue;
        };
        assert_eq!(p.level() + 1, l.level(), "case {case}");
        assert!(p.is_parent_of(&l), "case {case}");
        assert!(!l.is_parent_of(&p) && !l.is_parent_of(&l), "case {case}");
        assert_eq!(other.is_parent_of(&l), other == p, "case {case}: {other} over {l}");
        assert_eq!(
            l.is_sibling_of(&other),
            l != other && other.parent() == Some(p),
            "case {case}: {l} beside {other}"
        );
    }
}

#[test]
fn between_is_strictly_between_and_same_level() {
    for case in 0..CASES {
        let mut rng = Rng::for_case(case);
        let parent = rng.label();
        let alloc = LabelAllocator::new(2 + rng.below(31) as u32);
        // Two initial siblings below `parent`, then repeated halving.
        let mut left = alloc.first_child(&parent);
        let mut right = alloc.next_sibling(&left).unwrap();
        for _ in 0..1 + rng.below(39) {
            let m = alloc.between(Some(&left), Some(&right)).unwrap();
            assert!(left < m && m < right, "case {case}: {left} < {m} < {right}");
            assert_eq!(m.level(), left.level(), "case {case}");
            assert_eq!(m.parent().unwrap(), parent, "case {case}");
            assert!(m.is_sibling_of(&left) && parent.is_parent_of(&m), "case {case}");
            assert_eq!(decode(&encode(&m)).unwrap(), m, "case {case}");
            if rng.below(2) == 0 {
                left = m
            } else {
                right = m
            }
        }
    }
}

#[test]
fn ancestor_at_level_consistent() {
    for case in 0..CASES {
        let l = Rng::for_case(case).label();
        for lvl in 0..=l.level() {
            let a = l.ancestor_at_level(lvl).unwrap();
            assert_eq!(a.level(), lvl, "case {case}");
            assert!(a == l || a.is_ancestor_of(&l), "case {case}");
        }
        assert!(l.ancestor_at_level(l.level() + 1).is_none(), "case {case}");
    }
}

#[test]
fn common_ancestor_is_common_and_deepest() {
    for case in 0..CASES {
        let mut rng = Rng::for_case(case);
        let (a, b) = (rng.label(), rng.label());
        let c = a.common_ancestor(&b);
        assert!(c == a || c.is_ancestor_of(&a), "case {case}");
        assert!(c == b || c.is_ancestor_of(&b), "case {case}");
        // Deepest: no child of c on a's path is also on b's path.
        if let (Some(pa), Some(pb)) = (
            a.ancestor_at_level(c.level() + 1),
            b.ancestor_at_level(c.level() + 1),
        ) {
            if a != c && b != c {
                assert!(pa != pb, "case {case}: deeper common ancestor {pa} exists");
            }
        }
    }
}
