//! Properties of the region algebra and of the generated mode tables:
//! structural invariants every protocol's matrices must satisfy, and the
//! two conversion facts the path memo of `xtc_lock::TxnHandle` rests on.
//!
//! The algebra's mode space is small (5 self accesses × 16 × 16 regions),
//! so single modes and pairs are checked exhaustively and triples over a
//! seeded sample — plain `#[test]`s, run wherever the suite runs.

use xtc_lock::algebra::{compatible, AlgebraMode, CovNonNone, Region, SelfAcc};
use xtc_lock::{Annex, ModeIdx, ModeTable};
use xtc_protocols::EXTENDED_PROTOCOLS;

fn all_modes() -> Vec<AlgebraMode> {
    let mut regions = Vec::new();
    for cov in [
        None,
        Some(CovNonNone::Read),
        Some(CovNonNone::Update),
        Some(CovNonNone::Excl),
    ] {
        for (int_read, int_write) in [(false, false), (false, true), (true, false), (true, true)] {
            regions.push(Region {
                cov,
                int_read,
                int_write,
            });
        }
    }
    let mut modes = Vec::new();
    for s in [
        SelfAcc::None,
        SelfAcc::Traverse,
        SelfAcc::Read,
        SelfAcc::Update,
        SelfAcc::Excl,
    ] {
        for &c in &regions {
            for &b in &regions {
                modes.push(AlgebraMode::new(s, c, b));
            }
        }
    }
    modes
}

/// xorshift64* over a fixed seed: the triples of the associativity and
/// anti-monotonicity checks.
fn sampled_triples(seed: u64, n: usize) -> Vec<(AlgebraMode, AlgebraMode, AlgebraMode)> {
    let modes = all_modes();
    let mut x = seed;
    let mut pick = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        modes[(x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % modes.len()]
    };
    (0..n).map(|_| (pick(), pick(), pick())).collect()
}

/// Join is a least upper bound: commutative, idempotent, covering,
/// associative.
#[test]
fn join_is_lub() {
    let modes = all_modes();
    for &a in &modes {
        assert_eq!(a.join(a), a);
        for &b in &modes {
            assert_eq!(a.join(b), b.join(a));
            assert!(a.join(b).covers(a));
            assert!(a.join(b).covers(b));
        }
    }
    for (a, b, c) in sampled_triples(0x5EED_0011, 200_000) {
        assert_eq!(a.join(b).join(c), a.join(b.join(c)));
    }
}

/// Covers is a partial order compatible with join.
#[test]
fn covers_is_partial_order() {
    let modes = all_modes();
    for &a in &modes {
        assert!(a.covers(a));
        for &b in &modes {
            if a.covers(b) && b.covers(a) {
                // Antisymmetry holds only up to int-flag redundancy under
                // full coverage; joins of equal-covering modes must
                // coincide in observable behaviour:
                let j = a.join(b);
                assert!(j.covers(a) && j.covers(b));
            }
        }
    }
}

/// Compatibility is anti-monotone in strength: a stronger requested or
/// held mode conflicts with at least as much.
#[test]
fn compat_antimonotone() {
    for (a, b, other) in sampled_triples(0x5EED_0012, 400_000) {
        if a.covers(b) {
            if compatible(a, other) {
                assert!(compatible(b, other), "{a:?} covers {b:?} vs {other:?}");
            }
            if compatible(other, a) {
                assert!(compatible(other, b));
            }
        }
    }
}

/// Exclusive self access conflicts with any non-traverse self access.
#[test]
fn exclusive_is_exclusive() {
    let x = AlgebraMode::new(SelfAcc::Excl, Region::NONE, Region::NONE);
    for b in all_modes() {
        if matches!(b.self_acc, SelfAcc::Read | SelfAcc::Update | SelfAcc::Excl) {
            assert!(!compatible(x, b));
            assert!(!compatible(b, x));
        }
    }
}

/// What a lock-cache hit means: the held mode absorbs the request.
fn absorbs(t: &ModeTable, held: ModeIdx, want: ModeIdx) -> bool {
    let conv = t.conversion(held, want);
    conv.result == held && conv.annex == Annex::None
}

/// The modes `LockCtx::lock_path` asks for on ancestors, by the names the
/// protocols give them (MGL's I / IR / IX, taDOM's CX on the parent).
fn path_intents(t: &ModeTable) -> Vec<ModeIdx> {
    ["I", "IR", "IX", "CX"]
        .iter()
        .filter_map(|m| t.mode_named(m))
        .collect()
}

/// The path memo is written after a walk whose every request was
/// granted, and claims each would now be a cache hit. That needs a grant
/// to absorb a repeat of the intention request that caused it. (Not true
/// of every mode: taDOM2's IX + LR = IX with NR on each child, and a
/// second LR asks for the children again.)
#[test]
fn a_granted_intention_is_absorbed_when_repeated() {
    for proto in EXTENDED_PROTOCOLS {
        let t = &xtc_protocols::build(proto).unwrap().families[0];
        for held in 0..t.len() as ModeIdx {
            for want in path_intents(t) {
                let now = t.conversion(held, want).result;
                assert!(
                    absorbs(t, now, want),
                    "{proto}: {} + {} = {}, which does not absorb {}",
                    t.name(held),
                    t.name(want),
                    t.name(now),
                    t.name(want)
                );
            }
        }
    }
}

/// Why the path memo is dropped on *any* change of a held mode, not kept
/// on the argument that conversions only strengthen: absorption is not
/// monotone under conversion. A triple (held, w, x) is lost when `held`
/// absorbs the intention mode `w` a path asks for but `held + x` no
/// longer does — a memo that survived `x` would skip a conversion the
/// table makes. Over all modes `w` the thirteen tables have hundreds of
/// such triples; with `w` an intention mode exactly one per taDOM3-family
/// table, the rename: NR absorbs IR, NR + NX = NX does not, so reading a
/// child of a node one has just renamed must go back to the table.
#[test]
fn absorption_is_not_monotone_under_conversion() {
    for proto in EXTENDED_PROTOCOLS {
        let t = &xtc_protocols::build(proto).unwrap().families[0];
        let n = t.len() as ModeIdx;
        let mut lost = Vec::new();
        for held in 0..n {
            for w in path_intents(t) {
                for x in 0..n {
                    let after = t.conversion(held, x).result;
                    if absorbs(t, held, w) && !absorbs(t, after, w) {
                        lost.push((t.name(held), t.name(w), t.name(x)));
                    }
                }
            }
        }
        // taDOM3 and 3+, and the versioned contestants' taDOM3+ write side.
        if matches!(proto, "taDOM3" | "taDOM3+" | "taMVCC" | "taOCC") {
            assert_eq!(lost, [("NR", "IR", "NX")], "{proto}");
        } else {
            assert_eq!(lost, [], "{proto}");
        }
    }
}

/// Table-level invariants for every protocol's generated family tables.
#[test]
fn generated_tables_satisfy_structural_invariants() {
    for proto in EXTENDED_PROTOCOLS {
        let handle = xtc_protocols::build(proto).unwrap();
        for table in &handle.families {
            check_table(table);
        }
    }
}

fn check_table(t: &ModeTable) {
    let n = t.len() as u8;
    for held in 0..n {
        for req in 0..n {
            let conv = t.conversion(held, req);
            // Conversion diagonal is identity.
            if held == req {
                assert_eq!(conv.result, held, "{}: diagonal", t.family());
                assert_eq!(conv.annex, Annex::None);
            }
            // Conversion results never weaken the held mode's conflicts
            // against *write* requests: anything exclusive that conflicted
            // before still conflicts. Annex conversions are exempt — the
            // per-child locks carry the delegated coverage (e.g. LR+IX →
            // IX_NR admits CX on the node, but the NR child locks block
            // the actual child write).
            if conv.annex != Annex::None {
                continue;
            }
            let res = conv.result;
            for other in 0..n {
                let other_alg = t.alg(other);
                if other_alg.has_write() && !t.compatible(other, held) {
                    assert!(
                        !t.compatible(other, res),
                        "{}: convert({},{}) = {} lets {} through",
                        t.family(),
                        t.name(held),
                        t.name(req),
                        t.name(res),
                        t.name(other)
                    );
                }
            }
            // Annex child modes exist and are read-type.
            if let Annex::ChildLocks(c) = conv.annex {
                assert!(!t.alg(c).has_write(), "{}: annex must be a read", t.family());
            }
        }
    }
    // Compatibility must agree with the algebra (the matrix is not
    // hand-edited).
    for a in 0..n {
        for b in 0..n {
            assert_eq!(
                t.compatible(a, b),
                compatible(t.alg(a), t.alg(b)),
                "{}: compat({}, {})",
                t.family(),
                t.name(a),
                t.name(b)
            );
        }
    }
}
