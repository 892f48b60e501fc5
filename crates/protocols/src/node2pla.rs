//! Node2PLa (§2.2): the optimized *-2PL representative.
//!
//! Node2PL's parent-focused T/M locks, enhanced with URIX-style intention
//! locks protecting the ancestor paths of direct jumps, a lock-depth
//! parameter, and the subtree locks that parameter implies. Because
//! intentions now protect every path, subtree deletion needs **no IDX
//! scan** — which is exactly why Node2PLa escapes the group's CLUSTER2
//! penalty (Fig. 11) while keeping the group's characteristic weakness:
//! "overly restrictive parent locking" that reacts one level deeper
//! (Fig. 10) and huge granules for renames (M on the parent blocks the
//! whole level).

use crate::{ProtocolGroup, ProtocolHandle};
use std::sync::Arc;
use xtc_lock::algebra::{AlgebraMode, CovNonNone::*, Region, SelfAcc as S};
use xtc_lock::{clamp_to_depth, LockCtx, LockError, MetaOp, ModeIdx, ModeTable, Protocol};
use xtc_splid::SplId;

const NODE_FAMILY: u8 = 0;

/// The Node2PLa protocol.
pub struct Node2PLa {
    ir: ModeIdx,
    ix: ModeIdx,
    t: ModeIdx,
    m: ModeIdx,
    sr: ModeIdx,
    su: ModeIdx,
    sx: ModeIdx,
}

/// Builds the Node2PLa handle.
pub fn node2pla() -> ProtocolHandle {
    let table = Arc::new(ModeTable::generate(
        "node2pla",
        &[
            ("IR", AlgebraMode::new(S::Read, Region::intents(true, false), Region::NONE)),
            ("IX", AlgebraMode::new(S::Read, Region::intents(true, false), Region::intents(false, true))),
            ("T", AlgebraMode::new(S::Read, Region::cov(Read), Region::NONE)),
            ("M", AlgebraMode::new(S::Read, Region::cov(Excl), Region::intents(false, true))),
            ("SR", AlgebraMode::new(S::Read, Region::cov(Read), Region::cov(Read))),
            ("SU", AlgebraMode::new(S::Update, Region::cov(Update), Region::cov(Update))),
            ("SX", AlgebraMode::new(S::Excl, Region::cov(Excl), Region::cov(Excl))),
        ],
        &[],
    ));
    let m = |n: &str| table.mode_named(n).unwrap();
    let p = Node2PLa {
        ir: m("IR"),
        ix: m("IX"),
        t: m("T"),
        m: m("M"),
        sr: m("SR"),
        su: m("SU"),
        sx: m("SX"),
    };
    ProtocolHandle {
        protocol: Arc::new(p),
        families: vec![table],
        group: ProtocolGroup::Star2Pl,
    }
}

impl Node2PLa {
    /// Read access to node `n`: T on its parent (the protocol's focus),
    /// IR on the path above; depth-clamped to SR.
    fn read(&self, cx: &LockCtx<'_>, n: &SplId) -> Result<(), LockError> {
        let Some(class) = cx.read_class() else {
            return Ok(());
        };
        let focus = n.parent().unwrap_or_else(|| n.clone());
        let (target, subtree) = clamp_to_depth(&focus, cx.lock_depth);
        cx.lock_path(NODE_FAMILY, &target, self.ir, self.ir, class)?;
        let mode = if subtree { self.sr } else { self.t };
        cx.lock_node(NODE_FAMILY, &target, mode, class)
    }

    /// Write access at node `n`: M on its parent, IX path; depth-clamped
    /// to SX.
    fn write(&self, cx: &LockCtx<'_>, n: &SplId) -> Result<(), LockError> {
        let Some(class) = cx.write_class() else {
            return Ok(());
        };
        let focus = n.parent().unwrap_or_else(|| n.clone());
        let (target, subtree) = clamp_to_depth(&focus, cx.lock_depth);
        cx.lock_path(NODE_FAMILY, &target, self.ix, self.ix, class)?;
        let mode = if subtree { self.sx } else { self.m };
        cx.lock_node(NODE_FAMILY, &target, mode, class)
    }
}

impl Protocol for Node2PLa {
    fn name(&self) -> &'static str {
        "Node2PLa"
    }

    fn supports_lock_depth(&self) -> bool {
        true
    }

    fn acquire(&self, cx: &LockCtx<'_>, op: &MetaOp<'_>) -> Result<(), LockError> {
        match *op {
            MetaOp::ReadNode(n) | MetaOp::JumpRead(n) => self.read(cx, n),
            MetaOp::Navigate { to, .. } => match to {
                Some(to) => self.read(cx, to),
                None => Ok(()),
            },
            MetaOp::ReadLevel(n) => {
                // T on n itself covers the whole child level.
                let Some(class) = cx.read_class() else {
                    return Ok(());
                };
                let (target, subtree) = clamp_to_depth(n, cx.lock_depth);
                cx.lock_path(NODE_FAMILY, &target, self.ir, self.ir, class)?;
                let mode = if subtree { self.sr } else { self.t };
                cx.lock_node(NODE_FAMILY, &target, mode, class)
            }
            MetaOp::ReadTree(n) => {
                let Some(class) = cx.read_class() else {
                    return Ok(());
                };
                let (target, _) = clamp_to_depth(n, cx.lock_depth);
                cx.lock_path(NODE_FAMILY, &target, self.ir, self.ir, class)?;
                cx.lock_node(NODE_FAMILY, &target, self.sr, class)
            }
            MetaOp::UpdateTree(n) => {
                let Some(class) = cx.write_class() else {
                    return Ok(());
                };
                let (target, _) = clamp_to_depth(n, cx.lock_depth);
                cx.lock_path(NODE_FAMILY, &target, self.ix, self.ix, class)?;
                cx.lock_node(NODE_FAMILY, &target, self.su, class)
            }
            MetaOp::WriteContent(n) | MetaOp::Rename(n) => self.write(cx, n),
            MetaOp::InsertNode { node, .. } => self.write(cx, node),
            MetaOp::IndexKeyRead(key) => {
                let Some(class) = cx.read_class() else {
                    return Ok(());
                };
                cx.lock_index_key(NODE_FAMILY, key, self.sr, class)
            }
            MetaOp::IndexKeyWrite(key) => {
                let Some(class) = cx.write_class() else {
                    return Ok(());
                };
                cx.lock_index_key(NODE_FAMILY, key, self.sx, class)
            }
            MetaOp::DeleteTree { node, .. } => {
                // M on the parent + SX on the subtree root; intentions on
                // every path make the IDX scan unnecessary.
                self.write(cx, node)?;
                let Some(class) = cx.write_class() else {
                    return Ok(());
                };
                let (target, _) = clamp_to_depth(node, cx.lock_depth);
                cx.lock_node(NODE_FAMILY, &target, self.sx, class)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_and_m_follow_figure_1() {
        let h = node2pla();
        let t = &h.families[0];
        let (tt, m) = (t.mode_named("T").unwrap(), t.mode_named("M").unwrap());
        assert!(t.compatible(tt, tt));
        assert!(!t.compatible(tt, m));
        assert!(!t.compatible(m, tt));
        assert!(!t.compatible(m, m));
        // Intentions coexist with T but writes deeper conflict with SR.
        let ir = t.mode_named("IR").unwrap();
        let ix = t.mode_named("IX").unwrap();
        let sr = t.mode_named("SR").unwrap();
        assert!(t.compatible(ir, tt));
        assert!(t.compatible(ix, tt), "deep writes pass a level pin above");
        assert!(!t.compatible(ix, sr));
        assert!(!t.compatible(m, sr));
    }

    #[test]
    fn conversions_close_within_the_set() {
        let h = node2pla();
        let t = &h.families[0];
        let m = |n: &str| t.mode_named(n).unwrap();
        assert_eq!(t.name(t.conversion(m("T"), m("M")).result), "M");
        assert_eq!(t.name(t.conversion(m("IR"), m("IX")).result), "IX");
        assert_eq!(t.name(t.conversion(m("T"), m("SR")).result), "SR");
        assert_eq!(t.name(t.conversion(m("SR"), m("M")).result), "SX");
        assert_eq!(t.name(t.conversion(m("SU"), m("SX")).result), "SX");
    }
}
