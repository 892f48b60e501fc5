//! # xtc-lock — the XTC lock manager with meta-synchronization
//!
//! The protocol-agnostic lock manager of *Contest of XML Lock Protocols*
//! (VLDB 2006, §3.3). It provides:
//!
//! * a **region algebra** ([`algebra`]) interpreting every lock mode of
//!   the contested protocols over three regions of the context node —
//!   the algebra reproduces the paper's printed matrices (Fig. 1, 2, 3a,
//!   4) and *generates* the unpublished ones (taDOM2+/3/3+),
//! * **mode tables** ([`ModeTable`]) with compatibility and conversion
//!   matrices, including the annex rules of Fig. 4 (`CX_NR`, `IX_SR`, …),
//! * a sharded **lock table** ([`LockTable`]) with FIFO queues, conversion
//!   priority, Gray-style asymmetric U-modes, per-family independence
//!   (Node2PL's separate structure/content/jump matrices), and
//! * **deadlock handling**: wait-for-graph cycle detection on block,
//!   youngest-victim abort, and classification into conversion vs.
//!   distinct-subtree deadlocks (the TaMix metric of §4.2),
//! * the **meta-synchronization interface** ([`MetaOp`], [`Protocol`]):
//!   node / level / tree / edge lock requests with release at commit or
//!   end-of-operation, parameterized by the four isolation levels of the
//!   experiments.

#![warn(missing_docs)]

pub mod algebra;
mod error;
mod hash;
mod meta;
mod modes;
mod table;
mod txn;

pub use error::LockError;
pub use meta::{clamp_to_depth, DocView, LockCtx, MetaOp, Protocol};
pub use modes::{Annex, Conversion, ModeIdx, ModeTable};
pub use table::{
    Acquired, DeadlockStats, EdgeKind, FamilyId, LockName, LockTable, LockTarget, VictimPolicy,
};
pub use txn::{IsolationLevel, LockClass, PathLocks, TxnHandle, TxnId, TxnRegistry};
