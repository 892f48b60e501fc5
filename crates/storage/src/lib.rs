//! # xtc-storage — page-based document storage for XTC
//!
//! Implements the storage layer sketched in §3.1/§3.2 and Figure 6 of
//! *Contest of XML Lock Protocols* (VLDB 2006):
//!
//! * a **B\*-tree** over variable-length byte keys with **front-coded
//!   leaves** (per-key incremental prefix compression with restart
//!   points) — keyed on encoded SPLIDs it stores an XML document in
//!   left-most depth-first (document) order, acting as both *document
//!   index* and *document container* (the chained leaf pages),
//! * an **element index**: a name directory over element names, each entry
//!   owning a node-reference index of SPLIDs,
//! * a **vocabulary** replacing tag names by ≤ 2-byte surrogates inside
//!   node records,
//! * **access statistics** (logical page reads/writes) standing in for the
//!   disk-I/O counts of the paper's testbed (see DESIGN.md, substitutions).
//!
//! The trees are safe for concurrent use (`&self` API, tree-level
//! reader-striped reader-writer latch). Transactional isolation is *not*
//! this layer's job — the lock manager (`xtc-lock`) serializes logical
//! access.

#![warn(missing_docs)]

mod backend;
mod btree;
mod cuckoo;
mod error;
mod latch;
mod page;
mod pool;
mod vocab;

pub use backend::{crc32, FileBackend, PageBackendConfig, PAGE_HEADER};
pub use btree::{BTree, BTreeConfig, OccupancyReport};
pub use cuckoo::CuckooFilter;
pub use error::StorageError;
pub use pool::{
    EvictPolicy, PagePool, PoolConfig, PoolStats, StorageStats, DEFAULT_CORRELATED_TICKS,
};
pub use vocab::{VocId, Vocabulary};
