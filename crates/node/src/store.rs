//! The node manager: navigational and IUD access to one taDOM document.

use crate::record::{NodeData, NodeKind};
use std::sync::{Arc, Mutex};
use xtc_splid::{encode, subtree_upper_bound, LabelAllocator, SplId};
use xtc_storage::{
    BTree, BTreeConfig, CuckooFilter, EvictPolicy, PageBackendConfig, StorageError, StorageStats,
    VocId, Vocabulary,
};

/// Configuration for a [`DocStore`].
#[derive(Debug, Clone)]
pub struct DocStoreConfig {
    /// B\*-tree page size.
    pub page_size: usize,
    /// SPLID gap parameter (`dist`, §3.2).
    pub dist: u32,
    /// Simulated per-page-read latency (default zero): the stand-in for
    /// the paper's disk accesses (CLUSTER2 uses it — see EXPERIMENTS.md).
    pub read_latency: std::time::Duration,
    /// Simulated per-write-back latency (default zero), charged as
    /// `page_write_us` virtual time.
    pub write_latency: std::time::Duration,
    /// Extra simulated latency charged only on buffer misses (default
    /// zero) — the storage bench's price for a fault-in.
    pub miss_latency: std::time::Duration,
    /// Buffer residency budget per underlying tree (document, element
    /// index, ID index); `None` = unbounded. Evicted pages fault back in
    /// as buffer misses — see `xtc_storage::PoolStats`.
    pub max_resident_pages: Option<usize>,
    /// Eviction policy under the residency budget (default:
    /// scan-resistant LRU-2).
    pub evict_policy: EvictPolicy,
    /// Hit/miss counting window in LRU-clock ticks: repeated touches of
    /// one page within the window count as a single logical reference
    /// (`xtc_storage::PoolConfig::burst_ticks`). The storage bench
    /// widens it to transaction scale.
    pub burst_ticks: u64,
    /// When set, the three B\*-trees keep their page bytes in real page
    /// files under this directory (`doc.pages`, `elem.pages`,
    /// `id.pages`) — `pwrite` on write-back, `pread` + CRC verify on
    /// fault-in. `None` (default) = simulated storage.
    pub backend_dir: Option<std::path::PathBuf>,
    /// Cuckoo filters front the element and ID indexes: probes for
    /// names/values that were never indexed answer "absent" without a
    /// B\*-tree descent (default on; see `PoolStats::filter_negatives`).
    pub index_filters: bool,
    /// Approximate per-filter capacity. Overflowing it degrades the
    /// filter to always-"maybe" (correct, just no longer filtering).
    pub filter_capacity: usize,
    /// Observability handle shared with the engine: page reads charge
    /// their simulated latency to its virtual clock; page events trace
    /// through it when tracing is enabled.
    pub obs: xtc_obs::Obs,
    /// Failpoint scope shared with the engine: storage fault sites
    /// evaluate in it so chaos can target one document of a catalog.
    pub failpoint_scope: xtc_failpoint::ScopeId,
}

impl Default for DocStoreConfig {
    fn default() -> Self {
        DocStoreConfig {
            page_size: 8192,
            dist: 16,
            read_latency: std::time::Duration::ZERO,
            write_latency: std::time::Duration::ZERO,
            miss_latency: std::time::Duration::ZERO,
            max_resident_pages: None,
            evict_policy: EvictPolicy::default(),
            burst_ticks: xtc_storage::DEFAULT_CORRELATED_TICKS,
            backend_dir: None,
            index_filters: true,
            filter_capacity: 16 * 1024,
            obs: xtc_obs::Obs::default(),
            failpoint_scope: xtc_failpoint::GLOBAL,
        }
    }
}

/// Where to place an inserted node relative to existing ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertPos {
    /// As the first child (after the attribute root, if any).
    FirstChild,
    /// As the last child.
    LastChild,
    /// Immediately before this sibling.
    Before(SplId),
    /// Immediately after this sibling.
    After(SplId),
}

/// Node-manager errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeError {
    /// The addressed node does not exist.
    NotFound(SplId),
    /// Operation requires an element node.
    NotElement(SplId),
    /// Operation requires a text or attribute node.
    NotTextual(SplId),
    /// A root element already exists.
    RootExists,
    /// `Before`/`After` target is not a child of the given parent.
    NotAChild(SplId),
    /// Underlying storage error.
    Storage(StorageError),
    /// Label allocation failed.
    Alloc(xtc_splid::AllocError),
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeError::NotFound(id) => write!(f, "node {id} not found"),
            NodeError::NotElement(id) => write!(f, "node {id} is not an element"),
            NodeError::NotTextual(id) => write!(f, "node {id} has no string content"),
            NodeError::RootExists => write!(f, "document already has a root element"),
            NodeError::NotAChild(id) => write!(f, "node {id} is not a child of the parent"),
            NodeError::Storage(e) => write!(f, "storage error: {e}"),
            NodeError::Alloc(e) => write!(f, "label allocation error: {e}"),
        }
    }
}

impl std::error::Error for NodeError {}

impl From<StorageError> for NodeError {
    fn from(e: StorageError) -> Self {
        NodeError::Storage(e)
    }
}

impl From<xtc_splid::AllocError> for NodeError {
    fn from(e: xtc_splid::AllocError) -> Self {
        NodeError::Alloc(e)
    }
}


/// Result of [`DocStore::plan_attribute`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrPlan {
    /// The attribute already exists; setting it is a content update.
    Existing(SplId),
    /// A new attribute node would be created.
    New {
        /// Label of the (possibly not yet existing) attribute root.
        attr_root: SplId,
        /// Whether the attribute root already exists.
        attr_root_exists: bool,
        /// Label the new attribute node would receive.
        label: SplId,
        /// The current last attribute, if any.
        last: Option<SplId>,
    },
}

/// One stored taDOM document: document B\*-tree, element index, ID index,
/// vocabulary, label allocator. Thread-safe (`&self` API); performs no
/// transactional locking itself.
pub struct DocStore {
    doc: BTree,
    /// `[voc 2B][encoded SPLID] -> ()` — the element index / node-reference
    /// indexes of Figure 6b, folded into one tree.
    elem_index: BTree,
    /// `id value bytes -> encoded SPLID` of the owning element.
    id_index: BTree,
    vocab: Arc<Vocabulary>,
    alloc: LabelAllocator,
    stats: StorageStats,
    /// Interned name of the ID attribute (`"id"`).
    id_attr: VocId,
    /// Negative-lookup cache over element *names* present in the element
    /// index (`None` = filtering disabled). Keyed by name surrogate;
    /// refcounted in `elem_name_counts` because many elements share one
    /// name but the filter holds one entry per name.
    elem_filter: Option<Mutex<CuckooFilter>>,
    /// Live element count per name surrogate (only kept while filtering).
    elem_name_counts: Mutex<std::collections::HashMap<u16, u64>>,
    /// Negative-lookup cache over ID values present in the ID index
    /// (`None` = filtering disabled). ID values are unique keys, so no
    /// refcounting is needed — inserts/deletes mirror the index exactly.
    id_filter: Option<Mutex<CuckooFilter>>,
}

impl DocStore {
    /// Creates an empty document store.
    pub fn new(config: DocStoreConfig) -> Self {
        let stats = StorageStats::with_obs_scoped(config.obs.clone(), config.failpoint_scope);
        let backend = |file: &str| match &config.backend_dir {
            Some(dir) => PageBackendConfig::File {
                path: dir.join(file),
            },
            None => PageBackendConfig::Sim,
        };
        let btcfg = |file: &str| BTreeConfig {
            page_size: config.page_size,
            read_latency: config.read_latency,
            write_latency: config.write_latency,
            miss_latency: config.miss_latency,
            max_resident: config.max_resident_pages,
            policy: config.evict_policy,
            backend: backend(file),
            burst_ticks: config.burst_ticks,
            ..BTreeConfig::default()
        };
        let vocab = Arc::new(Vocabulary::new());
        let id_attr = vocab.intern("id");
        let filter = || {
            config
                .index_filters
                .then(|| Mutex::new(CuckooFilter::with_capacity(config.filter_capacity)))
        };
        DocStore {
            doc: BTree::with_config(btcfg("doc.pages"), stats.clone()),
            elem_index: BTree::with_config(btcfg("elem.pages"), stats.clone()),
            id_index: BTree::with_config(btcfg("id.pages"), stats.clone()),
            vocab,
            alloc: LabelAllocator::new(config.dist),
            stats,
            id_attr,
            elem_filter: filter(),
            elem_name_counts: Mutex::new(std::collections::HashMap::new()),
            id_filter: filter(),
        }
    }

    /// Shared page-access statistics across document and indexes.
    pub fn stats(&self) -> &StorageStats {
        &self.stats
    }

    /// The vocabulary (shared with callers that pre-intern names).
    pub fn vocab(&self) -> &Arc<Vocabulary> {
        &self.vocab
    }

    /// The label allocator in use.
    pub fn allocator(&self) -> LabelAllocator {
        self.alloc
    }

    /// Total stored nodes (all five kinds).
    pub fn node_count(&self) -> usize {
        self.doc.len()
    }

    /// Occupancy report of the document tree (§3.1 claim).
    pub fn occupancy(&self) -> xtc_storage::OccupancyReport {
        self.doc.occupancy()
    }

    /// Streams every stored node in document order as `(encoded SPLID,
    /// record)` — the tree's own key, so a caller that wants the key bytes
    /// (the checkpoint snapshot) decodes and re-encodes nothing.
    pub fn for_each_node(&self, mut f: impl FnMut(&[u8], NodeData)) {
        self.doc.for_each_in_range(b"", &[0xFF; 160], |k, v| {
            f(k, NodeData::decode(v).expect("corrupt record"));
            true
        });
    }

    /// Every stored node in document order — the byte-identity witness of
    /// the undo property test and the crash tests.
    pub fn all_nodes(&self) -> Vec<(SplId, NodeData)> {
        let mut out = Vec::with_capacity(self.node_count());
        self.for_each_node(|k, data| out.push((xtc_splid::decode(k).expect("corrupt key"), data)));
        out
    }

    /// Cross-checks the element index and ID index against the document
    /// tree. Returns a list of human-readable inconsistencies (empty =
    /// consistent) — the post-recovery invariant the crash tests assert.
    pub fn verify_indexes(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let nodes = self.all_nodes();
        // Every element must have exactly its one index entry; collect the
        // expected set, then compare both directions.
        let mut expected: Vec<Vec<u8>> = Vec::new();
        for (id, data) in &nodes {
            if let NodeData::Element { name } = data {
                expected.push(index_key(*name, &encode(id)));
            }
        }
        expected.sort();
        let actual: Vec<Vec<u8>> = self
            .elem_index
            .scan_range(b"", &[0xFF; 160])
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        for k in &expected {
            if actual.binary_search(k).is_err() {
                problems.push(format!("element index missing entry {k:?}"));
            }
        }
        for k in &actual {
            if expected.binary_search(k).is_err() {
                problems.push(format!("element index has stale entry {k:?}"));
            }
        }
        // ID index: every entry must point at a live element that owns an
        // id attribute with that value, and every id attribute must be
        // indexed.
        for (val, enc) in self.id_index.scan_range(b"", &[0xFF; 160]) {
            let owner = match xtc_splid::decode(&enc) {
                Ok(o) => o,
                Err(_) => {
                    problems.push(format!("id index entry {val:?} has corrupt SPLID"));
                    continue;
                }
            };
            let val = String::from_utf8_lossy(&val).into_owned();
            if self.attribute_value(&owner, "id").as_deref() != Some(val.as_str()) {
                problems.push(format!("id index entry {val:?} does not match element"));
            }
        }
        for (id, data) in &nodes {
            if matches!(data, NodeData::Attribute { name } if *name == self.id_attr) {
                if let (Some(val), Some(owner)) =
                    (self.text_of(id), id.parent().and_then(|ar| ar.parent()))
                {
                    if self.element_by_id(&val) != Some(owner) {
                        problems.push(format!("id attribute {val:?} not indexed"));
                    }
                }
            }
        }
        problems
    }

    /// Flushes every dirty page whose covering log record is durable
    /// across the document tree and both indexes (the WAL-rule write-back
    /// a checkpoint performs). Returns how many pages were flushed.
    pub fn flush_all(&self, durable_lsn: u64) -> usize {
        self.doc.flush_dirty(durable_lsn)
            + self.elem_index.flush_dirty(durable_lsn)
            + self.id_index.flush_dirty(durable_lsn)
    }

    /// Aggregated buffer-manager snapshot across the document tree and
    /// both indexes.
    pub fn pool_stats(&self) -> xtc_storage::PoolStats {
        let d = self.doc.pool_stats();
        let e = self.elem_index.pool_stats();
        let i = self.id_index.pool_stats();
        xtc_storage::PoolStats {
            hits: d.hits, // counters are shared via StorageStats: equal on all three
            misses: d.misses,
            flushes: d.flushes,
            evictions: d.evictions,
            evict_blocked: d.evict_blocked,
            flush_faults: d.flush_faults,
            ghost_hits: d.ghost_hits,
            forced_writebacks: d.forced_writebacks,
            filter_negatives: d.filter_negatives,
            filter_probes: d.filter_probes,
            descents: d.descents,
            hint_hits: d.hint_hits,
            dirty: d.dirty + e.dirty + i.dirty,
            resident: d.resident + e.resident + i.resident,
            live: d.live + e.live + i.live,
        }
    }

    // ---- reads ----------------------------------------------------------

    /// Mutations begun so far on the document tree and both indexes
    /// together (`xtc_storage::BTree::version`). Each part only ever
    /// grows, so two equal results bracket a stretch in which none of the
    /// three trees changed: whatever was read in between would read the
    /// same again.
    pub fn doc_version(&self) -> u64 {
        self.doc.version() + self.elem_index.version() + self.id_index.version()
    }

    /// Fetches and decodes a node.
    pub fn get(&self, id: &SplId) -> Option<NodeData> {
        self.doc
            .get_with(&encode(id), |record| NodeData::decode(record).expect("corrupt node record"))
    }

    /// `true` if the node exists.
    pub fn exists(&self, id: &SplId) -> bool {
        self.doc.contains(&encode(id))
    }

    /// Resolves an element or attribute name.
    pub fn name_of(&self, id: &SplId) -> Option<String> {
        self.get(id)?.name().and_then(|v| self.vocab.resolve(v))
    }

    /// First child in document order (the attribute root, if present,
    /// sorts first).
    pub fn first_child(&self, id: &SplId) -> Option<SplId> {
        let cand = self.doc.next_after(&encode(id), decode_key)?;
        id.is_parent_of(&cand).then_some(cand)
    }

    /// Last child in document order.
    pub fn last_child(&self, id: &SplId) -> Option<SplId> {
        let cand = self.doc.prev_before(&subtree_upper_bound(id), decode_key)?;
        if !id.is_ancestor_of(&cand) {
            return None;
        }
        // The last stored descendant lies inside the last child's subtree.
        cand.ancestor_at_level(id.level() + 1)
    }

    /// Next sibling in document order.
    pub fn next_sibling(&self, id: &SplId) -> Option<SplId> {
        let cand = self.doc.next_after(&subtree_upper_bound(id), decode_key)?;
        id.is_sibling_of(&cand).then_some(cand)
    }

    /// Previous sibling in document order.
    pub fn prev_sibling(&self, id: &SplId) -> Option<SplId> {
        let parent = id.parent()?;
        let cand = self.doc.prev_before(&encode(id), decode_key)?;
        if cand == parent {
            return None;
        }
        // `cand` is the closest preceding node: either inside the previous
        // sibling's subtree or the previous sibling itself.
        let sib = cand.ancestor_at_level(id.level())?;
        sib.is_sibling_of(id).then_some(sib)
    }

    /// Parent node (label arithmetic; verified to exist).
    pub fn parent(&self, id: &SplId) -> Option<SplId> {
        let p = id.parent()?;
        self.exists(&p).then_some(p)
    }

    /// All direct children in document order (including the attribute
    /// root). This is the `getChildNodes` fan-out the taDOM level locks
    /// were invented for.
    pub fn children(&self, id: &SplId) -> Vec<SplId> {
        let mut out = Vec::new();
        let mut cur = self.first_child(id);
        while let Some(c) = cur {
            cur = self.next_sibling(&c);
            out.push(c);
        }
        out
    }

    /// Direct element children only.
    pub fn element_children(&self, id: &SplId) -> Vec<SplId> {
        self.children(id)
            .into_iter()
            .filter(|c| matches!(self.get(c), Some(NodeData::Element { .. })))
            .collect()
    }

    /// The attribute root of an element, if it has attributes.
    pub fn attribute_root(&self, elem: &SplId) -> Option<SplId> {
        let ar = elem.reserved_child();
        self.exists(&ar).then_some(ar)
    }

    /// `(attribute node, name)` pairs of an element.
    pub fn attributes(&self, elem: &SplId) -> Vec<(SplId, VocId)> {
        self.attribute_root(elem)
            .map_or_else(Vec::new, |ar| self.attributes_under(&ar))
    }

    /// `(attribute node, name)` pairs below the attribute root `ar` — for
    /// a caller that has resolved [`DocStore::attribute_root`] already.
    pub fn attributes_under(&self, ar: &SplId) -> Vec<(SplId, VocId)> {
        self.children(ar)
            .into_iter()
            .filter_map(|a| match self.get(&a) {
                Some(NodeData::Attribute { name }) => Some((a, name)),
                _ => None,
            })
            .collect()
    }

    /// The attribute node of `elem` with the given name.
    pub fn attribute_node(&self, elem: &SplId, name: &str) -> Option<SplId> {
        self.attribute_node_under(&self.attribute_root(elem)?, name)
    }

    /// The attribute node with the given name below the attribute root `ar`.
    pub fn attribute_node_under(&self, ar: &SplId, name: &str) -> Option<SplId> {
        let voc = self.vocab.lookup(name)?;
        self.attributes_under(ar)
            .into_iter()
            .find(|(_, n)| *n == voc)
            .map(|(a, _)| a)
    }

    /// The string value of an attribute of `elem`.
    pub fn attribute_value(&self, elem: &SplId, name: &str) -> Option<String> {
        let attr = self.attribute_node(elem, name)?;
        self.text_of(&attr)
    }

    /// The content of a text or attribute node (its string child).
    pub fn text_of(&self, node: &SplId) -> Option<String> {
        match self.get(&node.reserved_child())? {
            NodeData::String { value } => Some(String::from_utf8_lossy(&value).into_owned()),
            _ => None,
        }
    }

    /// Direct jump via the ID index (`getElementById`). When the ID
    /// filter is on, probes for values that were never indexed are
    /// answered "absent" without descending the B\*-tree (zero page
    /// reads).
    pub fn element_by_id(&self, id_value: &str) -> Option<SplId> {
        if let Some(filter) = &self.id_filter {
            self.stats.count_filter_probe();
            if !filter.lock().unwrap().contains(id_value.as_bytes()) {
                self.stats.count_filter_negative();
                self.stats.obs().record(xtc_obs::EventKind::FilterNegative {
                    key: fnv64(id_value.as_bytes()),
                });
                return None;
            }
        }
        let enc = self.id_index.get(id_value.as_bytes())?;
        Some(xtc_splid::decode(&enc).expect("corrupt id index"))
    }

    /// All elements with the given name, in document order (the element
    /// index / node-reference index of Figure 6b).
    pub fn elements_named(&self, name: &str) -> Vec<SplId> {
        let Some(voc) = self.vocab.lookup(name) else {
            return Vec::new();
        };
        // The name may be interned (e.g. by an attribute) without any
        // live *element* carrying it: the filter skips the index descent.
        if let Some(filter) = &self.elem_filter {
            self.stats.count_filter_probe();
            if !filter.lock().unwrap().contains(&voc.to_bytes()) {
                self.stats.count_filter_negative();
                self.stats.obs().record(xtc_obs::EventKind::FilterNegative {
                    key: u64::from(voc.0),
                });
                return Vec::new();
            }
        }
        let lo = voc.to_bytes().to_vec();
        // Exclusive upper bound: the next surrogate value (all index keys
        // are strictly longer than `lo`, so `lo` itself is safely
        // exclusive below).
        let hi = match voc.0.checked_add(1) {
            Some(n) => n.to_be_bytes().to_vec(),
            None => {
                let mut h = vec![0xFF, 0xFF];
                h.extend_from_slice(&[0xFF; 140]);
                h
            }
        };
        self.elem_index
            .scan_range(&lo, &hi)
            .into_iter()
            .map(|(k, _)| xtc_splid::decode(&k[2..]).expect("corrupt element index"))
            .collect()
    }

    /// The whole subtree rooted at `id` (inclusive), in document order.
    pub fn subtree(&self, id: &SplId) -> Vec<(SplId, NodeData)> {
        let mut out = Vec::new();
        if let Some(root) = self.get(id) {
            out.push((id.clone(), root));
        }
        for (k, v) in self.doc.scan_range(&encode(id), &subtree_upper_bound(id)) {
            out.push((
                xtc_splid::decode(&k).expect("corrupt key"),
                NodeData::decode(&v).expect("corrupt record"),
            ));
        }
        out
    }

    /// SPLIDs of every node in the subtree rooted at `id` (inclusive),
    /// in document order.
    pub fn subtree_ids(&self, id: &SplId) -> Vec<SplId> {
        let mut out = Vec::new();
        if self.exists(id) {
            out.push(id.clone());
        }
        self.doc
            .for_each_in_range(&encode(id), &subtree_upper_bound(id), |k, _| {
                out.push(xtc_splid::decode(k).expect("corrupt key"));
                true
            });
        out
    }

    /// Number of nodes in the subtree rooted at `id` (inclusive).
    pub fn subtree_size(&self, id: &SplId) -> usize {
        let mut n = usize::from(self.exists(id));
        self.doc
            .for_each_in_range(&encode(id), &subtree_upper_bound(id), |_, _| {
                n += 1;
                true
            });
        n
    }

    /// Elements inside the subtree (inclusive) that own an `id` attribute.
    ///
    /// This is the expensive location step the *-2PL group must perform
    /// before deleting a subtree (IDX locks, §5.3/CLUSTER2): it traverses
    /// the whole subtree via the node manager, paying page accesses per
    /// node.
    pub fn subtree_id_owners(&self, id: &SplId) -> Vec<SplId> {
        // Deliberately *navigational*: the paper's point is that these
        // "location steps have to be performed via the node manager and
        // may include accesses to disks" — every element visit pays the
        // node-manager lookups a navigating client would pay, instead of
        // one bulk range scan.
        let mut owners = Vec::new();
        let mut stack = vec![id.clone()];
        while let Some(n) = stack.pop() {
            if !matches!(self.get(&n), Some(NodeData::Element { .. })) {
                continue;
            }
            if self
                .attributes(&n)
                .iter()
                .any(|(_, name)| *name == self.id_attr)
            {
                owners.push(n.clone());
            }
            let mut kids = self.element_children(&n);
            kids.reverse();
            stack.extend(kids);
        }
        owners.sort();
        owners
    }

    // ---- writes ----------------------------------------------------------

    /// Creates the document root element. Fails if one exists.
    pub fn create_root(&self, name: &str) -> Result<SplId, NodeError> {
        let root = SplId::root();
        if self.exists(&root) {
            return Err(NodeError::RootExists);
        }
        let name = self.vocab.intern(name);
        self.put_node(&root, &NodeData::Element { name })?;
        Ok(root)
    }

    /// Inserts a new element under `parent`.
    pub fn insert_element(
        &self,
        parent: &SplId,
        pos: InsertPos,
        name: &str,
    ) -> Result<SplId, NodeError> {
        self.require_element(parent)?;
        let label = self.place(parent, pos)?;
        let name = self.vocab.intern(name);
        self.put_node(&label, &NodeData::Element { name })?;
        Ok(label)
    }

    /// Inserts a new text node (with its string child) under `parent`.
    pub fn insert_text(
        &self,
        parent: &SplId,
        pos: InsertPos,
        content: &str,
    ) -> Result<SplId, NodeError> {
        self.require_element(parent)?;
        let label = self.place(parent, pos)?;
        self.put_node(&label, &NodeData::Text)?;
        self.put_node(
            &label.reserved_child(),
            &NodeData::String {
                value: content.as_bytes().to_vec(),
            },
        )?;
        Ok(label)
    }

    /// Sets (creating or updating) an attribute of an element. Returns the
    /// attribute node and the previous value, if any.
    pub fn set_attribute(
        &self,
        elem: &SplId,
        name: &str,
        value: &str,
    ) -> Result<(SplId, Option<String>), NodeError> {
        self.require_element(elem)?;
        if let Some(attr) = self.attribute_node(elem, name) {
            let old = self.update_content(&attr, value)?;
            return Ok((attr, old));
        }
        let ar = elem.reserved_child();
        if !self.exists(&ar) {
            self.put_node(&ar, &NodeData::AttributeRoot)?;
        }
        let attr = match self.last_child(&ar) {
            Some(last) => self.alloc.next_sibling(&last)?,
            None => self.alloc.first_child(&ar),
        };
        let voc = self.vocab.intern(name);
        self.put_node(&attr, &NodeData::Attribute { name: voc })?;
        self.put_node(
            &attr.reserved_child(),
            &NodeData::String {
                value: value.as_bytes().to_vec(),
            },
        )?;
        if voc == self.id_attr {
            self.id_index_add(value.as_bytes(), &encode(elem))?;
        }
        Ok((attr, None))
    }

    /// Replaces the content (string child) of a text or attribute node;
    /// returns the previous content.
    pub fn update_content(&self, node: &SplId, content: &str) -> Result<Option<String>, NodeError> {
        let data = self.get(node).ok_or_else(|| NodeError::NotFound(node.clone()))?;
        let is_id_attr = matches!(&data, NodeData::Attribute { name } if *name == self.id_attr);
        if !matches!(data.kind(), NodeKind::Text | NodeKind::Attribute) {
            return Err(NodeError::NotTextual(node.clone()));
        }
        let sc = node.reserved_child();
        let old = self.doc.insert(
            &encode(&sc),
            &NodeData::String {
                value: content.as_bytes().to_vec(),
            }
            .encode(),
        )?;
        let old = old.map(|b| match NodeData::decode(&b).expect("corrupt record") {
            NodeData::String { value } => String::from_utf8_lossy(&value).into_owned(),
            _ => unreachable!("string child must be a string node"),
        });
        if is_id_attr {
            // Keep the ID index consistent under id-value updates.
            let owner = node.parent().and_then(|ar| ar.parent());
            if let (Some(owner), Some(old)) = (owner, &old) {
                self.id_index_del(old.as_bytes());
                self.id_index_add(content.as_bytes(), &encode(&owner))?;
            }
        }
        Ok(old)
    }

    /// Renames an element; returns the previous name surrogate.
    pub fn rename_element(&self, elem: &SplId, new_name: &str) -> Result<VocId, NodeError> {
        let data = self.get(elem).ok_or_else(|| NodeError::NotFound(elem.clone()))?;
        let NodeData::Element { name: old } = data else {
            return Err(NodeError::NotElement(elem.clone()));
        };
        let new = self.vocab.intern(new_name);
        self.doc
            .insert(&encode(elem), &NodeData::Element { name: new }.encode())?;
        let enc = encode(elem);
        self.elem_index_del(old, &enc);
        self.elem_index_add(new, &enc)?;
        Ok(old)
    }

    /// Deletes the subtree rooted at `id` (inclusive); returns the removed
    /// nodes for undo.
    pub fn delete_subtree(&self, id: &SplId) -> Result<Vec<(SplId, NodeData)>, NodeError> {
        let nodes = self.subtree(id);
        if nodes.is_empty() {
            return Err(NodeError::NotFound(id.clone()));
        }
        self.unindex(&nodes);
        self.doc.remove(&encode(id));
        self.doc
            .remove_range(&encode(id), &subtree_upper_bound(id));
        Ok(nodes)
    }

    /// Re-inserts previously deleted nodes with their original labels
    /// (undo of [`DocStore::delete_subtree`]).
    pub fn insert_raw(&self, nodes: &[(SplId, NodeData)]) -> Result<(), NodeError> {
        for (id, data) in nodes {
            self.doc.insert(&encode(id), &data.encode())?;
        }
        self.reindex(nodes);
        Ok(())
    }


    // ---- planning (for lock acquisition before mutation) ---------------

    /// Computes, without mutating anything, the label a node inserted at
    /// `pos` would receive together with its would-be left and right
    /// siblings. Deterministic: re-planning under unchanged neighbours
    /// yields the same label, so the transaction layer can lock first and
    /// verify the plan afterwards.
    pub fn plan_insert(
        &self,
        parent: &SplId,
        pos: &InsertPos,
    ) -> Result<(SplId, Option<SplId>, Option<SplId>), NodeError> {
        self.require_element(parent)?;
        let (left, right) = match pos {
            InsertPos::FirstChild => {
                let left = self.attribute_root(parent);
                let right = match &left {
                    Some(ar) => self.next_sibling(ar),
                    None => self.first_child(parent),
                };
                (left, right)
            }
            InsertPos::LastChild => (self.last_child(parent), None),
            InsertPos::Before(sib) => {
                if sib.parent().as_ref() != Some(parent) || !self.exists(sib) {
                    return Err(NodeError::NotAChild(sib.clone()));
                }
                (self.prev_sibling(sib), Some(sib.clone()))
            }
            InsertPos::After(sib) => {
                if sib.parent().as_ref() != Some(parent) || !self.exists(sib) {
                    return Err(NodeError::NotAChild(sib.clone()));
                }
                (Some(sib.clone()), self.next_sibling(sib))
            }
        };
        let label = match (&left, &right) {
            (None, None) => self.alloc.first_child(parent),
            (l, r) => self.alloc.between(l.as_ref(), r.as_ref())?,
        };
        Ok((label, left, right))
    }

    /// How setting an attribute would change the tree (for locking).
    pub fn plan_attribute(&self, elem: &SplId, name: &str) -> Result<AttrPlan, NodeError> {
        self.require_element(elem)?;
        if let Some(attr) = self.attribute_node(elem, name) {
            return Ok(AttrPlan::Existing(attr));
        }
        let attr_root = elem.reserved_child();
        let attr_root_exists = self.exists(&attr_root);
        let last = if attr_root_exists {
            self.last_child(&attr_root)
        } else {
            None
        };
        let label = match &last {
            Some(l) => self.alloc.next_sibling(l)?,
            None => self.alloc.first_child(&attr_root),
        };
        Ok(AttrPlan::New {
            attr_root,
            attr_root_exists,
            label,
            last,
        })
    }

    // ---- internals --------------------------------------------------------

    /// Inserts an element-index entry and keeps the name filter coherent:
    /// the first live element of a name enters the filter; duplicates
    /// only bump the refcount.
    fn elem_index_add(&self, name: VocId, enc: &[u8]) -> Result<(), StorageError> {
        if self.elem_index.insert(&index_key(name, enc), &[])?.is_none() {
            if let Some(filter) = &self.elem_filter {
                let mut counts = self.elem_name_counts.lock().unwrap();
                let n = counts.entry(name.0).or_insert(0);
                if *n == 0 {
                    filter.lock().unwrap().insert(&name.to_bytes());
                }
                *n += 1;
            }
        }
        Ok(())
    }

    /// Removes an element-index entry; the last live element of a name
    /// leaves the filter.
    fn elem_index_del(&self, name: VocId, enc: &[u8]) {
        if self.elem_index.remove(&index_key(name, enc)).is_some() {
            if let Some(filter) = &self.elem_filter {
                let mut counts = self.elem_name_counts.lock().unwrap();
                if let Some(n) = counts.get_mut(&name.0) {
                    *n = n.saturating_sub(1);
                    if *n == 0 {
                        counts.remove(&name.0);
                        filter.lock().unwrap().delete(&name.to_bytes());
                    }
                }
            }
        }
    }

    /// Inserts an ID-index entry, mirroring *new* keys into the filter
    /// (an overwrite changes the owner, not the key set).
    fn id_index_add(&self, value: &[u8], enc: &[u8]) -> Result<(), StorageError> {
        if self.id_index.insert(value, enc)?.is_none() {
            if let Some(filter) = &self.id_filter {
                filter.lock().unwrap().insert(value);
            }
        }
        Ok(())
    }

    /// Removes an ID-index entry, mirroring actual removals into the
    /// filter (deleting a never-inserted key could evict an unrelated
    /// fingerprint).
    fn id_index_del(&self, value: &[u8]) {
        if self.id_index.remove(value).is_some() {
            if let Some(filter) = &self.id_filter {
                filter.lock().unwrap().delete(value);
            }
        }
    }

    fn require_element(&self, id: &SplId) -> Result<(), NodeError> {
        match self.get(id) {
            Some(NodeData::Element { .. }) => Ok(()),
            Some(_) => Err(NodeError::NotElement(id.clone())),
            None => Err(NodeError::NotFound(id.clone())),
        }
    }

    /// Computes the label for a child inserted at `pos` under `parent`.
    fn place(&self, parent: &SplId, pos: InsertPos) -> Result<SplId, NodeError> {
        let label = match pos {
            InsertPos::FirstChild => {
                // Skip the attribute root: attributes always sort first.
                let left = self.attribute_root(parent);
                let right = match &left {
                    Some(ar) => self.next_sibling(ar),
                    None => self.first_child(parent),
                };
                match (left, right) {
                    (None, None) => self.alloc.first_child(parent),
                    (l, r) => self.alloc.between(l.as_ref(), r.as_ref())?,
                }
            }
            InsertPos::LastChild => match self.last_child(parent) {
                Some(last) => self.alloc.next_sibling(&last)?,
                None => self.alloc.first_child(parent),
            },
            InsertPos::Before(sib) => {
                if sib.parent().as_ref() != Some(parent) || !self.exists(&sib) {
                    return Err(NodeError::NotAChild(sib));
                }
                let left = self.prev_sibling(&sib);
                self.alloc.between(left.as_ref(), Some(&sib))?
            }
            InsertPos::After(sib) => {
                if sib.parent().as_ref() != Some(parent) || !self.exists(&sib) {
                    return Err(NodeError::NotAChild(sib));
                }
                let right = self.next_sibling(&sib);
                self.alloc.between(Some(&sib), right.as_ref())?
            }
        };
        Ok(label)
    }

    fn put_node(&self, id: &SplId, data: &NodeData) -> Result<(), NodeError> {
        self.doc.insert(&encode(id), &data.encode())?;
        if let NodeData::Element { name } = data {
            self.elem_index_add(*name, &encode(id))?;
        }
        Ok(())
    }

    /// Removes index entries for a deleted node set.
    fn unindex(&self, nodes: &[(SplId, NodeData)]) {
        for (id, data) in nodes {
            match data {
                NodeData::Element { name } => {
                    self.elem_index_del(*name, &encode(id));
                }
                NodeData::Attribute { name } if *name == self.id_attr => {
                    if let Some(val) = self.value_within(nodes, id) {
                        self.id_index_del(val.as_bytes());
                    }
                }
                _ => {}
            }
        }
    }

    /// Re-adds index entries for a restored node set.
    fn reindex(&self, nodes: &[(SplId, NodeData)]) {
        for (id, data) in nodes {
            match data {
                NodeData::Element { name } => {
                    let _ = self.elem_index_add(*name, &encode(id));
                }
                NodeData::Attribute { name } if *name == self.id_attr => {
                    if let (Some(val), Some(owner)) = (
                        self.value_within(nodes, id),
                        id.parent().and_then(|ar| ar.parent()),
                    ) {
                        let _ = self.id_index_add(val.as_bytes(), &encode(&owner));
                    }
                }
                _ => {}
            }
        }
    }

    /// Finds the string-child value of `node` inside an in-memory node set.
    fn value_within(&self, nodes: &[(SplId, NodeData)], node: &SplId) -> Option<String> {
        let sc = node.reserved_child();
        nodes.iter().find_map(|(id, data)| match data {
            NodeData::String { value } if *id == sc => {
                Some(String::from_utf8_lossy(value).into_owned())
            }
            _ => None,
        })
    }
}

/// FNV-1a over key bytes — stable tag for `FilterNegative` trace events.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01B3);
    }
    h
}

/// What a navigation step takes from the entry it lands on: the label.
fn decode_key(key: &[u8], _record: &[u8]) -> SplId {
    xtc_splid::decode(key).expect("corrupt key")
}

fn index_key(name: VocId, encoded_splid: &[u8]) -> Vec<u8> {
    let mut k = Vec::with_capacity(2 + encoded_splid.len());
    k.extend_from_slice(&name.to_bytes());
    k.extend_from_slice(encoded_splid);
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> DocStore {
        DocStore::new(DocStoreConfig::default())
    }

    /// Builds a small bib-like document and returns (store, book id).
    fn sample() -> (DocStore, SplId) {
        let s = store();
        let bib = s.create_root("bib").unwrap();
        let topics = s.insert_element(&bib, InsertPos::LastChild, "topics").unwrap();
        let topic = s.insert_element(&topics, InsertPos::LastChild, "topic").unwrap();
        s.set_attribute(&topic, "id", "t0").unwrap();
        let book = s.insert_element(&topic, InsertPos::LastChild, "book").unwrap();
        s.set_attribute(&book, "id", "b0").unwrap();
        s.set_attribute(&book, "year", "2006").unwrap();
        let title = s.insert_element(&book, InsertPos::LastChild, "title").unwrap();
        s.insert_text(&title, InsertPos::LastChild, "Transaction Processing").unwrap();
        let author = s.insert_element(&book, InsertPos::LastChild, "author").unwrap();
        s.insert_text(&author, InsertPos::LastChild, "Gray").unwrap();
        (s, book)
    }

    #[test]
    fn create_root_once() {
        let s = store();
        let r = s.create_root("bib").unwrap();
        assert!(r.is_root());
        assert_eq!(s.name_of(&r).as_deref(), Some("bib"));
        assert_eq!(s.create_root("other"), Err(NodeError::RootExists));
    }

    #[test]
    fn navigation_matches_structure() {
        let (s, book) = sample();
        let kids = s.element_children(&book);
        assert_eq!(kids.len(), 2);
        assert_eq!(s.name_of(&kids[0]).as_deref(), Some("title"));
        assert_eq!(s.name_of(&kids[1]).as_deref(), Some("author"));
        assert_eq!(s.next_sibling(&kids[0]), Some(kids[1].clone()));
        assert_eq!(s.prev_sibling(&kids[1]), Some(kids[0].clone()));
        assert_eq!(s.prev_sibling(&kids[0]).map(|p| s.get(&p).unwrap().kind()),
            Some(NodeKind::AttributeRoot), "attribute root precedes elements");
        assert_eq!(s.parent(&kids[0]), Some(book.clone()));
        // first_child of book is the attribute root; last child is author.
        assert_eq!(
            s.get(&s.first_child(&book).unwrap()).unwrap().kind(),
            NodeKind::AttributeRoot
        );
        assert_eq!(s.last_child(&book), Some(kids[1].clone()));
    }

    #[test]
    fn attributes_and_id_jump() {
        let (s, book) = sample();
        assert_eq!(s.attribute_value(&book, "year").as_deref(), Some("2006"));
        assert_eq!(s.attribute_value(&book, "missing"), None);
        assert_eq!(s.element_by_id("b0"), Some(book.clone()));
        assert_eq!(s.element_by_id("zzz"), None);
        assert_eq!(s.attributes(&book).len(), 2);
    }

    #[test]
    fn element_index_lists_in_document_order() {
        let (s, book) = sample();
        assert_eq!(s.elements_named("book"), vec![book.clone()]);
        assert_eq!(s.elements_named("title").len(), 1);
        assert_eq!(s.elements_named("nope"), Vec::<SplId>::new());
        let all_elems = s.elements_named("topic");
        assert_eq!(all_elems.len(), 1);
    }

    #[test]
    fn text_content_update() {
        let (s, book) = sample();
        let title = s.element_children(&book)[0].clone();
        let text = s
            .children(&title)
            .into_iter()
            .find(|c| matches!(s.get(c), Some(NodeData::Text)))
            .unwrap();
        assert_eq!(s.text_of(&text).as_deref(), Some("Transaction Processing"));
        let old = s.update_content(&text, "TP: Concepts").unwrap();
        assert_eq!(old.as_deref(), Some("Transaction Processing"));
        assert_eq!(s.text_of(&text).as_deref(), Some("TP: Concepts"));
        // Updating a non-textual node fails.
        assert!(matches!(
            s.update_content(&book, "x"),
            Err(NodeError::NotTextual(_))
        ));
    }

    #[test]
    fn rename_updates_element_index() {
        let (s, book) = sample();
        let topic = s.parent(&book).unwrap();
        s.rename_element(&topic, "subject").unwrap();
        assert_eq!(s.name_of(&topic).as_deref(), Some("subject"));
        assert!(s.elements_named("topic").is_empty());
        assert_eq!(s.elements_named("subject"), vec![topic]);
    }

    #[test]
    fn delete_subtree_and_undo() {
        let (s, book) = sample();
        let before = s.node_count();
        let removed = s.delete_subtree(&book).unwrap();
        assert!(removed.len() >= 10, "book subtree has many nodes");
        assert!(!s.exists(&book));
        assert_eq!(s.element_by_id("b0"), None, "id index entry removed");
        assert!(s.elements_named("book").is_empty());
        assert_eq!(s.node_count(), before - removed.len());
        // Undo restores everything, including indexes.
        s.insert_raw(&removed).unwrap();
        assert_eq!(s.node_count(), before);
        assert_eq!(s.element_by_id("b0"), Some(book.clone()));
        assert_eq!(s.elements_named("book"), vec![book]);
    }

    #[test]
    fn subtree_id_owners_finds_nested_ids() {
        let (s, book) = sample();
        let topics = s.elements_named("topics")[0].clone();
        let owners = s.subtree_id_owners(&topics);
        assert_eq!(owners.len(), 2, "topic and book own id attributes");
        assert!(owners.contains(&book));
    }

    #[test]
    fn insert_positions() {
        let s = store();
        let root = s.create_root("r").unwrap();
        let b = s.insert_element(&root, InsertPos::LastChild, "b").unwrap();
        let a = s.insert_element(&root, InsertPos::FirstChild, "a").unwrap();
        let d = s.insert_element(&root, InsertPos::LastChild, "d").unwrap();
        let c = s
            .insert_element(&root, InsertPos::Before(d.clone()), "c")
            .unwrap();
        let e = s
            .insert_element(&root, InsertPos::After(d.clone()), "e")
            .unwrap();
        let names: Vec<_> = s
            .element_children(&root)
            .iter()
            .map(|c| s.name_of(c).unwrap())
            .collect();
        assert_eq!(names, ["a", "b", "c", "d", "e"]);
        assert!(a < b && b < c && c < d && d < e);
        // Before/After with a non-child is rejected.
        let err = s.insert_element(&a, InsertPos::Before(d), "x");
        assert!(matches!(err, Err(NodeError::NotAChild(_))));
    }

    #[test]
    fn first_child_insert_respects_attribute_root() {
        let s = store();
        let root = s.create_root("r").unwrap();
        s.set_attribute(&root, "id", "r1").unwrap();
        let x = s.insert_element(&root, InsertPos::FirstChild, "x").unwrap();
        // Attribute root still sorts first.
        let kids = s.children(&root);
        assert_eq!(s.get(&kids[0]).unwrap().kind(), NodeKind::AttributeRoot);
        assert_eq!(kids[1], x);
    }

    #[test]
    fn id_attribute_value_update_moves_index_entry() {
        let (s, book) = sample();
        let attr = s.attribute_node(&book, "id").unwrap();
        s.update_content(&attr, "b99").unwrap();
        assert_eq!(s.element_by_id("b0"), None);
        assert_eq!(s.element_by_id("b99"), Some(book));
    }

    #[test]
    fn absent_index_probes_cost_zero_page_reads_with_filters_on() {
        let (s, book) = sample();
        // Force the names/values into the vocabulary so the probes reach
        // the filter (an unknown name short-circuits at the vocabulary).
        s.vocab().intern("phantom");
        let reads_before = s.stats().page_reads();
        assert!(s.elements_named("phantom").is_empty());
        assert_eq!(s.element_by_id("no-such-id"), None);
        assert_eq!(
            s.stats().page_reads(),
            reads_before,
            "absent probes must skip the B*-tree descent entirely"
        );
        assert_eq!(s.stats().filter_probes(), 2);
        assert_eq!(s.stats().filter_negatives(), 2);
        // Present probes pass the filter and still find their targets.
        assert_eq!(s.elements_named("book"), vec![book.clone()]);
        assert_eq!(s.element_by_id("b0"), Some(book));
        assert_eq!(s.stats().filter_probes(), 4);
        assert_eq!(s.stats().filter_negatives(), 2);
    }

    #[test]
    fn filters_stay_coherent_under_rename_delete_churn() {
        let s = store();
        let root = s.create_root("r").unwrap();
        for i in 0..50 {
            let e = s.insert_element(&root, InsertPos::LastChild, "old").unwrap();
            s.set_attribute(&e, "id", &format!("k{i}")).unwrap();
        }
        // Rename every element: "old" must become filter-absent (last
        // refcount dropped), "new" filter-present.
        for e in s.elements_named("old") {
            s.rename_element(&e, "new").unwrap();
        }
        let reads = s.stats().page_reads();
        assert!(s.elements_named("old").is_empty());
        assert_eq!(s.stats().page_reads(), reads, "renamed-away name filtered");
        assert_eq!(s.elements_named("new").len(), 50);
        // Delete every subtree: ids drain from filter and index alike.
        for e in s.elements_named("new") {
            s.delete_subtree(&e).unwrap();
        }
        let reads = s.stats().page_reads();
        assert_eq!(s.element_by_id("k7"), None);
        assert!(s.elements_named("new").is_empty());
        assert_eq!(s.stats().page_reads(), reads, "deleted keys filtered");
        assert!(s.verify_indexes().is_empty());
    }

    #[test]
    fn filters_off_is_equivalent_just_slower() {
        let on = sample().0;
        let off = {
            let s = DocStore::new(DocStoreConfig {
                index_filters: false,
                ..DocStoreConfig::default()
            });
            let bib = s.create_root("bib").unwrap();
            let topics = s.insert_element(&bib, InsertPos::LastChild, "topics").unwrap();
            let topic = s.insert_element(&topics, InsertPos::LastChild, "topic").unwrap();
            s.set_attribute(&topic, "id", "t0").unwrap();
            let book = s.insert_element(&topic, InsertPos::LastChild, "book").unwrap();
            s.set_attribute(&book, "id", "b0").unwrap();
            s.set_attribute(&book, "year", "2006").unwrap();
            let title = s.insert_element(&book, InsertPos::LastChild, "title").unwrap();
            s.insert_text(&title, InsertPos::LastChild, "Transaction Processing").unwrap();
            let author = s.insert_element(&book, InsertPos::LastChild, "author").unwrap();
            s.insert_text(&author, InsertPos::LastChild, "Gray").unwrap();
            s
        };
        off.vocab().intern("phantom");
        on.vocab().intern("phantom");
        for name in ["bib", "book", "title", "phantom"] {
            assert_eq!(on.elements_named(name), off.elements_named(name));
        }
        for id in ["t0", "b0", "nope"] {
            assert_eq!(on.element_by_id(id), off.element_by_id(id));
        }
        assert_eq!(off.stats().filter_probes(), 0, "filters off: no probes");
        assert!(on.stats().filter_probes() > 0);
    }

    #[test]
    fn occupancy_matches_paper_claim_after_document_order_build() {
        // §3.1: "a very high degree of storage occupancy (> 96%) for DOM
        // trees is achieved" — document-order loading with B*-tree
        // append-splits.
        let s = store();
        let root = s.create_root("r").unwrap();
        for i in 0..2000 {
            let e = s.insert_element(&root, InsertPos::LastChild, "item").unwrap();
            s.set_attribute(&e, "id", &format!("i{i}")).unwrap();
            s.insert_text(&e, InsertPos::LastChild, "some text content here")
                .unwrap();
        }
        let rep = s.occupancy();
        assert!(rep.occupancy() > 0.9, "occupancy {:.3}", rep.occupancy());
    }
}
