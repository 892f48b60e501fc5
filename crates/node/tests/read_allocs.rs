//! A navigation read allocates its probe key and nothing else: the leaf
//! search compares cells in place, neighbour keys are decoded into a stack
//! buffer, the record is decoded where it lies on the page, and labels of
//! up to 14 divisions live in the `SplId` itself. (The parent commit made
//! four allocations per step. The probe key — `encode(id)` /
//! `subtree_upper_bound(id)` — is the one left; a stack key for it is
//! written and withheld, see ROADMAP item 8.) Counted with a
//! `#[global_allocator]` that tallies per thread, on a resident bib-shaped
//! document.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xtc_node::{DocStore, DocStoreConfig, InsertPos, NodeData};
use xtc_splid::SplId;

struct Counting;

thread_local! {
    /// Allocations made by this thread (const-initialised, no destructor:
    /// touching it from inside the allocator allocates nothing).
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations this thread makes while `f` runs.
fn allocs<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// The paper's bib shape (Figure 5) at a size that spreads over a few
/// dozen leaves of 1 KB: topics → topic[id] → book[id, year] → title,
/// author, price, chapters → chapter → title, summary.
fn bib() -> DocStore {
    let s = DocStore::new(DocStoreConfig {
        page_size: 1024,
        ..DocStoreConfig::default()
    });
    let element = |parent: &SplId, name: &str| s.insert_element(parent, InsertPos::LastChild, name).unwrap();
    let leaf = |parent: &SplId, name: &str, text: &str| {
        s.insert_text(&element(parent, name), InsertPos::LastChild, text).unwrap();
    };
    let root = s.create_root("bib").unwrap();
    let topics = element(&root, "topics");
    for t in 0..4 {
        let topic = element(&topics, "topic");
        s.set_attribute(&topic, "id", &format!("t{t}")).unwrap();
        for b in 0..12 {
            let book = element(&topic, "book");
            s.set_attribute(&book, "id", &format!("b{t}-{b}")).unwrap();
            s.set_attribute(&book, "year", "2006").unwrap();
            leaf(&book, "title", "Transaction Processing");
            leaf(&book, "author", "Gray");
            leaf(&book, "price", "49.95");
            let chapters = element(&book, "chapters");
            for c in 0..3 {
                let chapter = element(&chapters, "chapter");
                leaf(&chapter, "title", &format!("Chapter {c}"));
                leaf(&chapter, "summary", "What this chapter is about.");
            }
        }
    }
    s
}

#[test]
fn a_navigation_read_allocates_only_its_probe_key() {
    let s = bib();
    // Collected up front: the walk itself must not be what is counted.
    let nodes = s.all_nodes();
    let leaves = s.occupancy().leaf_pages;
    assert!(nodes.len() > 1500 && leaves > 10, "{} nodes on {leaves} leaves", nodes.len());
    let mut kinds = [0usize; 5];
    for (id, data) in &nodes {
        let (found, n) = allocs(|| s.exists(id));
        assert!(found);
        assert_eq!(n, 1, "exists({id})");
        let (got, n) = allocs(|| s.get(id));
        assert_eq!(got.as_ref(), Some(data));
        let (kind, value) = match data {
            NodeData::Element { .. } => (0, 0),
            NodeData::AttributeRoot => (1, 0),
            NodeData::Attribute { .. } => (2, 0),
            NodeData::Text => (3, 0),
            // Its value is the one thing a read has to own.
            NodeData::String { .. } => (4, 1),
        };
        kinds[kind] += 1;
        assert_eq!(n, 1 + value, "get({id}) of {data:?}");
        drop(got);
        for (step, name) in [
            (DocStore::first_child as fn(&DocStore, &SplId) -> Option<SplId>, "first_child"),
            (DocStore::last_child, "last_child"),
            (DocStore::next_sibling, "next_sibling"),
            (DocStore::prev_sibling, "prev_sibling"),
        ] {
            let (to, n) = allocs(|| step(&s, id));
            // The root has no parent to be a sibling under: no probe either.
            let probes = usize::from(!(id.is_root() && name == "prev_sibling"));
            assert_eq!(n, probes, "{name}({id}) -> {to:?}");
        }
    }
    assert!(kinds.iter().all(|&k| k > 0), "a node kind is missing: {kinds:?}");
    // A label that is not stored, between two that are.
    let absent = SplId::parse("1.3.3.4.3").unwrap();
    assert_eq!(allocs(|| s.exists(&absent)), (false, 1));
    assert_eq!(allocs(|| s.get(&absent)), (None, 1));
    assert_eq!(allocs(|| s.next_sibling(&absent).is_some()).1, 1);
}
