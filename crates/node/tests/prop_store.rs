//! Property test: the B\*-tree-backed node manager behaves like a plain
//! in-memory DOM model under arbitrary operation sequences.
//!
//! Driven by a hand-rolled deterministic generator rather than
//! `proptest!`, so the cases run — and reproduce by case number — in
//! every build, the offline one included (its proptest stand-in expands
//! `proptest!` to nothing).

use std::collections::BTreeMap;
use xtc_node::{DocStore, DocStoreConfig, InsertPos, NodeData};
use xtc_splid::SplId;

/// The reference model: a simple ordered tree of elements with text and
/// attributes.
#[derive(Debug, Clone, Default)]
struct Model {
    /// element → ordered element children
    children: BTreeMap<String, Vec<String>>,
    /// element → name
    names: BTreeMap<String, String>,
    /// element → ordered text contents (direct text children)
    texts: BTreeMap<String, Vec<String>>,
    /// element → attributes
    attrs: BTreeMap<String, BTreeMap<String, String>>,
}

#[derive(Debug, Clone)]
enum Op {
    InsertElement(u8, u8),
    InsertTextNode(u8, String),
    SetAttribute(u8, u8, String),
    Rename(u8, u8),
    Delete(u8),
}

const NAMES: [&str; 5] = ["n0", "n1", "n2", "n3", "n4"];

/// xorshift64*: deterministic op generator.
struct Rng(u64);

impl Rng {
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

    /// `[a-z]{min,max}`.
    fn word(&mut self, min: u64, max: u64) -> String {
        let len = min + self.below(max - min + 1);
        (0..len).map(|_| (b'a' + self.below(26) as u8) as char).collect()
    }

    /// 1 to 59 operations: inserts of elements, texts and attributes
    /// three, two and two times as likely as a rename or a delete.
    fn ops(&mut self) -> Vec<Op> {
        (0..1 + self.below(59))
            .map(|_| {
                let (t, n) = (self.below(32) as u8, self.below(5) as u8);
                match self.below(9) {
                    0..=2 => Op::InsertElement(t, n),
                    3 | 4 => Op::InsertTextNode(t, self.word(0, 6)),
                    5 | 6 => Op::SetAttribute(t, n, self.word(1, 5)),
                    7 => Op::Rename(t, n),
                    _ => Op::Delete(t),
                }
            })
            .collect()
    }
}

#[test]
fn store_matches_model() {
    for case in 0..96u64 {
        let ops = Rng(0x9E37_79B9_7F4A_7C15 ^ case.wrapping_mul(0x0101_0101)).ops();
        let store = DocStore::new(DocStoreConfig { page_size: 1024, ..DocStoreConfig::default() });
        let root = store.create_root("root").unwrap();
        let mut model = Model::default();
        let rid = root.to_string();
        model.names.insert(rid.clone(), "root".into());
        model.children.insert(rid.clone(), vec![]);
        model.texts.insert(rid.clone(), vec![]);
        model.attrs.insert(rid, BTreeMap::new());
        let mut live: Vec<SplId> = vec![root];

        for op in ops {
            match op {
                Op::InsertElement(t, n) => {
                    let parent = live[t as usize % live.len()].clone();
                    let e = store
                        .insert_element(&parent, InsertPos::LastChild, NAMES[n as usize])
                        .unwrap();
                    let id = e.to_string();
                    model.children.get_mut(&parent.to_string()).unwrap().push(id.clone());
                    model.names.insert(id.clone(), NAMES[n as usize].into());
                    model.children.insert(id.clone(), vec![]);
                    model.texts.insert(id.clone(), vec![]);
                    model.attrs.insert(id, BTreeMap::new());
                    live.push(e);
                }
                Op::InsertTextNode(t, s) => {
                    let parent = live[t as usize % live.len()].clone();
                    store.insert_text(&parent, InsertPos::LastChild, &s).unwrap();
                    model.texts.get_mut(&parent.to_string()).unwrap().push(s);
                }
                Op::SetAttribute(t, n, v) => {
                    let elem = live[t as usize % live.len()].clone();
                    store.set_attribute(&elem, NAMES[n as usize], &v).unwrap();
                    model
                        .attrs
                        .get_mut(&elem.to_string())
                        .unwrap()
                        .insert(NAMES[n as usize].into(), v);
                }
                Op::Rename(t, n) => {
                    let elem = live[t as usize % live.len()].clone();
                    if elem.is_root() {
                        continue;
                    }
                    store.rename_element(&elem, NAMES[n as usize]).unwrap();
                    model.names.insert(elem.to_string(), NAMES[n as usize].into());
                }
                Op::Delete(t) => {
                    let elem = live[t as usize % live.len()].clone();
                    if elem.is_root() {
                        continue;
                    }
                    store.delete_subtree(&elem).unwrap();
                    // Remove from the model recursively.
                    let doomed: Vec<SplId> = live
                        .iter()
                        .filter(|x| **x == elem || elem.is_ancestor_of(x))
                        .cloned()
                        .collect();
                    for d in &doomed {
                        let id = d.to_string();
                        model.names.remove(&id);
                        model.children.remove(&id);
                        model.texts.remove(&id);
                        model.attrs.remove(&id);
                    }
                    if let Some(parent) = elem.parent() {
                        if let Some(kids) = model.children.get_mut(&parent.to_string()) {
                            kids.retain(|k| *k != elem.to_string());
                        }
                    }
                    live.retain(|x| !(elem == *x || elem.is_ancestor_of(x)));
                }
            }
        }

        // Full structural comparison.
        for e in &live {
            let id = e.to_string();
            let got_name = store.name_of(e);
            assert_eq!(
                got_name.as_deref(),
                model.names.get(&id).map(|s| s.as_str()),
                "case {case}: name of {id}"
            );
            let got_children: Vec<String> = store
                .element_children(e)
                .iter()
                .map(|c| c.to_string())
                .collect();
            assert_eq!(&got_children, model.children.get(&id).unwrap(), "case {case}: children of {id}");
            // The same level walked backwards.
            let mut backwards = Vec::new();
            let mut cur = store.last_child(e);
            while let Some(c) = cur {
                cur = store.prev_sibling(&c);
                backwards.push(c);
            }
            backwards.reverse();
            assert_eq!(backwards, store.children(e), "case {case}: children of {id}, last to first");
            let got_texts: Vec<String> = store
                .children(e)
                .into_iter()
                .filter(|c| matches!(store.get(c), Some(NodeData::Text)))
                .map(|c| store.text_of(&c).unwrap())
                .collect();
            assert_eq!(&got_texts, model.texts.get(&id).unwrap(), "case {case}: texts of {id}");
            let got_attrs: BTreeMap<String, String> = store
                .attributes(e)
                .into_iter()
                .map(|(a, voc)| {
                    (
                        store.vocab().resolve(voc).unwrap(),
                        store.text_of(&a).unwrap(),
                    )
                })
                .collect();
            assert_eq!(&got_attrs, model.attrs.get(&id).unwrap(), "case {case}: attrs of {id}");
        }
        // Node count sanity: elements + attr roots + attrs + texts + strings.
        let elems = model.names.len();
        let attrs: usize = model.attrs.values().map(|a| a.len()).sum();
        let attr_roots = model.attrs.values().filter(|a| !a.is_empty()).count();
        let texts: usize = model.texts.values().map(|t| t.len()).sum();
        assert_eq!(store.node_count(), elems + attr_roots + 2 * attrs + 2 * texts, "case {case}");
    }
}
