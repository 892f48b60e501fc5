//! The layer ladder: each layer's public functions timed alone, single
//! thread, on the paper-size document (or a fresh `BTree`, `LockTable`,
//! `Wal`). Every rung is the median over at least eleven batches, with
//! the quartiles kept for the report. The labels, keys and IDs are the
//! bib document's own, so the codec and the trees see the shapes the
//! workloads give them.

use crate::spec::CONTESTANTS;
use crate::stats::{median, quartiles};
use crate::workload::{idle_server, mem_db, Sizes};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xtc_core::wal::{RecordBody, RedoOp, Wal, WalConfig, WalStorage};
use xtc_core::{InsertPos, SplId};
use xtc_lock::{Acquired, LockClass, LockName, LockTable, LockTarget, TxnRegistry};
use xtc_node::{DocStore, DocStoreConfig};
use xtc_server::Client;
use xtc_storage::{BTree, BTreeConfig, PageBackendConfig, StorageStats};
use xtc_tamix::txns::{run_txn, Pacing, TxnKind};
use xtc_tamix::BibConfig;

const BATCHES: usize = 11;

/// One rung: per-operation cost in the rung's unit.
#[derive(Debug, Clone)]
pub struct Rung {
    pub name: String,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub batches: usize,
}

#[derive(Debug, Default)]
pub struct Ladder {
    pub rungs: Vec<Rung>,
    /// Logical page reads one `BTree::get` made on the ladder's tree —
    /// converts the run counter `page_reads` into gets for `model.*`.
    pub pages_per_get: f64,
}

impl Ladder {
    pub fn get(&self, name: &str) -> f64 {
        self.rungs
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median)
            .unwrap_or_else(|| panic!("ladder has no rung {name}"))
    }

    fn push(&mut self, name: impl Into<String>, per_op: Vec<f64>) {
        let (q1, q3) = quartiles(&per_op).unwrap_or((per_op[0], per_op[0]));
        self.rungs.push(Rung {
            name: name.into(),
            median: median(&per_op),
            q1,
            q3,
            batches: per_op.len(),
        });
    }

    /// Times `BATCHES` calls of `batch`, each doing `ops` operations, and
    /// records ns per operation.
    fn rung_ns(&mut self, name: &str, ops: usize, mut batch: impl FnMut()) {
        let per_op = (0..BATCHES)
            .map(|_| {
                let t = Instant::now();
                batch();
                t.elapsed().as_nanos() as f64 / ops as f64
            })
            .collect();
        self.push(name, per_op);
    }
}

fn content_record(node: &SplId) -> RecordBody {
    RecordBody::PageRedo {
        txn: 1,
        compensates: None,
        op: RedoOp::Content {
            node: xtc_splid::encode(node),
            new: "An updated summary, rewritten under locks.".to_string(),
        },
    }
}

/// Runs every rung. `quick` cuts the iteration counts to a tenth and the
/// documents to tiny. `scratch` takes the file-backed tree and the
/// directory WALs.
pub fn run(quick: bool, scratch: &Path) -> Result<Ladder, String> {
    let sizes = Sizes::new(quick);
    let scale = |n: usize| if quick { (n / 10).max(1) } else { n };
    let mut ladder = Ladder::default();
    let db = mem_db(crate::spec::MAIN_PROTOCOL, false, &sizes.doc);
    let store = db.store();
    let mut rng = SmallRng::seed_from_u64(0x1add3e);

    // ---- splid: labels of the first books' subtrees ----
    let books = sizes.doc.books.min(scale(400));
    let labels: Vec<SplId> = (0..books)
        .flat_map(|b| {
            let book = store
                .element_by_id(&format!("b{b}"))
                .expect("generated book");
            store.subtree_ids(&book)
        })
        .collect();
    let encoded: Vec<Vec<u8>> = labels.iter().map(xtc_splid::encode).collect();
    let n = labels.len();
    let mut shuffled: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        shuffled.swap(i, rng.random_range(0..=i));
    }
    let mut buf = Vec::with_capacity(64);
    ladder.rung_ns("splid.encode_ns", n, || {
        for id in &labels {
            buf.clear();
            black_box(xtc_splid::encode_into(black_box(id), &mut buf));
        }
    });
    ladder.rung_ns("splid.decode_ns", n, || {
        for bytes in &encoded {
            black_box(xtc_splid::decode(black_box(bytes)).expect("own encoding"));
        }
    });
    ladder.rung_ns("splid.cmp_ns", n, || {
        for (i, &j) in shuffled.iter().enumerate() {
            black_box(labels[i].cmp(black_box(&labels[j])));
        }
    });
    ladder.rung_ns("splid.ancestors_ns", n, || {
        for id in &labels {
            black_box(black_box(id).ancestors().count());
        }
    });

    // ---- storage: a B*-tree keyed like the document tree ----
    let value = [0x5au8; 24];
    let fill = |tree: &BTree| {
        for k in &encoded {
            tree.insert(k, &value).expect("insert");
        }
    };
    ladder.rung_ns("storage.btree_insert_ns", n, || {
        // Document order, as the bulk load inserts.
        fill(&BTree::new());
    });
    let tree = BTree::new();
    fill(&tree);
    let reads_before = tree.stats().page_reads();
    ladder.rung_ns("storage.btree_get_ns", n, || {
        for &j in &shuffled {
            black_box(tree.get(black_box(&encoded[j])));
        }
    });
    ladder.pages_per_get = (tree.stats().page_reads() - reads_before) as f64 / (BATCHES * n) as f64;
    ladder.rung_ns("storage.btree_scan_ns_per_key", n, || {
        let mut seen = 0usize;
        tree.for_each_in_range(b"", &[0xff; 160], |k, v| {
            seen += black_box(k.len() + v.len()).min(1);
            true
        });
        assert_eq!(seen, n);
    });
    let page_file = scratch.join("ladder.pages");
    let budgeted = |max_resident| {
        BTree::with_config(
            BTreeConfig {
                backend: PageBackendConfig::File {
                    path: page_file.clone(),
                },
                max_resident,
                ..BTreeConfig::default()
            },
            StorageStats::default(),
        )
    };
    let live = {
        let probe = budgeted(None);
        fill(&probe);
        probe.pool_stats().live
    };
    let cold = budgeted(Some((live / 4).max(2)));
    fill(&cold);
    // Clean pages are what eviction may drop: write everything back first.
    cold.flush_dirty(u64::MAX);
    ladder.rung_ns("storage.btree_get_miss_ns", n, || {
        for &j in &shuffled {
            black_box(cold.get(black_box(&encoded[j])));
        }
    });
    drop(cold);
    let _ = std::fs::remove_file(&page_file);

    // ---- node: the node manager over the paper document ----
    let probes = &shuffled[..n.min(scale(10_000))];
    ladder.rung_ns("node.get_ns", probes.len(), || {
        for &j in probes {
            black_box(store.get(black_box(&labels[j])));
        }
    });
    ladder.rung_ns("node.first_child_ns", probes.len(), || {
        for &j in probes {
            black_box(store.first_child(black_box(&labels[j])));
        }
    });
    ladder.rung_ns("node.next_sibling_ns", probes.len(), || {
        for &j in probes {
            black_box(store.next_sibling(black_box(&labels[j])));
        }
    });
    let ids: Vec<String> = (0..scale(10_000))
        .map(|_| format!("b{}", rng.random_range(0..sizes.doc.books)))
        .collect();
    ladder.rung_ns("node.element_by_id_ns", ids.len(), || {
        for id in &ids {
            black_box(store.element_by_id(black_box(id)));
        }
    });
    // The mutating rungs get a store of their own.
    let small = BibConfig {
        books: sizes.served_doc.books.max(BATCHES),
        ..sizes.served_doc.clone()
    };
    let mutable = DocStore::new(DocStoreConfig::default());
    xtc_tamix::bib::generate(&mutable, &small);
    let histories: Vec<SplId> = (0..small.books)
        .map(|b| {
            let book = mutable
                .element_by_id(&format!("b{b}"))
                .expect("generated book");
            mutable.last_child(&book).expect("history")
        })
        .collect();
    let inserts = scale(300);
    let per_op = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            let added: Vec<SplId> = (0..inserts)
                .map(|i| {
                    let history = &histories[i % histories.len()];
                    mutable
                        .insert_element(history, InsertPos::LastChild, "lend")
                        .expect("insert")
                })
                .collect();
            let ns = t.elapsed().as_nanos() as f64 / inserts as f64;
            // Untimed: every batch meets histories of the generated length.
            for lend in &added {
                mutable.delete_subtree(lend).expect("delete");
            }
            ns
        })
        .collect();
    ladder.push("node.insert_element_ns", per_op);
    let per_batch = (small.books / BATCHES).min(3);
    let mut next_book = 0;
    let per_node = (0..BATCHES)
        .map(|_| {
            let doomed: Vec<SplId> = (next_book..next_book + per_batch)
                .map(|b| {
                    mutable
                        .element_by_id(&format!("b{b}"))
                        .expect("book not yet deleted")
                })
                .collect();
            next_book += per_batch;
            let t = Instant::now();
            let removed: usize = doomed
                .iter()
                .map(|book| mutable.delete_subtree(book).expect("delete").len())
                .sum();
            t.elapsed().as_nanos() as f64 / removed as f64
        })
        .collect();
    ladder.push("node.delete_subtree_ns_per_node", per_node);

    // ---- lock: the table alone, under taDOM3+'s mode families ----
    lock_rungs(&mut ladder, &labels[..n.min(scale(20_000))]);

    // ---- wal ----
    let mem_wal = Wal::open(WalConfig {
        storage: WalStorage::Memory,
        ..WalConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let record = content_record(&labels[n / 2]);
    let appends = scale(20_000);
    ladder.rung_ns("wal.append_ns", appends, || {
        for _ in 0..appends {
            black_box(mem_wal.append(black_box(&record)).expect("append"));
        }
    });
    for (name, window) in [
        ("wal.commit_sync_us_w0", 0),
        ("wal.commit_sync_us_w100", 100),
    ] {
        let dir = scratch.join(name);
        let wal = Wal::open(WalConfig {
            storage: WalStorage::Directory {
                path: dir.clone(),
                segment_bytes: 16 << 20,
            },
            group_commit_window: Duration::from_micros(window),
        })
        .map_err(|e| e.to_string())?;
        let commits = scale(30).max(3);
        let per_op = (0..BATCHES)
            .map(|_| {
                let t = Instant::now();
                for txn in 0..commits {
                    wal.append(&record).expect("append");
                    let lsn = wal
                        .append(&RecordBody::Commit { txn: txn as u64 })
                        .expect("append");
                    wal.commit_sync(lsn).expect("sync");
                }
                t.elapsed().as_nanos() as f64 / 1e3 / commits as f64
            })
            .collect();
        ladder.push(name, per_op);
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- core: the transaction layer over everything below ----
    let empties = scale(20_000);
    ladder.rung_ns("core.begin_commit_ns", empties, || {
        for _ in 0..empties {
            db.try_begin().expect("begin").commit().expect("commit");
        }
    });
    let queries = scale(100);
    let per_op = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..queries {
                run_txn(
                    &db,
                    TxnKind::QueryBook,
                    &sizes.doc,
                    &mut rng,
                    Pacing::default(),
                )
                .expect("single-user query");
            }
            t.elapsed().as_nanos() as f64 / 1e3 / queries as f64
        })
        .collect();
    ladder.push("core.querybook_us", per_op);
    assert_eq!(db.lock_table().granted_count(), 0, "ladder leaked a lock");
    snapshot_rungs(&mut ladder, &sizes.served_doc, scale(20_000));

    // ---- per protocol: CLUSTER2's single TAdelBook, and a lock count ----
    for (suffix, protocol) in CONTESTANTS {
        let db = mem_db(protocol, false, &sizes.served_doc);
        let mut rng = SmallRng::seed_from_u64(11);
        let before = db.lock_table().requests();
        run_txn(
            &db,
            TxnKind::QueryBook,
            &sizes.served_doc,
            &mut rng,
            Pacing::default(),
        )
        .map_err(|e| format!("{protocol}: {e}"))?;
        let locks = (db.lock_table().requests() - before) as f64;
        let per_op = (0..BATCHES.min(sizes.served_doc.books / 2))
            .map(|_| loop {
                let t = Instant::now();
                // `false`: the drawn topic had no book left — draw again.
                if run_txn(
                    &db,
                    TxnKind::DelBook,
                    &sizes.served_doc,
                    &mut rng,
                    Pacing::default(),
                )
                .expect("single-user TAdelBook")
                {
                    break t.elapsed().as_nanos() as f64 / 1e3;
                }
            })
            .collect();
        ladder.push(format!("core.delbook_us.{suffix}"), per_op);
        ladder.push(
            format!("protocols.locks_per_querybook.{suffix}"),
            vec![locks],
        );
    }

    // ---- server: round trips that reach no engine ----
    let server = idle_server(&BibConfig::tiny())?;
    let per_op = (0..scale(30).max(BATCHES))
        .map(|_| {
            let t = Instant::now();
            let client = Client::connect(server.addr()).expect("connect");
            let us = t.elapsed().as_nanos() as f64 / 1e3;
            client.quit().expect("quit");
            us
        })
        .collect();
    ladder.push("server.connect_us", per_op);
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    // Bounded by time as well as count: a ping is tens of ms today.
    let budget = Instant::now() + Duration::from_millis(if quick { 300 } else { 1_000 });
    let mut per_op = Vec::new();
    while per_op.len() < BATCHES || (Instant::now() < budget && per_op.len() < 2_000) {
        let t = Instant::now();
        client.ping().expect("ping");
        per_op.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    ladder.push("server.ping_rtt_us", per_op);
    client.quit().map_err(|e| format!("quit: {e}"))?;
    Ok(ladder)
}

fn lock_rungs(ladder: &mut Ladder, labels: &[SplId]) {
    let handle = xtc_protocols::build(crate::spec::MAIN_PROTOCOL).expect("main protocol builds");
    let modes = &handle.families[0];
    let (read, excl) = (
        modes.mode_named("NR").expect("NR"),
        modes.mode_named("SX").expect("SX"),
    );
    let registry = Arc::new(TxnRegistry::new());
    let table = LockTable::new(
        handle.families.clone(),
        registry.clone(),
        Duration::from_secs(10),
    );
    let names: Vec<LockName> = labels
        .iter()
        .map(|id| LockName {
            family: 0,
            target: LockTarget::Node(id.clone()),
        })
        .collect();
    let n = names.len();
    let (mut uncached, mut cached, mut convert, mut release) = (vec![], vec![], vec![], vec![]);
    for _ in 0..BATCHES {
        let txn = registry.begin_handle();
        let sweep = |mode| {
            let t = Instant::now();
            for name in &names {
                let got = table
                    .lock_with(&txn, name, mode, LockClass::Long, false)
                    .expect("uncontended");
                if let Acquired::NeedsAnnex { .. } = got {
                    table
                        .lock_with(&txn, name, mode, LockClass::Long, true)
                        .expect("uncontended");
                }
            }
            t.elapsed().as_nanos() as f64 / n as f64
        };
        uncached.push(sweep(read)); // first touch: through the shared table
        cached.push(sweep(read)); // covered by the held mode: the per-transaction cache
        convert.push(sweep(excl)); // NR -> SX
        let t = Instant::now();
        table.release_all(txn.id());
        release.push(t.elapsed().as_nanos() as f64 / n as f64);
        registry.finish(txn.id());
    }
    assert_eq!(table.granted_count(), 0);
    assert!(
        table.cache_hits() >= (BATCHES * n) as u64,
        "second sweep must hit the cache"
    );
    ladder.push("lock.acquire_uncached_ns", uncached);
    ladder.push("lock.acquire_cached_ns", cached);
    ladder.push("lock.convert_ns", convert);
    ladder.push("lock.release_ns_per_lock", release);

    // Hand-off: the holder's `release_all` to the waiter's `lock` return,
    // two threads passing one exclusive lock back and forth.
    let name = &names[0];
    let rounds = 4 * BATCHES;
    let epoch = Instant::now();
    let queued = AtomicBool::new(false);
    let released_at = AtomicU64::new(0);
    let mut handoff = Vec::new();
    let holder = registry.begin_handle();
    table
        .lock_with(&holder, name, excl, LockClass::Long, false)
        .expect("free lock");
    std::thread::scope(|scope| {
        let waiter = scope.spawn(|| {
            let mut waits = Vec::new();
            for _ in 0..rounds {
                let txn = registry.begin_handle();
                queued.store(true, Ordering::SeqCst);
                table
                    .lock_with(&txn, name, excl, LockClass::Long, false)
                    .expect("handed over");
                let got = epoch.elapsed().as_nanos() as u64;
                waits.push((got - released_at.load(Ordering::SeqCst)) as f64 / 1e3);
                // Give it straight back; the main thread re-acquires.
                table.release_all(txn.id());
                registry.finish(txn.id());
                while queued.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
            }
            waits
        });
        let mut current = holder;
        for _ in 0..rounds {
            while !queued.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
            // Long enough for the waiter to be parked on the lock.
            std::thread::sleep(Duration::from_micros(300));
            released_at.store(epoch.elapsed().as_nanos() as u64, Ordering::SeqCst);
            table.release_all(current.id());
            registry.finish(current.id());
            current = registry.begin_handle();
            table
                .lock_with(&current, name, excl, LockClass::Long, false)
                .expect("handed back");
            queued.store(false, Ordering::SeqCst);
        }
        table.release_all(current.id());
        registry.finish(current.id());
        handoff = waiter.join().expect("waiter thread");
    });
    ladder.push("lock.handoff_us", handoff);
}

/// `txn.node()` under an old taMVCC snapshot, with one and with eight
/// committed versions stacked on the node since.
fn snapshot_rungs(ladder: &mut Ladder, doc: &BibConfig, reads: usize) {
    let db = mem_db("taMVCC", false, doc);
    let text = {
        let store = db.store();
        let book = store.element_by_id("b0").expect("generated book");
        let chapters = store.element_children(&book)[3].clone();
        let chapter = store.first_child(&chapters).expect("chapter");
        let summary = store.last_child(&chapter).expect("summary");
        store.first_child(&summary).expect("summary text")
    };
    let reader = db.begin();
    let mut committed = 0;
    for chain in [1usize, 8] {
        while committed < chain {
            let writer = db.begin();
            writer
                .update_text(&text, &format!("version {committed}"))
                .expect("update");
            writer.commit().expect("commit");
            committed += 1;
        }
        ladder.rung_ns(&format!("core.snapshot_read_ns_c{chain}"), reads, || {
            for _ in 0..reads {
                black_box(reader.node(black_box(&text)).expect("snapshot read"));
            }
        });
    }
    reader.commit().expect("reader commit");
}
