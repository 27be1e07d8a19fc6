//! Self-defining relation logs, end to end through `Database`: a name
//! reaches the disk inside the first record of a segment that uses it,
//! so it is exactly as durable as that record — under every
//! `SyncPolicy`, in the relation's own file, with no other file and no
//! extra fsync involved.
//!
//! The crash test follows `ids-wal`'s `tests/crash.rs`: write string
//! rows durably, shut down, cut a relation's live segment at every frame
//! boundary and at torn offsets inside frames, recover.  Every recovered
//! row must render from names that were really inserted (never the
//! decimal fallback of a value with no name), and every relation must
//! be a prefix of its own history.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use ids_api::{Alter, Database, Error, Schema};
use ids_store::{DurableConfig, SyncPolicy};
use ids_wal::format::{read_frame, FrameOutcome};
use ids_wal::WalError;

fn tmp_dir(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("ids-api-selfdef-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn schema() -> Schema {
    Schema::builder()
        .relation("R0", ["a0", "b0"])
        .relation("R1", ["a1", "b1"])
        .fd("a0 -> b0")
        .fd("a1 -> b1")
        .build()
        .unwrap()
}

fn config(sync: SyncPolicy) -> DurableConfig {
    DurableConfig {
        sync,
        ..DurableConfig::default()
    }
}

/// Every file under `root` with its bytes, sorted by path.
fn files(root: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(root).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            found.extend(files(&path));
        } else {
            found.push((path.clone(), std::fs::read(&path).unwrap()));
        }
    }
    found.sort();
    found
}

/// Every file under `root` with its length.
fn sizes(root: &Path) -> Vec<(PathBuf, usize)> {
    (files(root).into_iter())
        .map(|(path, bytes)| (path, bytes.len()))
        .collect()
}

/// One relation's history: `(insert?, row)` in the order it was written.
type History = Vec<(bool, [String; 2])>;

/// The rows a history leaves after its first `n` operations.
fn rows_after(history: &History, n: usize) -> BTreeSet<Vec<String>> {
    let mut rows = BTreeSet::new();
    for (insert, row) in &history[..n] {
        if *insert {
            rows.insert(row.to_vec());
        } else {
            rows.remove(row.as_slice());
        }
    }
    rows
}

/// Writes a deterministic string workload over both relations — fresh
/// keys, values the two relations share, removes, and re-inserts of
/// removed rows (some across the checkpoint, so a segment must define
/// again a name an earlier, pruned one defined) — with a checkpoint
/// after `checkpoint_after` operations.  Returns each relation's
/// history, the strings inserted, and the operations each relation had
/// done by the checkpoint.
fn write_workload(
    root: &Path,
    sync: SyncPolicy,
    checkpoint_after: Option<usize>,
) -> ([History; 2], BTreeSet<String>, [usize; 2]) {
    let db = Database::open_at(root, schema(), config(sync)).unwrap();
    let mut histories: [History; 2] = [Vec::new(), Vec::new()];
    let mut removed: [std::collections::VecDeque<[String; 2]>; 2] = Default::default();
    let mut strings = BTreeSet::new();
    let mut at_checkpoint = [0, 0];
    for i in 0..48usize {
        let r = i % 2;
        let (relation, j) = (["R0", "R1"][r], histories[r].len());
        if j % 3 == 2 {
            // Remove the row this relation inserted two of its ops ago.
            let (_, row) = histories[r][j - 2].clone();
            assert!(db.remove(relation, &row).unwrap());
            removed[r].push_back(row.clone());
            histories[r].push((false, row));
        } else {
            let reinsert = if j % 6 == 3 {
                removed[r].pop_front()
            } else {
                None
            };
            let row = reinsert.unwrap_or_else(|| [format!("k{i}"), format!("v{}", i % 5)]);
            assert!(db.insert(relation, &row).unwrap().is_accepted());
            strings.extend(row.iter().cloned());
            histories[r].push((true, row));
        }
        if checkpoint_after == Some(i + 1) {
            db.checkpoint().unwrap();
            at_checkpoint = [histories[0].len(), histories[1].len()];
        }
    }
    (histories, strings, at_checkpoint)
}

/// Where a segment can be cut: every frame boundary, and a few bytes
/// into every frame (a torn write).
fn cut_points(segment: &[u8]) -> Vec<usize> {
    let mut cuts = Vec::new();
    let mut at = 0;
    loop {
        cuts.push(at);
        let FrameOutcome::Complete { payload, .. } = read_frame(&segment[at..]) else {
            break;
        };
        let end = at + 8 + payload.len();
        cuts.extend([at + 3, at + 8 + payload.len() / 2, end - 1]);
        at = end;
    }
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

/// Cuts each relation's live segment at every boundary and torn offset
/// and recovers: every row renders from inserted names, the victim is a
/// prefix of its history no shorter than what the snapshot holds, and
/// the other relation is whole.
#[test]
fn every_cut_of_every_segment_recovers_named_prefixes() {
    for sync in [SyncPolicy::Batch(4096), SyncPolicy::Always] {
        for checkpoint_after in [None, Some(20)] {
            let root = tmp_dir(&format!("crash-{sync:?}-{checkpoint_after:?}"));
            let (histories, strings, at_checkpoint) = write_workload(&root, sync, checkpoint_after);
            let written = files(&root);
            let live_gen = if checkpoint_after.is_some() { 2 } else { 1 };
            for victim in 0..2 {
                let segment = root
                    .join("wal")
                    .join(ids_wal::segment_file_name(victim as u16, live_gen));
                let bytes = &written.iter().find(|(p, _)| *p == segment).unwrap().1;
                for cut in cut_points(bytes) {
                    let _ = std::fs::remove_dir_all(&root);
                    for (path, bytes) in &written {
                        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
                        std::fs::write(path, bytes).unwrap();
                    }
                    std::fs::write(&segment, &bytes[..cut]).unwrap();
                    let db = Database::recover(&root).unwrap();
                    for (r, history) in histories.iter().enumerate() {
                        let rows: BTreeSet<Vec<String>> =
                            db.rows(["R0", "R1"][r]).unwrap().into_iter().collect();
                        for value in rows.iter().flatten() {
                            assert!(
                                strings.contains(value),
                                "{sync:?} cut {victim}@{cut}: {value:?} was never inserted"
                            );
                        }
                        let whole = history.len();
                        let prefixes = if r == victim {
                            at_checkpoint[r]..=whole
                        } else {
                            whole..=whole
                        };
                        assert!(
                            prefixes.into_iter().any(|n| rows_after(history, n) == rows),
                            "{sync:?} cut {victim}@{cut}: R{r} is not a prefix of its history"
                        );
                    }
                }
            }
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}

/// 10k rows of fresh strings into one relation: under `Batch(4096)` the
/// names ride in the relation's own records, so `wal.fsyncs` grows by
/// exactly the two batch syncs and no file but that relation's segment
/// grows; under `Never` nothing is synced at all.
#[test]
fn fresh_strings_cost_no_fsync_and_no_file_of_their_own() {
    for (sync, fsyncs) in [(SyncPolicy::Batch(4096), 2), (SyncPolicy::Never, 0)] {
        let root = tmp_dir(&format!("fsyncs-{sync:?}"));
        let db = Database::open_at(&root, schema(), config(sync)).unwrap();
        let synced = |db: &Database| db.metrics().counter("wal.fsyncs").unwrap();
        let (before, files_before) = (synced(&db), sizes(&root));
        for i in 0..10_000 {
            let row = [format!("key-{i}"), format!("value-{i}")];
            assert!(db.insert("R0", &row).unwrap().is_accepted());
        }
        assert_eq!(synced(&db) - before, fsyncs, "{sync:?}");
        let files_after = sizes(&root);
        let segment = root.join("wal").join(ids_wal::segment_file_name(0, 1));
        assert_eq!(
            (files_after.iter().map(|(p, _)| p)).collect::<Vec<_>>(),
            (files_before.iter().map(|(p, _)| p)).collect::<Vec<_>>(),
            "{sync:?}: no file appeared"
        );
        for ((path, after), (_, before)) in files_after.iter().zip(&files_before) {
            assert_eq!(after > before, *path == segment, "{sync:?}: {path:?}");
        }
        drop(db);
        let db = Database::recover(&root).unwrap();
        assert_eq!(
            db.query("R0")
                .filter("a0", ids_api::eq("key-9999"))
                .run()
                .unwrap()
                .len(),
            1
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// No operation creates a global name log: inserts, removes, a
/// checkpoint, an alter and a reopen leave none, and the strings come
/// back from the relations' logs and the snapshot alone.
#[test]
fn no_operation_writes_a_pool_log() {
    let root = tmp_dir("no-pool-log");
    let gone = {
        let db = Database::open_at(&root, schema(), DurableConfig::default()).unwrap();
        db.insert("R0", ["k1", "shared"]).unwrap();
        db.insert("R1", ["k2", "shared"]).unwrap();
        db.insert("R0", ["k3", "gone"]).unwrap();
        assert!(db.remove("R0", ["k3", "gone"]).unwrap());
        let gone = db.lookup("gone").unwrap();
        db.checkpoint().unwrap();
        db.alter(&Alter::AddRelation {
            name: "R2".into(),
            columns: vec!["a2".into(), "b2".into()],
        })
        .unwrap();
        db.insert("R2", ["k4", "shared"]).unwrap();
        db.insert("R1", ["k5", "fresh"]).unwrap();
        gone
    };
    let db = Database::recover(&root).unwrap();
    db.insert("R0", ["k6", "after reopen"]).unwrap();
    drop(db);
    let db = Database::recover(&root).unwrap();
    let rows = |r: &str| db.rows(r).unwrap();
    assert_eq!(
        (rows("R0"), rows("R1"), rows("R2")),
        (
            vec![
                vec!["k1".into(), "shared".into()],
                vec!["k6".into(), "after reopen".into()]
            ],
            vec![
                vec!["k2".into(), "shared".into()],
                vec!["k5".into(), "fresh".into()]
            ],
            vec![vec!["k4".to_string(), "shared".to_string()]],
        )
    );
    // The checkpoint pruned the only records naming a removed row's
    // string, but its snapshot carries the whole pool: the name keeps
    // its id, which a follower that saw it still holds.
    assert_eq!(db.lookup("gone"), Some(gone));
    assert!(files(&root).iter().all(|(p, _)| !p.ends_with("pool.log")));
    let _ = std::fs::remove_dir_all(&root);
}

/// A directory of the older format — one that still holds the global
/// `pool.log` — is refused with a typed error by both durable
/// constructors, never opened without its names.
#[test]
fn a_directory_with_a_pool_log_is_refused() {
    let root = tmp_dir("legacy");
    drop(Database::open_at(&root, schema(), DurableConfig::default()).unwrap());
    std::fs::write(root.join("pool.log"), b"IDSP").unwrap();
    let refused = |opened: Result<Database, Error>| match opened {
        Err(Error::Wal(WalError::LegacyNameLog { path })) => path == root.join("pool.log"),
        _ => false,
    };
    assert!(refused(Database::recover(&root)));
    assert!(refused(Database::open_at(
        &root,
        schema(),
        DurableConfig::default()
    )));
    let _ = std::fs::remove_dir_all(&root);
}
