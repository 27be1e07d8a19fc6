//! Differential testing of the query subsystem — the correctness anchor
//! of the read-side redesign.
//!
//! The query path adds pushdown layers a plain `read` does not have
//! (predicate shipping, shard-side index lookups, projection, string
//! rendering), and each is a place results could silently diverge from
//! the semantics they claim: *filtering/projecting a consistent
//! snapshot*.  So: replay random interleaved traces through the
//! string-level `Database` in memory, through a durable-recovered store
//! **and** through a file-tail replica, then demand
//!
//! * `query(pred, proj)` ≡ filtering + projecting the relation of a full
//!   `snapshot()`, compared through the rendered-string surface,
//! * `join(relations)` ≡ the natural join of the snapshot's relations,
//! * a join filtered on one relation ≡ that filter over the natural
//!   join, and
//! * at the typed level, the one read, gathering or counting, under a
//!   generated guard ≡ `Relation::filter_tuples` on the snapshot — also
//!   on a replica following the durable store.
//!
//! The comparison oracle re-implements filter/select at the string level
//! with none of the pushed-down machinery, so an index bug, a stale
//! enforcement entry after removes, or a projection ordering slip all
//! show up as row-level diffs.

use std::sync::atomic::{AtomicUsize, Ordering};

use ids_api::{eq, one_of, Database, EngineKind, Schema};
use ids_relational::{AttrId, DatabaseState, Predicate, SchemeId, Value};
use ids_replica::Replica;
use ids_store::{DurableConfig, StoreConfig};
use ids_workloads::families::{key_chain, key_star, FamilyInstance};
use ids_workloads::traces::{interleaved_trace, TraceKind, TraceOp, TraceParams};

use proptest::prelude::*;

/// Rebuilds a typed family instance through the fluent builder, columns
/// in canonical scheme order (so declaration order == scheme order and
/// the string oracle below can index rows by scheme rank).  FD specs are
/// rendered with explicit space separators — the builder's parser
/// matches whole column names only, never `Universe::render`'s
/// single-letter concatenation.
fn schema_via_builder(inst: &FamilyInstance) -> Schema {
    let u = inst.schema.universe();
    let names = |set: ids_relational::AttrSet| -> String {
        set.iter().map(|a| u.name(a)).collect::<Vec<_>>().join(" ")
    };
    let mut b = Schema::builder();
    for (_, scheme) in inst.schema.iter() {
        b = b.relation(&scheme.name, scheme.attrs.iter().map(|a| u.name(a)));
    }
    for fd in inst.fds.iter() {
        b = b.fd(format!("{} -> {}", names(fd.lhs), names(fd.rhs)));
    }
    // One ordered index, on the first relation's last column: the typed
    // differential's guards then meet a hash-indexed key column, an
    // ordered-indexed column and plain unindexed ones.
    let (_, first) = inst.schema.iter().next().expect("families are non-empty");
    let last = first.attrs.iter().last().expect("schemes are non-empty");
    b = b.index(&first.name, u.name(last));
    b.build().expect("family certified independent")
}

/// Replays a trace through the string-level surface.
fn replay(inst: &FamilyInstance, db: &mut Database, trace: &[TraceOp]) {
    for op in trace {
        let name = &inst.schema.scheme(op.scheme).name;
        let row: Vec<String> = op.tuple.iter().map(|v| v.0.to_string()).collect();
        match op.kind {
            TraceKind::Insert => {
                db.insert(name, &row).unwrap();
            }
            TraceKind::Remove => {
                db.remove(name, &row).unwrap();
            }
        }
    }
}

/// The string-level oracle: render one snapshot relation row-major in
/// scheme order, filter by column/value equality, project the selected
/// column positions — no Predicate, no index, no pushdown.
fn oracle_rows(
    db: &Database,
    snapshot: &DatabaseState,
    id: SchemeId,
    filters: &[(usize, &str)],
    select: &[usize],
) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> = snapshot
        .relation(id)
        .iter()
        .map(|t| t.iter().map(|&v| db.render(v)).collect::<Vec<_>>())
        .filter(|row: &Vec<String>| filters.iter().all(|&(pos, val)| row[pos] == val))
        .map(|row| select.iter().map(|&pos| row[pos].clone()).collect())
        .collect();
    out.sort();
    out
}

/// Every way of building a database under test: in memory, durable
/// and recovered, and a replica following a durable primary.
enum Kind {
    Mem(EngineKind),
    Durable,
    Replica,
}

/// A built database: owned, or lent by the replica that follows it.
enum Built {
    Own(Box<Database>),
    Follower(Box<Replica>),
}

impl Built {
    fn db(&self) -> &Database {
        match self {
            Built::Own(db) => db,
            Built::Follower(replica) => replica.database(),
        }
    }
}

fn kinds() -> Vec<(String, Kind)> {
    vec![
        (
            "Sharded".into(),
            Kind::Mem(EngineKind::Sharded(StoreConfig::default())),
        ),
        ("Durable-recovered".into(), Kind::Durable),
        ("Replica".into(), Kind::Replica),
    ]
}

/// Process-unique scratch directories for the durable cases.
static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir() -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "ids-api-queries-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Builds the database for one kind, replaying `trace` into it.  The
/// durable case writes a WAL, drops the handle (clean shutdown), and
/// recovers from the directory alone; the replica case bootstraps a
/// file-tail follower from half the trace and tails the rest — both must
/// answer queries exactly like the in-memory database.
fn build_db(
    inst: &FamilyInstance,
    trace: &[TraceOp],
    kind: Kind,
) -> (Built, Option<std::path::PathBuf>) {
    let durable = |dir: &std::path::Path| {
        let _ = std::fs::remove_dir_all(dir);
        Database::open_at(dir, schema_via_builder(inst), DurableConfig::default()).unwrap()
    };
    match kind {
        Kind::Mem(k) => {
            let mut db = Database::open(schema_via_builder(inst), k).unwrap();
            replay(inst, &mut db, trace);
            (Built::Own(Box::new(db)), None)
        }
        Kind::Durable => {
            let dir = scratch_dir();
            replay(inst, &mut durable(&dir), trace);
            let db = Database::recover(&dir).unwrap();
            (Built::Own(Box::new(db)), Some(dir))
        }
        Kind::Replica => {
            let dir = scratch_dir();
            let mut primary = durable(&dir);
            let (head, tail) = trace.split_at(trace.len() / 2);
            replay(inst, &mut primary, head);
            let mut replica = Box::new(Replica::open(&dir).unwrap());
            replay(inst, &mut primary, tail);
            let caught_up = replica.wait_caught_up(std::time::Duration::from_secs(10));
            assert!(caught_up.unwrap(), "the follower never caught up");
            (Built::Follower(replica), Some(dir))
        }
    }
}

proptest! {
    // Enough cases for the guard × shape grid to meet every kind.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// query(pred, proj) ≡ filter/project of a snapshot, join (filtered
    /// or not) ≡ the natural join of snapshot relations, and the typed
    /// read under a generated guard, gathering or counting ≡
    /// `Relation::filter_tuples` on the snapshot — in memory, on a
    /// durable-recovered store and on a replica.
    #[test]
    fn query_and_join_match_the_snapshot_oracle(
        pick in 0usize..2,
        size in 0usize..3,
        seed in 0u64..1_000_000,
        probe in 0u64..6,
        guard in 0usize..3,
        shape in 0usize..3,
    ) {
        let inst = match pick {
            0 => key_chain(2 + size),
            _ => key_star(1 + size),
        };
        let trace = interleaved_trace(
            &inst.schema,
            TraceParams { clients: 2, ops_per_client: 12, domain: 4, remove_percent: 25 },
            seed,
        );
        let probe_s = probe.to_string();

        for (label, kind) in kinds() {
            let (built, dir) = build_db(&inst, &trace, kind);
            let db = built.db();
            let snapshot = db.snapshot().unwrap();

            for (id, scheme) in inst.schema.iter() {
                let name = &scheme.name;
                let schema = db.schema();
                let columns: Vec<&str> = schema.columns(name).unwrap()
                    .iter().map(|c| c.as_str()).collect();
                let width = columns.len();
                let all: Vec<usize> = (0..width).collect();

                // (a) Unfiltered query ≡ the snapshot relation whole.
                let mut got = db.query(name).run().unwrap().into_string_rows();
                got.sort();
                prop_assert_eq!(
                    &got,
                    &oracle_rows(db, &snapshot, id, &[], &all),
                    "unfiltered query diverges on {} / {} (seed {})", label, name, seed
                );

                // (b) Point filter on the first column (the key FD's lhs
                // on these families → the indexed path on shards), with
                // a probe value that may hit, miss, or be never-interned.
                let mut got = db.query(name)
                    .filter(columns[0], eq(&probe_s))
                    .run().unwrap().into_string_rows();
                got.sort();
                prop_assert_eq!(
                    &got,
                    &oracle_rows(db, &snapshot, id, &[(0, &probe_s)], &all),
                    "filtered query diverges on {} / {} (seed {})", label, name, seed
                );
                let mut got = db.query(name)
                    .filter(columns[0], eq("never-interned"))
                    .run().unwrap().into_string_rows();
                got.sort();
                prop_assert_eq!(got, Vec::<Vec<String>>::new());

                // (c) Filter + reversed-column select (projection order
                // must be caller order, duplicates preserved per row).
                let rev: Vec<usize> = (0..width).rev().collect();
                let rev_cols: Vec<&str> = rev.iter().map(|&i| columns[i]).collect();
                let mut got = db.query(name)
                    .filter(columns[width - 1], eq(&probe_s))
                    .select(rev_cols)
                    .run().unwrap().into_string_rows();
                got.sort();
                prop_assert_eq!(
                    &got,
                    &oracle_rows(db, &snapshot, id, &[(width - 1, &probe_s)], &rev),
                    "projected query diverges on {} / {} (seed {})", label, name, seed
                );

                // (f) A query is the one-relation case of the join: each
                // query above, run again as `join_query([R])` with its
                // filters given per relation, returns the same columns and
                // the same rows in the same order — projected onto the
                // select list where the query has one.
                let rev_cols: Vec<String> = rev.iter().map(|&i| columns[i].to_string()).collect();
                let generated = [
                    (None, None),
                    (Some((columns[0], probe_s.as_str())), None),
                    (Some((columns[0], "never-interned")), None),
                    (Some((columns[width - 1], probe_s.as_str())), Some(rev_cols)),
                ];
                for (filter, select) in generated {
                    let (mut query, mut join) = (db.query(name), db.join_query([name]));
                    if let Some((column, value)) = filter {
                        query = query.filter(column, eq(value));
                        join = join.filter(name, column, eq(value));
                    }
                    if let Some(select) = &select {
                        query = query.select(select);
                    }
                    let (query, joined) = (query.run().unwrap(), join.run().unwrap());
                    let select = select.unwrap_or_else(|| joined.columns().to_vec());
                    let projected: Vec<Vec<String>> = joined.iter()
                        .map(|row| select.iter().map(|c| row.get(c).unwrap().to_string()).collect())
                        .collect();
                    prop_assert_eq!(
                        query.columns(), &select[..],
                        "query vs join columns on {} / {} (seed {})", label, name, seed
                    );
                    prop_assert_eq!(
                        query.into_string_rows(), projected,
                        "query vs join rows on {} / {} (seed {})", label, name, seed
                    );
                }
            }

            // (d) The typed level: the one read, gathering or counting,
            // under the generated guard (eq / In / range, by `Value`
            // order) on the first column (hash-indexed key) and on the
            // last (ordered-indexed on the first relation, unindexed
            // elsewhere).  Gathered rows come back in insertion order,
            // exactly as the linear reference on the snapshot filters
            // them, and a count is that list's length.
            for (id, scheme) in inst.schema.iter() {
                let attrs: Vec<AttrId> = db.schema().definition().attrs(id).iter().collect();
                let (first, last) = (attrs[0], attrs[attrs.len() - 1]);
                // A never-interned probe becomes a value nothing stores.
                let value = |n: u64| db.lookup(&n.to_string()).unwrap_or(Value(u64::MAX));
                let (v, w) = (value(probe), value(probe + 1));
                for attr in [first, last] {
                    let pred = match guard {
                        0 => Predicate::new().and_eq(attr, v),
                        1 => Predicate::new().and_in(attr, vec![v, w]),
                        _ => Predicate::new().and_range(attr, v.min(w), v.max(w)),
                    };
                    let expected = snapshot.relation(id).filter_tuples(&pred);
                    if shape < 2 {
                        prop_assert_eq!(
                            db.store().query(id, &pred).unwrap(),
                            expected,
                            "typed read diverges on {} / {} / {:?} (seed {})",
                            label, scheme.name, pred, seed
                        );
                    } else {
                        prop_assert_eq!(
                            db.store().era().unwrap().count(id, &pred).unwrap(),
                            expected.len(),
                            "typed count diverges on {} / {} / {:?} (seed {})",
                            label, scheme.name, pred, seed
                        );
                    }
                }
            }

            // (e) join ≡ natural join of the snapshot's relations — all
            // relations, and a two-relation prefix.
            let names: Vec<String> = inst.schema.iter().map(|(_, s)| s.name.clone()).collect();
            for take in [2.min(names.len()), names.len()] {
                let subset = &names[..take];
                let mut got: Vec<Vec<String>> = db.join(subset).unwrap()
                    .into_string_rows();
                got.sort();
                let ids: Vec<SchemeId> = subset.iter()
                    .map(|n| db.schema().scheme_id(n).unwrap()).collect();
                let expected_rel = ids_relational::join_all(
                    ids.iter().map(|&i| snapshot.relation(i))
                ).unwrap();
                let mut expected: Vec<Vec<String>> = expected_rel.iter()
                    .map(|t| t.iter().map(|&v| db.render(v)).collect())
                    .collect();
                expected.sort();
                prop_assert_eq!(
                    got, expected,
                    "join diverges on {} / {:?} (seed {})", label, subset, seed
                );
            }

            // (g) A filtered acyclic join, which the planner reduces
            // bottom-up before it fetches: all relations, the first one
            // filtered on its last column by a set of probes ≡ the
            // natural join of the snapshot, filtered the same way.  The
            // column is resolved in the database's own universe, which
            // the builder numbers afresh.
            let first = &names[0];
            let column = db.schema().columns(first).unwrap().last().unwrap().clone();
            let attr = db.schema().definition().universe().attr(&column).unwrap();
            let probes: Vec<String> = (probe..probe + 3).map(|n| n.to_string()).collect();
            let mut got: Vec<Vec<String>> = db.join_query(&names)
                .filter(first, &column, one_of(probes.clone()))
                .run().unwrap()
                .into_string_rows();
            got.sort();
            let expected_rel = ids_relational::join_all(
                inst.schema.iter().map(|(id, _)| snapshot.relation(id))
            ).unwrap();
            let pos = expected_rel.attrs().rank(attr);
            let mut expected: Vec<Vec<String>> = expected_rel.iter()
                .map(|t| t.iter().map(|&v| db.render(v)).collect::<Vec<_>>())
                .filter(|row| probes.contains(&row[pos]))
                .collect();
            expected.sort();
            prop_assert_eq!(
                got, expected,
                "filtered join diverges on {} / {} (seed {})", label, column, seed
            );

            if let Some(dir) = dir {
                drop(built);
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Declared ordered secondary indexes are a pure access-path choice:
    /// under random interleaved inserts and removes, every condition
    /// shape answers identically on an indexed and an index-free store.
    #[test]
    fn secondary_indexes_never_change_query_results(
        ops in proptest::collection::vec((0usize..3, 0u64..6, 0u64..6), 0..40),
        lo in 0u64..6,
        hi in 0u64..6,
    ) {
        use ids_api::{between, ge, ne, one_of};

        let build = |indexed: bool| {
            let mut b = Schema::builder()
                .relation("CT", ["course", "teacher"])
                .fd("course -> teacher");
            if indexed {
                b = b.index("CT", "course").index("CT", "teacher");
            }
            b.build().unwrap()
        };
        let plain =
            Database::open(build(false), EngineKind::Sharded(StoreConfig::default())).unwrap();
        let fast =
            Database::open(build(true), EngineKind::Sharded(StoreConfig::default())).unwrap();
        for &(kind, k, v) in &ops {
            let row = [k.to_string(), v.to_string()];
            match kind {
                0 | 1 => {
                    // Outcomes must agree too (FD rejections included).
                    let a = format!("{:?}", plain.insert("CT", row.clone()).unwrap());
                    let b = format!("{:?}", fast.insert("CT", row).unwrap());
                    prop_assert_eq!(a, b);
                }
                _ => {
                    prop_assert_eq!(
                        plain.remove("CT", row.clone()).unwrap(),
                        fast.remove("CT", row).unwrap()
                    );
                }
            }
        }
        let (lo, hi) = (lo.min(hi).to_string(), lo.max(hi).to_string());
        for column in ["course", "teacher"] {
            let conds = [
                eq(&lo),
                ne(&lo),
                ge(&lo),
                between(&lo, &hi),
                one_of([lo.clone(), hi.clone(), "9".into()]),
            ];
            for cond in conds {
                let mut a = plain
                    .query("CT").filter(column, cond.clone())
                    .run().unwrap().into_string_rows();
                a.sort();
                let mut b = fast
                    .query("CT").filter(column, cond)
                    .run().unwrap().into_string_rows();
                b.sort();
                prop_assert_eq!(a, b, "column {}", column);
            }
        }
    }
}

/// The durable store keeps answering indexed queries correctly *after*
/// recovery intermixed with new writes — the enforcement indexes (which
/// double as read indexes) are rebuilt by replay, not persisted.
#[test]
fn recovered_store_serves_indexed_queries_after_new_writes() {
    let dir = scratch_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let schema = || {
        Schema::builder()
            .relation("CT", ["course", "teacher"])
            .relation("CHR", ["course", "hour", "room"])
            .fd("course -> teacher")
            .fd("course, hour -> room")
            .build()
            .unwrap()
    };
    {
        let db = Database::open_at(&dir, schema(), DurableConfig::default()).unwrap();
        db.insert("CT", ["CS402", "Jones"]).unwrap();
        db.insert("CHR", ["CS402", "9am", "R128"]).unwrap();
        db.checkpoint().unwrap();
        db.insert("CT", ["CS500", "Curie"]).unwrap();
    }
    let db = Database::recover(&dir).unwrap();
    // Indexed point lookup through the recovered shard indexes.
    let rows = db.query("CT").filter("course", eq("CS500")).run().unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows.iter().next().unwrap().get("teacher"), Some("Curie"));
    // New writes keep the indexes live; the join sees everything.
    db.insert("CHR", ["CS500", "9am", "R200"]).unwrap();
    let joined = db.join(["CT", "CHR"]).unwrap();
    assert_eq!(joined.len(), 2);
    for row in &joined {
        assert!(row.get("room").is_some());
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
