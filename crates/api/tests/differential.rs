//! Differential testing of the typed `Database` facade — the correctness
//! anchor of the API redesign.
//!
//! The facade adds three translation layers over the store (name → id,
//! string → interned value, declaration order → canonical order), and
//! each is a place outcomes could silently diverge.  So: replay random
//! interleaved traces through the **string-level** `Database`, and
//! through a **raw** sequential [`LocalMaintainer`] — the oracle — on
//! the original typed schema, and demand
//! identical per-op outcomes and identical final states — compared as
//! rendered rows, i.e. through the same surface a user reads.

use ids_api::{Database, EngineKind, Error, Schema};
use ids_core::{InsertOutcome, LocalMaintainer};
use ids_relational::{DatabaseState, SchemeId, Value};
use ids_workloads::families::{key_chain, key_star, FamilyInstance};
use ids_workloads::traces::{interleaved_trace, TraceKind, TraceOp, TraceParams};

use proptest::prelude::*;

/// Rebuilds a typed family instance through the fluent builder: columns
/// in canonical scheme order, FD specs rendered with explicit space
/// separators — exactly what a user migrating a schema by hand would
/// write (the builder's parser matches whole column names only, never
/// `Universe::render`'s single-letter concatenation).
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
    b.build().expect("family certified independent")
}

/// The canonical string spelling of a trace value.
fn render(v: Value) -> String {
    v.0.to_string()
}

/// Replays a trace through a raw sequential [`LocalMaintainer`] on the
/// *original* typed schema: the ground truth the facade must match.
fn raw_replay(inst: &FamilyInstance, trace: &[TraceOp]) -> (Vec<&'static str>, DatabaseState) {
    let analysis = ids_core::analyze(&inst.schema, &inst.fds);
    let mut m =
        LocalMaintainer::from_analysis(&inst.schema, &analysis, DatabaseState::empty(&inst.schema))
            .expect("family certified independent");
    let outcomes = trace
        .iter()
        .map(|op| match op.kind {
            TraceKind::Insert => match m.insert(op.scheme, op.tuple.clone()).unwrap() {
                InsertOutcome::Accepted => "accepted",
                InsertOutcome::Duplicate => "duplicate",
                InsertOutcome::Rejected { .. } => "rejected",
            },
            TraceKind::Remove => {
                if m.remove(op.scheme, &op.tuple).unwrap() {
                    "removed"
                } else {
                    "absent"
                }
            }
        })
        .collect();
    (outcomes, m.state().clone())
}

/// Replays the same trace through the string-level `Database`.
fn facade_replay<'a>(
    inst: &FamilyInstance,
    db: &Database,
    trace: impl IntoIterator<Item = &'a TraceOp>,
) -> Vec<&'static str> {
    trace
        .into_iter()
        .map(|op| {
            let name = &inst.schema.scheme(op.scheme).name;
            let row: Vec<String> = op.tuple.iter().map(|&v| render(v)).collect();
            match op.kind {
                TraceKind::Insert => match db.insert(name, &row).unwrap() {
                    InsertOutcome::Accepted => "accepted",
                    InsertOutcome::Duplicate => "duplicate",
                    InsertOutcome::Rejected { .. } => "rejected",
                },
                TraceKind::Remove => {
                    if db.remove(name, &row).unwrap() {
                        "removed"
                    } else {
                        "absent"
                    }
                }
            }
        })
        .collect()
}

/// Sorted rendered rows of one relation of the raw replay state.
fn raw_rows(state: &DatabaseState, id: SchemeId) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = state
        .relation(id)
        .iter()
        .map(|t| t.iter().map(|&v| render(v)).collect())
        .collect();
    rows.sort();
    rows
}

fn open(inst: &FamilyInstance) -> Database {
    Database::open(schema_via_builder(inst), EngineKind::default()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The string-level facade agrees with the raw sequential replay —
    /// per-op outcomes and final rendered rows.
    #[test]
    fn database_matches_raw_replay(
        pick in 0usize..2,
        size in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let inst = match pick {
            0 => key_chain(2 + size),
            _ => key_star(1 + size),
        };
        let trace = interleaved_trace(
            &inst.schema,
            TraceParams { clients: 2, ops_per_client: 15, domain: 4, remove_percent: 20 },
            seed,
        );
        let (expected_outcomes, expected_state) = raw_replay(&inst, &trace);

        let db = open(&inst);
        let got = facade_replay(&inst, &db, &trace);
        prop_assert_eq!(&got, &expected_outcomes, "outcomes diverge (seed {})", seed);
        // Final states, compared through the reading surface: both the
        // barrier-free per-relation path and the snapshot.
        let snapshot = db.snapshot().unwrap();
        for (id, scheme) in inst.schema.iter() {
            let expected = raw_rows(&expected_state, id);
            let mut via_rows = db.rows(&scheme.name).unwrap();
            via_rows.sort();
            prop_assert_eq!(&via_rows, &expected, "rows diverge (seed {})", seed);
            let facade_id = db.schema().scheme_id(&scheme.name).unwrap();
            prop_assert_eq!(
                snapshot.relation(facade_id).len(),
                expected.len(),
                "snapshot diverges (seed {})",
                seed
            );
        }
    }
}

/// One `&Database`, four threads: each thread replays the
/// trace's operations on its own relations (scheme index mod 4), in
/// trace order.  Relations of an independent schema share no enforcement
/// state, so however the threads interleave, every operation must get
/// the outcome the single-threaded replay gave it, the final rows must
/// be that replay's, and the final snapshot must pass the full chase.
/// (Interning order — which `Value` a string gets — does depend on the
/// interleaving; everything is compared as rendered rows.)
#[test]
fn four_threads_share_one_database() {
    const THREADS: usize = 4;
    for (inst, seed) in [(key_chain(5), 7u64), (key_star(4), 11)] {
        let trace = interleaved_trace(
            &inst.schema,
            TraceParams {
                clients: 4,
                ops_per_client: 60,
                domain: 5,
                remove_percent: 20,
            },
            seed,
        );
        let (expected_outcomes, expected_state) = raw_replay(&inst, &trace);
        let slice = |t: usize| {
            (trace.iter().zip(&expected_outcomes))
                .filter(move |(op, _)| op.scheme.index() % THREADS == t)
        };
        let label = &inst.name;
        let db = open(&inst);
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (db, inst, start) = (&db, &inst, &start);
                s.spawn(move || {
                    start.wait();
                    let got = facade_replay(inst, db, slice(t).map(|(op, _)| op));
                    let expected: Vec<_> = slice(t).map(|(_, outcome)| *outcome).collect();
                    assert_eq!(got, expected, "thread {t} diverges: {label}");
                });
            }
        });
        let schema = db.schema();
        let snapshot = db.snapshot().unwrap();
        for (id, scheme) in inst.schema.iter() {
            let expected = raw_rows(&expected_state, id);
            let mut rows = db.rows(&scheme.name).unwrap();
            rows.sort();
            assert_eq!(rows, expected, "rows diverge: {label}");
            let facade_id = schema.scheme_id(&scheme.name).unwrap();
            assert_eq!(
                snapshot.relation(facade_id).len(),
                expected.len(),
                "snapshot diverges: {label}"
            );
        }
        let verdict = ids_chase::satisfies(
            schema.definition(),
            schema.fds(),
            &snapshot,
            &ids_chase::ChaseConfig::default(),
        )
        .unwrap();
        assert!(verdict.is_satisfying(), "chase refuses: {label}");
    }
}

/// Error paths through the integration surface: unknown names, bad
/// arities, and the independence gate.
#[test]
fn facade_error_paths() {
    let db = open(&key_chain(3));
    assert!(matches!(
        db.insert("R99", ["0", "1"]),
        Err(Error::UnknownRelation(n)) if n == "R99"
    ));
    assert!(matches!(db.rows("R99"), Err(Error::UnknownRelation(_))));
    assert!(matches!(db.insert("R0", ["0"]), Err(Error::Relational(_))));
    assert!(matches!(
        db.remove("R0", ["0", "1", "2"]),
        Err(Error::Relational(_))
    ));
    assert_eq!(db.snapshot().unwrap().total_tuples(), 0);

    // The builder's independence gate: Example 1 is refused with a
    // witness (`build_any` keeps it for the chase maintainers).
    let refused = Schema::builder()
        .relation("CD", ["course", "dept"])
        .relation("CT", ["course", "teacher"])
        .relation("TD", ["teacher", "dept"])
        .fd("course -> dept")
        .fd("course -> teacher")
        .fd("teacher -> dept")
        .build();
    let err = refused.unwrap_err();
    assert!(matches!(err, Error::NotIndependent { .. }), "got {err}");
    assert!(err.witness().is_some());
}
