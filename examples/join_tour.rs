//! A tour of the join planner: the self-join contract, filters pushed
//! through Yannakakis-style semijoin reduction on acyclic relation
//! sets, ordered secondary indexes behind range conditions, and the
//! fluent ordering/aggregate surface.
//!
//! Run with: `cargo run --example join_tour`

use independent_schemas::prelude::*;

fn main() {
    // The registrar schema again, plus an ordered secondary index on
    // CHR.hour: the builder certifies independence once, and the index
    // declaration rides along to whichever shard owns CHR.
    let schema = Schema::builder()
        .relation("CT", ["course", "teacher"])
        .relation("CS", ["course", "student"])
        .relation("CHR", ["course", "hour", "room"])
        .fd("course -> teacher")
        .fd("course, hour -> room")
        .index("CHR", "hour")
        .build()
        .expect("Example 2 is independent");
    let db = Database::open(schema, EngineKind::Sharded(StoreConfig::default())).unwrap();

    for (course, teacher) in [("CS402", "Jones"), ("CS500", "Curie"), ("EE110", "Ohm")] {
        db.insert("CT", [course, teacher]).unwrap();
    }
    for (course, student) in [("CS402", "Ada"), ("CS402", "Alan"), ("CS500", "Ada")] {
        db.insert("CS", [course, student]).unwrap();
    }
    for (course, hour, room) in [
        ("CS402", "09", "R128"),
        ("CS500", "10", "R200"),
        ("EE110", "14", "R031"),
    ] {
        db.insert("CHR", [course, hour, room]).unwrap();
    }

    // ── 1. The self-join contract. ───────────────────────────────────
    // A relation listed twice is read ONCE: R ⋈ R is R, answered from a
    // single barrier-free cut of the relation's history.  (The buggy
    // alternative — two independent reads — can intersect two different
    // cuts and return a state the database never passed through.)
    let once = db.join(["CT"]).unwrap();
    let twice = db.join(["CT", "CT"]).unwrap();
    assert_eq!(once.columns(), twice.columns());
    assert_eq!(once.len(), twice.len());
    println!("CT ⋈ CT is CT: {} rows, one read", twice.len());

    // ── 2. Filters push through the planner. ─────────────────────────
    // {CT, CS, CHR} is α-acyclic, so the planner builds a join tree and
    // runs Yannakakis semijoin reduction: the filter on CS narrows CS
    // on its shard, CS's surviving join keys narrow CT and CHR — only
    // tuples that can reach the answer are shipped.
    let (rows, report) = db
        .join_query(["CT", "CS", "CHR"])
        .filter("CS", "student", eq("Ada"))
        .run_with_report()
        .unwrap();
    println!("Ada's schedule →\n{rows}");
    assert_eq!(
        rows.columns(),
        ["course", "teacher", "student", "hour", "room"]
    );
    assert_eq!(rows.len(), 2);
    assert!(report.planned, "the registrar set is acyclic");
    println!(
        "planner: {} tuples shipped, {} reducer keys (vs 9 tuples for whole reads)",
        report.tuples_shipped, report.keys_shipped
    );

    // Range conditions compile against the ordered index on CHR.hour.
    let morning = db
        .join_query(["CHR", "CT"])
        .filter("CHR", "hour", between("00", "11"))
        .run()
        .unwrap();
    assert_eq!(morning.len(), 2); // EE110's 14:00 slot is filtered out
    println!("morning classes → {morning}");

    // ── 3. Ordering and aggregates on single relations. ──────────────
    let latest = db
        .query("CHR")
        .order_by_desc("hour")
        .limit(1)
        .run()
        .unwrap();
    assert_eq!(latest.iter().next().unwrap().get("course"), Some("EE110"));
    assert_eq!(db.query("CHR").min("hour").unwrap().as_deref(), Some("09"));
    assert_eq!(
        db.query("CS")
            .filter("student", ne("Alan"))
            .count()
            .unwrap(),
        2
    );

    // Mistakes stay typed errors, before any engine is consulted.
    let err = db.join_query(["CT", "TD"]).run().unwrap_err();
    assert!(matches!(err, ApiError::UnknownRelation(_)));
    let err = db
        .join_query(["CT", "CS"])
        .filter("CT", "room", eq("R128"))
        .run()
        .unwrap_err();
    assert!(matches!(err, ApiError::UnknownColumn { .. }));
    println!("typed errors: unknown relations and columns never reach a shard");
}
