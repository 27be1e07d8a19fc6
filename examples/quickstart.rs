//! Quickstart: the paper's Example 1 end to end — through the typed API.
//!
//! Three relations about courses, teachers and departments; every relation
//! is locally fine, yet the database as a whole is contradictory — and the
//! independence analysis explains why local checking was never going to be
//! enough for this schema.  No manual `Universe`, `ValuePool` or
//! `SchemeId` juggling: the builder collects the universe from the
//! columns and runs the analysis exactly once.  A dependent schema is
//! not something a `Database` serves: the paper's chase baseline,
//! `ChaseMaintainer`, is driven directly.
//!
//! Run with: `cargo run --example quickstart`

use independent_schemas::prelude::*;

fn main() {
    // U = {course, dept, teacher}; D = {CD, CT, TD}; F = {C→D, C→T, T→D}.
    let declare = || {
        Schema::builder()
            .relation("CD", ["course", "dept"])
            .relation("CT", ["course", "teacher"])
            .relation("TD", ["dept", "teacher"])
            .fd("course -> dept")
            .fd("course -> teacher")
            .fd("teacher -> dept")
    };

    // The front door refuses this schema: it is not independent, so local
    // checking can never guarantee global consistency — and the error
    // carries a machine-checkable `LSAT ∖ WSAT` counterexample.
    let err = declare().build().unwrap_err();
    println!("build() refused: {err}\n");

    // Keep the handle anyway (verdict and witness included) to inspect
    // the diagnosis and serve the schema with a maintainer that can.
    let schema = declare().build_any().unwrap();
    println!("{}", schema.definition());
    println!(
        "F = {}\n",
        schema.fds().render(schema.definition().universe())
    );
    print!(
        "{}",
        render_analysis(schema.definition(), schema.analysis())
    );
    let witness = schema.witness().expect("not independent");
    let ok = verify_witness(
        schema.definition(),
        schema.fds(),
        &witness.state,
        &ChaseConfig::default(),
    )
    .unwrap();
    println!("\nwitness machine-checked (LSAT \\ WSAT): {ok}\n");

    // Serve it with the honest whole-state chase maintainer.  The
    // paper's state: CS402 is a CS course, taught by Jones… and each
    // relation alone stays consistent.  Every relation here is declared
    // in canonical (universe) order, so rows go in as written.
    let definition = schema.definition();
    let mut chase = ChaseMaintainer::new(
        definition,
        schema.fds(),
        DatabaseState::empty(definition),
        ChaseConfig::default(),
    );
    let mut pool = ValuePool::new();
    let mut insert = |name: &str, row: [&str; 2]| {
        let id = definition.scheme_by_name(name).unwrap();
        let tuple = row.iter().map(|v| pool.value(v)).collect();
        chase.insert(id, tuple).unwrap()
    };
    insert("CD", ["CS402", "CS"]);
    insert("CT", ["CS402", "Jones"]);

    // …but "Jones belongs to EE" contradicts the first two rows through
    // C→T and T→D: the chase catches at insert time what no per-relation
    // check could see.
    let out = insert("TD", ["EE", "Jones"]);
    println!("insert TD(EE, Jones): {out:?}");
    println!("  (C→T and T→D force CS402's department to EE, contradicting CS)\n");

    for (id, scheme) in definition.iter() {
        let rows: Vec<Vec<String>> = (chase.state().relation(id).iter())
            .map(|t| t.iter().map(|&v| pool.render(v)).collect())
            .collect();
        println!("{}: {rows:?}", scheme.name);
    }
    println!(
        "\nfinal state: {} rows — the contradictory row was rolled back",
        chase.state().total_tuples()
    );
}
