//! Cost-shape regression for `RelationShard::remove`.
//!
//! Theorem 3 prices maintenance at `O(|Fi|)` probes of the touched
//! relation, whatever its size: a remove is a hash removal, a tombstone
//! and one `O(1)` unlink from its value's slot chain per ordered index.
//! Anything that scans — the relation for the tuple, or an index for its
//! entry — costs ≈ 100× more at 200k rows than at 2k and keeps growing.
//! The test holds the *ratio* of the two per-remove times under 10× — a
//! shape, not a speed: no absolute time is asserted, and an order of
//! magnitude separates the bound from a linear remove.

use std::time::{Duration, Instant};

use ids_core::RelationShard;
use ids_deps::FdSet;
use ids_relational::{DatabaseSchema, Relation, SchemeId, Universe, Value};

const REMOVES: u64 = 2_000;

/// Loads `rows` rows `(i, i mod 97)` into a shard of `R(A, B)` under
/// `A → B` with an ordered index on `B` — the benchmark's shape: 97
/// recurring values, so each value's chain of slots grows with the
/// relation — then times `REMOVES` removes of rows spread over the whole
/// relation.
fn time_removes(rows: u64) -> Duration {
    let u = Universe::from_names(["A", "B"]).unwrap();
    let schema = DatabaseSchema::parse(u, &[("R", "AB")]).unwrap();
    let fds = FdSet::parse(schema.universe(), &["A -> B"]).unwrap();
    let id = SchemeId(0);
    let mut shard = RelationShard::new(&schema, id, fds);
    let mut rel = Relation::new(schema.attrs(id));
    shard
        .add_ordered_index(schema.universe().attr("B").unwrap(), &rel)
        .unwrap();
    let row = |i: u64| [Value::int(i), Value::int(i % 97)];
    for i in 0..rows {
        assert!(shard
            .insert(&mut rel, row(i).to_vec())
            .unwrap()
            .is_accepted());
    }
    // A stride coprime to `rows` visits distinct rows all over the relation.
    let victims: Vec<[Value; 2]> = (0..REMOVES).map(|k| row(k * 7_919 % rows)).collect();
    let start = Instant::now();
    for victim in &victims {
        assert!(shard.remove(&mut rel, victim).unwrap());
    }
    let elapsed = start.elapsed();
    assert_eq!(rel.len() as u64, rows - REMOVES);
    elapsed
}

#[test]
fn a_remove_costs_the_same_at_2k_rows_and_at_200k() {
    // Best of three: a stall of the host inflates one sample, never
    // deflates one.
    let best = |rows| (0..3).map(|_| time_removes(rows)).min().unwrap();
    let small = best(REMOVES);
    let large = best(100 * REMOVES);
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    assert!(
        ratio <= 10.0,
        "{REMOVES} removes took {small:?} at 2k rows and {large:?} at 200k rows: {ratio:.1}x"
    );
}
