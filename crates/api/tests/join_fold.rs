//! The planner's flat fold is the natural join.
//!
//! `Database::join` folds the fetched tuples with one hash join per
//! join-tree edge and no de-duplication, on the argument that every read
//! ships a set and the natural join of sets is a set.  This checks the
//! result against `join_all` — the relational substrate's own fold —
//! over the relations of a `snapshot`, each filtered at the string level
//! by the same conditions the join pushed down: the same multiset of
//! rendered rows, and the same count, so no row is missing and none is
//! doubled.  Shapes are seeded random acyclic chains and stars of two to
//! four relations, which take the planned path, and cyclic triangles,
//! which take the fallback; the value domain is small, so keys repeat
//! and every edge sees one-to-many and many-to-many matches.

use ids_api::{between, eq, ne, one_of, Cond, Database, EngineKind, Schema};
use ids_relational::{join_all, Relation};

/// splitmix64: one seeded stream per case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `(relation, columns)` of one generated join shape.
type Shape = Vec<(String, Vec<String>)>;

fn relation(name: &str, columns: &[&str]) -> (String, Vec<String>) {
    let columns = columns.iter().map(|c| c.to_string()).collect();
    (name.to_string(), columns)
}

/// A chain `R0(x0 x1) ⋈ R1(x1 x2) ⋈ …` of `n` relations.
fn chain(n: usize) -> Shape {
    (0..n)
        .map(|i| {
            relation(
                &format!("R{i}"),
                &[&format!("x{i}"), &format!("x{}", i + 1)],
            )
        })
        .collect()
}

/// A star: a hub `H(k1 … k{n-1})` and one satellite `S{i}(k{i} v{i})`
/// per hub column — `n` relations in all.
fn star(n: usize) -> Shape {
    let keys: Vec<String> = (1..n).map(|i| format!("k{i}")).collect();
    let hub: Vec<&str> = keys.iter().map(String::as_str).collect();
    let mut shape = vec![relation("H", &hub)];
    for i in 1..n {
        shape.push(relation(
            &format!("S{i}"),
            &[&format!("k{i}"), &format!("v{i}")],
        ));
    }
    shape
}

/// The cyclic triangle `AB ⋈ BC ⋈ CA`.
fn triangle() -> Shape {
    vec![
        relation("AB", &["a", "b"]),
        relation("BC", &["b", "c"]),
        relation("CA", &["c", "a"]),
    ]
}

/// Values come from `d0..d3`; `zz` is never stored, so a condition on
/// it exercises the unsatisfiable and vacuous paths.
fn value(rng: &mut Rng) -> String {
    format!("d{}", rng.below(4))
}

/// What a condition admits, at the string level.
type Admits = Box<dyn Fn(&str) -> bool>;

/// A random condition and its string-level meaning.
fn condition(rng: &mut Rng) -> (Cond, Admits) {
    let v = if rng.below(8) == 0 {
        "zz".to_string()
    } else {
        value(rng)
    };
    match rng.below(4) {
        0 => (eq(v.clone()), Box::new(move |s| s == v)),
        1 => (ne(v.clone()), Box::new(move |s| s != v)),
        2 => {
            let w = value(rng);
            let set = [v.clone(), w.clone()];
            (
                one_of(set.clone()),
                Box::new(move |s| set.contains(&s.to_string())),
            )
        }
        _ => (
            between("d1", v.clone()),
            Box::new(move |s| "d1" <= s && s <= v.as_str()),
        ),
    }
}

/// One generated case: load random rows, join under
/// random filters, compare with `join_all` over the filtered snapshot.
/// Returns the row count and whether the planner ran.
fn check(seed: u64, shape: &Shape) -> (usize, bool) {
    let mut rng = Rng(seed);
    let mut builder = Schema::builder();
    for (name, columns) in shape {
        builder = builder.relation(name, columns.iter().map(String::as_str));
    }
    let schema = builder.build().expect("no FDs: independent");
    let db = Database::open(schema, EngineKind::default()).unwrap();
    for (name, columns) in shape {
        for _ in 0..rng.below(14) {
            let row: Vec<String> = columns.iter().map(|_| value(&mut rng)).collect();
            db.insert(name, row).unwrap();
        }
    }

    // List the relations in a random order, sometimes one twice (the
    // self-join contract: read once, joined once).
    let mut listed: Vec<String> = shape.iter().map(|(name, _)| name.clone()).collect();
    for i in (1..listed.len()).rev() {
        listed.swap(i, rng.below(i + 1));
    }
    if rng.below(4) == 0 {
        listed.push(listed[0].clone());
    }
    let mut query = db.join_query(&listed);
    let mut filters: Vec<(String, String, Admits)> = Vec::new();
    for _ in 0..rng.below(3) {
        let (name, columns) = &shape[rng.below(shape.len())];
        let column = columns[rng.below(columns.len())].clone();
        let (cond, admits) = condition(&mut rng);
        query = query.filter(name, &column, cond);
        filters.push((name.clone(), column, admits));
    }
    let (rows, report) = query.run_with_report().unwrap();

    // The oracle: each listed relation of the snapshot, filtered at the
    // string level, folded by `join_all`.
    let schema = db.schema();
    let universe = schema.definition().universe();
    let snapshot = db.snapshot().unwrap();
    let mut distinct: Vec<&String> = Vec::new();
    for name in &listed {
        if !distinct.contains(&name) {
            distinct.push(name);
        }
    }
    let filtered: Vec<Relation> = distinct
        .into_iter()
        .map(|name| {
            let id = schema.scheme_id(name).unwrap();
            let full = snapshot.relation(id);
            let attrs = full.attrs();
            let mut kept = Relation::new(attrs);
            for t in full.iter() {
                let admitted =
                    filters
                        .iter()
                        .filter(|(r, _, _)| r == name)
                        .all(|(_, c, admits)| {
                            let attr = universe.attr(c).unwrap();
                            admits(&db.render(t[attrs.rank(attr)]))
                        });
                if admitted {
                    kept.insert(t.to_vec()).unwrap();
                }
            }
            kept
        })
        .collect();
    let expected = join_all(filtered.iter()).unwrap();
    let jattrs = expected.attrs();
    let positions: Vec<usize> = rows
        .columns()
        .iter()
        .map(|c| jattrs.rank(universe.attr(c).unwrap()))
        .collect();
    let mut want: Vec<Vec<String>> = expected
        .iter()
        .map(|t| positions.iter().map(|&p| db.render(t[p])).collect())
        .collect();
    let label = format!("seed {seed}, {listed:?}");
    assert_eq!(rows.len(), expected.len(), "{label}: row count");
    let mut got = rows.into_string_rows();
    got.sort();
    want.sort();
    assert_eq!(got, want, "{label}");
    (got.len(), report.planned)
}

#[test]
fn the_flat_fold_returns_exactly_the_natural_join() {
    // Rows returned by planned and by fallback joins: both paths must
    // have been exercised on non-empty results.
    let (mut planned, mut fallback) = (0, 0);
    for seed in 0..120u64 {
        let mut rng = Rng(seed ^ 0xF01D);
        let shape = match rng.below(3) {
            0 => chain(2 + rng.below(3)),
            1 => star(2 + rng.below(3)),
            _ => triangle(),
        };
        match check(seed, &shape) {
            (rows, true) => planned += rows,
            (rows, false) => fallback += rows,
        }
    }
    assert!(planned > 125, "planned joins returned only {planned} rows");
    assert!(fallback > 15, "cyclic joins returned only {fallback} rows");
}
