//! Round-trip property tests for the compact serializers the
//! durability format is built on: arbitrary `DatabaseState`s, schemas
//! and FD sets must survive encode → bytes → decode as the identity —
//! including the awkward citizens: empty relations, non-ASCII names, and
//! extreme `u64` values.

use ids_deps::FdSet;
use ids_relational::codec::{Decoder, Encoder};
use ids_relational::{DatabaseSchema, DatabaseState, Universe, Value};
use ids_workloads::generators::{random_embedded_fds, random_schema, SchemaParams};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn roundtrip_state(schema: &DatabaseSchema, state: &DatabaseState) {
    let mut e = Encoder::new();
    state.encode(&mut e);
    let bytes = e.into_bytes();
    let mut d = Decoder::new(&bytes);
    let back = DatabaseState::decode(&mut d, schema).expect("state decodes");
    assert!(d.is_done());
    assert_eq!(back.len(), state.len());
    for (id, rel) in state.iter() {
        let brel = back.relation(id);
        assert!(rel.set_eq(brel), "relation {id:?} differs");
        // Insertion order is part of the contract (deterministic
        // iteration), so the tuple sequences must match exactly.
        assert!(rel.iter().zip(brel.iter()).all(|(a, b)| a == b));
    }
    let mut e2 = Encoder::new();
    back.encode(&mut e2);
    assert_eq!(e2.into_bytes(), bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// DatabaseState over random schemas: random tuples, extreme
    /// values, and (often) some completely empty relations.
    #[test]
    fn database_state_round_trips(
        seed in 0u64..1_000_000,
        tuples in 0usize..40,
    ) {
        let schema = random_schema(
            SchemaParams { attrs: 8, schemes: 4, max_scheme_size: 4 },
            seed,
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD15C);
        let mut state = DatabaseState::empty(&schema);
        for _ in 0..tuples {
            let id = ids_relational::SchemeId::from_index(rng.gen_range(0..schema.len()));
            let tuple: Vec<Value> = (0..schema.attrs(id).len())
                .map(|_| match rng.gen_range(0u32..10) {
                    0 => Value(u64::MAX),
                    1 => Value(u64::MAX - rng.gen_range(0u64..8)),
                    _ => Value(rng.gen_range(0..6)),
                })
                .collect();
            let _ = state.insert(id, tuple).unwrap();
        }
        roundtrip_state(&schema, &state);
    }

    /// Schema + FD set round trip, and the decoded pair keeps the same
    /// durability fingerprint (the identity the manifest pins).
    #[test]
    fn schema_and_fds_round_trip(seed in 0u64..1_000_000) {
        let schema = random_schema(
            SchemaParams { attrs: 10, schemes: 5, max_scheme_size: 5 },
            seed,
        );
        let fds = random_embedded_fds(&schema, 6, 2, seed * 3 + 1);
        let mut e = Encoder::new();
        schema.encode(&mut e);
        fds.encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let schema_back = DatabaseSchema::decode(&mut d).unwrap();
        let fds_back = FdSet::decode(&mut d).unwrap();
        prop_assert!(d.is_done());
        prop_assert!(schema_back == schema);
        prop_assert!(fds_back.same_fds(&fds));
        prop_assert_eq!(
            ids_wal::fingerprint(&schema_back, &fds_back),
            ids_wal::fingerprint(&schema, &fds)
        );
    }
}

/// The named edge cases, spelled out so a regression is immediately
/// legible: non-ASCII names, a state whose relations are all empty.
#[test]
fn edge_cases_round_trip() {
    // Universe with non-ASCII attribute names round trips too.
    let u = Universe::from_names(["課程", "教師", "学生"]).unwrap();
    let schema = DatabaseSchema::parse(u, &[("課教", "課程 教師"), ("課学", "課程 学生")]).unwrap();
    let state = DatabaseState::empty(&schema); // all relations empty
    roundtrip_state(&schema, &state);

    let mut e = Encoder::new();
    schema.encode(&mut e);
    let bytes = e.into_bytes();
    let back = DatabaseSchema::decode(&mut Decoder::new(&bytes)).unwrap();
    assert!(back == schema);
    assert_eq!(back.universe().name(ids_relational::AttrId(0)), "課程");
}
