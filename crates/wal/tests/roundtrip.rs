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

/// Every decoder of the durability files is total: a manifest, a
/// snapshot, a segment header or a log record cut short, overwritten
/// with a boundary byte, or bit-flipped decodes to a typed [`WalError`]
/// or to a value whose re-encoding decodes to that same value — never a
/// panic.  Inputs are generated per seed: random schemas and FD sets,
/// states with extreme values, names with non-ASCII bytes, records with
/// and without definitions.
#[test]
fn decoders_are_total_under_truncation_and_byte_damage() {
    use ids_wal::{Manifest, SegmentHeader, Snapshot, WalError, WalOp, WalRecord};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::path::Path;

    const BYTES: [u8; 8] = [0x00, 0x01, 0x3F, 0x40, 0x41, 0x7F, 0x80, 0xFF];
    let path = Path::new("fuzzed");

    // Every damaged copy of `bytes`: each truncation, each position set
    // to each boundary byte, and `flips` seeded single-bit flips.
    fn damaged(bytes: &[u8], rng: &mut StdRng, flips: usize) -> Vec<Vec<u8>> {
        let mut out: Vec<Vec<u8>> = (0..bytes.len()).map(|n| bytes[..n].to_vec()).collect();
        for i in 0..bytes.len() {
            for b in BYTES {
                if bytes[i] != b {
                    let mut copy = bytes.to_vec();
                    copy[i] = b;
                    out.push(copy);
                }
            }
        }
        for _ in 0..flips {
            let mut copy = bytes.to_vec();
            let bit = rng.gen_range(0..bytes.len() * 8);
            copy[bit / 8] ^= 1 << (bit % 8);
            out.push(copy);
        }
        out
    }

    // Runs `decode` on every damaged copy; `stable` checks an accepted
    // value against the decode of its own re-encoding.
    fn sweep<T>(
        what: &str,
        bytes: &[u8],
        rng: &mut StdRng,
        decode: impl Fn(&[u8]) -> Result<T, WalError>,
        stable: impl Fn(&T, &dyn Fn(&[u8]) -> Result<T, WalError>) -> bool,
    ) {
        for input in damaged(bytes, rng, 64) {
            match catch_unwind(AssertUnwindSafe(|| decode(&input))) {
                Err(_) => panic!("{what}: decode panicked on {input:02x?}"),
                Ok(Err(e)) => assert!(
                    matches!(
                        e,
                        WalError::Corrupt { .. } | WalError::UnsupportedVersion { .. }
                    ),
                    "{what}: unexpected error {e:?}"
                ),
                Ok(Ok(value)) => assert!(
                    stable(&value, &decode),
                    "{what}: the value decoded from {input:02x?} does not survive re-encoding"
                ),
            }
        }
    }

    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x70_7A1);
        let schema = random_schema(
            SchemaParams {
                attrs: 5,
                schemes: 3,
                max_scheme_size: 3,
            },
            seed,
        );
        let fds = random_embedded_fds(&schema, 3, 2, seed * 7 + 3);

        let manifest = Manifest {
            schema: schema.clone(),
            fds,
            app: (0..rng.gen_range(0..6))
                .map(|_| rng.gen_range(0..=u8::MAX))
                .collect(),
        };
        sweep(
            "manifest",
            &manifest.encode(),
            &mut rng,
            |b| Manifest::decode(path, b),
            |m, decode| decode(&m.encode()).is_ok_and(|back| back.encode() == m.encode()),
        );

        let mut state = DatabaseState::empty(&schema);
        for _ in 0..rng.gen_range(0..5) {
            let id = ids_relational::SchemeId::from_index(rng.gen_range(0..schema.len()));
            let tuple: Vec<Value> = (0..schema.attrs(id).len())
                .map(|_| match rng.gen_range(0u32..6) {
                    0 => Value(u64::MAX),
                    _ => Value(rng.gen_range(0..4)),
                })
                .collect();
            let _ = state.insert(id, tuple).unwrap();
        }
        let names = ["a", "課程", "", "x\u{7f}"];
        let snapshot = Snapshot {
            fingerprint: rng.gen_range(0..=u32::MAX),
            covered_gen: rng.gen_range(0..3),
            last_seqs: (0..schema.len()).map(|_| rng.gen_range(0..9)).collect(),
            state,
            names: (0..rng.gen_range(0..3u64))
                .map(|i| (Value(i), names[i as usize % names.len()].to_string()))
                .collect(),
            next_id: rng.gen_range(0..4),
        };
        sweep(
            "snapshot",
            &snapshot.encode(),
            &mut rng,
            |b| Snapshot::decode(path, b, &schema),
            |s, decode| decode(&s.encode()).is_ok_and(|back| back.encode() == s.encode()),
        );

        let header = SegmentHeader {
            fingerprint: rng.gen_range(0..=u32::MAX),
            scheme: rng.gen_range(0..4),
            gen: rng.gen_range(0..u64::MAX),
            start_seq: rng.gen_range(1..100),
        };
        sweep(
            "segment header",
            &header.encode(),
            &mut rng,
            |b| SegmentHeader::decode(path, b),
            |h, decode| decode(&h.encode()).is_ok_and(|back| back == *h),
        );

        for defining in [false, true] {
            let tuple: Vec<Value> = (0..rng.gen_range(0..4))
                .map(|_| Value(rng.gen_range(0..u64::MAX)))
                .collect();
            let defs = if defining {
                (0..rng.gen_range(1..3u64))
                    .map(|i| {
                        (
                            Value(i),
                            names[(seed + i) as usize % names.len()].to_string(),
                        )
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let record = WalRecord {
                seq: rng.gen_range(1..u64::MAX),
                op: if rng.gen_range(0..2) == 0 {
                    WalOp::Insert(tuple)
                } else {
                    WalOp::Remove(tuple)
                },
                defs,
            };
            sweep(
                "log record",
                &record.encode(),
                &mut rng,
                |b| WalRecord::decode(path, b),
                |r, decode| decode(&r.encode()).is_ok_and(|back| back == *r),
            );
        }
    }
}
