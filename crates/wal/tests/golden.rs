//! Golden-file tests: the on-disk layout is pinned byte for byte by
//! fixtures checked into the repository, so an accidental format change
//! fails loudly instead of silently orphaning existing logs.
//!
//! The fixtures live in `tests/fixtures/` and are written by the
//! `regenerate_fixtures` test below (ignored by default; run it
//! manually after an *intentional* format bump, together with a
//! `FORMAT_VERSION` increment).

use std::path::{Path, PathBuf};

use ids_deps::FdSet;
use ids_relational::{DatabaseSchema, DatabaseState, SchemeId, Universe, Value};
use ids_wal::format::{crc32, frame, read_frame, FrameOutcome, FORMAT_VERSION};
use ids_wal::{fingerprint, Manifest, SegmentHeader, Snapshot, WalDir, WalError, WalOp, WalRecord};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// The fixed schema every fixture is written under.
fn fixture_schema() -> (DatabaseSchema, FdSet) {
    let u = Universe::from_names(["C", "T", "S"]).unwrap();
    let schema = DatabaseSchema::parse(u, &[("CT", "CT"), ("CS", "CS")]).unwrap();
    let fds = FdSet::parse(schema.universe(), &["C -> T"]).unwrap();
    (schema, fds)
}

/// The segment fixture: header (scheme 0, gen 1, start 1) + an insert
/// and a remove of `CT(1, 10)`.
fn build_segment_bytes() -> Vec<u8> {
    let (schema, fds) = fixture_schema();
    let mut out = frame(
        &SegmentHeader {
            fingerprint: fingerprint(&schema, &fds),
            scheme: 0,
            gen: 1,
            start_seq: 1,
        }
        .encode(),
    );
    out.extend(frame(
        &WalRecord {
            seq: 1,
            op: WalOp::Insert(vec![Value(1), Value(10)]),
            defs: Vec::new(),
        }
        .encode(),
    ));
    out.extend(frame(
        &WalRecord {
            seq: 2,
            op: WalOp::Remove(vec![Value(1), Value(10)]),
            defs: Vec::new(),
        }
        .encode(),
    ));
    out
}

/// The snapshot fixture: one CS tuple, covering gen 1, seqs (2, 1).
fn build_snapshot_bytes() -> Vec<u8> {
    let (schema, fds) = fixture_schema();
    let mut state = DatabaseState::empty(&schema);
    state
        .insert(SchemeId(1), vec![Value(1), Value(50)])
        .unwrap();
    frame(
        &Snapshot {
            fingerprint: fingerprint(&schema, &fds),
            covered_gen: 1,
            last_seqs: vec![2, 1],
            state,
            names: Vec::new(),
            next_id: 0,
        }
        .encode(),
    )
}

/// The manifest fixture, with a small app blob.
fn build_manifest_bytes() -> Vec<u8> {
    let (schema, fds) = fixture_schema();
    frame(
        &Manifest {
            schema,
            fds,
            app: vec![0xAB, 0xCD],
        }
        .encode(),
    )
}

/// The corrupted fixture: the segment with one bit flipped inside the
/// *last record's payload* — a full frame whose CRC lies.
fn build_corrupt_segment_bytes() -> Vec<u8> {
    let mut bytes = build_segment_bytes();
    let n = bytes.len();
    bytes[n - 1] ^= 0x40;
    bytes
}

#[test]
#[ignore = "writes tests/fixtures/*; run manually after an intentional format bump"]
fn regenerate_fixtures() {
    let dir = fixture_dir();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("segment-v1.wal"), build_segment_bytes()).unwrap();
    std::fs::write(dir.join("snapshot-v1.ids"), build_snapshot_bytes()).unwrap();
    std::fs::write(dir.join("manifest-v1.ids"), build_manifest_bytes()).unwrap();
    std::fs::write(
        dir.join("segment-corrupt-crc.wal"),
        build_corrupt_segment_bytes(),
    )
    .unwrap();
}

/// Byte-for-byte: today's encoders must reproduce the checked-in
/// fixtures exactly.
#[test]
fn encoders_reproduce_the_fixtures_byte_for_byte() {
    let dir = fixture_dir();
    for (name, built) in [
        ("segment-v1.wal", build_segment_bytes()),
        ("snapshot-v1.ids", build_snapshot_bytes()),
        ("manifest-v1.ids", build_manifest_bytes()),
        ("segment-corrupt-crc.wal", build_corrupt_segment_bytes()),
    ] {
        let pinned = std::fs::read(dir.join(name)).unwrap_or_else(|e| {
            panic!(
                "fixture {name} missing ({e}); was the format changed \
                                        without regenerating + version-bumping?"
            )
        });
        assert_eq!(
            pinned, built,
            "{name}: encoder output diverged from the pinned format — \
             bump FORMAT_VERSION and regenerate deliberately"
        );
    }
}

/// The layout constants themselves: frame fields at fixed offsets,
/// magic strings, version, CRC polynomial behavior.
#[test]
fn layout_constants_are_pinned() {
    assert_eq!(FORMAT_VERSION, 1);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926, "CRC-32/IEEE pinned");

    let seg = std::fs::read(fixture_dir().join("segment-v1.wal")).unwrap();
    // Frame: [len u32][crc32(len ‖ payload) u32][payload] — the length
    // bytes are inside the checksum.
    let len = u32::from_le_bytes(seg[0..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(seg[4..8].try_into().unwrap());
    let checksummed: Vec<u8> = [&seg[0..4], &seg[8..8 + len]].concat();
    assert_eq!(crc32(&checksummed), crc);
    // Segment header payload: magic, version, then identity fields.
    assert_eq!(&seg[8..12], b"IDSW");
    assert_eq!(u16::from_le_bytes(seg[12..14].try_into().unwrap()), 1);

    let snap = std::fs::read(fixture_dir().join("snapshot-v1.ids")).unwrap();
    assert_eq!(&snap[8..12], b"IDSS");
    let man = std::fs::read(fixture_dir().join("manifest-v1.ids")).unwrap();
    assert_eq!(&man[8..12], b"IDSM");
}

/// The fixtures decode through the public reader API to the expected
/// typed values.
#[test]
fn fixtures_decode_to_the_expected_values() {
    let (schema, fds) = fixture_schema();
    let fp = fingerprint(&schema, &fds);
    let dir = fixture_dir();

    let seg = std::fs::read(dir.join("segment-v1.wal")).unwrap();
    let FrameOutcome::Complete { payload, rest } = read_frame(&seg) else {
        panic!("header frame");
    };
    let header = SegmentHeader::decode(&dir.join("segment-v1.wal"), payload).unwrap();
    assert_eq!(
        header,
        SegmentHeader {
            fingerprint: fp,
            scheme: 0,
            gen: 1,
            start_seq: 1
        }
    );
    let FrameOutcome::Complete { payload, rest } = read_frame(rest) else {
        panic!("record 1");
    };
    let r1 = WalRecord::decode(Path::new("r"), payload).unwrap();
    assert_eq!(r1.seq, 1);
    assert_eq!(r1.op, WalOp::Insert(vec![Value(1), Value(10)]));
    let FrameOutcome::Complete { payload, rest } = read_frame(rest) else {
        panic!("record 2");
    };
    let r2 = WalRecord::decode(Path::new("r"), payload).unwrap();
    assert_eq!(r2.op, WalOp::Remove(vec![Value(1), Value(10)]));
    assert!(rest.is_empty());

    let snap = std::fs::read(dir.join("snapshot-v1.ids")).unwrap();
    let FrameOutcome::Complete { payload, .. } = read_frame(&snap) else {
        panic!("snapshot frame");
    };
    let snapshot = Snapshot::decode(Path::new("s"), payload, &schema).unwrap();
    assert_eq!(snapshot.covered_gen, 1);
    assert_eq!(snapshot.last_seqs, vec![2, 1]);
    assert!(snapshot
        .state
        .relation(SchemeId(1))
        .contains(&[Value(1), Value(50)]));

    let man = std::fs::read(dir.join("manifest-v1.ids")).unwrap();
    let FrameOutcome::Complete { payload, .. } = read_frame(&man) else {
        panic!("manifest frame");
    };
    let manifest = Manifest::decode(Path::new("m"), payload).unwrap();
    assert_eq!(manifest.schema, schema);
    assert!(manifest.fds.same_fds(&fds));
    assert_eq!(manifest.app, vec![0xAB, 0xCD]);
}

/// End-to-end through recovery: the good segment replays fully; the
/// corrupted-CRC fixture is a typed [`WalError::Corrupt`], never a
/// panic and never a silently shortened log; a truncated copy recovers
/// its prefix.
#[test]
fn recovery_distinguishes_corruption_from_torn_tails() {
    let (schema, fds) = fixture_schema();
    let root = std::env::temp_dir().join(format!("ids-wal-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dir = WalDir::create(&root, &schema, &fds, Vec::new()).unwrap();
    let seg_path = root.join("wal").join("r00000-g0000000001.log");

    // Good fixture: both records replay.
    std::fs::copy(fixture_dir().join("segment-v1.wal"), &seg_path).unwrap();
    let recovered = dir.recover().unwrap();
    assert_eq!(recovered.tail[0].len(), 2);
    assert_eq!(recovered.last_seqs(), vec![2, 0]);

    // Corrupted-CRC fixture: typed error.
    std::fs::copy(fixture_dir().join("segment-corrupt-crc.wal"), &seg_path).unwrap();
    match dir.recover() {
        Err(WalError::Corrupt { path, detail }) => {
            assert!(path.ends_with("r00000-g0000000001.log"), "{path:?}");
            assert!(detail.contains("checksum"), "{detail}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }

    // Torn copy of the good fixture: the prefix survives.
    let good = std::fs::read(fixture_dir().join("segment-v1.wal")).unwrap();
    std::fs::write(&seg_path, &good[..good.len() - 7]).unwrap();
    let recovered = dir.recover().unwrap();
    assert_eq!(recovered.tail[0].len(), 1);
    assert_eq!(recovered.last_seqs(), vec![1, 0]);

    let _ = std::fs::remove_dir_all(&root);
}
