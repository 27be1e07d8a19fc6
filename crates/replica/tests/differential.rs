//! Crash/byzantine differential properties: whatever trace lands on a
//! durable primary — with or without a mid-stream checkpoint — a
//! follower on either transport must end up **identical to a sequential
//! replay of the acknowledged ops**.  And whatever happens to the
//! shipped bytes, the follower's reaction is typed: a torn tail is
//! tolerated as a clean prefix, a lying CRC is a typed error, and
//! nothing ever panics.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ids_api::{Alter, Database, Schema};
use ids_core::LocalMaintainer;
use ids_relational::{DatabaseState, ValuePool};
use ids_replica::{Replica, ReplicaError};
use ids_server::Server;
use ids_store::DurableConfig;
use ids_wal::parse_segment_file_name;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

static CASE: AtomicUsize = AtomicUsize::new(0);

const RELS: [&str; 2] = ["CT", "CS"];

fn tmp_dir(name: &str) -> PathBuf {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let p = std::env::temp_dir().join(format!(
        "ids-replica-diff-{}-{case}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn schema() -> Schema {
    Schema::builder()
        .relation("CT", ["course", "teacher"])
        .relation("CS", ["course", "student"])
        .fd("course -> teacher")
        .build()
        .unwrap()
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).unwrap();
        }
    }
}

/// One step of a random trace: `(relation, key, value, insert?)`.
/// Small domains on purpose — duplicates, FD rejections and effective
/// removes must all occur.
type Step = (usize, u8, u8, bool);

fn gen_steps(seed: u64, n: usize) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            (
                rng.gen_range(0..RELS.len()),
                rng.gen_range(0u8..6),
                rng.gen_range(0u8..4),
                rng.gen_range(0u32..100) < 75,
            )
        })
        .collect()
}

fn tuple(key: u8, val: u8) -> [String; 2] {
    [format!("k{key}"), format!("v{val}")]
}

/// The acknowledged (effective) ops per relation, in order — exactly
/// what each relation's log contains.
type Effective = Vec<Vec<(bool, [String; 2])>>;

/// The differential oracle: replays the acknowledged ops sequentially
/// through a fresh [`LocalMaintainer`] and returns sorted string rows per
/// relation.  Every effective op must re-accept — anything else means
/// the log itself is not a valid sequential history.  Both relations
/// declare their columns in canonical order, so rows go in as written.
fn oracle_rows(effective: &Effective) -> Vec<Vec<Vec<String>>> {
    let schema = schema();
    let definition = schema.definition();
    let empty = DatabaseState::empty(definition);
    let mut m = LocalMaintainer::from_analysis(definition, schema.analysis(), empty).unwrap();
    let mut pool = ValuePool::new();
    let id = |r: &str| definition.scheme_by_name(r).unwrap();
    for (i, ops) in effective.iter().enumerate() {
        for (insert, t) in ops {
            let t: Vec<_> = t.iter().map(|v| pool.value(v)).collect();
            if *insert {
                assert!(
                    m.insert(id(RELS[i]), t).unwrap().is_accepted(),
                    "acknowledged insert must re-accept in sequential replay"
                );
            } else {
                assert!(
                    m.remove(id(RELS[i]), &t).unwrap(),
                    "acknowledged remove must re-apply in sequential replay"
                );
            }
        }
    }
    RELS.iter()
        .map(|r| {
            let mut rows: Vec<Vec<String>> = (m.state().relation(id(r)).iter())
                .map(|t| t.iter().map(|&v| pool.render(v)).collect())
                .collect();
            rows.sort();
            rows
        })
        .collect()
}

fn replica_rows(replica: &Replica) -> Vec<Vec<Vec<String>>> {
    RELS.iter()
        .map(|r| {
            let mut rows = replica.database().rows(r).unwrap();
            rows.sort();
            rows
        })
        .collect()
}

/// `shipped == applied + pending` on every relation, from one snapshot.
fn assert_conservation(replica: &Replica) {
    let snap = replica.metrics();
    for i in 0..RELS.len() {
        let shipped = snap.counter(&format!("replica.r{i}.shipped")).unwrap_or(0);
        let applied = snap.counter(&format!("replica.r{i}.applied")).unwrap_or(0);
        let pending = snap.gauge(&format!("replica.r{i}.pending")).unwrap_or(0);
        assert_eq!(shipped, applied + pending as u64, "relation {i}");
    }
}

/// Builds a primary with `n` unique accepted CT inserts and returns the
/// WAL root.  Used by the corruption properties, where the per-record
/// frame size must be measurable.
fn linear_primary(n: usize) -> PathBuf {
    let root = tmp_dir("linear");
    let db = Database::open_at(&root, schema(), DurableConfig::default()).unwrap();
    for i in 0..n {
        assert!(db
            .insert("CT", [format!("k{i}"), format!("v{i}")])
            .unwrap()
            .is_accepted());
    }
    root
}

/// Locates relation 0's newest segment file under a WAL root.
fn ct_segment(root: &Path) -> PathBuf {
    let mut best: Option<(u64, PathBuf)> = None;
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let entry = entry.unwrap();
            if entry.file_type().unwrap().is_dir() {
                stack.push(entry.path());
                continue;
            }
            let name = entry.file_name();
            let Some((scheme, gen)) = name.to_str().and_then(parse_segment_file_name) else {
                continue;
            };
            if scheme == 0 && best.as_ref().is_none_or(|(g, _)| gen > *g) {
                best = Some((gen, entry.path()));
            }
        }
    }
    best.expect("relation 0 has a segment").1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// File-tail follower, polled live against a random acknowledged
    /// trace with a checkpoint rotation at a random position: final
    /// state ≡ sequential replay of the acknowledged ops, on the
    /// primary, the follower, and the oracle alike.
    #[test]
    fn file_follower_matches_sequential_replay(
        seed in 0u64..1_000_000,
        ckpt in 0usize..40,
        do_ckpt in 0usize..2,
    ) {
        let steps = gen_steps(seed, 40);
        let root = tmp_dir("file");
        let db = Database::open_at(&root, schema(), DurableConfig::default()).unwrap();
        let mut replica = Replica::open(&root).unwrap();
        let mut effective: Effective = vec![Vec::new(); RELS.len()];
        for (i, &(rel, key, val, insert)) in steps.iter().enumerate() {
            if do_ckpt == 1 && i == ckpt {
                db.checkpoint().unwrap();
            }
            let t = tuple(key, val);
            let acked = if insert {
                db.insert(RELS[rel], t.clone()).unwrap().is_accepted()
            } else {
                db.remove(RELS[rel], t.clone()).unwrap()
            };
            if acked {
                effective[rel].push((insert, t));
            }
            // Polling after every step keeps the follower inside the
            // live generation, so a checkpoint never strands it.
            replica.poll().unwrap();
        }
        prop_assert!(replica.wait_caught_up(Duration::from_secs(5)).unwrap());

        let want = oracle_rows(&effective);
        prop_assert_eq!(&replica_rows(&replica), &want);
        let mut primary: Vec<Vec<Vec<String>>> = RELS
            .iter()
            .map(|r| db.rows(r).unwrap())
            .collect();
        primary.iter_mut().for_each(|r| r.sort());
        prop_assert_eq!(&primary, &want);
        assert_conservation(&replica);
        drop(db);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Wire follower seeded mid-trace: everything after the base backup
    /// arrives over TCP, and the final state still ≡ the sequential
    /// replay.  The checkpoint (when present) lands before the seed
    /// copy, so the rotation is crossed at bootstrap.
    #[test]
    fn wire_follower_matches_sequential_replay(
        seed in 0u64..1_000_000,
        ckpt in 0usize..20,
        do_ckpt in 0usize..2,
    ) {
        let steps = gen_steps(seed, 40);
        let root = tmp_dir("wire");
        let seed_dir = tmp_dir("wire-seed");
        let db = Database::open_at(&root, schema(), DurableConfig::default()).unwrap();
        let mut effective: Effective = vec![Vec::new(); RELS.len()];
        for (i, &(rel, key, val, insert)) in steps[..20].iter().enumerate() {
            if do_ckpt == 1 && i == ckpt {
                db.checkpoint().unwrap();
            }
            let t = tuple(key, val);
            let acked = if insert {
                db.insert(RELS[rel], t.clone()).unwrap().is_accepted()
            } else {
                db.remove(RELS[rel], t.clone()).unwrap()
            };
            if acked {
                effective[rel].push((insert, t));
            }
        }
        copy_dir(&root, &seed_dir);

        let shared = Arc::new(db.into_shared().unwrap());
        let server = Server::serve(Arc::clone(&shared), "127.0.0.1:0").unwrap();
        for &(rel, key, val, insert) in &steps[20..] {
            let t = tuple(key, val);
            let acked = if insert {
                shared.insert(RELS[rel], t.clone()).unwrap().is_accepted()
            } else {
                shared.remove(RELS[rel], t.clone()).unwrap()
            };
            if acked {
                effective[rel].push((insert, t));
            }
        }
        let mut replica = Replica::connect(&seed_dir, server.local_addr()).unwrap();
        prop_assert!(replica.wait_caught_up(Duration::from_secs(5)).unwrap());

        let want = oracle_rows(&effective);
        prop_assert_eq!(&replica_rows(&replica), &want);
        let mut primary: Vec<Vec<Vec<String>>> = RELS
            .iter()
            .map(|r| shared.rows(r).unwrap())
            .collect();
        primary.iter_mut().for_each(|r| r.sort());
        prop_assert_eq!(&primary, &want);
        assert_conservation(&replica);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
        let _ = std::fs::remove_dir_all(&seed_dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A torn tail — the segment truncated anywhere inside its frame
    /// region — is a clean crash, not corruption: the follower
    /// bootstraps to exactly the replay of the longest complete prefix.
    #[test]
    fn torn_tail_bootstraps_to_the_acknowledged_prefix(cut in 1usize..10_000) {
        const N: usize = 10;
        // Frame size measured, not assumed: the delta between an
        // (N)-record and an (N-1)-record segment of identical shape.
        let full = linear_primary(N);
        let shorter = linear_primary(N - 1);
        let full_len = std::fs::metadata(ct_segment(&full)).unwrap().len() as usize;
        let short_len = std::fs::metadata(ct_segment(&shorter)).unwrap().len() as usize;
        let frame = full_len - short_len;
        let _ = std::fs::remove_dir_all(&shorter);

        let region = N * frame; // the frames; everything before is header
        let cut = 1 + cut % (region - 1);
        let victim = tmp_dir("torn");
        copy_dir(&full, &victim);
        let seg = ct_segment(&victim);
        let file = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        file.set_len((full_len - cut) as u64).unwrap();
        drop(file);

        let survivors = (region - cut) / frame;
        let replica = Replica::open(&victim).unwrap();
        let rows = replica.database().rows("CT").unwrap();
        let want: Vec<Vec<String>> = (0..survivors)
            .map(|i| vec![format!("k{i}"), format!("v{i}")])
            .collect();
        prop_assert_eq!(rows, want);
        prop_assert!(survivors < N, "a mid-frame cut must lose the torn record");
        let _ = std::fs::remove_dir_all(&full);
        let _ = std::fs::remove_dir_all(&victim);
    }

    /// A bit flipped inside a complete frame is a lie the CRC catches:
    /// bootstrap refuses with a typed error — never a panic, never a
    /// silently wrong state.
    #[test]
    fn crc_lie_is_a_typed_error(back in 1usize..32, bit in 0usize..8) {
        let root = linear_primary(10);
        let victim = tmp_dir("flip");
        copy_dir(&root, &victim);
        let seg = ct_segment(&victim);
        let mut bytes = std::fs::read(&seg).unwrap();
        // The final 31 bytes of the file are the last frame's CRC +
        // payload; flipping any bit there must break the checksum.
        let off = bytes.len() - back;
        bytes[off] ^= 1 << bit;
        std::fs::write(&seg, &bytes).unwrap();

        let err = match Replica::open(&victim) {
            Ok(_) => panic!("a lying CRC must not bootstrap"),
            Err(e) => e,
        };
        prop_assert!(
            matches!(err, ReplicaError::Wal(_)),
            "wanted a typed WAL error, got {}", err
        );
        let _ = std::fs::remove_dir_all(&root);
        let _ = std::fs::remove_dir_all(&victim);
    }

    /// The same lie over the wire: the server's shipper hits the bad
    /// CRC while streaming and the subscriber gets a typed error on the
    /// stream — the connection fails loudly, the process never panics.
    #[test]
    fn wire_ships_corruption_as_a_typed_error(bit in 0usize..8) {
        let root = tmp_dir("wire-flip");
        let seed_dir = tmp_dir("wire-flip-seed");
        let db = Database::open_at(&root, schema(), DurableConfig::default()).unwrap();
        for i in 0..5 {
            db.insert("CT", [format!("k{i}"), format!("v{i}")]).unwrap();
        }
        copy_dir(&root, &seed_dir);
        for i in 5..10 {
            db.insert("CT", [format!("k{i}"), format!("v{i}")]).unwrap();
        }
        let shared = Arc::new(db.into_shared().unwrap());
        let server = Server::serve(Arc::clone(&shared), "127.0.0.1:0").unwrap();

        // Corrupt a frame the seed has NOT consumed, after the last
        // write: the server's subscribe tailer must trip over it.
        let seg = ct_segment(&root);
        let mut bytes = std::fs::read(&seg).unwrap();
        let off = bytes.len() - 20;
        bytes[off] ^= 1 << bit;
        std::fs::write(&seg, &bytes).unwrap();

        let mut replica = Replica::connect(&seed_dir, server.local_addr()).unwrap();
        let err = loop {
            match replica.poll() {
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        prop_assert!(
            matches!(err, ReplicaError::Client(_) | ReplicaError::Wal(_)),
            "wanted a typed stream error, got {}", err
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
        let _ = std::fs::remove_dir_all(&seed_dir);
    }
}

/// Three relations over a triangle of attributes, so dropping any one
/// leaves the universe covered, and at most one FD at a time, each
/// embedded in one relation.
const TRIANGLE: [(&str, [&str; 2]); 3] =
    [("AB", ["a", "b"]), ("BC", ["b", "c"]), ("CA", ["c", "a"])];

/// The follower side of one seeded run of [`alters_interleaved_with_writes`]:
/// writes on the three relations, interleaved with `AddFd`, `DropFd`,
/// `AddRelation` and `DropRelation` of the first-declared relation (which
/// renumbers every survivor), with a file follower polled at seeded
/// points.  Every poll must return `Ok`, and at the end the follower and
/// a recovery of the primary's directory must render the primary's rows.
/// Returns a description of the first disagreement.
fn alter_case(seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = Schema::builder();
    for (name, columns) in TRIANGLE {
        builder = builder.relation(name, columns);
    }
    let root = tmp_dir("alters");
    let db = Database::open_at(&root, builder.build().unwrap(), DurableConfig::default()).unwrap();
    let mut replica = Replica::open(&root).unwrap();
    // The model the alters are drawn from: declared relations in order,
    // the dropped ones, and the one FD (as its relation's name).
    let mut live: Vec<&'static str> = TRIANGLE.iter().map(|(name, _)| *name).collect();
    let mut dropped: Vec<&'static str> = Vec::new();
    let mut fd: Option<&'static str> = None;
    for step in 0..80 {
        if rng.gen_range(0u32..6) == 0 {
            // The alters well-formed under the model; refused ones (a
            // backfill the rows violate) leave it as it was.
            let mut changes = vec![match fd {
                Some(_) => Change::DropFd,
                None => Change::AddFd(live[rng.gen_range(0..live.len())]),
            }];
            if live.len() == 3 && fd != Some(live[0]) {
                changes.push(Change::DropFirst);
            }
            if !dropped.is_empty() {
                changes.push(Change::ReAdd);
            }
            let change = changes.swap_remove(rng.gen_range(0..changes.len()));
            let alter = match change {
                Change::AddFd(on) => Alter::AddFd { spec: fd_spec(on) },
                Change::DropFd => Alter::DropFd {
                    spec: fd_spec(fd.unwrap()),
                },
                Change::DropFirst => Alter::DropRelation {
                    name: live[0].to_string(),
                },
                Change::ReAdd => Alter::AddRelation {
                    name: dropped[0].to_string(),
                    columns: columns_of(dropped[0]).map(String::from).to_vec(),
                },
            };
            if db.alter(&alter).is_ok() {
                match change {
                    Change::AddFd(on) => fd = Some(on),
                    Change::DropFd => fd = None,
                    Change::DropFirst => dropped.push(live.remove(0)),
                    Change::ReAdd => live.push(dropped.remove(0)),
                }
            }
        }
        let relation = live[rng.gen_range(0..live.len())];
        let row = [
            format!("x{}", rng.gen_range(0u8..3)),
            format!("y{}", rng.gen_range(0u8..2)),
        ];
        if rng.gen_range(0u32..100) < 60 {
            db.insert(relation, row).unwrap();
        } else {
            db.remove(relation, row).unwrap();
        }
        if rng.gen_range(0u32..8) == 0 {
            replica
                .poll()
                .map_err(|e| format!("seed {seed}: poll after step {step}: {e}"))?;
        }
    }
    let caught_up = (replica.wait_caught_up(Duration::from_secs(5)))
        .map_err(|e| format!("seed {seed}: final poll: {e}"))?;
    if !caught_up {
        return Err(format!("seed {seed}: the follower never caught up"));
    }
    let copy = tmp_dir("alters-recovered");
    copy_dir(&root, &copy);
    let recovered = Database::recover(&copy).map_err(|e| format!("seed {seed}: recover: {e}"))?;
    for relation in &live {
        let rows = |db: &Database| {
            let mut rows = db.rows(relation).unwrap();
            rows.sort();
            rows
        };
        let want = rows(&db);
        for (who, got) in [
            ("follower", rows(replica.database())),
            ("recovery", rows(&recovered)),
        ] {
            if got != want {
                return Err(format!(
                    "seed {seed}: {who} holds {got:?} in {relation}, the primary {want:?}"
                ));
            }
        }
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&copy);
    Ok(())
}

/// One alter of [`alter_case`], over relation names of [`TRIANGLE`].
#[derive(Clone, Copy)]
enum Change {
    /// Add the FD embedded in this relation.
    AddFd(&'static str),
    /// Drop the one FD.
    DropFd,
    /// Drop the first-declared relation, renumbering the others.
    DropFirst,
    /// Add the longest-dropped relation back, declared last.
    ReAdd,
}

fn columns_of(relation: &str) -> [&'static str; 2] {
    TRIANGLE.iter().find(|(n, _)| *n == relation).unwrap().1
}

/// The spec of the FD embedded in relation `on`: its first column
/// determines its second.
fn fd_spec(on: &str) -> String {
    let [lhs, rhs] = columns_of(on);
    format!("{lhs} -> {rhs}")
}

/// A file follower across seeded alters of every kind: every poll is
/// `Ok` and the follower ends equal to the primary and to recovery.  The
/// cases are seeds `0..PROPTEST_CASES` (default 12); a failure names its
/// seed, and `ALTER_SEED=<u64>` runs that one alone.
#[test]
fn alters_interleaved_with_writes() {
    let seeds: Vec<u64> = match std::env::var("ALTER_SEED") {
        Ok(seed) => vec![seed.parse().expect("ALTER_SEED is a u64")],
        Err(_) => (0..ProptestConfig::with_cases(12).effective_cases() as u64).collect(),
    };
    for seed in seeds {
        if let Err(e) = alter_case(seed) {
            panic!("{e}");
        }
    }
}
