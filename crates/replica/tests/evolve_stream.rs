//! Schema transitions crossing the replication boundary: a follower —
//! file-tail or wire-stream — must apply a streamed `ALTER` and keep
//! converging, including when its seed predates the transition
//! entirely.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use ids_api::{Alter, Database, Schema};
use ids_replica::{Replica, ReplicaLag};
use ids_server::Server;
use ids_store::DurableConfig;

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("ids-replica-evolve-{}-{name}", std::process::id()));
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

fn add_sr() -> Alter {
    Alter::AddRelation {
        name: "SR".into(),
        columns: vec!["student".into(), "room".into()],
    }
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

fn sorted(mut rows: Vec<Vec<String>>) -> Vec<Vec<String>> {
    rows.sort();
    rows
}

/// Every relation of the primary's *current* schema renders the same
/// rows on the follower.
fn assert_converged(names: &[&str], rows_of: impl Fn(&str) -> Vec<Vec<String>>, replica: &Replica) {
    for relation in names {
        assert_eq!(
            sorted(rows_of(relation)),
            sorted(replica.database().rows(relation).unwrap()),
            "relation {relation} diverged"
        );
    }
}

/// A file-tail follower sees the generation manifest appear on disk,
/// applies the transition in place, and keeps tailing both surviving
/// and brand-new relations — across two transitions.
#[test]
fn file_follower_applies_transitions_from_a_live_primary() {
    let root = tmp_dir("file-alter");
    let db = Database::open_at(&root, schema(), DurableConfig::default()).unwrap();
    db.insert("CT", ["CS402", "Jones"]).unwrap();
    db.insert("CS", ["CS402", "Riley"]).unwrap();

    let mut replica = Replica::open(&root).unwrap();
    assert!(replica.wait_caught_up(Duration::from_secs(5)).unwrap());

    // Transition 1: a new relation.  Writes to old and new relations
    // after it must all arrive.
    db.alter(&add_sr()).unwrap();
    db.insert("SR", ["Riley", "R128"]).unwrap();
    db.insert("CT", ["CS101", "Smith"]).unwrap();
    assert!(replica.wait_caught_up(Duration::from_secs(5)).unwrap());
    assert_eq!(
        replica.database().schema().columns("SR").unwrap(),
        ["student", "room"]
    );
    assert_converged(&["CT", "CS", "SR"], |r| db.rows(r).unwrap(), &replica);

    // Transition 2: a new FD.  The follower re-analyzes and enforces
    // it on its own replay path too.
    db.alter(&Alter::AddFd {
        spec: "student -> room".into(),
    })
    .unwrap();
    db.insert("SR", ["Quinn", "R200"]).unwrap();
    assert!(replica.wait_caught_up(Duration::from_secs(5)).unwrap());
    assert_converged(&["CT", "CS", "SR"], |r| db.rows(r).unwrap(), &replica);

    // The transition is observable: the follower recorded it.
    let snap = replica.metrics();
    assert!(
        snap.events
            .iter()
            .any(|r| matches!(&r.event, ids_obs::Event::SchemaAltered { relations: 3, .. })),
        "follower must record the applied transition"
    );
}

/// The acceptance criterion: a *wire-stream* follower of an altering
/// primary receives the manifest before any post-transition frames,
/// applies it, and converges on the evolved schema.
#[test]
fn wire_follower_applies_a_streamed_transition() {
    let root = tmp_dir("wire-alter");
    let seed = tmp_dir("wire-alter-seed");
    let db = Database::open_at(&root, schema(), DurableConfig::default()).unwrap();
    db.insert("CT", ["CS402", "Jones"]).unwrap();
    db.insert("CS", ["CS402", "Riley"]).unwrap();
    copy_dir(&root, &seed);

    let shared = Arc::new(db.into_shared().unwrap());
    let server = Server::serve(Arc::clone(&shared), "127.0.0.1:0").unwrap();
    let mut replica = Replica::connect(&seed, server.local_addr()).unwrap();
    assert!(replica.wait_caught_up(Duration::from_secs(5)).unwrap());

    // Alter while the subscription is live, then write on both sides
    // of the boundary.
    shared.alter(&add_sr()).unwrap();
    shared.insert("SR", ["Riley", "R128"]).unwrap();
    shared.insert("CT", ["CS101", "Smith"]).unwrap();
    assert!(replica.wait_caught_up(Duration::from_secs(5)).unwrap());

    assert_eq!(
        replica.database().schema().columns("SR").unwrap(),
        ["student", "room"]
    );
    assert_converged(&["CT", "CS", "SR"], |r| shared.rows(r).unwrap(), &replica);
    let snap = replica.metrics();
    assert!(
        snap.events
            .iter()
            .any(|r| matches!(&r.event, ids_obs::Event::SchemaAltered { .. })),
        "streamed transition must be recorded on the follower"
    );
    server.shutdown();
}

/// A follower whose seed predates the transition: its cursors name the
/// *old* era's relations, so the server must validate them against the
/// era that governs them and stream the manifest before any new-era
/// frames.
#[test]
fn stale_seed_wire_follower_catches_up_through_a_transition() {
    let root = tmp_dir("wire-stale");
    let seed = tmp_dir("wire-stale-seed");
    let db = Database::open_at(&root, schema(), DurableConfig::default()).unwrap();
    db.insert("CT", ["CS402", "Jones"]).unwrap();
    copy_dir(&root, &seed);

    // The transition (and post-transition writes) happen before the
    // follower ever connects.
    db.alter(&add_sr()).unwrap();
    db.insert("SR", ["Riley", "R128"]).unwrap();
    db.insert("CS", ["CS402", "Riley"]).unwrap();

    let shared = Arc::new(db.into_shared().unwrap());
    let server = Server::serve(Arc::clone(&shared), "127.0.0.1:0").unwrap();
    let mut replica = Replica::connect(&seed, server.local_addr()).unwrap();
    assert!(replica.wait_caught_up(Duration::from_secs(5)).unwrap());

    assert_eq!(replica.database().schema().relation_names().count(), 3);
    assert_converged(&["CT", "CS", "SR"], |r| shared.rows(r).unwrap(), &replica);
    server.shutdown();
}

/// A drop transition: the follower releases the dropped relation's
/// state and skips any straggler records for it, without diverging.
#[test]
fn file_follower_applies_a_drop_transition() {
    let root = tmp_dir("file-drop");
    let db = Database::open_at(&root, schema(), DurableConfig::default()).unwrap();
    db.insert("CT", ["CS402", "Jones"]).unwrap();
    db.insert("CS", ["CS402", "Riley"]).unwrap();

    let mut replica = Replica::open(&root).unwrap();
    assert!(replica.wait_caught_up(Duration::from_secs(5)).unwrap());

    // Cover `student` elsewhere first, then drop CS.
    db.alter(&add_sr()).unwrap();
    db.insert("SR", ["Riley", "R128"]).unwrap();
    db.alter(&Alter::DropRelation { name: "CS".into() })
        .unwrap();
    db.insert("CT", ["CS101", "Smith"]).unwrap();
    assert!(replica.wait_caught_up(Duration::from_secs(5)).unwrap());

    let names: Vec<String> = replica
        .database()
        .schema()
        .relation_names()
        .map(String::from)
        .collect();
    assert_eq!(names, ["CT", "SR"]);
    assert_converged(&["CT", "SR"], |r| db.rows(r).unwrap(), &replica);
    assert!(replica.database().rows("CS").is_err(), "CS is gone");
}

/// The two transports are two shells over one follow loop and one
/// store, so over one trace — writes, a checkpoint, an added relation
/// and an added FD — a file-tail and a wire-stream follower of the same
/// live primary end in the same place: identical cursors, zero lag, the
/// primary's rows, and `shipped == applied + pending` per relation.
#[test]
fn file_and_wire_followers_agree_over_one_trace() {
    let root = tmp_dir("agree");
    let seed = tmp_dir("agree-seed");
    let db = Database::open_at(&root, schema(), DurableConfig::default()).unwrap();
    db.insert("CT", ["CS402", "Jones"]).unwrap();
    db.insert("CS", ["CS402", "Riley"]).unwrap();
    copy_dir(&root, &seed);
    let shared = Arc::new(db.into_shared().unwrap());
    let server = Server::serve(Arc::clone(&shared), "127.0.0.1:0").unwrap();
    let mut file = Replica::open(&root).unwrap();
    let mut wire = Replica::connect(&seed, server.local_addr()).unwrap();
    let mut catch_up = || {
        for replica in [&mut file, &mut wire] {
            assert!(replica.wait_caught_up(Duration::from_secs(5)).unwrap());
        }
    };

    shared.insert("CT", ["CS101", "Smith"]).unwrap();
    shared.remove("CS", ["CS402", "Riley"]).unwrap();
    // Both followers consume the generation before it is pruned.
    catch_up();
    shared.checkpoint().unwrap();
    shared.insert("CS", ["CS101", "Quinn"]).unwrap();
    shared.alter(&add_sr()).unwrap();
    shared.insert("SR", ["Quinn", "R128"]).unwrap();
    shared.insert("CT", ["CS301", "Lee"]).unwrap();
    shared
        .alter(&Alter::AddFd {
            spec: "student -> room".into(),
        })
        .unwrap();
    shared.insert("SR", ["Riley", "R200"]).unwrap();
    shared.insert("CS", ["CS301", "Riley"]).unwrap();
    catch_up();

    assert_eq!(file.cursors(), wire.cursors());
    for replica in [&file, &wire] {
        assert!(replica
            .lag()
            .iter()
            .all(|lag| *lag == ReplicaLag::default()));
        assert_converged(&["CT", "CS", "SR"], |r| shared.rows(r).unwrap(), replica);
        let snap = replica.metrics();
        for i in 0..replica.cursors().len() {
            let shipped = snap.counter(&format!("replica.r{i}.shipped")).unwrap_or(0);
            let applied = snap.counter(&format!("replica.r{i}.applied")).unwrap_or(0);
            let pending = snap.gauge(&format!("replica.r{i}.pending")).unwrap_or(0);
            assert_eq!(shipped, applied + pending as u64, "relation {i}");
        }
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&seed);
}

/// Starts a primary over `schema` with one CT row, plus both kinds of
/// follower, caught up: a file-tail follower of the live directory and
/// a wire-stream follower seeded from a copy taken now.  Returns the
/// served primary, its server and the two followers.
fn live_followers(
    name: &str,
    schema: Schema,
) -> (
    std::path::PathBuf,
    Arc<ids_api::SharedDatabase>,
    Server,
    Replica,
    Replica,
) {
    let root = tmp_dir(name);
    let seed = tmp_dir(&format!("{name}-seed"));
    let db = Database::open_at(&root, schema, DurableConfig::default()).unwrap();
    db.insert("CT", ["CS402", "Jones"]).unwrap();
    copy_dir(&root, &seed);
    let shared = Arc::new(db.into_shared().unwrap());
    let server = Server::serve(Arc::clone(&shared), "127.0.0.1:0").unwrap();
    let mut file = Replica::open(&root).unwrap();
    let mut wire = Replica::connect(&seed, server.local_addr()).unwrap();
    for replica in [&mut file, &mut wire] {
        assert!(replica.wait_caught_up(Duration::from_secs(5)).unwrap());
    }
    (root, shared, server, file, wire)
}

/// Every relation in `names` renders the same rows on the primary, on
/// both followers and on a `Database::recover` of a copy of the
/// primary's directory.
fn assert_all_agree(names: &[&str], root: &Path, shared: &Database, followers: [&Replica; 2]) {
    let copy = root.with_extension("recovered");
    let _ = std::fs::remove_dir_all(&copy);
    copy_dir(root, &copy);
    let recovered = Database::recover(&copy).unwrap();
    for relation in names {
        let want = sorted(shared.rows(relation).unwrap());
        assert_eq!(
            sorted(recovered.rows(relation).unwrap()),
            want,
            "recovered {relation}"
        );
        for replica in followers {
            assert_eq!(
                sorted(replica.database().rows(relation).unwrap()),
                want,
                "follower's {relation}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&copy);
}

/// Records written before an `ALTER` re-accept under the cover of their
/// own era, on both transports: `SR` holds `Riley` in two rooms before
/// `student -> room` exists (one removed again before the alter), and a
/// follower that applied the new cover first would refuse the second.
#[test]
fn records_written_before_an_alter_apply_under_their_own_era() {
    let schema = Schema::builder()
        .relation("CT", ["course", "teacher"])
        .relation("SR", ["student", "room"])
        .fd("course -> teacher")
        .build()
        .unwrap();
    let (root, shared, server, mut file, mut wire) = live_followers("era", schema);
    shared.insert("SR", ["Riley", "R1"]).unwrap();
    shared.insert("SR", ["Riley", "R2"]).unwrap();
    shared.remove("SR", ["Riley", "R1"]).unwrap();
    shared
        .alter(&Alter::AddFd {
            spec: "student -> room".into(),
        })
        .unwrap();
    shared.insert("SR", ["Quinn", "R3"]).unwrap();

    // One poll of the file follower ships the whole era change.
    let polled = file.poll().map(|p| p.applied);
    let streamed = wire.wait_caught_up(Duration::from_secs(5));
    assert!(
        matches!((&polled, &streamed), (Ok(4), Ok(true))),
        "file follower: {polled:?}; wire follower: {streamed:?}"
    );
    assert!(file.wait_caught_up(Duration::from_secs(5)).unwrap());
    assert_eq!(
        sorted(shared.rows("SR").unwrap()),
        [["Quinn", "R3"], ["Riley", "R2"]]
    );
    assert_all_agree(&["CT", "SR"], &root, &shared, [&file, &wire]);
    server.shutdown();
}

/// Dropping a relation declared before a survivor renumbers the
/// survivor; its records from both sides of the drop, shipped in one
/// poll, land in the survivor and nowhere else.  `SR` also changes its
/// cover after the drop, over a row it rewrote before it.
#[test]
fn a_survivor_renumbered_by_a_drop_keeps_its_records_across_one_poll() {
    let schema = Schema::builder()
        .relation("CS", ["course", "student"])
        .relation("CT", ["course", "teacher"])
        .relation("SR", ["student", "room"])
        .fd("course -> teacher")
        .build()
        .unwrap();
    let (root, shared, server, mut file, mut wire) = live_followers("renumber", schema);
    shared.insert("CS", ["CS402", "Riley"]).unwrap();
    shared.insert("CT", ["CS101", "Smith"]).unwrap();
    shared.insert("SR", ["Riley", "R1"]).unwrap();
    shared.insert("SR", ["Riley", "R2"]).unwrap();
    shared.remove("SR", ["Riley", "R1"]).unwrap();
    shared
        .alter(&Alter::DropRelation { name: "CS".into() })
        .unwrap();
    shared.insert("CT", ["CS301", "Lee"]).unwrap();
    shared
        .alter(&Alter::AddFd {
            spec: "student -> room".into(),
        })
        .unwrap();
    shared.insert("SR", ["Quinn", "R3"]).unwrap();

    let polled = file.poll().map(|p| p.applied);
    let streamed = wire.wait_caught_up(Duration::from_secs(5));
    assert!(
        matches!((&polled, &streamed), (Ok(7), Ok(true))),
        "file follower: {polled:?}; wire follower: {streamed:?}"
    );
    for replica in [&mut file, &mut wire] {
        assert!(replica.wait_caught_up(Duration::from_secs(5)).unwrap());
        let schema = replica.schema();
        assert_eq!(schema.relation_names().collect::<Vec<_>>(), ["CT", "SR"]);
    }
    assert_eq!(
        sorted(shared.rows("CT").unwrap()),
        [["CS101", "Smith"], ["CS301", "Lee"], ["CS402", "Jones"]]
    );
    assert_all_agree(&["CT", "SR"], &root, &shared, [&file, &wire]);
    server.shutdown();
}
