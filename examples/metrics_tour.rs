//! The observability surface, end to end: per-shard operation
//! counters, apply-latency histograms, WAL fsync/checkpoint timings,
//! and the structured event ring — all readable as one typed
//! [`MetricsSnapshot`] and rendered as text.
//!
//! The design follows Theorem 3's shape: every hot-path tally is a
//! *per-shard* relaxed atomic (no cross-shard coordination, just like
//! the maintenance itself), and aggregation happens only at read time,
//! when a snapshot walks the registry.  Recording can be switched off
//! globally (`ids_obs::set_recording(false)`) or compiled out entirely
//! (`--features ids-obs/off`); experiment E12 measures the overhead of
//! leaving it on.
//!
//! Run with: `cargo run --release --example metrics_tour`

use independent_schemas::prelude::*;

fn main() {
    let root = std::env::temp_dir().join(format!("ids-metrics-tour-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let schema = Schema::builder()
        .relation("CT", ["course", "teacher"])
        .relation("CS", ["course", "student"])
        .relation("CHR", ["course", "hour", "room"])
        .fd("course -> teacher")
        .fd("course hour -> room")
        .build()
        .expect("Example 2 is independent");

    // A durable database: the WAL families (appends, fsync latency,
    // checkpoint durations) join the store's shard families.
    let db =
        Database::open_at(&root, schema, DurableConfig::default()).expect("open durable database");

    // A small mixed workload so every counter family has something to
    // say: accepted, duplicate, FD-rejected, and removed rows.
    for i in 0..50 {
        db.insert("CT", [format!("CS{i}"), format!("T{}", i % 7)])
            .unwrap();
        db.insert("CS", [format!("CS{i}"), format!("S{}", i % 11)])
            .unwrap();
    }
    db.insert("CT", ["CS0", "T0"]).unwrap(); // duplicate
    assert!(db.insert("CT", ["CS0", "T9"]).unwrap().is_rejected()); // course → teacher
    db.remove("CS", ["CS0", "S0"]).unwrap();

    // A checkpoint: rotation + pruning, timed into `wal.checkpoint_ns`
    // and logged as a start/complete event pair.
    db.checkpoint().unwrap();

    let snap = db.metrics();

    // The typed surface: exact counter queries and conservation.
    println!("== typed queries ==");
    let accepted = snap.counter_sum("accepted");
    let duplicate = snap.counter_sum("duplicate");
    let rejected = snap.counter_sum("rejected");
    let removed = snap.counter_sum("removed");
    println!("accepted={accepted} duplicate={duplicate} rejected={rejected} removed={removed}");
    assert_eq!(
        (accepted, duplicate, rejected, removed),
        (100, 1, 1, 1),
        "the counters are bookkeeping-free: they must equal the workload exactly"
    );
    println!(
        "wal appends={} fsyncs={} rotations={}",
        snap.counter("wal.appends").unwrap_or(0),
        snap.counter("wal.fsyncs").unwrap_or(0),
        snap.counter("wal.rotations").unwrap_or(0),
    );
    if let Some(h) = snap.histogram("wal.fsync_ns") {
        println!(
            "fsync latency: count={} mean={:?} p99≈{:?}",
            h.count,
            h.mean(),
            h.quantile(0.99),
        );
    }

    // The event ring: structured, bounded, timestamped.
    println!("\n== event ring ==");
    for rec in &snap.events {
        println!(
            "  [{:>6}ns #{:>2}] {}",
            rec.at.as_nanos(),
            rec.seq,
            rec.event
        );
    }

    // And the full text rendering — every family, sorted by name.
    println!("\n== rendered snapshot ==");
    print!("{}", snap.render());

    let _ = std::fs::remove_dir_all(&root);
}
