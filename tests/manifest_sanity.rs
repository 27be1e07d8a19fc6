//! Compile-time smoke test for the public API surface: the facade
//! `prelude` must expose every symbol the integration test files
//! (`end_to_end`, `paper_examples`, `properties`, `substrate_props`,
//! `theorems`, `witness_roundtrip`) import, and the per-crate facade
//! re-exports must resolve.  If a future PR drops a re-export, this
//! file fails to compile with the symbol's name in the error instead of
//! an opaque failure deep inside a test body.

// Every prelude symbol the six integration test files use, imported by
// name (a glob would hide removals).
#[allow(unused_imports)]
use independent_schemas::prelude::{
    analyze, eq, is_independent, locally_satisfies, render_analysis, satisfies, verify_witness,
    ApiError, AttrId, AttrSet, ChaseConfig, ChaseError, ChaseMaintainer, Client, ClientError, Cond,
    Database, DatabaseSchema, DatabaseState, DurableConfig, EngineKind, Event, EventRecord, Fd,
    FdOnlyMaintainer, FdSet, FrameError, FrameReader, HistogramSnapshot, IndependenceAnalysis,
    InsertOutcome, JoinDependency, LocalMaintainer, Maintainer, MaintenanceError, MetricsSnapshot,
    NotIndependentReason, OpOutcome, Predicate, Query, Relation, RelationScheme, RelationShard,
    Reply, Request, Row, RowSet, Rows, Satisfaction, Schema, SchemaBuilder, SchemeId, Server,
    ServerConfig, SharedDatabase, Store, StoreConfig, StoreOp, SyncPolicy, Tuple, Universe, Value,
    ValuePool, Verdict, WalDir, WalError, WireError, WireOutcome, Witness, WIRE_VERSION,
};

// Crate-module paths the test files reach around the prelude for.
#[allow(unused_imports)]
use independent_schemas::{
    acyclic::{
        full_reduce, is_acyclic, is_pairwise_consistent, join_tree, naive_join, yannakakis_join,
    },
    chase::{
        fd_implied_explicit, is_weak_instance, jd_implied_by_fds, GeneralTableau, TaggedRow,
        TaggedTableau,
    },
    core::WitnessKind,
    deps::{closure_with_jd, implies_with_jd, jd_blocks},
    relational::{
        codec::{Decoder, Encoder},
        join_all,
    },
    wal::{
        fingerprint,
        format::{crc32, frame, read_frame},
        Manifest, NameLog, SegmentHeader, Snapshot, WalOp, WalRecord, WalWriter,
    },
    workloads::{
        examples::{example1, registrar},
        families::key_star,
        generators::{random_embedded_fds, random_schema, SchemaParams},
        states::{insert_stream, random_locally_satisfying_state, random_satisfying_state},
        traces::{interleaved_trace, TraceKind, TraceOp, TraceParams},
    },
};

/// Signature pins for the core entry points: these fail to compile if a
/// refactor changes arity or types, not just if a name disappears.
/// Complex types are the point here — each pin spells a signature out.
#[allow(clippy::type_complexity)]
#[test]
fn entry_point_signatures_are_stable() {
    let _analyze: fn(&DatabaseSchema, &FdSet) -> IndependenceAnalysis = analyze;
    let _is_independent: fn(&DatabaseSchema, &FdSet) -> bool = is_independent;
    let _verify: fn(
        &DatabaseSchema,
        &FdSet,
        &DatabaseState,
        &ChaseConfig,
    ) -> Result<bool, ChaseError> = verify_witness;
    // One way in per mode: a typed-level caller builds the handle, and
    // the store opens from it.
    let _canonical: fn(&DatabaseSchema, &FdSet) -> Schema = Schema::canonical;
    let _open: fn(Schema, StoreConfig) -> Result<Store, ApiError> = Store::open;
    let _from_analysis: fn(
        &DatabaseSchema,
        &IndependenceAnalysis,
        DatabaseState,
    ) -> Result<LocalMaintainer, MaintenanceError> = LocalMaintainer::from_analysis;
    // The ids-api surface: builder, database over the store, and the
    // follower's handle over a shared store.
    let _builder: fn() -> SchemaBuilder = Schema::builder;
    let _build: fn(SchemaBuilder) -> Result<Schema, ApiError> = SchemaBuilder::build;
    let _build_any: fn(SchemaBuilder) -> Result<Schema, ApiError> = SchemaBuilder::build_any;
    let _open: fn(Schema, EngineKind) -> Result<Database, ApiError> = Database::open;
    let _follower: fn(std::sync::Arc<Store>) -> Database = Database::follower;
    let _db_store: fn(&Database) -> &Store = Database::store;
    // Uniform fallibility: remove surfaces errors on every layer.
    let _remove: fn(&mut LocalMaintainer, SchemeId, &[Value]) -> Result<bool, MaintenanceError> =
        LocalMaintainer::remove;
    // The one read: the shard's row visitor gathering or counting the
    // matches of a predicate, on every layer that owns a relation.
    let _filter: fn(&Relation, &Predicate) -> Vec<Tuple> = Relation::filter_tuples;
    let _scan: fn(&RelationShard, &Relation, &Predicate) -> Result<Vec<Tuple>, MaintenanceError> =
        RelationShard::scan;
    let _shard_count: fn(&RelationShard, &Relation, &Predicate) -> Result<usize, MaintenanceError> =
        RelationShard::count;
    // An era's store lifetime belongs to its impl, not to the method.
    let _era_count: fn(
        &independent_schemas::store::Era<'static>,
        SchemeId,
        &Predicate,
    ) -> Result<usize, ApiError> = independent_schemas::store::Era::count;
    let _db_read: fn(&Database, &str) -> Result<Relation, ApiError> = Database::read;
    let _store_query: fn(&Store, SchemeId, &Predicate) -> Result<Vec<Tuple>, ApiError> =
        Store::query;
    let _eq = |v: &str| -> Cond { eq(v) };
    let _pred_matches: fn(&Predicate, AttrSet, &[Value]) -> bool = Predicate::matches;
    let _store_from_analysis: fn(
        &DatabaseSchema,
        &IndependenceAnalysis,
        StoreConfig,
    ) -> Result<Store, ApiError> = Store::from_analysis;
    // Non-panicking boundary lookups.
    let _get_scheme: fn(&DatabaseSchema, SchemeId) -> Option<&RelationScheme> =
        DatabaseSchema::get_scheme;
    let _get_relation: fn(&DatabaseState, SchemeId) -> Option<&Relation> =
        DatabaseState::get_relation;
    // The durability surface: the store's one durable open, its replay
    // into memory, checkpoint and alter, and the api-level durable
    // constructors.  The path-taking entry points use `impl AsRef<Path>`
    // (no fn-pointer coercion), so typed closures pin their shapes
    // instead.
    let _open_at = |p: &std::path::Path, s: Schema, c: DurableConfig| -> Result<Store, ApiError> {
        Store::open_at(p, s, c)
    };
    use independent_schemas::{api::Alter, wal::Cursor};
    let _recover_from: fn(&WalDir, Schema) -> Result<(Store, Vec<Cursor>), ApiError> =
        Store::recover_from;
    let _alter: fn(&Store, &Alter) -> Result<u64, ApiError> = Store::alter;
    let _checkpoint: fn(&Store) -> Result<(), ApiError> = Store::checkpoint;
    let _db_open_at = |p: &std::path::Path,
                       s: Schema,
                       c: DurableConfig|
     -> Result<Database, ApiError> { Database::open_at(p, s, c) };
    let _db_recover = |p: &std::path::Path| -> Result<Database, ApiError> { Database::recover(p) };
    let _db_checkpoint: fn(&Database) -> Result<(), ApiError> = Database::checkpoint;
    let _fingerprint: fn(&DatabaseSchema, &FdSet) -> u32 = fingerprint;
    let _sync_default: SyncPolicy = SyncPolicy::default();
    // The network surface: shared front-end, server lifecycle, blocking
    // client.  Address-taking entry points use `impl ToSocketAddrs` (no
    // fn-pointer coercion), so typed closures pin their shapes.
    let _into_shared: fn(Database) -> Result<SharedDatabase, ApiError> = Database::into_shared;
    let _shared_is_a_database: fn(&SharedDatabase) -> &Database =
        <SharedDatabase as std::ops::Deref>::deref;
    let _db_count: fn(&Database, &str) -> Result<usize, ApiError> = Database::count;
    let _db_snapshot: fn(&Database) -> Result<DatabaseState, ApiError> = Database::snapshot;
    // One handle, shared: the database crosses threads.
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
    assert_send_sync::<SharedDatabase>();
    let _serve = |s: std::sync::Arc<SharedDatabase>,
                  a: std::net::SocketAddr|
     -> std::io::Result<Server> { Server::serve(s, a) };
    let _serve_with = |s: std::sync::Arc<SharedDatabase>,
                       a: std::net::SocketAddr,
                       c: ServerConfig|
     -> std::io::Result<Server> { Server::serve_with(s, a, c) };
    let _local_addr: fn(&Server) -> std::net::SocketAddr = Server::local_addr;
    let _shutdown: fn(Server) = Server::shutdown;
    let _connect = |a: std::net::SocketAddr| -> Result<Client, ClientError> { Client::connect(a) };
    let _send: fn(&mut Client, Request) -> Result<u64, ClientError> = Client::send;
    let _recv: fn(&mut Client, u64) -> Result<Reply, ClientError> = Client::recv;
    let _catalog: fn(&Client) -> &[(String, Vec<String>)] = Client::catalog;
    let _client_query: fn(
        &mut Client,
        &str,
        &[(&str, &str)],
        Option<&[&str]>,
    ) -> Result<RowSet, ClientError> = Client::query;
    let _version: u16 = WIRE_VERSION;
    let _queue_depth: usize = ServerConfig::default().queue_depth;
    let _overloaded: WireError = WireError::Overloaded;
    let _accepted: WireOutcome = WireOutcome::Accepted;
    let _corrupt: FrameError = FrameError::Corrupt("pinned");
    let _frame_reader: fn(std::io::Empty) -> FrameReader<std::io::Empty> = FrameReader::new;
    // The observability surface: typed snapshots at every layer, the
    // stats poll over the wire, and the measured ping.
    let _store_metrics: fn(&Store) -> MetricsSnapshot = Store::metrics;
    let _db_metrics: fn(&Database) -> MetricsSnapshot = Database::metrics;
    let _server_metrics: fn(&Server) -> MetricsSnapshot = Server::metrics;
    let _ping: fn(&mut Client) -> Result<std::time::Duration, ClientError> = Client::ping;
    let _stats: fn(&mut Client) -> Result<MetricsSnapshot, ClientError> = Client::stats;
    let _stats_req: Request = Request::Stats;
    let _stats_reply: Reply = Reply::Stats(MetricsSnapshot::default());
    let _counter_sum: fn(&MetricsSnapshot, &str) -> u64 = MetricsSnapshot::counter_sum;
    let _render: fn(&MetricsSnapshot) -> String = MetricsSnapshot::render;
    let _merge: fn(&mut MetricsSnapshot, MetricsSnapshot) = MetricsSnapshot::merge;
    let _quantile: fn(&HistogramSnapshot, f64) -> std::time::Duration = HistogramSnapshot::quantile;
    let _recording: fn() -> bool = independent_schemas::obs::recording;
    let _event: Event = Event::OverloadShed { connection: 0 };
    let _record: fn(&EventRecord) -> &Event = |r| &r.event;
}

/// The doctest's Example 2 scenario, reachable through prelude symbols
/// alone — the minimum viable use of the facade.
#[test]
fn prelude_supports_the_quickstart() {
    let u = Universe::from_names(["C", "T", "H", "R", "S"]).unwrap();
    let schema = DatabaseSchema::parse(u, &[("CT", "CT"), ("CS", "CS"), ("CHR", "CHR")]).unwrap();
    let fds = FdSet::parse(schema.universe(), &["C -> T", "CH -> R"]).unwrap();
    assert!(analyze(&schema, &fds).is_independent());

    let fds2 = FdSet::parse(schema.universe(), &["C -> T", "CH -> R", "SH -> R"]).unwrap();
    let analysis = analyze(&schema, &fds2);
    assert!(!analysis.is_independent());
    let witness = analysis.witness().expect("non-independent ⇒ witness");
    assert!(verify_witness(&schema, &fds2, &witness.state, &ChaseConfig::default()).unwrap());
}

/// The same scenario through the typed front-end: builder → database →
/// string-level ops, reachable through prelude symbols alone.
#[test]
fn prelude_supports_the_database_quickstart() {
    let schema = Schema::builder()
        .relation("CT", ["course", "teacher"])
        .relation("CS", ["course", "student"])
        .relation("CHR", ["course", "hour", "room"])
        .fd("course -> teacher")
        .fd("course hour -> room")
        .build()
        .expect("Example 2 is independent");
    let db = Database::open(schema, EngineKind::Local).unwrap();
    db.insert("CT", ["CS402", "Jones"]).unwrap();
    assert!(db.insert("CT", ["CS402", "Smith"]).unwrap().is_rejected());
    assert_eq!(
        db.rows("CT").unwrap(),
        vec![vec!["CS402".to_string(), "Jones".to_string()]]
    );
    // The fluent query + barrier-free join surface, via prelude alone.
    let rows: Rows = db
        .query("CT")
        .filter("course", eq("CS402"))
        .select(["teacher"])
        .run()
        .unwrap();
    let row: &Row = rows.iter().next().unwrap();
    assert_eq!(row.get("teacher"), Some("Jones"));
    db.insert("CHR", ["CS402", "9am", "R128"]).unwrap();
    assert_eq!(db.join(["CT", "CHR"]).unwrap().len(), 1);

    let err = Schema::builder()
        .relation("CT", ["course", "teacher"])
        .relation("CS", ["course", "student"])
        .relation("CHR", ["course", "hour", "room"])
        .fd("course -> teacher")
        .fd("course hour -> room")
        .fd("student hour -> room")
        .build()
        .unwrap_err();
    assert!(matches!(err, ApiError::NotIndependent { .. }));
    assert!(err.witness().is_some());
}
