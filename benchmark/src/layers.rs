//! Every call the benchmark makes into the product, and nothing else.
//! When a product API changes, this is the one file to follow it.
//!
//! Pinned functions, by layer (crate):
//!
//! * `ids-core`: `RelationShard::{new, add_ordered_index, insert, remove,
//!   scan}`, `LocalMaintainer::{from_analysis, insert, remove}`
//! * `ids-store`: `Store::{from_analysis, open_durable_from_analysis,
//!   insert, remove, apply_batch, query, checkpoint, metrics, shutdown}`,
//!   `StoreConfig`, `DurableConfig`, `SyncPolicy`, `StoreOp`, `OpOutcome`
//! * `ids-wal`: `NameLog::{open, append}`
//! * `ids-api`: `Schema::builder` (`relation`, `fd`, `index`, `build`),
//!   `Schema::{definition, analysis, fds, enforcement, scheme_id}`,
//!   `Database::{open, open_at, recover, intern, insert, remove,
//!   apply_batch, join_query, count, into_shared}`,
//!   `JoinQuery::run_with_report`, `SharedDatabase::{insert, remove, query,
//!   join, count, metrics}`, `eq`
//! * `ids-server`: `Server::{serve, local_addr, metrics, shutdown}`,
//!   `wire::{encode_request, decode_request, encode_reply, decode_reply,
//!   read_frame}`, `wire::{Request, Reply, WireOutcome, WireError}`
//! * `ids-client`: `Client::{connect, send, recv, ping, checkpoint, stats}`
//! * `ids-obs`: `MetricsSnapshot::{counter, counter_sum}`

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;

use ids_api::{eq, Database, EngineKind, Schema, SharedDatabase};
use ids_client::{Client, ClientError};
use ids_core::{InsertOutcome, LocalMaintainer, RelationShard};
use ids_obs::MetricsSnapshot;
use ids_relational::{AttrId, DatabaseState, Predicate, Relation, SchemeId, Value};
use ids_server::wire::{self, FrameOutcome, Reply, Request, WireError, WireOutcome};
use ids_server::Server;
use ids_store::{DurableConfig, OpOutcome, Store, StoreConfig, StoreOp, SyncPolicy};
use ids_wal::NameLog;

use crate::gen::{
    group_name, mix_key, mix_val, preload_key, Answer, Op, Outcome, Preload, Tallies,
    RELATION_NAMES,
};

/// Shards of every store the benchmark opens: one per CPU of the sandbox.
const SHARDS: usize = 2;
/// Rows per `apply_batch` call while preloading.
const PRELOAD_BATCH: usize = 4096;

/// The one schema all workloads run on (see `gen`'s module docs).
pub fn build_schema() -> Schema {
    Schema::builder()
        .relation("R0", ["a0", "b0"])
        .relation("R1", ["a1", "b1"])
        .relation("D1", ["b0", "c"])
        .relation("D2", ["c", "d"])
        .fd("a0 -> b0")
        .fd("a1 -> b1")
        .fd("b0 -> c")
        .fd("c -> d")
        .index("R0", "b0")
        .build()
        .expect("the benchmark schema is a key chain plus a disjoint relation: independent")
}

fn store_config() -> StoreConfig {
    StoreConfig {
        shards: SHARDS,
        initial_state: None,
        ordered_indexes: Vec::new(),
    }
}

/// Builds the schema, opens the database (in memory, or durable under
/// `dir` with `DurableConfig::default()`, i.e. `SyncPolicy::Batch(4096)`),
/// and loads `preload` through `intern` + `apply_batch`, the bulk path.
pub fn open_database(dir: Option<&Path>, preload: &Preload) -> Result<Database, String> {
    let schema = build_schema();
    let mut db = match dir {
        None => Database::open(schema, EngineKind::Sharded(store_config())),
        Some(dir) => Database::open_at(
            dir,
            schema,
            DurableConfig {
                store: store_config(),
                ..DurableConfig::default()
            },
        ),
    }
    .map_err(|e| e.to_string())?;
    for (relation, name) in RELATION_NAMES.iter().enumerate() {
        let scheme = db.schema().scheme_id(name).map_err(|e| e.to_string())?;
        let mut batch = Vec::with_capacity(PRELOAD_BATCH);
        let mut rows = preload.rows(relation).peekable();
        while rows.peek().is_some() {
            for row in rows.by_ref().take(PRELOAD_BATCH) {
                // Columns are declared in universe order, so declared
                // order is the canonical tuple order `apply_batch` takes.
                let tuple = row
                    .iter()
                    .map(|v| db.intern(v))
                    .collect::<Result<Vec<Value>, _>>()
                    .map_err(|e| e.to_string())?;
                batch.push(StoreOp::Insert { scheme, tuple });
            }
            let outcomes = db
                .apply_batch(std::mem::take(&mut batch))
                .map_err(|e| e.to_string())?;
            if outcomes
                .iter()
                .any(|o| *o != OpOutcome::Insert(InsertOutcome::Accepted))
            {
                return Err(format!("preload of {name} was not accepted row for row"));
            }
        }
    }
    Ok(db)
}

pub fn share(db: Database) -> Result<Arc<SharedDatabase>, String> {
    db.into_shared().map(Arc::new).map_err(|e| e.to_string())
}

pub fn serve(shared: &Arc<SharedDatabase>) -> Result<Server, String> {
    Server::serve(Arc::clone(shared), "127.0.0.1:0").map_err(|e| e.to_string())
}

pub fn server_addr(server: &Server) -> SocketAddr {
    server.local_addr()
}

pub fn shutdown_server(server: Server) {
    server.shutdown();
}

pub fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| e.to_string())
}

/// The wire request an op travels as.
pub fn request(op: &Op) -> Request {
    let r0_query = |column: &str, value: String| Request::Query {
        relation: "R0".to_string(),
        filters: vec![(column.to_string(), value)],
        select: None,
    };
    match op {
        Op::Insert { rel, key, val, .. } => Request::Insert {
            relation: RELATION_NAMES[*rel].to_string(),
            values: vec![mix_key(*rel, *key), mix_val(*val)],
        },
        Op::Remove { rel, key, val } => Request::Remove {
            relation: RELATION_NAMES[*rel].to_string(),
            values: vec![mix_key(*rel, *key), mix_val(*val)],
        },
        Op::Point { key } => r0_query("a0", preload_key(*key)),
        Op::Group { group } => r0_query("b0", group_name(*group)),
        Op::Count { .. } => Request::Count {
            relation: "R0".to_string(),
        },
        Op::Join => Request::Join {
            relations: vec!["D1".to_string(), "D2".to_string()],
        },
    }
}

fn outcome_of(outcome: &InsertOutcome) -> Outcome {
    match outcome {
        InsertOutcome::Accepted => Outcome::Accepted,
        InsertOutcome::Duplicate => Outcome::Duplicate,
        InsertOutcome::Rejected { .. } => Outcome::Rejected,
    }
}

fn answer_of(reply: Reply) -> Answer {
    match reply {
        Reply::Insert(WireOutcome::Accepted) => Answer::Inserted(Outcome::Accepted),
        Reply::Insert(WireOutcome::Duplicate) => Answer::Inserted(Outcome::Duplicate),
        Reply::Insert(WireOutcome::Rejected { .. }) => Answer::Inserted(Outcome::Rejected),
        Reply::Remove(present) => Answer::Removed(present),
        Reply::Rows { rows, .. } => Answer::Rows(rows),
        Reply::Count(n) => Answer::Count(n),
        Reply::Error(WireError::Overloaded) => Answer::Shed,
        Reply::Error(e) => Answer::Failed(e.to_string()),
        other => Answer::Failed(format!("unexpected reply {other:?}")),
    }
}

fn client_failure(e: ClientError) -> Answer {
    Answer::Failed(e.to_string())
}

/// `Client::send`: puts the op on the wire, returning its request id.
pub fn client_send(client: &mut Client, op: &Op) -> Result<u64, Answer> {
    client.send(request(op)).map_err(client_failure)
}

/// `Client::recv`: blocks for the reply to `id`.
pub fn client_recv(client: &mut Client, id: u64) -> Answer {
    client.recv(id).map_or_else(client_failure, answer_of)
}

pub fn client_checkpoint(client: &mut Client) -> Result<(), String> {
    client.checkpoint().map_err(|e| e.to_string())
}

/// Round trip of a `Ping`, which crosses sockets, threads and queues but
/// no database code.
pub fn client_ping_ns(client: &mut Client) -> Result<u64, String> {
    client
        .ping()
        .map(|d| d.as_nanos() as u64)
        .map_err(|e| e.to_string())
}

pub fn client_stats(client: &mut Client) -> Result<MetricsSnapshot, String> {
    client.stats().map_err(|e| e.to_string())
}

/// The same op through `SharedDatabase`, no socket.
pub fn shared_call(shared: &SharedDatabase, op: &Op) -> Answer {
    let r0_query = |column: &str, value: String| {
        shared
            .query("R0", &[(column.to_string(), eq(value))], None)
            .map(|rows| Answer::Rows(rows.into_string_rows()))
    };
    let result = match op {
        Op::Insert { rel, key, val, .. } => shared
            .insert(RELATION_NAMES[*rel], [mix_key(*rel, *key), mix_val(*val)])
            .map(|o| Answer::Inserted(outcome_of(&o))),
        Op::Remove { rel, key, val } => shared
            .remove(RELATION_NAMES[*rel], [mix_key(*rel, *key), mix_val(*val)])
            .map(Answer::Removed),
        Op::Point { key } => r0_query("a0", preload_key(*key)),
        Op::Group { group } => r0_query("b0", group_name(*group)),
        Op::Count { .. } => shared.count("R0").map(|n| Answer::Count(n as u64)),
        Op::Join => shared
            .join(["D1", "D2"])
            .map(|rows| Answer::Rows(rows.into_string_rows())),
    };
    result.unwrap_or_else(|e| Answer::Failed(e.to_string()))
}

/// The shards' own outcome counters, summed over shards.
pub fn tallies_of(snapshot: &MetricsSnapshot) -> Tallies {
    Tallies {
        accepted: snapshot.counter_sum("accepted"),
        duplicate: snapshot.counter_sum("duplicate"),
        rejected: snapshot.counter_sum("rejected"),
        removed: snapshot.counter_sum("removed"),
    }
}

pub fn shared_metrics(shared: &SharedDatabase) -> MetricsSnapshot {
    shared.metrics()
}

pub fn server_metrics(server: &Server) -> MetricsSnapshot {
    server.metrics()
}

pub fn counter(snapshot: &MetricsSnapshot, name: &str) -> u64 {
    snapshot.counter(name).unwrap_or(0)
}

/// Row count of every relation, in `RELATION_NAMES` order.
pub fn shared_row_counts(shared: &SharedDatabase) -> Result<[u64; 4], String> {
    let mut counts = [0u64; 4];
    for (slot, name) in counts.iter_mut().zip(RELATION_NAMES) {
        *slot = shared.count(name).map_err(|e| e.to_string())? as u64;
    }
    Ok(counts)
}

/// `Database::recover` on `dir`, returning the recovered row counts.
pub fn recover_row_counts(dir: &Path) -> Result<[u64; 4], String> {
    let db = Database::recover(dir).map_err(|e| e.to_string())?;
    let mut counts = [0u64; 4];
    for (slot, name) in counts.iter_mut().zip(RELATION_NAMES) {
        *slot = db.count(name).map_err(|e| e.to_string())? as u64;
    }
    Ok(counts)
}

// ---------------------------------------------------------------------
// The traced run: one product call per function, timed by the caller's
// `Clock` around exactly that call (argument building stays outside).

/// Start and end of the product call a layer function just made, in ns
/// since the trace began.
pub struct Clock {
    epoch: std::time::Instant,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocation calls the whole process made during the call.
    pub allocs: u64,
}

impl Default for Clock {
    fn default() -> Self {
        Clock {
            epoch: std::time::Instant::now(),
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
        }
    }
}

impl Clock {
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn time<T>(&mut self, call: impl FnOnce() -> T) -> T {
        let allocs_before = crate::stats::alloc_calls();
        self.start_ns = self.now_ns();
        let out = call();
        self.end_ns = self.now_ns();
        self.allocs = crate::stats::alloc_calls() - allocs_before;
        out
    }
}

/// Scheme and attribute ids of the write relations, looked up once.
struct Ids {
    rel: [SchemeId; 2],
    a0: AttrId,
    b0: AttrId,
}

fn ids_of(schema: &Schema) -> Ids {
    let scheme = |name| schema.scheme_id(name).expect("declared by build_schema");
    let attr = |name| {
        schema
            .definition()
            .universe()
            .attr(name)
            .expect("declared by build_schema")
    };
    Ids {
        rel: [scheme("R0"), scheme("R1")],
        a0: attr("a0"),
        b0: attr("b0"),
    }
}

fn write_tuple(rel: usize, key: u64, val: u64) -> Vec<Value> {
    vec![
        Value::int(crate::gen::mix_key_code(rel, key)),
        Value::int(crate::gen::mix_val_code(val)),
    ]
}

fn preload_tuple(key: u64) -> Vec<Value> {
    vec![
        Value::int(crate::gen::preload_key_code(key)),
        Value::int(crate::gen::group_code(key / crate::gen::GROUP_ROWS)),
    ]
}

fn read_predicate(ids: &Ids, op: &Op) -> Option<Predicate> {
    match op {
        Op::Point { key } => {
            Some(Predicate::new().and_eq(ids.a0, Value::int(crate::gen::preload_key_code(*key))))
        }
        Op::Group { group } => {
            Some(Predicate::new().and_eq(ids.b0, Value::int(crate::gen::group_code(*group))))
        }
        _ => None,
    }
}

fn codes(tuples: Vec<ids_relational::Tuple>) -> Answer {
    Answer::Codes(
        tuples
            .iter()
            .map(|t| t.iter().map(|v| v.0).collect())
            .collect(),
    )
}

fn failed(e: impl std::fmt::Display) -> Answer {
    Answer::Failed(e.to_string())
}

/// `core`, bottom boundary: one `RelationShard` + `Relation` per write
/// relation, `R0` with its ordered index on `b0`.
pub struct ShardRig {
    ids: Ids,
    shards: [(RelationShard, Relation); 2],
}

pub fn shard_rig(schema: &Schema) -> ShardRig {
    let ids = ids_of(schema);
    let covers = schema
        .enforcement()
        .expect("build() only returns independent schemas");
    let definition = schema.definition();
    let make = |id: SchemeId| {
        (
            RelationShard::new(definition, id, covers[id.index()].clone()),
            Relation::new(definition.attrs(id)),
        )
    };
    let mut shards = [make(ids.rel[0]), make(ids.rel[1])];
    let (shard, rel) = &mut shards[0];
    shard
        .add_ordered_index(ids.b0, rel)
        .expect("b0 is a column of R0");
    ShardRig { ids, shards }
}

impl ShardRig {
    pub fn preload(&mut self, preload: &Preload) -> Result<(), String> {
        let (shard, rel) = &mut self.shards[0];
        for key in 0..preload.row_counts()[0] {
            match shard.insert(rel, preload_tuple(key)) {
                Ok(InsertOutcome::Accepted) => {}
                other => return Err(format!("shard preload row {key}: {other:?}")),
            }
        }
        Ok(())
    }

    /// `RelationShard::{insert, remove, scan}`; `None` for ops this layer
    /// has no call for.
    pub fn call(&mut self, op: &Op, clock: &mut Clock) -> Option<Answer> {
        Some(match op {
            Op::Insert { rel, key, val, .. } => {
                let (shard, relation) = &mut self.shards[*rel];
                let tuple = write_tuple(*rel, *key, *val);
                clock
                    .time(|| shard.insert(relation, tuple))
                    .map_or_else(failed, |o| Answer::Inserted(outcome_of(&o)))
            }
            Op::Remove { rel, key, val } => {
                let (shard, relation) = &mut self.shards[*rel];
                let tuple = write_tuple(*rel, *key, *val);
                clock
                    .time(|| shard.remove(relation, &tuple))
                    .map_or_else(failed, Answer::Removed)
            }
            _ => {
                let predicate = read_predicate(&self.ids, op)?;
                let (shard, relation) = &self.shards[0];
                clock
                    .time(|| shard.scan(relation, &predicate))
                    .map_or_else(failed, codes)
            }
        })
    }
}

/// `core`, second boundary: `LocalMaintainer` (all shards behind one engine).
pub struct MaintainerRig {
    ids: Ids,
    engine: LocalMaintainer,
}

pub fn maintainer_rig(schema: &Schema) -> Result<MaintainerRig, String> {
    let definition = schema.definition();
    let engine = LocalMaintainer::from_analysis(
        definition,
        schema.analysis(),
        DatabaseState::empty(definition),
    )
    .map_err(|e| e.to_string())?;
    Ok(MaintainerRig {
        ids: ids_of(schema),
        engine,
    })
}

impl MaintainerRig {
    pub fn preload(&mut self, preload: &Preload) -> Result<(), String> {
        for key in 0..preload.row_counts()[0] {
            match self.engine.insert(self.ids.rel[0], preload_tuple(key)) {
                Ok(InsertOutcome::Accepted) => {}
                other => return Err(format!("maintainer preload row {key}: {other:?}")),
            }
        }
        Ok(())
    }

    /// `LocalMaintainer::{insert, remove}`.
    pub fn call(&mut self, op: &Op, clock: &mut Clock) -> Option<Answer> {
        match op {
            Op::Insert { rel, key, val, .. } => {
                let (id, tuple) = (self.ids.rel[*rel], write_tuple(*rel, *key, *val));
                let engine = &mut self.engine;
                Some(
                    clock
                        .time(|| engine.insert(id, tuple))
                        .map_or_else(failed, |o| Answer::Inserted(outcome_of(&o))),
                )
            }
            Op::Remove { rel, key, val } => {
                let (id, tuple) = (self.ids.rel[*rel], write_tuple(*rel, *key, *val));
                let engine = &mut self.engine;
                Some(
                    clock
                        .time(|| engine.remove(id, &tuple))
                        .map_or_else(failed, Answer::Removed),
                )
            }
            _ => None,
        }
    }
}

/// How a traced store persists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sync {
    Never,
    Batch4096,
    Always,
}

/// `store` (and, with a directory, `wal`): the sharded `Store` driven with
/// value-level tuples, no name pool above it.
pub struct StoreRig {
    ids: Ids,
    store: Store,
}

pub fn store_rig(schema: &Schema, durable: Option<(&Path, Sync)>) -> Result<StoreRig, String> {
    let ids = ids_of(schema);
    let config = StoreConfig {
        ordered_indexes: vec![(ids.rel[0], ids.b0)],
        ..store_config()
    };
    let store = match durable {
        None => Store::from_analysis(schema.definition(), schema.analysis(), config),
        Some((dir, sync)) => Store::open_durable_from_analysis(
            dir,
            schema.definition(),
            schema.fds(),
            schema.analysis(),
            DurableConfig {
                store: config,
                sync: match sync {
                    Sync::Never => SyncPolicy::Never,
                    Sync::Batch4096 => SyncPolicy::Batch(4096),
                    Sync::Always => SyncPolicy::Always,
                },
                ..DurableConfig::default()
            },
        ),
    }
    .map_err(|e| e.to_string())?;
    Ok(StoreRig { ids, store })
}

impl StoreRig {
    fn store_op(&self, op: &Op) -> Option<StoreOp> {
        match op {
            Op::Insert { rel, key, val, .. } => Some(StoreOp::Insert {
                scheme: self.ids.rel[*rel],
                tuple: write_tuple(*rel, *key, *val),
            }),
            Op::Remove { rel, key, val } => Some(StoreOp::Remove {
                scheme: self.ids.rel[*rel],
                tuple: write_tuple(*rel, *key, *val),
            }),
            _ => None,
        }
    }

    pub fn preload(&self, preload: &Preload) -> Result<(), String> {
        let keys: Vec<u64> = (0..preload.row_counts()[0]).collect();
        for chunk in keys.chunks(PRELOAD_BATCH) {
            let ops = chunk
                .iter()
                .map(|&key| StoreOp::Insert {
                    scheme: self.ids.rel[0],
                    tuple: preload_tuple(key),
                })
                .collect();
            let outcomes = self.store.apply_batch(ops).map_err(|e| e.to_string())?;
            if outcomes
                .iter()
                .any(|o| *o != OpOutcome::Insert(InsertOutcome::Accepted))
            {
                return Err("store preload was not accepted row for row".to_string());
            }
        }
        Ok(())
    }

    /// `Store::{insert, remove, query}`, one op per call.
    pub fn call(&self, op: &Op, clock: &mut Clock) -> Option<Answer> {
        let store = &self.store;
        Some(match op {
            Op::Insert { rel, key, val, .. } => {
                let (id, tuple) = (self.ids.rel[*rel], write_tuple(*rel, *key, *val));
                clock
                    .time(|| store.insert(id, tuple))
                    .map_or_else(failed, |o| Answer::Inserted(outcome_of(&o)))
            }
            Op::Remove { rel, key, val } => {
                let (id, tuple) = (self.ids.rel[*rel], write_tuple(*rel, *key, *val));
                clock
                    .time(|| store.remove(id, tuple))
                    .map_or_else(failed, Answer::Removed)
            }
            _ => {
                let predicate = read_predicate(&self.ids, op)?;
                clock
                    .time(|| store.query(self.ids.rel[0], &predicate))
                    .map_or_else(failed, codes)
            }
        })
    }

    /// `Store::apply_batch` over the writes of `ops`, one call.
    pub fn batch(&self, ops: &[Op], clock: &mut Clock) -> Vec<Answer> {
        let batch: Vec<StoreOp> = ops.iter().filter_map(|op| self.store_op(op)).collect();
        let store = &self.store;
        match clock.time(|| store.apply_batch(batch)) {
            Ok(outcomes) => outcomes
                .iter()
                .map(|o| match o {
                    OpOutcome::Insert(o) => Answer::Inserted(outcome_of(o)),
                    OpOutcome::Remove(present) => Answer::Removed(*present),
                })
                .collect(),
            Err(e) => vec![failed(e)],
        }
    }

    pub fn checkpoint(&self, clock: &mut Clock) -> Result<(), String> {
        let store = &self.store;
        clock.time(|| store.checkpoint()).map_err(|e| e.to_string())
    }

    pub fn metrics(&self) -> MetricsSnapshot {
        self.store.metrics()
    }

    /// `Store::shutdown`: joins the shard workers and syncs the logs.
    pub fn close(self) -> Result<(), String> {
        self.store.shutdown().map(drop).map_err(|e| e.to_string())
    }
}

/// `wal`: `NameLog::open`, then one `NameLog::append` (write +
/// `sync_data`) per name.  Returns each append's `(start_ns, end_ns)`.
pub fn name_log_appends(
    path: &Path,
    names: impl Iterator<Item = String>,
    clock: &mut Clock,
) -> Result<Vec<(u64, u64)>, String> {
    let (mut log, _) = NameLog::open(path, 1).map_err(|e| e.to_string())?;
    names
        .map(|name| {
            clock
                .time(|| log.append(&name))
                .map_err(|e| e.to_string())?;
            Ok((clock.start_ns, clock.end_ns))
        })
        .collect()
}

/// `api` on the sequential engine: string rows into `LocalMaintainer`
/// through `Database::{insert, remove}` — the name pool's own cost.
pub struct LocalDatabaseRig(Database);

pub fn local_database_rig(preload: &Preload) -> Result<LocalDatabaseRig, String> {
    let mut db = Database::open(build_schema(), EngineKind::Local).map_err(|e| e.to_string())?;
    for row in preload.rows(0) {
        db.insert("R0", &row).map_err(|e| e.to_string())?;
    }
    Ok(LocalDatabaseRig(db))
}

impl LocalDatabaseRig {
    pub fn call(&mut self, op: &Op, clock: &mut Clock) -> Option<Answer> {
        let db = &mut self.0;
        match op {
            Op::Insert { rel, key, val, .. } => {
                let row = [mix_key(*rel, *key), mix_val(*val)];
                Some(
                    clock
                        .time(|| db.insert(RELATION_NAMES[*rel], &row))
                        .map_or_else(failed, |o| Answer::Inserted(outcome_of(&o))),
                )
            }
            Op::Remove { rel, key, val } => {
                let row = [mix_key(*rel, *key), mix_val(*val)];
                Some(
                    clock
                        .time(|| db.remove(RELATION_NAMES[*rel], &row))
                        .map_or_else(failed, Answer::Removed),
                )
            }
            _ => None,
        }
    }
}

/// `SharedDatabase::{insert, remove, query, join, count}`, timed.
pub fn shared_call_timed(shared: &SharedDatabase, op: &Op, clock: &mut Clock) -> Answer {
    clock.time(|| shared_call(shared, op))
}

/// `Database::join_query(["D1","D2"]).run_with_report()`: rows, tuples
/// shipped and keys shipped by the planner.
pub fn join_report(db: &Database) -> Result<(u64, u64, u64), String> {
    let (rows, report) = db
        .join_query(["D1", "D2"])
        .run_with_report()
        .map_err(|e| e.to_string())?;
    Ok((
        rows.len() as u64,
        report.tuples_shipped as u64,
        report.keys_shipped as u64,
    ))
}

/// Interns `names` through `Database::intern`.
pub fn intern_all(db: &mut Database, names: impl Iterator<Item = String>) -> Result<(), String> {
    for name in names {
        db.intern(name).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn unframe(framed: &[u8]) -> Result<&[u8], String> {
    match wire::read_frame(framed) {
        FrameOutcome::Complete { payload, .. } => Ok(payload),
        _ => Err("an encoded message did not read back as one frame".to_string()),
    }
}

/// The reply the server would send for `op` when it agrees with the oracle.
fn expected_reply(op: &Op) -> Reply {
    let columns = || vec!["a0".to_string(), "b0".to_string()];
    match op {
        Op::Insert { expect, .. } => Reply::Insert(match expect {
            Outcome::Accepted => WireOutcome::Accepted,
            Outcome::Duplicate => WireOutcome::Duplicate,
            Outcome::Rejected => WireOutcome::Rejected {
                violated: Some("a0 -> b0".to_string()),
            },
        }),
        Op::Remove { .. } => Reply::Remove(true),
        Op::Point { key } => Reply::Rows {
            columns: columns(),
            rows: vec![vec![
                preload_key(*key),
                group_name(key / crate::gen::GROUP_ROWS),
            ]],
        },
        Op::Group { group } => Reply::Rows {
            columns: columns(),
            rows: (0..crate::gen::GROUP_ROWS)
                .map(|i| {
                    vec![
                        preload_key(group * crate::gen::GROUP_ROWS + i),
                        group_name(*group),
                    ]
                })
                .collect(),
        },
        Op::Count { expect } => Reply::Count(*expect),
        Op::Join => Reply::Rows {
            columns: vec!["b0".to_string(), "c".to_string(), "d".to_string()],
            rows: (0..crate::gen::D1_ROWS)
                .map(|i| {
                    let c = i % crate::gen::D2_ROWS;
                    vec![group_name(i), format!("c{c}"), format!("d{c}")]
                })
                .collect(),
        },
    }
}

/// `server`'s codec with no socket: `encode_request` → `decode_request`,
/// then `encode_reply` → `decode_reply` of the expected reply.
pub fn codec_round_trip(op: &Op, clock: &mut Clock) -> Result<(), String> {
    let (req, reply) = (request(op), expected_reply(op));
    let decoded = clock.time(|| -> Result<_, String> {
        let framed = wire::encode_request(7, &req);
        let (_, decoded_req) =
            wire::decode_request(unframe(&framed)?).map_err(|(_, e)| e.to_string())?;
        let framed = wire::encode_reply(7, &reply);
        let (_, decoded_reply) =
            wire::decode_reply(unframe(&framed)?).map_err(|(_, e)| e.to_string())?;
        Ok((decoded_req, decoded_reply))
    })?;
    if decoded != (req, reply) {
        return Err(format!("codec round trip changed {op:?}"));
    }
    Ok(())
}

/// `Client::send` + `Client::recv` of one op, timed as one round trip.
pub fn client_round_trip(client: &mut Client, op: &Op, clock: &mut Clock) -> Answer {
    let req = request(op);
    clock
        .time(|| client.send(req).and_then(|id| client.recv(id)))
        .map_or_else(client_failure, answer_of)
}
