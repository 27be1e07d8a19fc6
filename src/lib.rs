//! # independent-schemas
//!
//! A complete Rust reproduction of **Graham & Yannakakis, "Independent
//! Database Schemas"** (PODS 1982; JCSS 28(1):121–141, 1984).
//!
//! A database schema `D` is *independent* w.r.t. a set of dependencies
//! when enforcing each relation's own constraints suffices to guarantee
//! global consistency under weak-instance semantics
//! (`LSAT(D,Σ) = WSAT(D,Σ)`).  This crate implements the paper's
//! polynomial-time decision procedure for `Σ = F ∪ {*D}` (functional
//! dependencies plus the schema's join dependency), along with every
//! substrate it rests on: the relational algebra, FD/JD dependency theory,
//! the chase, acyclicity tooling, constructive counterexamples, the
//! maintenance engines and the Theorem 1 hardness gadget — and one typed
//! [`Database`](prelude::Database) front-end over the concurrent store.
//!
//! ## Quickstart
//!
//! ```
//! use independent_schemas::prelude::*;
//!
//! // The paper's Example 2: courses, students, rooms.  The universe is
//! // collected from the columns and the independence analysis runs
//! // exactly once, inside `build` — refused with a counterexample if
//! // the schema were dependent.
//! let schema = Schema::builder()
//!     .relation("CT", ["course", "teacher"])
//!     .relation("CS", ["course", "student"])
//!     .relation("CHR", ["course", "hour", "room"])
//!     .fd("course -> teacher")
//!     .fd("course hour -> room")
//!     .build()?;
//!
//! // Independent ⇒ the sharded store is sound: each relation checks only
//! // its own cover, in O(1), under its own lock.
//! let db = Database::open(schema, EngineKind::Local)?;
//! db.insert("CT", ["CS402", "Jones"])?;
//! assert!(db.insert("CT", ["CS402", "Smith"])?.is_rejected()); // course → teacher
//! assert_eq!(db.rows("CT")?,
//!            vec![vec!["CS402".to_string(), "Jones".to_string()]]);
//!
//! // Adding "a student can't be in two rooms at once" breaks
//! // independence — the analysis hands back a machine-checkable
//! // `LSAT ∖ WSAT` counterexample state.
//! let extended = Schema::builder()
//!     .relation("CT", ["course", "teacher"])
//!     .relation("CS", ["course", "student"])
//!     .relation("CHR", ["course", "hour", "room"])
//!     .fd("course -> teacher")
//!     .fd("course hour -> room")
//!     .fd("student hour -> room")
//!     .build_any()?;                       // keep the handle, verdict and all
//! assert!(!extended.is_independent());
//! let witness = extended.witness().unwrap();
//! assert!(verify_witness(extended.definition(), extended.fds(),
//!                        &witness.state, &ChaseConfig::default()).unwrap());
//! # Ok::<(), ApiError>(())
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`relational`] | universes, schemes, schemas, relations, states |
//! | [`deps`] | FDs, closures, covers, keys, JDs, FD+JD inference |
//! | [`chase`] | `I(p)`, FD/JD rules, WSAT/LSAT, tagged tableaux |
//! | [`acyclic`] | GYO, join trees, full reducer, consistency |
//! | [`core`] | the independence test, witnesses, maintenance, Theorem 1 |
//! | [`evolve`] | `ALTER`-class schema transitions: incremental re-analysis with run reuse, typed dependent-target refusals |
//! | [`obs`] | zero-cost metrics: relaxed-atomic counters/gauges, log₂ latency histograms, bounded event ring, typed snapshots |
//! | [`wal`] | per-relation write-ahead log + snapshot checkpoints (independence ⇒ no cross-log ordering) |
//! | [`store`] | sharded concurrent maintenance store (independence ⇒ parallelism), durable via [`wal`] |
//! | [`api`] | `Schema` builder + typed `Database` over the sharded store; fluent queries, typed rows, barrier-free joins; durable via `open_at`/`recover`; one `&self` handle, `Send + Sync`, shared by any number of threads |
//! | [`server`] | TCP front-end: CRC-framed pipelined wire protocol, sessions, typed errors, bounded-queue backpressure |
//! | [`client`] | blocking client for the wire protocol, with explicit pipelining |
//! | [`replica`] | read replicas via per-relation log shipping: file-tail and wire-stream followers, lag-aware reads |
//! | [`workloads`] | paper examples, families, random generators, concurrent traces |

pub use ids_acyclic as acyclic;
pub use ids_api as api;
pub use ids_chase as chase;
pub use ids_client as client;
pub use ids_core as core;
pub use ids_deps as deps;
pub use ids_evolve as evolve;
pub use ids_obs as obs;
pub use ids_relational as relational;
pub use ids_replica as replica;
pub use ids_server as server;
pub use ids_store as store;
pub use ids_wal as wal;
pub use ids_workloads as workloads;

/// The common imports for working with the library.
pub mod prelude {
    pub use ids_api::{
        between, eq, ge, gt, le, lt, ne, one_of, Alter, Cond, Database, EngineKind,
        Error as ApiError, JoinQuery, JoinReport, Query, Row, Rows, Schema, SchemaBuilder,
        SharedDatabase,
    };
    pub use ids_chase::{locally_satisfies, satisfies, ChaseConfig, ChaseError, Satisfaction};
    pub use ids_client::{Client, ClientError, RowSet};
    pub use ids_core::{
        analyze, is_independent, render_analysis, verify_witness, ChaseMaintainer,
        FdOnlyMaintainer, IndependenceAnalysis, InsertOutcome, LocalMaintainer, Maintainer,
        MaintenanceError, NotIndependentReason, RelationShard, Verdict, Witness,
    };
    pub use ids_deps::{Fd, FdSet, JoinDependency};
    pub use ids_evolve::{check_transition, incremental_analyze, EvolveError, ReuseStats};
    pub use ids_obs::{Event, EventRecord, HistogramSnapshot, MetricsSnapshot};
    pub use ids_relational::{
        AttrId, AttrSet, DatabaseSchema, DatabaseState, Predicate, Relation, RelationScheme,
        SchemeId, Tuple, Universe, Value, ValuePool,
    };
    pub use ids_replica::{Replica, ReplicaError, ReplicaLag, ReplicaProgress};
    pub use ids_server::wire::{
        FrameError, FrameReader, Reply, Request, WireError, WireOutcome, WIRE_VERSION,
    };
    pub use ids_server::{Server, ServerConfig};
    pub use ids_store::{DurableConfig, OpOutcome, Store, StoreConfig, StoreOp, SyncPolicy};
    pub use ids_wal::{WalDir, WalError};
}
