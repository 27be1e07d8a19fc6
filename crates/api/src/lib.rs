//! # ids-api
//!
//! One typed `Database` front-end over the concurrent store — one
//! `&self`, `Send + Sync` handle that an embedding thread, a fleet of
//! threads and a network server all share.
//!
//! The paper's point is that an independent schema lets each relation be
//! maintained through one uniform local interface; this crate is that
//! statement as an API.  Callers declare a schema fluently, the builder
//! runs the independence analysis **exactly once**, and the resulting
//! [`Database`] speaks relation names and string values over the
//! sharded [`ids_store::Store`], where each relation checks only its own
//! cover under its own lock (Theorem 3 is the store's correctness
//! condition).  The paper's baselines — the chase and FD-only
//! maintainers in `ids-core`, which also serve dependent schemas — are
//! driven directly, as oracles, not through a `Database`.
//!
//! ```
//! use ids_api::{Database, EngineKind, Schema};
//!
//! // Declare; the universe is collected from the columns, and the
//! // independence analysis runs once, right here.
//! let schema = Schema::builder()
//!     .relation("CT", ["course", "teacher"])
//!     .relation("CS", ["course", "student"])
//!     .relation("CHR", ["course", "hour", "room"])
//!     .fd("course -> teacher")
//!     .fd("course hour -> room")
//!     .build()?;                       // refused, with witness, if dependent
//!
//! // Open the store with its default configuration.
//! let db = Database::open(schema, EngineKind::Local)?;
//! db.insert("CT", ["CS402", "Jones"])?;
//! assert!(db.insert("CT", ["CS402", "Smith"])?.is_rejected());   // course → teacher
//! assert_eq!(db.rows("CT")?, vec![vec!["CS402".to_string(), "Jones".to_string()]]);
//! # Ok::<(), ids_api::Error>(())
//! ```
//!
//! ## The pieces
//!
//! * [`SchemaBuilder`] → [`Schema`]: fluent declaration, automatic
//!   universe, one analysis run, `LSAT ∖ WSAT` witness on refusal
//!   ([`Error::witness`]).  [`SchemaBuilder::build_any`] keeps dependent
//!   schemas available to the chase maintainers.
//! * [`Database`]: owns the store and the interning `ValuePool`; string
//!   values in, rendered rows out, FD violations always *outcomes*;
//!   `rows`/`read` are barrier-free per-relation reads, `snapshot` is the
//!   consistent cross-relation barrier.  Every operation is `&self`; its
//!   type-level docs state the lock discipline once.  [`SharedDatabase`]
//!   is its old second name and [`EngineKind`] its old engine selector,
//!   both kept as shims for pinned callers.
//! * [`Query`] + [`Rows`]/[`Row`]: the fluent read side —
//!   `db.query("CT").filter("course", eq("CS402")).select(["teacher"]).run()`
//!   pushes a typed predicate down to the shard that owns the tuples
//!   (O(1) for key point lookups), with
//!   range/inequality/membership conditions ([`Cond`]), ordering and
//!   limits, and pushed-down aggregates (`count`/`min`/`max`/`sum`).
//!   [`RowSink`] is the one row visitor underneath: [`Rows`] collects
//!   from it, and a front end that writes bytes (the wire server) renders
//!   through it without building a `String` per value.
//! * [`Database::join`] + [`JoinQuery`]: natural joins from independent
//!   barrier-free reads — sound because `LSAT = WSAT` makes every
//!   per-relation cut part of a globally satisfying state.  Acyclic
//!   relation sets run through the Yannakakis-style semijoin planner
//!   (filters pushed down, join keys shipped before tuples — see
//!   [`JoinReport`]); a repeated relation is read exactly once, so a
//!   self-join joins a single cut with itself.
//! * [`Error`]: the `#[non_exhaustive]` top-level error every layer
//!   converts into.
//! * [`Alter`] + [`Database::alter`]: online schema evolution —
//!   add/drop a relation or a dependency on a
//!   running durable database, independence re-decided incrementally
//!   (`ids-evolve`), dependent targets and violated new FDs refused
//!   with typed witnesses while the current schema keeps serving.

#![warn(missing_docs)]

mod database;
mod planner;
mod query;
mod shared;

pub use database::{Database, EngineKind};
pub use ids_store::{Alter, Error, Schema, SchemaBuilder};
pub use query::{
    between, eq, ge, gt, le, lt, ne, one_of, Cond, JoinQuery, JoinReport, Query, Row, RowSink, Rows,
};
pub use shared::SharedDatabase;
