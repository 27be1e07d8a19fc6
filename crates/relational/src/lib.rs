//! # ids-relational
//!
//! Relational substrate for the reproduction of Graham & Yannakakis,
//! *Independent Database Schemas* (PODS 1982 / JCSS 1984).
//!
//! This crate provides the objects of Section 2 of the paper:
//!
//! * [`Universe`] — the attribute universe `U`, with name interning;
//! * [`AttrSet`] — compact `Copy` attribute sets (all dependency-theoretic
//!   algorithms reduce to bitset algebra over these);
//! * [`RelationScheme`] / [`DatabaseSchema`] — schemes `R ⊆ U` and schemas
//!   `D = {R1..Rk}`, validated to cover `U` so `*D` is a join dependency;
//! * [`Relation`] — duplicate-free instances with projection, natural join,
//!   semijoin and per-instance FD checking;
//! * [`DatabaseState`] — states `p`, join consistency, dangling tuples;
//! * [`Value`] / [`ValuePool`] — opaque domain values with optional names;
//! * [`Chunked`] — fixed-width records in fixed-size chunks, the storage
//!   of every per-row array (a relation's slab, an ordered index's links,
//!   the pool's names and offsets);
//! * [`SlotTable`] — the key-less hash table of `u32` slots that indexes
//!   a relation's rows, a shard's FD images and the pool's names, each
//!   stored once elsewhere;
//! * [`Predicate`] — the query-pushdown primitive higher layers ship to
//!   whatever owns a relation's tuples, with [`Relation::filter_tuples`]
//!   as its linear reference.
//!
//! Higher layers build dependency theory (`ids-deps`), the chase
//! (`ids-chase`), acyclicity tooling (`ids-acyclic`) and the independence
//! algorithms (`ids-core`) on top of these types.

#![warn(missing_docs)]

mod attr;
mod attrset;
mod chunked;
pub mod codec;
pub mod display;
mod error;
mod query;
mod relation;
mod scheme;
mod slot_table;
mod state;
mod universe;
mod value;

pub use attr::AttrId;
pub use attrset::{AttrSet, AttrSetIter, MAX_ATTRS};
pub use chunked::{Chunked, CHUNK_BYTES};
pub use error::RelationalError;
pub use query::{CompiledPredicate, Guard, Predicate};
pub use relation::{join_all, KeyHash, Relation, Tuple};
pub use scheme::{DatabaseSchema, RelationScheme, SchemeId};
pub use slot_table::SlotTable;
pub use state::DatabaseState;
pub use universe::Universe;
pub use value::{Value, ValuePool};
