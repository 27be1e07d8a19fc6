//! # ids-chase
//!
//! The chase machinery of Graham & Yannakakis, *Independent Database
//! Schemas*: padded universal tableaux `I(p)`, the FD- and JD-rules of
//! \[MMS\], weak-instance (global) satisfaction `WSAT`, local satisfaction
//! `LSAT`, dependency-implication chases (including the Aho–Beeri–Ullman
//! lossless-join test), and the tagged tableaux of Section 4 with their
//! weakness preorder.
//!
//! Testing a state against `F ∪ {*D}` is NP-hard in general (\[Y\]); the
//! engine is therefore *budgeted* ([`ChaseConfig`]) and reports budget
//! exhaustion as an error distinct from both verdicts.

#![warn(missing_docs)]

mod engine;
mod implication;
mod local;
mod symbol;
mod tagged;
mod weak_instance;

pub use engine::{ChaseConfig, ChaseError, ChaseInstance, ChaseVerdict, ContradictionInfo};
pub use implication::{fd_implied_explicit, jd_implied_by_fds};
pub use local::locally_satisfies;
pub use symbol::{Contradiction, SymId, SymbolTable};
pub use tagged::{GSym, GeneralTableau, TaggedRow, TaggedTableau};
pub use weak_instance::{
    is_weak_instance, satisfies, satisfies_fds_only, universal_tableau, Satisfaction,
};
