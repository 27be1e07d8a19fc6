//! # ids-deps
//!
//! Dependency theory for the reproduction of Graham & Yannakakis,
//! *Independent Database Schemas*: functional dependencies, closures,
//! covers, derivations, keys, join dependencies, and the
//! \[MSY\] polynomial FD-inference from `F ∪ {*D}` (the primitive Section 3
//! of the paper builds on).

#![warn(missing_docs)]

mod cover;
mod derivation;
mod embedded;
mod fd;
mod fdset;
mod jd;
mod jd_closure;
mod keys;

pub use derivation::{derive, Derivation};
pub use embedded::{closed_under_projection, partition_embedded, projection_cover};
pub use fd::Fd;
pub use fdset::{closure_linear, closure_of, FdSet};
pub use jd::JoinDependency;
pub use jd_closure::{block_of, closure_with_jd, dependency_basis, implies_with_jd, jd_blocks};
