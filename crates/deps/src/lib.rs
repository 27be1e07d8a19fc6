//! # ids-deps
//!
//! Dependency theory for the reproduction of Graham & Yannakakis,
//! *Independent Database Schemas*: functional dependencies, closures,
//! covers, derivations, join dependencies, and the
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

pub use derivation::{derive, Derivation};
pub use embedded::partition_embedded;
pub use fd::Fd;
pub use fdset::{closure_of, FdSet};
pub use jd::JoinDependency;
pub use jd_closure::{closure_with_jd, implies_with_jd, jd_blocks};
