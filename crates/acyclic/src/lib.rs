//! # ids-acyclic
//!
//! Acyclic database schemes (\[BFM\], \[Y\]) — the class for which the paper
//! notes the chase/maintenance problem becomes polynomial.  Provides:
//!
//! * the GYO (Graham / Yu–Özsoyoğlu) ear reduction and α-acyclicity test;
//! * join-tree construction with the running-intersection property;
//! * the Yannakakis full reducer (semijoin program) and consistency tests
//!   (pairwise consistency coincides with global consistency exactly on
//!   acyclic schemes).

#![warn(missing_docs)]

mod consistency;
mod gyo;
mod yannakakis;

pub use consistency::{full_reduce, is_pairwise_consistent};
pub use gyo::{is_acyclic, join_tree, JoinTree};
pub use yannakakis::{naive_join, yannakakis_join};
