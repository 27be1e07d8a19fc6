//! # ids-core
//!
//! The primary contribution of Graham & Yannakakis, *Independent Database
//! Schemas* (PODS 1982 / JCSS 1984): a **polynomial-time decision
//! procedure** for schema independence under functional dependencies plus
//! the schema's join dependency, with constructive counterexamples and the
//! maintenance machinery the theory enables.
//!
//! Entry point: [`analyze`] / [`is_independent`].  Supporting pieces:
//!
//! * [`embedded_cover`] — Section 3 (Theorem 2 condition (1));
//! * [`algorithm`] — Section 4's tagged-tableau Loop (Theorems 3–5);
//! * [`crossing`] — Lemma 7's cross-component derivations;
//! * [`witness`] — machine-checkable `LSAT ∖ WSAT` counterexamples;
//! * [`maintenance`] — O(1)-per-insert enforcement vs. the chase baseline;
//! * [`np_hardness`] — Theorem 1's reduction and the NP-complete
//!   membership-in-projected-join problem;
//! * [`report`] — human-readable diagnosis.

#![warn(missing_docs)]

pub mod algorithm;
pub mod crossing;
pub mod embedded_cover;
pub mod independence;
pub mod maintenance;
pub mod np_hardness;
pub mod report;
pub mod shard;
pub mod witness;

pub use algorithm::{run_loop, LoopTrace, RejectInfo, RejectLine};
pub use crossing::{find_crossing, CrossingDerivation};
pub use embedded_cover::{test_cover_embedding, CoverEmbedding};
pub use independence::{
    analyze, is_independent, IndependenceAnalysis, NotIndependentReason, Verdict,
};
pub use maintenance::{
    validate_op, ChaseMaintainer, FdOnlyMaintainer, InsertOutcome, LocalMaintainer, Maintainer,
    MaintenanceError,
};
pub use np_hardness::{
    theorem1_reduction, tuple_in_projected_join, JoinMembershipInstance, MaintenanceGadget,
};
pub use report::{render_analysis, render_traces};
pub use shard::RelationShard;
pub use witness::{
    lemma3_witness, lemma7_witness, theorem4_witness, verify_witness, Witness, WitnessKind,
};

// The exhaustive LSAT ∖ WSAT search the decision procedure is tested
// against on tiny schemas.
#[cfg(test)]
mod oracle;
