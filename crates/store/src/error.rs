//! The one error type of the store and of the typed front-end.

use ids_chase::ChaseError;
use ids_core::{MaintenanceError, NotIndependentReason, Witness};
use ids_deps::Fd;
use ids_evolve::EvolveError;
use ids_relational::{RelationalError, SchemeId, Tuple};
use ids_wal::WalError;

/// Everything that can go wrong in a [`crate::Store`] or behind the
/// `ids_api::Database` facade — one type for both layers, so a refusal
/// reads the same whichever of them surfaced it.
///
/// The underlying crate error types convert in via `From`, so `?`
/// works across every layer; the one cross-cutting failure — *the schema
/// is not independent* — is normalized into its own variant no matter
/// which layer surfaced it, always carrying the decision procedure's
/// diagnosis and its machine-checkable `LSAT ∖ WSAT` counterexample.
///
/// Marked `#[non_exhaustive]`: downstream matches must keep a wildcard
/// arm, so new failure modes are not breaking changes.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// A relational-substrate error (arity mismatch, schema shape, ..).
    Relational(RelationalError),
    /// The chase baseline exceeded its budget.
    Chase(ChaseError),
    /// A durability-layer error: I/O, on-disk corruption, or a log
    /// written under a different schema/FD set
    /// ([`WalError::SchemaMismatch`]) — normalized into this one
    /// variant whichever layer surfaced it.
    Wal(WalError),
    /// The schema is not independent, so the requested construction would
    /// be unsound — refused with the analysis's diagnosis and witness.
    NotIndependent {
        /// Which condition of the decision procedure failed.
        reason: NotIndependentReason,
        /// A locally-satisfying, globally-unsatisfying state.
        witness: Box<Witness>,
    },
    /// The initial state handed to [`crate::Store::open`] (or to a
    /// sequential engine) violates a relation's enforcement cover.
    InvalidBaseState {
        /// The offending relation.
        scheme: SchemeId,
        /// The violated FD of its cover `Fi`.
        violated: Fd,
    },
    /// A lock guarding the store's state is poisoned: a thread panicked
    /// while holding it, so what it guards can no longer be trusted.
    Disconnected,
    /// A relation's log hit a durability failure (WAL append, sync or
    /// rotate): the failing call was not acknowledged and the relation
    /// serves nothing any more.  The first failure's reason is preserved
    /// in a poison cell and reported — verbatim — by every later
    /// operation on that relation and every store-wide one.  A schema
    /// transition that fails at or after its durability point (the
    /// manifest write or the switch) poisons every relation this way.
    ShardPoisoned {
        /// Rendered reason of the first durability failure.
        reason: String,
    },
    /// [`crate::Store::checkpoint`] or [`crate::Store::alter`] was
    /// called on a store opened without a write-ahead log.
    NotDurable,
    /// A record [`crate::Store::follow`] applied does not re-apply
    /// through its relation's slot: an insert not accepted, a remove of
    /// an absent tuple, or a name the value pool already gives another
    /// value.  The log and the state it is applied to contradict each
    /// other.
    Replay {
        /// The relation, in the schema the store serves.
        scheme: SchemeId,
        /// The record's sequence number.
        seq: u64,
        /// What did not fit.
        detail: String,
    },
    /// A [`crate::Store::alter`] backfill found existing tuples that
    /// violate a functional dependency the transition would start
    /// enforcing.  The current schema keeps serving; nothing durable
    /// changed.  (From [`crate::Store::follow`]: the manifest it applied
    /// gives a relation a cover the relation's rows violate.)
    BackfillViolation {
        /// The relation (under the **current** schema) whose data
        /// violates the new cover.
        scheme: SchemeId,
        /// The violated FD of the would-be enforcement cover.
        violated: Fd,
        /// A violating pair of tuples (same LHS projection, different
        /// RHS), shipped back as the machine-checkable witness.
        witness: Vec<Tuple>,
    },
    /// A relation name that is not part of the schema.
    UnknownRelation(String),
    /// A typed-level operation named a [`SchemeId`] outside the schema —
    /// one variant, whichever layer surfaced it.
    UnknownScheme(SchemeId),
    /// A column name that is not part of the named relation — surfaced by
    /// the query builder before anything is pushed to the store.
    UnknownColumn {
        /// The relation the query targeted.
        relation: String,
        /// The column name that does not belong to it.
        column: String,
    },
    /// `ids_api::Database::join` was called with an empty relation list
    /// (the natural join has no neutral element over an unknown scheme).
    EmptyJoin,
    /// A write (insert, remove or batch) was attempted through a
    /// replication follower's read-only `ids_api::Database` handle.
    /// Replicas apply state only by re-running the
    /// primary's shipped log records; direct writes would fork the
    /// replica from the log it follows.
    ReplicaReadOnly,
    /// A numeric aggregate (`ids_api::Query::sum`) met a stored value
    /// that does not parse as an integer.  Carries the column and the
    /// offending rendered value, so the caller can point at the exact
    /// row-level culprit.
    NonNumeric {
        /// The column the aggregate ran over.
        column: String,
        /// The stored value that failed to parse.
        value: String,
    },
    /// A numeric aggregate (`ids_api::Query::sum`) over integers whose
    /// total does not fit an `i64`.
    SumOverflow {
        /// The column the aggregate ran over.
        column: String,
    },
    /// A schema transition (`ids_api::Database::alter`) was refused for
    /// a reason other than independence: duplicate/unknown relation or
    /// dependency names, or a drop that would leave universe attributes
    /// covered by no relation.  (A *dependent* target schema surfaces as
    /// [`Error::NotIndependent`] like every other independence refusal,
    /// and existing data violating a new FD surfaces as
    /// [`Error::BackfillViolation`] with the witness tuples attached.)
    Evolve(EvolveError),
    /// A functional-dependency spec handed to
    /// [`crate::SchemaBuilder::fd`] did not parse against the declared
    /// columns.  Carries the spec, the byte span of the offending
    /// fragment within it, and the reason — typed so callers can point at
    /// the exact mistake instead of re-parsing an error string.
    FdParse {
        /// The spec exactly as given to `fd()`.
        spec: String,
        /// `(start, end)` byte range of the offending fragment in `spec`.
        span: (usize, usize),
        /// What went wrong with that fragment.
        reason: String,
    },
}

impl Error {
    /// The `LSAT ∖ WSAT` counterexample, when the error is an
    /// independence refusal.
    pub fn witness(&self) -> Option<&Witness> {
        match self {
            Error::NotIndependent { witness, .. } => Some(witness),
            _ => None,
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Relational(e) => write!(f, "{e}"),
            Error::Chase(e) => write!(f, "{e}"),
            Error::Wal(e) => write!(f, "{e}"),
            Error::NotIndependent { reason, .. } => write!(
                f,
                "schema is not independent (refused, with counterexample): {reason:?}"
            ),
            Error::InvalidBaseState { scheme, violated } => write!(
                f,
                "initial state violates the enforcement cover of {scheme:?} (FD {violated:?})"
            ),
            Error::Disconnected => write!(f, "a store lock was poisoned by a panicking thread"),
            Error::ShardPoisoned { reason } => {
                write!(f, "shard poisoned by a durability failure: {reason}")
            }
            Error::NotDurable => write!(f, "store was opened without a write-ahead log"),
            Error::Replay {
                scheme,
                seq,
                detail,
            } => write!(f, "record {seq} of {scheme:?} does not re-apply: {detail}"),
            Error::BackfillViolation {
                scheme, violated, ..
            } => write!(
                f,
                "existing tuples of {scheme:?} violate {violated:?}; transition refused"
            ),
            Error::UnknownRelation(name) => write!(f, "unknown relation `{name}`"),
            Error::UnknownScheme(id) => write!(f, "operation references unknown scheme {id:?}"),
            Error::UnknownColumn { relation, column } => {
                write!(f, "relation `{relation}` has no column `{column}`")
            }
            Error::EmptyJoin => write!(f, "join requires at least one relation"),
            Error::ReplicaReadOnly => write!(
                f,
                "replica is read-only: writes must go to the primary it follows"
            ),
            Error::NonNumeric { column, value } => write!(
                f,
                "column `{column}` holds non-numeric value `{value}` — numeric aggregates need integers"
            ),
            Error::SumOverflow { column } => {
                write!(f, "the sum of column `{column}` overflows a 64-bit integer")
            }
            Error::Evolve(e) => write!(f, "{e}"),
            Error::FdParse { spec, span, reason } => write!(
                f,
                "invalid functional dependency `{spec}`: {reason} (bytes {}..{})",
                span.0, span.1
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Relational(e) => Some(e),
            Error::Chase(e) => Some(e),
            Error::Wal(e) => Some(e),
            Error::Evolve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelationalError> for Error {
    fn from(e: RelationalError) -> Self {
        Error::Relational(e)
    }
}

impl From<ChaseError> for Error {
    fn from(e: ChaseError) -> Self {
        Error::Chase(e)
    }
}

impl From<MaintenanceError> for Error {
    fn from(e: MaintenanceError) -> Self {
        match e {
            MaintenanceError::NotIndependent { reason, witness } => {
                Error::NotIndependent { reason, witness }
            }
            // Substrate errors are normalized to the one canonical
            // variant, whichever layer surfaced them.
            MaintenanceError::Relational(e) => Error::Relational(e),
            MaintenanceError::UnknownScheme(id) => Error::UnknownScheme(id),
            MaintenanceError::Chase(e) => Error::Chase(e),
            MaintenanceError::BaseStateViolation { scheme, violated } => {
                Error::InvalidBaseState { scheme, violated }
            }
        }
    }
}

impl From<EvolveError> for Error {
    fn from(e: EvolveError) -> Self {
        match e {
            // The one cross-cutting refusal keeps its one canonical
            // variant: a dependent target schema is the same failure as
            // constructing over a dependent schema in the first place.
            EvolveError::Dependent { reason, witness } => Error::NotIndependent { reason, witness },
            EvolveError::Relational(e) => Error::Relational(e),
            other => Error::Evolve(other),
        }
    }
}

impl From<WalError> for Error {
    fn from(e: WalError) -> Self {
        Error::Wal(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_deps::FdSet;
    use ids_relational::{DatabaseSchema, Universe};

    #[test]
    fn independence_refusals_normalize_across_engines() {
        // Example 1, refused by both the local engine and the store: the
        // facade error is the same variant either way, witness attached.
        let u = Universe::from_names(["C", "D", "T"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("CD", "CD"), ("CT", "CT"), ("TD", "TD")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["C -> D", "C -> T", "T -> D"]).unwrap();
        let analysis = ids_core::analyze(&schema, &fds);

        let from_local: Error = ids_core::LocalMaintainer::from_analysis(
            &schema,
            &analysis,
            ids_relational::DatabaseState::empty(&schema),
        )
        .unwrap_err()
        .into();
        let handle = crate::Schema::canonical(&schema, &fds);
        let from_store = crate::Store::open(handle, crate::StoreConfig::default()).unwrap_err();
        for err in [from_local, from_store] {
            assert!(matches!(err, Error::NotIndependent { .. }), "got {err}");
            assert!(err.witness().is_some());
        }
    }

    /// The store's variants live in the one enum without making it
    /// larger than the largest variant it already had: a `Result`
    /// carrying it costs what it did.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn the_one_error_is_no_larger() {
        assert!(std::mem::size_of::<Error>() <= 120);
    }
}
