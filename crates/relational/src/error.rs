//! Error type for the relational substrate.

use std::fmt;

/// Errors raised when constructing or manipulating relational objects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RelationalError {
    /// An attribute name was added to a universe twice.
    DuplicateAttribute(String),
    /// The universe already holds the maximum number of attributes.
    UniverseFull,
    /// A name lookup failed.
    UnknownAttribute(String),
    /// A relation scheme must be a nonempty subset of the universe.
    EmptyScheme(String),
    /// Two relation schemes of one schema share a name.
    DuplicateScheme(String),
    /// A database schema must contain at least one scheme.
    EmptySchema,
    /// The schemes of a schema must cover the universe (their union is `U`),
    /// as required for `*D` to be a join dependency over `U`.
    SchemaDoesNotCoverUniverse {
        /// Attributes of `U` missing from every scheme.
        missing: String,
    },
    /// A tuple's arity does not match its scheme.
    ArityMismatch {
        /// Expected number of values (scheme width).
        expected: usize,
        /// Number of values supplied.
        found: usize,
    },
    /// A relation already holds the most tuples it can address
    /// (`u32::MAX`).
    RelationFull,
    /// A value pool's name arena already holds the most bytes its `u32`
    /// offsets address (4 GiB); the name that would overflow it is
    /// refused.
    PoolFull,
    /// An operation mixed objects from different universes or schemas.
    SchemaMismatch(&'static str),
    /// A binary payload could not be decoded (see [`crate::codec`]).
    Codec(&'static str),
}

impl fmt::Display for RelationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DuplicateAttribute(n) => write!(f, "duplicate attribute name `{n}`"),
            Self::UniverseFull => write!(f, "universe is full (max 256 attributes)"),
            Self::UnknownAttribute(n) => write!(f, "unknown attribute `{n}`"),
            Self::EmptyScheme(n) => write!(f, "relation scheme `{n}` has no attributes"),
            Self::DuplicateScheme(n) => write!(f, "duplicate relation scheme name `{n}`"),
            Self::EmptySchema => write!(f, "database schema has no relation schemes"),
            Self::SchemaDoesNotCoverUniverse { missing } => write!(
                f,
                "schema does not cover the universe; missing attributes: {missing}"
            ),
            Self::ArityMismatch { expected, found } => {
                write!(
                    f,
                    "tuple arity mismatch: expected {expected}, found {found}"
                )
            }
            Self::RelationFull => write!(f, "relation is full (max 2^32 - 1 tuples)"),
            Self::PoolFull => write!(f, "value pool is full (max 4 GiB of names)"),
            Self::SchemaMismatch(what) => write!(f, "objects belong to different {what}"),
            Self::Codec(what) => write!(f, "malformed binary payload: {what}"),
        }
    }
}

impl std::error::Error for RelationalError {}
