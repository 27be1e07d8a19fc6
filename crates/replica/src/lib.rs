//! # ids-replica
//!
//! Read replicas via **per-relation log shipping**.
//!
//! The paper's Theorem 3 is what makes this subsystem almost free: on
//! an independent schema every accepted operation is a *local* decision
//! of one relation's enforcement cover `Fi`, and a state that is
//! locally satisfying is globally satisfying (`LSAT = WSAT`).  The
//! durable layer therefore keeps one append-only log **per relation**
//! with no cross-log ordering — and a log with no cross-log ordering
//! ships.  A follower that replays each relation's log prefix
//! independently holds, at every instant, a locally-satisfying state;
//! by the theorem that state is globally satisfying, even though
//! different relations may be at different points of the primary's
//! history (cross-relation skew).
//!
//! Replication reuses the primary's machinery end to end — **two
//! transports, one follow loop, one store**:
//!
//! * **One store.**  A follower *is* an [`ids_store::Store`]: bootstrap
//!   is the store's own crash recovery ([`ids_store::Store::recover_from`]
//!   — snapshot + per-relation log tails through the era-tagged replay
//!   a durable reopen runs, opening no writer and writing no file), and
//!   every shipped record is applied with the store's `insert`/`remove`,
//!   i.e. the same slot and [`ids_core::RelationShard`] probe/commit as
//!   the primary.  Every shipped record was an accepted, effective
//!   operation on the primary, so it must re-accept on the replica —
//!   anything else is a typed [`ReplicaError::Diverged`], never a
//!   silent patch.  A shipped schema transition rebuilds the store
//!   under the new manifest's full schema, declared layouts included
//!   ([`ids_store::Store::from_schema`] over the surviving relations).
//! * **One follow loop.**  [`ids_wal::Follower`] decides what ships and
//!   in which order — manifests before the records written under them,
//!   records batched per `(generation, scheme index)` — and remaps its
//!   tailers at every transition.  Names ride in the records: a
//!   relation's log is self-defining (the first record of a segment that
//!   uses a value carries its name), so the follower defines each name
//!   in its pool under the primary's id as the record arrives, and no
//!   record ever waits for a name from another stream.
//! * **Two transports** over it.  **file-tail** ([`Replica::open`]):
//!   primary and follower share a directory and the replica runs the
//!   follow loop itself, read-only.  **wire-stream**
//!   ([`Replica::connect`]): the follower seeds from a directory copy
//!   (a base backup), then subscribes over TCP; the server runs the
//!   follow loop over its own files and ships frame payloads
//!   *verbatim*, so replication inherits the on-disk format's
//!   golden-fixture byte stability.
//!
//! The replica exposes the **read surface only** — `read` / `query` /
//! `rows` / `count` / `join` through [`ids_api::Database`], a
//! follower's handle over the replica's own store
//! ([`ids_api::Database::follower`]).  Reads take only their relation's
//! lock, exactly as on the primary.  The handle refuses every write with
//! [`ids_api::Error::ReplicaReadOnly`] before interning a single string:
//! the pool holds exactly the primary's `value ↦ name` pairs, fed only by
//! the apply loop that owns the handle.  Per-relation lag (`(gen, seq)`
//! delta), apply counters, and a staleness gauge are reported through
//! [`ids_obs`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod replica;

pub use replica::{Replica, ReplicaLag, ReplicaProgress};

/// Everything that can go wrong while following a primary.
#[derive(Debug)]
#[non_exhaustive]
pub enum ReplicaError {
    /// The primary's files were unreadable or corrupt (bad CRC on a
    /// complete frame, a self-contradictory segment chain, I/O).  A
    /// bootstrap whose replay fails arrives here too, as the store's
    /// own recovery error (a logged record that does not replay is
    /// [`ids_wal::WalError::Corrupt`]); a *shipped* record that does not
    /// re-apply is [`ReplicaError::Diverged`].
    Wal(ids_wal::WalError),
    /// A facade error: a manifest's schema failed to rebuild or is not
    /// independent.
    Api(ids_api::Error),
    /// The wire transport failed: socket error, corrupt reply stream,
    /// or a typed server error.
    Client(ids_client::ClientError),
    /// The primary checkpointed and pruned segments this follower had
    /// not consumed.  Not corruption — the missing records are folded
    /// into the snapshot — but this `Replica` is spent: re-bootstrap
    /// from the primary's current snapshot (a fresh [`Replica::open`],
    /// or a fresh seed copy + [`Replica::connect`]).
    Behind,
    /// A shipped record did not re-apply cleanly: the store's
    /// `insert`/`remove` did not re-accept it, its sequence number left
    /// a gap, or a name it defines disagrees with the follower's pool.  The logs and the replica's state contradict each
    /// other, so the follower refuses to continue.
    Diverged {
        /// Relation index of the offending stream.
        relation: u16,
        /// Sequence number of the record that failed to re-apply.
        seq: u64,
        /// What exactly went wrong.
        detail: String,
    },
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Wal(e) => write!(f, "{e}"),
            Self::Api(e) => write!(f, "{e}"),
            Self::Client(e) => write!(f, "{e}"),
            Self::Behind => write!(
                f,
                "replica is behind the primary's pruned segments: re-bootstrap from the snapshot"
            ),
            Self::Diverged {
                relation,
                seq,
                detail,
            } => write!(
                f,
                "replica diverged from the primary (relation {relation}, seq {seq}): {detail}"
            ),
        }
    }
}

impl std::error::Error for ReplicaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Wal(e) => Some(e),
            Self::Api(e) => Some(e),
            Self::Client(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ids_wal::WalError> for ReplicaError {
    fn from(e: ids_wal::WalError) -> Self {
        ReplicaError::Wal(e)
    }
}

impl From<ids_store::StoreError> for ReplicaError {
    fn from(e: ids_store::StoreError) -> Self {
        match e {
            // The follower's store recovery met bad files: keep the
            // durability layer's own typed error.
            ids_store::StoreError::Wal(e) => ReplicaError::Wal(e),
            other => ReplicaError::Api(other.into()),
        }
    }
}

impl From<ids_api::Error> for ReplicaError {
    fn from(e: ids_api::Error) -> Self {
        ReplicaError::Api(e)
    }
}

impl From<ids_client::ClientError> for ReplicaError {
    fn from(e: ids_client::ClientError) -> Self {
        // The server reports "cursor behind pruned segments" as a typed
        // durability error on the stream; normalize it to the same
        // `Behind` the file transport reports, so callers have one
        // re-bootstrap signal regardless of transport.
        if let ids_client::ClientError::Server(ids_server::wire::WireError::Durability(msg)) = &e {
            if msg.contains("behind pruned segments") {
                return ReplicaError::Behind;
            }
        }
        ReplicaError::Client(e)
    }
}
