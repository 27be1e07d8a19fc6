//! # ids-wal
//!
//! A binary write-ahead log + snapshot checkpoint format for independent
//! schemas.
//!
//! Theorem 3 of Graham & Yannakakis makes every accepted operation
//! locally validated against a single relation's enforcement cover `Fi`.
//! Read as a durability statement, that means a **per-relation**
//! append-only log is a *complete* record of enforcement decisions:
//! replaying one relation's acknowledged operations through the normal
//! probe/commit path reconstructs exactly its in-memory state, with no
//! cross-relation repair pass — `LSAT = WSAT` guarantees the union of
//! independently recovered relations is globally satisfying.  So this
//! crate keeps **one log per relation and no ordering between logs**:
//! recovery is embarrassingly parallel, and a torn tail in one log never
//! invalidates another.
//!
//! ## On-disk layout
//!
//! ```text
//! <root>/
//!   MANIFEST          one CRC frame: schema + FDs + app blob (written once)
//!   MANIFEST-g{n}     one CRC frame: the schema a transition made current at generation n
//!   snapshot.ids      CRC frame(s): checkpointed state + per-relation seqnos
//!                     + every name of the value pool and its next id
//!   wal/
//!     r00000-g0000000001.log     relation 0, generation 1
//!     r00001-g0000000001.log     relation 1, generation 1
//!     ...
//! ```
//!
//! There is no global name log.  Each segment is **self-defining**: the
//! first record in it that uses a value of the embedding application's
//! value pool carries that value's `(id, name)` ([`WalRecord::defs`]),
//! so a name is written to the file of its first use, before it, under
//! the same fsync and the same [`SyncPolicy`].  Recovery and
//! [`Follower`] take the names from that one record stream; two
//! definitions of one value that disagree are [`WalError::Corrupt`].  A
//! directory still holding the `pool.log` of the older format is refused
//! with [`WalError::LegacyNameLog`].
//!
//! Every file is built from the same **frame**: `[len: u32 LE]`
//! `[crc32(len ‖ payload): u32 LE]` `[payload]` (see [`mod@format`]).  A log
//! segment is a header frame followed by record frames; each record
//! carries a per-relation sequence number, contiguous from the segment
//! header's `start_seq`.  A **checkpoint** rotates every relation onto a
//! new generation, writes the snapshot (atomically, via temp file +
//! rename), and deletes the covered generations — truncating the log.
//!
//! ## Failure model
//!
//! * A frame cut short by a crash (**torn write**) ends replay of that
//!   log cleanly: recovery returns the acknowledged-and-synced prefix.
//!   Recovery reads the logs through the replication follow loop
//!   ([`Follower`]), so a log reads the same to both.
//! * A complete frame whose CRC does not match is **corruption** and
//!   surfaces as a typed [`WalError::Corrupt`], never a panic and never
//!   a silently shortened log.
//! * A log opened under a different schema or FD set is a typed
//!   [`WalError::SchemaMismatch`] (the manifest pins both, and every
//!   segment/snapshot carries the manifest's fingerprint).
//!
//! The sync cadence is the caller's [`SyncPolicy`]; the durable store in
//! `ids-store` group-fsyncs batches through it.

#![warn(missing_docs)]

pub mod format;
mod names;
mod records;
mod tail;
mod writer;

mod dir;

pub use dir::{generation_manifest_name, parse_generation_manifest_name, Recovered, WalDir};
pub use names::NameLog;
pub use records::{fingerprint, Manifest, SegmentHeader, Snapshot, WalOp, WalRecord};
pub use tail::{Cursor, FollowPoll, Follower, Shipment, TailedRecord};
pub use writer::{parse_segment_file_name, segment_file_name, WalMetrics, WalWriter};

use std::path::PathBuf;

/// When a log writer pushes appended records to stable storage.
///
/// Appends are always *written* to the file immediately (so a clean
/// process exit loses nothing); the policy only governs `fsync`, i.e.
/// what survives power loss or a kernel crash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Fsync before every acknowledgement (one fsync per applied batch
    /// on the durable store — safest, slowest).
    Always,
    /// Group fsync: sync a log once it has accumulated this many
    /// unsynced records (and at every checkpoint/rotation).
    Batch(usize),
    /// Never fsync during normal appends; only checkpoints and clean
    /// shutdown sync.  Survives process crashes, not power loss.
    Never,
}

impl Default for SyncPolicy {
    /// `Batch(4096)` — group commit: a relation's log pays one fsync per
    /// 4096 records rather than one per acknowledgement, and a power
    /// loss costs at most its last 4095 unsynced records.
    fn default() -> Self {
        SyncPolicy::Batch(4096)
    }
}

/// Everything that can go wrong in the durability layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum WalError {
    /// An operating-system I/O failure, with the file involved.
    Io {
        /// The file or directory the operation touched.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A complete frame or payload whose contents are invalid — CRC
    /// mismatch, bad magic, impossible sequence numbers.  Distinct from
    /// a torn tail, which is not an error (it is the crash the log
    /// exists to survive).
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What was wrong, for the operator.
        detail: String,
    },
    /// The file was written by an incompatible format version.
    UnsupportedVersion {
        /// The offending file.
        path: PathBuf,
        /// The version the file declares.
        found: u16,
    },
    /// A log record or manifest payload that would exceed the frame
    /// bound ([`format::MAX_FRAME_PAYLOAD`]) was refused at *write*
    /// time, before anything lands on disk.  (A snapshot that large is
    /// written over several frames instead.)
    FrameTooLarge {
        /// The file the payload was destined for.
        path: PathBuf,
        /// The payload size that broke the bound.
        bytes: usize,
    },
    /// The log was written under a different schema or FD set than the
    /// one supplied — replaying it would silently mis-enforce, so it is
    /// refused up front.
    SchemaMismatch {
        /// Which part disagreed.
        detail: &'static str,
    },
    /// A [`Follower`] was started with one cursor per relation of some
    /// other schema than the one governing its position — a caller's
    /// input error, not a property of the files.
    CursorCount {
        /// Cursors supplied.
        cursors: usize,
        /// Relations of the schema governing the cursors' generation.
        relations: usize,
    },
    /// The directory holds the global `pool.log` of the format before
    /// self-defining logs: its segments do not carry the names their
    /// records use, so opening it would lose every string.
    LegacyNameLog {
        /// The name log found.
        path: PathBuf,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { path, source } => write!(f, "wal I/O error on {}: {source}", path.display()),
            Self::Corrupt { path, detail } => {
                write!(f, "wal corruption in {}: {detail}", path.display())
            }
            Self::UnsupportedVersion { path, found } => write!(
                f,
                "unsupported wal format version {found} in {}",
                path.display()
            ),
            Self::FrameTooLarge { path, bytes } => write!(
                f,
                "payload of {bytes} bytes exceeds the frame bound for {}",
                path.display()
            ),
            Self::SchemaMismatch { detail } => {
                write!(f, "log was written under a different {detail}")
            }
            Self::CursorCount { cursors, relations } => write!(
                f,
                "{cursors} follower cursors but the schema has {relations} relations"
            ),
            Self::LegacyNameLog { path } => write!(
                f,
                "{} is a name log of an older directory format, which this version does not open",
                path.display()
            ),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Shorthand used throughout the crate to attach the file to an I/O
/// error.
pub(crate) fn io_err(path: &std::path::Path, source: std::io::Error) -> WalError {
    WalError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// Shorthand for a corruption error on a file.
pub(crate) fn corrupt(path: &std::path::Path, detail: impl Into<String>) -> WalError {
    WalError::Corrupt {
        path: path.to_path_buf(),
        detail: detail.into(),
    }
}

/// Write-side guard for the frame bound: what cannot be read back must
/// not be written (and, above all, must never trigger a log
/// truncation).
pub(crate) fn check_frame_size(path: &std::path::Path, bytes: usize) -> Result<(), WalError> {
    if bytes > format::MAX_FRAME_PAYLOAD as usize {
        return Err(WalError::FrameTooLarge {
            path: path.to_path_buf(),
            bytes,
        });
    }
    Ok(())
}
