//! The per-relation log writer.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ids_obs::{Counter, LatencyHistogram};
use ids_relational::{Value, ValuePool};

use crate::format::frame;
use crate::records::{SegmentHeader, WalOp, WalRecord};
use crate::{io_err, SyncPolicy, WalError};

/// Shared metric handles a [`WalWriter`] records into.
///
/// The handles are `Arc`s so one family can be attached to many writers
/// (the store attaches one family per store, aggregated across all
/// relations) and read concurrently through an
/// [`ids_obs::Registry`].  Attaching metrics is optional; a writer
/// without them records nothing.
#[derive(Clone, Debug, Default)]
pub struct WalMetrics {
    /// Records appended across all attached writers.
    pub appends: Arc<Counter>,
    /// Bytes written for appended frames (payload + 8-byte frame header).
    pub append_bytes: Arc<Counter>,
    /// `fsync` (`sync_data`) calls issued.
    pub fsyncs: Arc<Counter>,
    /// Latency of each `fsync` call.
    pub fsync_ns: Arc<LatencyHistogram>,
    /// Segment rotations (the per-relation half of checkpoints).
    pub rotations: Arc<Counter>,
}

impl WalMetrics {
    /// A fresh, all-zero metric family.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Builds the canonical segment file name for a relation + generation.
pub fn segment_file_name(scheme: u16, gen: u64) -> String {
    format!("r{scheme:05}-g{gen:010}.log")
}

/// Parses a segment file name back into `(scheme, gen)`.
pub fn parse_segment_file_name(name: &str) -> Option<(u16, u64)> {
    let rest = name.strip_prefix('r')?.strip_suffix(".log")?;
    let (scheme, gen) = rest.split_once("-g")?;
    Some((scheme.parse().ok()?, gen.parse().ok()?))
}

/// Appends CRC-framed records to one relation's current log segment.
///
/// A writer owns the relation's sequence counter: every append gets
/// `last_seq + 1`.  Appends are written to the file immediately (one
/// `write` per record — the OS buffers them, so a clean process exit
/// loses nothing); [`WalWriter::maybe_sync`] applies the caller's
/// [`SyncPolicy`] for power-loss durability, and
/// [`WalWriter::rotate`] closes the segment for a checkpoint.
///
/// A writer given the value pool ([`WalWriter::set_names`]) makes its
/// segment **self-defining**: the first record of the segment that uses
/// a pool value carries the value's name ([`WalRecord::defs`]), in the
/// same frame, so the name is written and synced with its first use.
#[derive(Debug)]
pub struct WalWriter {
    wal_dir: PathBuf,
    path: PathBuf,
    file: File,
    fingerprint: u32,
    scheme: u16,
    gen: u64,
    last_seq: u64,
    unsynced: u64,
    /// Fault injection (tests only, see [`WalWriter::fail_appends_after`]):
    /// appends beyond this many total successful ones fail with an
    /// injected I/O error.
    fail_after: Option<u64>,
    /// Total successful appends across rotations, for `fail_after`.
    appended_total: u64,
    /// Optional metric family this writer records into.
    metrics: Option<WalMetrics>,
    /// Present when records define their values.  Boxed: a relation slot
    /// holds an `Option<WalWriter>` inline, logged or not.
    names: Option<Box<SegmentNames>>,
}

/// What a self-defining writer keeps: the value pool its names come
/// from, and which pool ids its current segment has defined (or found no
/// name for) — one bit per id, never longer than the pool, reset by
/// every rotation.
#[derive(Debug)]
struct SegmentNames {
    pool: Arc<Mutex<ValuePool>>,
    defined: Vec<u64>,
}

impl WalWriter {
    /// Creates a fresh segment for `scheme` at `gen`, continuing the
    /// sequence numbering from `last_seq`.
    pub(crate) fn create(
        wal_dir: &Path,
        fingerprint: u32,
        scheme: u16,
        gen: u64,
        last_seq: u64,
    ) -> Result<Self, WalError> {
        let path = wal_dir.join(segment_file_name(scheme, gen));
        let mut file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        let header = SegmentHeader {
            fingerprint,
            scheme,
            gen,
            start_seq: last_seq + 1,
        };
        file.write_all(&frame(&header.encode()))
            .map_err(|e| io_err(&path, e))?;
        // Persist the directory entry: a record fsync'd into this file
        // must not be erasable by losing the file itself on power loss.
        crate::dir::sync_dir(wal_dir).map_err(|e| io_err(wal_dir, e))?;
        Ok(WalWriter {
            wal_dir: wal_dir.to_path_buf(),
            path,
            file,
            fingerprint,
            scheme,
            gen,
            last_seq,
            unsynced: 0,
            fail_after: None,
            appended_total: 0,
            metrics: None,
            names: None,
        })
    }

    /// Makes the segments self-defining against `pool` (see the type
    /// docs).  Survives [`WalWriter::rotate`].  An append locks the pool
    /// only when its tuple holds a value the segment has not defined.
    pub fn set_names(&mut self, pool: Arc<Mutex<ValuePool>>) {
        let defined = Vec::new();
        self.names = Some(Box::new(SegmentNames { pool, defined }));
    }

    /// Attaches a metric family: subsequent appends, fsyncs, and
    /// rotations record into it.  Survives [`WalWriter::rotate`].
    pub fn set_metrics(&mut self, metrics: WalMetrics) {
        self.metrics = Some(metrics);
    }

    /// Fault-injection hook for durability tests: every append after the
    /// next `appends` successful ones fails with an injected I/O error,
    /// exactly as if the disk had gone bad mid-workload.  Not part of the
    /// stable API.
    #[doc(hidden)]
    pub fn fail_appends_after(&mut self, appends: u64) {
        self.fail_after = Some(self.appended_total + appends);
    }

    /// The relation this writer logs.
    pub fn scheme(&self) -> u16 {
        self.scheme
    }

    /// The generation of the current segment.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// The sequence number of the last appended record.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Appends one effective operation, returning its sequence number.
    pub fn append(&mut self, op: WalOp) -> Result<u64, WalError> {
        if let Some(limit) = self.fail_after {
            if self.appended_total >= limit {
                return Err(io_err(
                    &self.path,
                    std::io::Error::other("injected append failure"),
                ));
            }
        }
        let seq = self.last_seq + 1;
        let (defs, pool_len) = match &self.names {
            Some(names) if op.tuple().iter().any(|&v| names.undefined(v)) => {
                (names.definitions(op.tuple())).map_err(|()| {
                    io_err(
                        &self.path,
                        std::io::Error::other("value pool lock poisoned"),
                    )
                })?
            }
            _ => (Vec::new(), 0),
        };
        let record = WalRecord { seq, op, defs };
        let payload = record.encode();
        crate::check_frame_size(&self.path, payload.len())?;
        self.file
            .write_all(&frame(&payload))
            .map_err(|e| io_err(&self.path, e))?;
        if let Some(names) = &mut self.names {
            names.mark(record.op.tuple(), pool_len);
        }
        self.last_seq = seq;
        self.unsynced += 1;
        self.appended_total += 1;
        if let Some(m) = &self.metrics {
            m.appends.inc();
            m.append_bytes.add(payload.len() as u64 + 8);
        }
        Ok(seq)
    }

    /// Applies the sync policy after a batch of appends: `Always` syncs
    /// any unsynced record, `Batch(n)` syncs once `n` have accumulated,
    /// `Never` leaves durability to checkpoints and shutdown.
    pub fn maybe_sync(&mut self, policy: SyncPolicy) -> Result<(), WalError> {
        let due = match policy {
            SyncPolicy::Always => self.unsynced > 0,
            SyncPolicy::Batch(n) => self.unsynced as usize >= n.max(1),
            SyncPolicy::Never => false,
        };
        if due {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces everything appended so far to stable storage.
    pub fn sync(&mut self) -> Result<(), WalError> {
        let start = (self.metrics.is_some() && ids_obs::recording()).then(Instant::now);
        self.file.sync_data().map_err(|e| io_err(&self.path, e))?;
        self.unsynced = 0;
        if let (Some(m), Some(start)) = (&self.metrics, start) {
            m.fsyncs.inc();
            m.fsync_ns.record(start.elapsed());
        }
        Ok(())
    }

    /// Closes the current segment (fsync'd) and opens a fresh one at
    /// `new_gen` — the per-relation half of a checkpoint.  Returns the
    /// sequence number the closed segment ends at.
    pub fn rotate(&mut self, new_gen: u64) -> Result<u64, WalError> {
        let scheme = self.scheme;
        self.rotate_as(scheme, new_gen)
    }

    /// [`WalWriter::rotate`], but the fresh segment is opened under a
    /// (possibly different) scheme index — the per-relation half of a
    /// schema transition, where a surviving relation may be renumbered.
    /// The sequence counter continues across the rename: a relation's
    /// log is one contiguous stream however its index moves, and the
    /// follow loop stitches the segments back together by relation
    /// (name and attributes) across each manifest.
    pub fn rotate_as(&mut self, new_scheme: u16, new_gen: u64) -> Result<u64, WalError> {
        self.sync()?;
        let mut next = WalWriter::create(
            &self.wal_dir,
            self.fingerprint,
            new_scheme,
            new_gen,
            self.last_seq,
        )?;
        // An injected fault budget survives rotation: the counters are
        // writer-lifetime, not per-segment.  So does the metric family.
        next.fail_after = self.fail_after;
        next.appended_total = self.appended_total;
        next.metrics = self.metrics.clone();
        next.names = self.names.take().map(|mut names| {
            names.defined.clear();
            names
        });
        if let Some(m) = &self.metrics {
            m.rotations.inc();
        }
        let sealed_at = self.last_seq;
        *self = next;
        Ok(sealed_at)
    }
}

impl SegmentNames {
    /// Whether `v` is a pool id the segment has not defined.  Ids past
    /// `u32` are never pool ids: fresh or raw values, with no name.
    fn undefined(&self, v: Value) -> bool {
        u32::try_from(v.0).is_ok_and(|i| {
            (self.defined.get(i as usize / 64)).is_none_or(|word| word >> (i % 64) & 1 == 0)
        })
    }

    /// The names of `tuple`'s values the segment has not defined, read
    /// from the pool under its lock, and the pool's length then; `Err`
    /// when a thread panicked holding the lock.  A value the pool has no
    /// name for (a hole, a raw or fresh value) is not defined at all.
    fn definitions(&self, tuple: &[Value]) -> Result<(Vec<(Value, String)>, usize), ()> {
        let pool = self.pool.lock().map_err(drop)?;
        let mut defs: Vec<(Value, String)> = Vec::new();
        for &v in tuple {
            if self.undefined(v) && defs.iter().all(|(d, _)| *d != v) {
                defs.extend(pool.name(v).map(|name| (v, name.to_owned())));
            }
        }
        Ok((defs, pool.len()))
    }

    /// Marks `tuple`'s values below `pool_len` — those whose name, or
    /// lack of one, the segment now holds — as defined.  A value the
    /// pool had not handed out yet stays undefined: it may be interned
    /// later.
    fn mark(&mut self, tuple: &[Value], pool_len: usize) {
        for &v in tuple.iter().filter(|v| v.0 < pool_len as u64) {
            let i = v.0 as usize;
            if self.defined.len() <= i / 64 {
                self.defined.resize(i / 64 + 1, 0);
            }
            self.defined[i / 64] |= 1 << (i % 64);
        }
    }
}

impl Drop for WalWriter {
    fn drop(&mut self) {
        // Best-effort final sync so a clean shutdown is power-loss
        // durable even under SyncPolicy::Never; errors here have no
        // caller to report to.
        if self.unsynced > 0 {
            let _ = self.file.sync_data();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_names_round_trip() {
        let n = segment_file_name(3, 12);
        assert_eq!(n, "r00003-g0000000012.log");
        assert_eq!(parse_segment_file_name(&n), Some((3, 12)));
        assert_eq!(parse_segment_file_name("junk"), None);
        assert_eq!(parse_segment_file_name("r1-g2.tmp"), None);
    }
}
