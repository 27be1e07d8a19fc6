//! Read-only, incremental following of a durable directory — the one
//! follow loop every reader of a relation's log consumes.
//!
//! [`Follower`] keeps reading the logs while the primary appends, and
//! every consumer is a thin shell over it: crash recovery
//! ([`crate::WalDir::recover`]) runs it once, from the snapshot's
//! cursors to the end of the directory; the server's subscribe stream
//! maps each [`Shipment`] to a wire reply; the replica's file transport
//! applies it directly.  One [`Follower::poll`] hands everything new to
//! its caller's sink, in protocol order:
//!
//! 1. every generation manifest committed since the last poll
//!    ([`Shipment::Manifest`]) — a transition before any record written
//!    under it.  The follower remaps its per-relation tailers onto each
//!    new schema by relation ([`DatabaseSchema::remap_from`]: name +
//!    attributes): survivors follow their log to its new scheme index,
//!    dropped relations fall away, added ones start at `(gen, 0)`;
//! 2. new value-pool names ([`Shipment::Names`]) — the primary fsyncs a
//!    name before any record referencing its value, and a follower
//!    needs the same order;
//! 3. each relation's new records ([`Shipment::Records`]), split into
//!    batches of one `(generation, scheme index)` so a poll crossing a
//!    checkpoint rotation or a renumbering keeps cursors — and the
//!    era mapping of each record — exact.
//!
//! Underneath, a private per-relation tailer is the only code that
//! decodes a segment header or a log record.  It follows one segment
//! chain by sequence contiguity, with no separate rules for recovery:
//!
//! * a torn frame at the tail — a segment header included — is "nothing
//!   new yet" (retried on the next poll, when the primary's append may
//!   have completed), and ends the segment only once the next segment's
//!   header continues the sequence from it — so a segment a crash left
//!   empty is crossed, never waited on;
//! * a next segment whose header starts past the cursor while the
//!   current segment is still on disk is a race with rotation (records
//!   sealed into the current segment since it was read): the tailer
//!   re-reads it once, and a gap that survives that is lost records,
//!   a typed [`WalError::Corrupt`];
//! * it never advances past a manifest boundary nobody has explained to
//!   it, since a renumbered relation may have inherited its old index.
//!
//! [`NameTailer`] follows the name log ([`crate::NameLog`]) the same way
//! without ever writing to it (the owning `NameLog` replays through it
//! and truncates the torn tail; a follower must not).  A checksum-valid
//! but wrong frame is a typed [`WalError::Corrupt`].  Because the
//! primary only ever *appends* to segments and the pool log (truncation
//! happens only on the primary's own crash-recovery, and only of torn
//! bytes no tailer has consumed), a byte offset past the last complete
//! frame is always a stable resume point.
//!
//! A follower can also discover it is **behind**: the primary
//! checkpointed and pruned segments it had not consumed yet.  That is
//! not corruption — the missing records are folded into the snapshot —
//! so [`Follower::poll`] reports it as [`FollowPoll::Behind`] and the
//! follower re-bootstraps from the snapshot, which is still a
//! per-relation prefix of the primary's history.  (Recovery starts at
//! the snapshot, so there it means the log does not continue from it:
//! corruption.)

use std::path::{Path, PathBuf};

use ids_relational::codec::Decoder;
use ids_relational::DatabaseSchema;

use crate::dir::{list, parse_generation_manifest_name, WalDir, WAL_SUBDIR};
use crate::format::{next_frame, FORMAT_VERSION, FRAME_HEADER_LEN, POOL_MAGIC};
use crate::records::{Manifest, SegmentHeader, WalRecord};
use crate::writer::{parse_segment_file_name, segment_file_name};
use crate::{corrupt, io_err, WalError};

/// A follower's position in one relation's log: the generation being
/// read and the last applied sequence number.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Cursor {
    /// Checkpoint generation of the segment the cursor points into.
    pub gen: u64,
    /// Last applied per-relation sequence number (0 = nothing yet).
    pub seq: u64,
}

/// One record a follower read: the decoded record, the exact frame
/// payload bytes it was decoded from (so a shipper can forward them
/// verbatim, byte for byte), and the segment it came from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TailedRecord {
    /// Generation of the segment the record was read from.
    pub gen: u64,
    /// Scheme index of the segment the record was read from — the
    /// relation's index *under the manifest governing `gen`*.  Constant
    /// within one generation; a schema transition that renumbers the
    /// relation changes it at the generation boundary.
    pub scheme: u16,
    /// The decoded record.
    pub record: WalRecord,
    /// The raw frame payload, exactly as stored on disk (empty when
    /// recovery, which forwards nothing, read the record).
    pub payload: Vec<u8>,
}

/// One ordered unit of a [`Follower::poll`] — and, one for one, of the
/// server's subscribe stream.
#[derive(Debug)]
pub enum Shipment {
    /// A schema transition the primary committed.  Precedes every
    /// record of a generation `≥ gen`.
    Manifest {
        /// The generation the manifest governs from.
        gen: u64,
        /// The decoded manifest.
        manifest: Manifest,
        /// Its committed frame payload, verbatim.
        payload: Vec<u8>,
    },
    /// New value-pool names, in interning order.  Precedes every
    /// record that references them.
    Names {
        /// The names, each with its verbatim frame payload.
        names: Vec<TailedName>,
        /// [`NameTailer::emitted`]: names shipped since the follower's
        /// starting point — **not** the primary's total name count,
        /// which also counts the names the follower started with.
        tip: u64,
    },
    /// New records of one relation, all from one segment.
    Records {
        /// The relation's scheme index under the manifest governing
        /// `gen` (the records' own label).
        relation: u16,
        /// Generation of the segment the records came from.
        gen: u64,
        /// The relation's last sequence number read by this poll —
        /// the same on every batch one poll split.
        tip: u64,
        /// The records, in log order.
        records: Vec<TailedRecord>,
    },
}

/// What one [`Follower::poll`] found.
#[derive(Debug, PartialEq, Eq)]
pub enum FollowPoll {
    /// How many shipments the poll handed over — everything new since
    /// the previous poll; 0 means the follower has everything the
    /// directory showed.
    Shipped(usize),
    /// The primary pruned segments a relation had not consumed: the
    /// follower must re-bootstrap from the snapshot.  This `Follower`
    /// is spent; discard it.
    Behind,
}

/// The one follow loop: follows every relation's log, the name log and
/// the generation manifests of a live durable directory, in protocol
/// order (see the module docs).
#[derive(Debug)]
pub struct Follower {
    dir: WalDir,
    /// The schema the tailers are indexed by: the manifest governing
    /// the newest generation the follower knows.
    era: DatabaseSchema,
    /// Effective generation of that manifest; anything newer on disk
    /// ships on the next poll.
    manifest_gen: u64,
    tailers: Vec<RelationTailer>,
    /// The name log's tailer.  Recovery follows the relation logs
    /// alone, and its records carry no payloads (only a shipper forwards
    /// them).
    names: Option<NameTailer>,
}

impl Follower {
    /// A follower of `dir` resuming exactly after `cursors` — one per
    /// relation, indexed by the manifest governing the newest cursor
    /// generation (what a recovery of the follower's own copy of the
    /// directory reports) — with the first `names_applied` pool names
    /// already in hand.  A cursor count that does not match that
    /// manifest's schema is a typed [`WalError::CursorCount`].
    pub fn new(dir: &WalDir, cursors: &[Cursor], names_applied: u64) -> Result<Self, WalError> {
        let names = NameTailer::new(&dir.pool_log_path(), dir.fingerprint(), names_applied);
        Self::start(dir, cursors, Some(names))
    }

    /// The follower [`WalDir::recover`] runs: the relation logs alone,
    /// records without their payload bytes.
    pub(crate) fn replaying(dir: &WalDir, cursors: &[Cursor]) -> Result<Self, WalError> {
        Self::start(dir, cursors, None)
    }

    fn start(
        dir: &WalDir,
        cursors: &[Cursor],
        names: Option<NameTailer>,
    ) -> Result<Self, WalError> {
        let start = cursors.iter().map(|c| c.gen).max().unwrap_or(0);
        let (manifest_gen, manifest) = &dir.manifests()[dir.governing(start)];
        if cursors.len() != manifest.schema.len() {
            return Err(WalError::CursorCount {
                cursors: cursors.len(),
                relations: manifest.schema.len(),
            });
        }
        let payloads = names.is_some();
        let tailers = (0..).zip(cursors).map(|(i, &cursor)| RelationTailer {
            payloads,
            ..RelationTailer::new(dir.root(), dir.fingerprint(), i, cursor)
        });
        Ok(Follower {
            era: manifest.schema.clone(),
            manifest_gen: *manifest_gen,
            tailers: tailers.collect(),
            names,
            dir: dir.clone(),
        })
    }

    /// Reads everything committed since the previous poll and hands it
    /// to `ship` as it goes, in protocol order: manifests, then names,
    /// then each relation's record batches (see the module docs).  A
    /// relation's records are released once shipped, so a catch-up
    /// round holds at most one relation's backlog.
    ///
    /// Corruption is a typed [`WalError`]; a cursor the primary pruned
    /// past is [`FollowPoll::Behind`] (after the relations polled before
    /// it shipped).  An error from `ship` ends the poll with this
    /// follower already past the shipment that failed: discard it.
    pub fn poll<E: From<WalError>>(
        &mut self,
        mut ship: impl FnMut(Shipment) -> Result<(), E>,
    ) -> Result<FollowPoll, E> {
        let mut shipped = 0;
        for (gen, manifest, payload) in self.dir.generation_manifests_after(self.manifest_gen)? {
            self.retarget(gen, &manifest.schema);
            shipped += 1;
            ship(Shipment::Manifest {
                gen,
                manifest,
                payload,
            })?;
        }
        if let Some(tailer) = &mut self.names {
            let names = tailer.poll()?;
            if !names.is_empty() {
                let tip = tailer.emitted();
                shipped += 1;
                ship(Shipment::Names { names, tip })?;
            }
        }
        let view = DirView::read(self.dir.root())?;
        for tailer in &mut self.tailers {
            let RelationPoll::Records(mut records) = tailer.poll_in(&view)? else {
                return Ok(FollowPoll::Behind);
            };
            let tip = tailer.cursor().seq;
            while let Some(first) = records.first() {
                let (gen, relation) = (first.gen, first.scheme);
                let n = (records.iter())
                    .take_while(|r| (r.gen, r.scheme) == (gen, relation))
                    .count();
                // The usual poll is one batch, shipped without a copy.
                let rest = records.split_off(n);
                shipped += 1;
                ship(Shipment::Records {
                    relation,
                    gen,
                    tip,
                    records: std::mem::replace(&mut records, rest),
                })?;
            }
        }
        Ok(FollowPoll::Shipped(shipped))
    }

    /// Remaps the tailers onto the manifest committed at `gen`, by the
    /// relation identity rule ([`DatabaseSchema::remap_from`]):
    /// survivors are retargeted to their new index, dropped relations'
    /// tailers fall away, added relations start tailing at `(gen, 0)`,
    /// where their logs begin.
    fn retarget(&mut self, gen: u64, next: &DatabaseSchema) {
        let mut old: Vec<Option<RelationTailer>> = self.tailers.drain(..).map(Some).collect();
        for (j, from) in (0..).zip(next.remap_from(&self.era)) {
            self.tailers
                .push(match from.and_then(|i| old[i.index()].take()) {
                    Some(mut tailer) => {
                        tailer.retarget(gen, j);
                        tailer
                    }
                    None => RelationTailer {
                        payloads: self.names.is_some(),
                        ..RelationTailer::new(
                            self.dir.root(),
                            self.dir.fingerprint(),
                            j,
                            Cursor { gen, seq: 0 },
                        )
                    },
                });
        }
        self.era = next.clone();
        self.manifest_gen = gen;
    }
}

/// What one [`RelationTailer::poll_in`] found.
#[derive(Debug)]
pub(crate) enum RelationPoll {
    /// Records appended since the previous poll (possibly none).
    Records(Vec<TailedRecord>),
    /// The primary pruned segments the tailer had not consumed: the
    /// follower must re-bootstrap from the snapshot.  The tailer is
    /// spent after reporting this; discard it.
    Behind,
}

/// Follows one relation's segment chain in a live durable directory.
///
/// A tailer follows a *relation*, not a scheme index: a schema
/// transition ([`crate::WalDir::append_generation_manifest`]) can
/// renumber surviving relations, after which the same relation's log
/// continues under a different index.  [`Follower`] announces each
/// transition with [`RelationTailer::retarget`]; until a generation
/// boundary introduced by a manifest has been explained that way, the
/// tailer **refuses to advance past it** — otherwise it could silently
/// start consuming a *different* relation's segments that inherited its
/// old index.
#[derive(Debug)]
pub(crate) struct RelationTailer {
    wal_dir: PathBuf,
    fingerprint: u32,
    /// Scheme index of the relation in the generation currently read.
    scheme: u16,
    /// Pending scheme-index changes, sorted by generation: from
    /// generation `.0` on, this relation's segments carry index `.1`.
    /// Entries at or below the current generation are folded into
    /// `scheme` and dropped as the tailer advances.
    retargets: Vec<(u64, u16)>,
    /// Generation currently being read.
    gen: u64,
    /// Last consumed sequence number.
    last_seq: u64,
    /// Byte offset of the first unconsumed byte in the current segment
    /// (always a frame boundary of the consumed prefix).
    offset: usize,
    /// Whether the current segment's header frame has been validated.
    header_done: bool,
    /// Whether each record keeps its frame payload.
    payloads: bool,
}

impl RelationTailer {
    /// A tailer for relation `scheme` of the durable directory at
    /// `root`, resuming from `cursor` (see [`Cursor`]).  Records with
    /// sequence numbers at or below `cursor.seq` found in the cursor's
    /// segment are silently skipped, so a cursor taken from a recovery
    /// pass ([`crate::Recovered::last_seqs`] and `next_gen - 1`) resumes
    /// exactly after the recovered prefix.  `scheme` is the relation's
    /// index under the manifest governing `cursor.gen`.
    pub(crate) fn new(root: &Path, fingerprint: u32, scheme: u16, cursor: Cursor) -> Self {
        RelationTailer {
            wal_dir: root.join(WAL_SUBDIR),
            fingerprint,
            scheme,
            retargets: Vec::new(),
            gen: cursor.gen,
            last_seq: cursor.seq,
            offset: 0,
            header_done: false,
            payloads: true,
        }
    }

    /// The tailer's current position.
    pub(crate) fn cursor(&self) -> Cursor {
        Cursor {
            gen: self.gen,
            seq: self.last_seq,
        }
    }

    /// Announces a schema transition: from generation `gen` on, this
    /// relation's segments are written under scheme index `scheme`.
    ///
    /// [`Follower`] calls this for **every** generation manifest it
    /// observes — even when the index is unchanged — because an
    /// unexplained manifest boundary is exactly what makes the tailer
    /// hold position (see the type-level docs).  Calls are idempotent
    /// and may arrive out of order; a retarget at or before the current
    /// generation takes effect immediately.
    pub(crate) fn retarget(&mut self, gen: u64, scheme: u16) {
        if gen <= self.gen {
            self.scheme = scheme;
            return;
        }
        match self.retargets.binary_search_by_key(&gen, |(g, _)| *g) {
            Ok(i) => self.retargets[i].1 = scheme,
            Err(i) => self.retargets.insert(i, (gen, scheme)),
        }
    }

    /// The scheme index this relation's segments carry at `gen`
    /// (`>= self.gen`), per the announced retargets.
    fn scheme_at(&self, gen: u64) -> u16 {
        self.retargets
            .iter()
            .rev()
            .find(|(g, _)| *g <= gen)
            .map_or(self.scheme, |(_, s)| *s)
    }

    /// Reads everything appended since the previous poll, against
    /// `view`, the directory as this poll of the [`Follower`] lists it.
    ///
    /// Returns [`RelationPoll::Records`] (possibly empty — nothing new
    /// is not an error), [`RelationPoll::Behind`] when the cursor's
    /// segments were pruned before they were consumed, or a typed
    /// [`WalError`] on corruption.
    fn poll_in(&mut self, view: &DirView) -> Result<RelationPoll, WalError> {
        let mut out = Vec::new();
        // Set once the next segment's header started past the cursor:
        // the current segment gets one more read before that is a gap.
        let mut gap = false;
        // The segment just advanced to, as read to check its header.
        let mut next_bytes = None;
        loop {
            let path = self.wal_dir.join(segment_file_name(self.scheme, self.gen));
            let found = match next_bytes.take().map_or_else(|| std::fs::read(&path), Ok) {
                Ok(bytes) => {
                    if !self.read_segment(&path, &bytes, &mut out)? {
                        return Ok(RelationPoll::Behind);
                    }
                    true
                }
                // Pruned, or not created yet: the next segment decides.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
                Err(e) => return Err(io_err(&path, e)),
            };
            // End of what is on disk for this segment.  Advance only when
            // the next segment's header *proves* this one fully consumed
            // (its start_seq continues our sequence); otherwise the torn
            // tail here may still be completed by the primary.
            let Some((gen, start_seq, bytes)) = self.next_segment(view)? else {
                return Ok(RelationPoll::Records(out));
            };
            if start_seq <= self.last_seq + 1 {
                self.advance_to(gen);
                next_bytes = Some(bytes);
                gap = false;
            } else if !found {
                // Records between our cursor and the next segment lived
                // in pruned generations.
                return Ok(RelationPoll::Behind);
            } else if gap {
                return Err(corrupt(
                    &path,
                    format!(
                        "sequence gap: the next segment starts at {start_seq} after {}",
                        self.last_seq
                    ),
                ));
            } else {
                // Rotation seals a segment before its successor exists,
                // so one more read of this one sees everything it holds.
                gap = true;
            }
        }
    }

    /// Consumes the current segment's `bytes` past the tailer's offset:
    /// the header once, then every complete record (a torn header reads
    /// as nothing yet).  Returns false when the header starts past the
    /// cursor — the records between were checkpointed away.
    fn read_segment(
        &mut self,
        path: &Path,
        bytes: &[u8],
        out: &mut Vec<TailedRecord>,
    ) -> Result<bool, WalError> {
        let Some(mut rest) = bytes.get(self.offset..) else {
            // Segments are append-only; a shrinking one is not a crash
            // artifact we know how to resume from.
            return Err(corrupt(path, "segment shrank under the tailer"));
        };
        if !self.header_done {
            let Some((header, r)) = self.read_header(path, rest)? else {
                return Ok(true);
            };
            if header.start_seq > self.last_seq + 1 {
                return Ok(false);
            }
            self.offset += rest.len() - r.len();
            self.header_done = true;
            rest = r;
        }
        while let Some((payload, r)) = next_frame(path, rest, "record")? {
            let record = WalRecord::decode(path, payload)?;
            // At or below the cursor: catch-up within the cursor's
            // segment, already applied.
            if record.seq > self.last_seq {
                if record.seq != self.last_seq + 1 {
                    return Err(corrupt(
                        path,
                        format!(
                            "sequence gap: record {} after {}",
                            record.seq, self.last_seq
                        ),
                    ));
                }
                self.last_seq = record.seq;
                out.push(TailedRecord {
                    gen: self.gen,
                    scheme: self.scheme,
                    record,
                    payload: if self.payloads {
                        payload.to_vec()
                    } else {
                        Vec::new()
                    },
                });
            }
            self.offset += FRAME_HEADER_LEN + payload.len();
            rest = r;
        }
        Ok(true)
    }

    /// The header frame at the head of a segment's `bytes`, checked
    /// against the directory's fingerprint and the file's name, with the
    /// bytes after it; `None` while it is torn.
    fn read_header<'a>(
        &self,
        path: &Path,
        bytes: &'a [u8],
    ) -> Result<Option<(SegmentHeader, &'a [u8])>, WalError> {
        let Some((payload, rest)) = next_frame(path, bytes, "segment header")? else {
            return Ok(None);
        };
        let header = SegmentHeader::decode(path, payload)?;
        if header.fingerprint != self.fingerprint {
            return Err(WalError::SchemaMismatch {
                detail: "schema/FD set (segment fingerprint)",
            });
        }
        let named = (path.file_name())
            .and_then(|n| n.to_str())
            .and_then(parse_segment_file_name);
        if named != Some((header.scheme, header.gen)) {
            return Err(corrupt(path, "segment header disagrees with file name"));
        }
        Ok(Some((header, rest)))
    }

    fn advance_to(&mut self, gen: u64) {
        self.scheme = self.scheme_at(gen);
        self.retargets.retain(|&(g, _)| g > gen);
        self.gen = gen;
        self.offset = 0;
        self.header_done = false;
    }

    /// The next segment of this relation in `view` — the smallest
    /// generation above the current one carrying *this relation's* index
    /// for it — whose header is readable, as `(gen, start_seq, the
    /// segment's bytes)`.  A segment whose header is torn is passed over
    /// when a later one has a header: a crash right after creating it
    /// left it empty (it is only ever the newest file of a relation
    /// while being written).  Stops at an unexplained manifest boundary:
    /// the rename that commits a generation manifest happens-before any
    /// segment of that generation exists, so a segment past one is never
    /// mistakenly consumed — the managing loop retargets first, the next
    /// poll advances.
    fn next_segment(&self, view: &DirView) -> Result<Option<(u64, u64, Vec<u8>)>, WalError> {
        let boundary = (view.manifests.iter().copied())
            .filter(|&g| g > self.gen && !self.retargets.iter().any(|&(rg, _)| rg == g))
            .min();
        let later = &view.segments[view.segments.partition_point(|&(g, _)| g <= self.gen)..];
        for &(gen, scheme) in later {
            if boundary.is_some_and(|b| b <= gen) {
                break;
            }
            if scheme != self.scheme_at(gen) {
                continue;
            }
            let path = self.wal_dir.join(segment_file_name(scheme, gen));
            let bytes = match std::fs::read(&path) {
                Ok(bytes) => bytes,
                // Pruned since the listing; the next poll sees what is left.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => break,
                Err(e) => return Err(io_err(&path, e)),
            };
            if let Some((header, _)) = self.read_header(&path, &bytes)? {
                return Ok(Some((gen, header.start_seq, bytes)));
            }
        }
        Ok(None)
    }
}

/// A durable directory as one poll lists it: what appears later is the
/// next poll's.
struct DirView {
    /// Every segment as `(gen, scheme)`, sorted.
    segments: Vec<(u64, u16)>,
    /// The effective generation of every generation manifest.
    manifests: Vec<u64>,
}

impl DirView {
    fn read(root: &Path) -> Result<Self, WalError> {
        let segments = list(&root.join(WAL_SUBDIR), parse_segment_file_name)?;
        let mut segments: Vec<(u64, u16)> = segments.into_iter().map(|(s, g)| (g, s)).collect();
        segments.sort_unstable();
        let manifests = list(root, parse_generation_manifest_name)?;
        Ok(DirView {
            segments,
            manifests,
        })
    }
}

/// One name a [`NameTailer`] produced: the decoded string and the exact
/// frame payload bytes (for verbatim shipping).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TailedName {
    /// The interned name, in pool order.
    pub name: String,
    /// The raw frame payload, exactly as stored on disk.
    pub payload: Vec<u8>,
}

impl TailedName {
    /// Decodes one name-log frame payload read from `path` (a file, or
    /// a stream that shipped it verbatim).
    pub fn decode(path: &Path, payload: Vec<u8>) -> Result<Self, WalError> {
        let name = decode_name(path, &payload)?;
        Ok(TailedName { name, payload })
    }
}

/// The string a name-log frame payload holds.
pub(crate) fn decode_name(path: &Path, payload: &[u8]) -> Result<String, WalError> {
    (Decoder::new(payload).get_str()).map_err(|e| corrupt(path, format!("bad pool record: {e}")))
}

/// Follows the value-pool name log read-only.
///
/// A `NameTailer` never truncates the file — it belongs to the primary.
/// A torn tail is "nothing new yet"; it is retried on the next poll.
/// [`crate::NameLog::open`] replays through one and truncates the
/// torn tail itself.
#[derive(Debug)]
pub struct NameTailer {
    path: PathBuf,
    fingerprint: u32,
    offset: usize,
    header_done: bool,
    /// Names still to suppress because the follower already has them.
    skip: u64,
    /// Names emitted so far (after skipping).
    emitted: u64,
}

impl NameTailer {
    /// A tailer for the name log at `path` (see
    /// [`crate::WalDir::pool_log_path`]), suppressing the first
    /// `already_applied` names (the follower got those from its own
    /// pool-log replay at bootstrap).
    pub fn new(path: &Path, fingerprint: u32, already_applied: u64) -> Self {
        NameTailer {
            path: path.to_path_buf(),
            fingerprint,
            offset: 0,
            header_done: false,
            skip: already_applied,
            emitted: 0,
        }
    }

    /// Names delivered so far, counted from the follower's starting
    /// point (the skipped `already_applied` prefix is not included).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// The end of the last complete frame read — 0 while the header has
    /// not been read whole.
    pub(crate) fn offset(&self) -> usize {
        self.offset
    }

    /// Reads the names appended since the previous poll, in pool order.
    /// An absent file means the primary has not attached a pool log
    /// yet — that is "nothing new", not an error.
    pub fn poll(&mut self) -> Result<Vec<TailedName>, WalError> {
        let mut out = Vec::new();
        self.each_name(|path, payload| {
            out.push(TailedName::decode(path, payload.to_vec())?);
            Ok(())
        })?;
        Ok(out)
    }

    /// [`NameTailer::poll`], handing each new name's frame payload to `f`
    /// instead of collecting copies.
    pub(crate) fn each_name(
        &mut self,
        mut f: impl FnMut(&Path, &[u8]) -> Result<(), WalError>,
    ) -> Result<(), WalError> {
        let bytes = match std::fs::read(&self.path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(io_err(&self.path, e)),
        };
        let Some(mut rest) = bytes.get(self.offset..) else {
            return Err(corrupt(&self.path, "pool log shrank under the tailer"));
        };
        if !self.header_done {
            let Some((payload, r)) = next_frame(&self.path, rest, "pool header")? else {
                return Ok(());
            };
            self.check_header(payload)?;
            self.offset += FRAME_HEADER_LEN + payload.len();
            self.header_done = true;
            rest = r;
        }
        while let Some((payload, r)) = next_frame(&self.path, rest, "pool record")? {
            if self.skip > 0 {
                self.skip -= 1;
            } else {
                f(&self.path, payload)?;
                self.emitted += 1;
            }
            self.offset += FRAME_HEADER_LEN + payload.len();
            rest = r;
        }
        Ok(())
    }

    fn check_header(&self, payload: &[u8]) -> Result<(), WalError> {
        let mut d = Decoder::new(payload);
        let mut magic = [0u8; 4];
        for b in &mut magic {
            *b = d
                .get_u8()
                .map_err(|_| corrupt(&self.path, "truncated pool header"))?;
        }
        if magic != POOL_MAGIC {
            return Err(corrupt(&self.path, format!("bad pool magic {magic:?}")));
        }
        let version = d
            .get_u16()
            .map_err(|_| corrupt(&self.path, "truncated pool version"))?;
        if version != FORMAT_VERSION {
            return Err(WalError::UnsupportedVersion {
                path: self.path.clone(),
                found: version,
            });
        }
        let found = d
            .get_u32()
            .map_err(|_| corrupt(&self.path, "truncated pool fingerprint"))?;
        if found != self.fingerprint {
            return Err(WalError::SchemaMismatch {
                detail: "schema/FD set (pool log fingerprint)",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::frame;
    use crate::records::WalOp;
    use crate::{NameLog, WalDir};
    use ids_deps::FdSet;
    use ids_relational::{DatabaseSchema, Universe, Value};

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("ids-wal-tail-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn setup() -> (DatabaseSchema, FdSet) {
        let u = Universe::from_names(["C", "T", "S"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("CT", "CT"), ("CS", "CS")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["C -> T"]).unwrap();
        (schema, fds)
    }

    impl RelationTailer {
        /// One poll against the directory as it is now.
        fn poll(&mut self) -> Result<RelationPoll, WalError> {
            let root = self.wal_dir.parent().expect("the wal directory has a root");
            self.poll_in(&DirView::read(root)?)
        }
    }

    fn seqs(poll: &RelationPoll) -> Vec<u64> {
        match poll {
            RelationPoll::Records(rs) => rs.iter().map(|r| r.record.seq).collect(),
            RelationPoll::Behind => panic!("unexpectedly behind"),
        }
    }

    #[test]
    fn follows_appends_and_rotation() {
        let root = tmp("follow");
        let (schema, fds) = setup();
        let dir = WalDir::create(&root, &schema, &fds, Vec::new()).unwrap();
        let mut w = dir.segment_writer(0, 1, 0).unwrap();
        w.append(WalOp::Insert(vec![Value(1), Value(10)])).unwrap();
        w.append(WalOp::Insert(vec![Value(2), Value(20)])).unwrap();
        w.sync().unwrap();

        let mut t = RelationTailer::new(&root, dir.fingerprint(), 0, Cursor { gen: 1, seq: 0 });
        assert_eq!(seqs(&t.poll().unwrap()), vec![1, 2]);
        // Nothing new: an empty poll, not an error.
        assert_eq!(seqs(&t.poll().unwrap()), Vec::<u64>::new());

        // New appends show up incrementally, with verbatim payloads.
        w.append(WalOp::Remove(vec![Value(1), Value(10)])).unwrap();
        w.sync().unwrap();
        let poll = t.poll().unwrap();
        let RelationPoll::Records(rs) = &poll else {
            panic!("behind");
        };
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].gen, 1);
        assert_eq!(rs[0].payload, rs[0].record.encode());

        // Rotation: the tailer follows into the new generation.
        w.rotate(2).unwrap();
        w.append(WalOp::Insert(vec![Value(3), Value(30)])).unwrap();
        w.sync().unwrap();
        assert_eq!(seqs(&t.poll().unwrap()), vec![4]);
        assert_eq!(t.cursor(), Cursor { gen: 2, seq: 4 });
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn skips_already_applied_records() {
        let root = tmp("skip");
        let (schema, fds) = setup();
        let dir = WalDir::create(&root, &schema, &fds, Vec::new()).unwrap();
        let mut w = dir.segment_writer(0, 1, 0).unwrap();
        for i in 0..3 {
            w.append(WalOp::Insert(vec![Value(i), Value(i + 10)]))
                .unwrap();
        }
        w.sync().unwrap();
        let mut t = RelationTailer::new(&root, dir.fingerprint(), 0, Cursor { gen: 1, seq: 2 });
        assert_eq!(seqs(&t.poll().unwrap()), vec![3]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_tail_waits_then_completes() {
        let root = tmp("torn");
        let (schema, fds) = setup();
        let dir = WalDir::create(&root, &schema, &fds, Vec::new()).unwrap();
        let mut w = dir.segment_writer(0, 1, 0).unwrap();
        w.append(WalOp::Insert(vec![Value(1), Value(10)])).unwrap();
        w.append(WalOp::Insert(vec![Value(2), Value(20)])).unwrap();
        w.sync().unwrap();
        let seg = root.join("wal").join(segment_file_name(0, 1));
        let full = std::fs::read(&seg).unwrap();

        // Mid-append: the second record's frame is cut short.
        std::fs::write(&seg, &full[..full.len() - 5]).unwrap();
        let mut t = RelationTailer::new(&root, dir.fingerprint(), 0, Cursor { gen: 1, seq: 0 });
        assert_eq!(seqs(&t.poll().unwrap()), vec![1]);

        // The append completes; the next poll picks up from the offset.
        std::fs::write(&seg, &full).unwrap();
        assert_eq!(seqs(&t.poll().unwrap()), vec![2]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn pruned_past_cursor_reports_behind() {
        let root = tmp("behind");
        let (schema, fds) = setup();
        let dir = WalDir::create(&root, &schema, &fds, Vec::new()).unwrap();
        let mut w = dir.segment_writer(0, 1, 0).unwrap();
        w.append(WalOp::Insert(vec![Value(1), Value(10)])).unwrap();
        w.append(WalOp::Insert(vec![Value(2), Value(20)])).unwrap();
        w.rotate(2).unwrap();
        let mut state = ids_relational::DatabaseState::empty(&schema);
        state
            .insert(ids_relational::SchemeId(0), vec![Value(1), Value(10)])
            .unwrap();
        dir.write_snapshot(&state, &[2, 0], 1).unwrap();
        dir.prune_segments(1).unwrap();

        // A follower still at gen 1, seq 0 lost records 1..=2 to the
        // prune: re-bootstrap, not corruption.
        let mut t = RelationTailer::new(&root, dir.fingerprint(), 0, Cursor { gen: 1, seq: 0 });
        assert!(matches!(t.poll().unwrap(), RelationPoll::Behind));

        // A follower that had consumed everything advances cleanly.
        let mut t = RelationTailer::new(&root, dir.fingerprint(), 0, Cursor { gen: 1, seq: 2 });
        assert_eq!(seqs(&t.poll().unwrap()), Vec::<u64>::new());
        w.append(WalOp::Insert(vec![Value(3), Value(30)])).unwrap();
        w.sync().unwrap();
        assert_eq!(seqs(&t.poll().unwrap()), vec![3]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn bit_flip_is_typed_corruption() {
        let root = tmp("flip");
        let (schema, fds) = setup();
        let dir = WalDir::create(&root, &schema, &fds, Vec::new()).unwrap();
        let mut w = dir.segment_writer(0, 1, 0).unwrap();
        w.append(WalOp::Insert(vec![Value(1), Value(10)])).unwrap();
        w.sync().unwrap();
        let seg = root.join("wal").join(segment_file_name(0, 1));
        let mut bytes = std::fs::read(&seg).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0x80;
        std::fs::write(&seg, &bytes).unwrap();
        let mut t = RelationTailer::new(&root, dir.fingerprint(), 0, Cursor { gen: 1, seq: 0 });
        assert!(matches!(t.poll(), Err(WalError::Corrupt { .. })));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn mid_segment_sequence_gap_is_corrupt() {
        let root = tmp("gap");
        let (schema, fds) = setup();
        let dir = WalDir::create(&root, &schema, &fds, Vec::new()).unwrap();
        // Hand-write a segment whose records jump 1 -> 3.
        let header = SegmentHeader {
            fingerprint: dir.fingerprint(),
            scheme: 0,
            gen: 1,
            start_seq: 1,
        };
        let mut bytes = frame(&header.encode());
        for seq in [1, 3] {
            let r = WalRecord {
                seq,
                op: WalOp::Insert(vec![Value(seq), Value(seq)]),
            };
            bytes.extend_from_slice(&frame(&r.encode()));
        }
        std::fs::write(root.join("wal").join(segment_file_name(0, 1)), bytes).unwrap();
        let mut t = RelationTailer::new(&root, dir.fingerprint(), 0, Cursor { gen: 1, seq: 0 });
        match t.poll() {
            Err(WalError::Corrupt { detail, .. }) => assert!(detail.contains("sequence gap")),
            other => panic!("expected corruption, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn name_tailer_follows_without_truncating() {
        let root = tmp("names");
        std::fs::create_dir_all(&root).unwrap();
        let pool = root.join("pool.log");
        let (mut log, _) = NameLog::open(&pool, 7).unwrap();
        log.append("alpha").unwrap();
        log.append("beta").unwrap();

        let mut t = NameTailer::new(&pool, 7, 0);
        let names: Vec<_> = t.poll().unwrap().into_iter().map(|n| n.name).collect();
        assert_eq!(names, vec!["alpha", "beta"]);
        assert!(t.poll().unwrap().is_empty());

        log.append("gamma").unwrap();
        let batch = t.poll().unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].name, "gamma");
        assert_eq!(t.emitted(), 3);

        // A torn tail is "nothing yet" and must NOT be truncated.
        let full = std::fs::read(&pool).unwrap();
        let mut torn = full.clone();
        torn.extend_from_slice(&frame(b"\x05\x00\x00\x00delta")[..6]);
        std::fs::write(&pool, &torn).unwrap();
        assert!(t.poll().unwrap().is_empty());
        assert_eq!(std::fs::read(&pool).unwrap(), torn);

        // A skip-ahead tailer suppresses the already-applied prefix.
        std::fs::write(&pool, &full).unwrap();
        let mut t2 = NameTailer::new(&pool, 7, 2);
        let names: Vec<_> = t2.poll().unwrap().into_iter().map(|n| n.name).collect();
        assert_eq!(names, vec!["gamma"]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn name_tailer_fingerprint_and_corruption_are_typed() {
        let root = tmp("namefp");
        std::fs::create_dir_all(&root).unwrap();
        let pool = root.join("pool.log");
        let (mut log, _) = NameLog::open(&pool, 7).unwrap();
        log.append("x").unwrap();
        assert!(matches!(
            NameTailer::new(&pool, 8, 0).poll(),
            Err(WalError::SchemaMismatch { .. })
        ));
        let mut bytes = std::fs::read(&pool).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0x01;
        std::fs::write(&pool, &bytes).unwrap();
        assert!(matches!(
            NameTailer::new(&pool, 7, 0).poll(),
            Err(WalError::Corrupt { .. })
        ));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn retarget_follows_renumbering_and_guard_blocks_unexplained() {
        use crate::Manifest;
        let root = tmp("retarget");
        let (schema, fds) = setup();
        let dir = WalDir::create(&root, &schema, &fds, Vec::new()).unwrap();
        let mut w_ct = dir.segment_writer(0, 1, 0).unwrap();
        let mut w_cs = dir.segment_writer(1, 1, 0).unwrap();
        w_ct.append(WalOp::Insert(vec![Value(1), Value(10)]))
            .unwrap();
        w_ct.append(WalOp::Insert(vec![Value(2), Value(11)]))
            .unwrap();
        w_cs.append(WalOp::Insert(vec![Value(1), Value(50)]))
            .unwrap();
        w_cs.append(WalOp::Insert(vec![Value(2), Value(51)]))
            .unwrap();
        w_ct.sync().unwrap();
        w_cs.sync().unwrap();

        let mut t_ct = RelationTailer::new(&root, dir.fingerprint(), 0, Cursor { gen: 1, seq: 0 });
        let mut t_cs = RelationTailer::new(&root, dir.fingerprint(), 1, Cursor { gen: 1, seq: 0 });
        assert_eq!(seqs(&t_ct.poll().unwrap()), vec![1, 2]);
        assert_eq!(seqs(&t_cs.poll().unwrap()), vec![1, 2]);

        // Transition to gen 2: drop CT; CS is renumbered 1 -> 0,
        // carrying its sequence counter.  Its new segment starts at
        // seq 3 — exactly where a naive index-0 (CT) tailer would
        // expect its own next record.
        let u = Universe::from_names(["C", "T", "S"]).unwrap();
        let schema2 = DatabaseSchema::parse(u, &[("CS", "CS"), ("TS", "TS")]).unwrap();
        let fds2 = FdSet::parse(schema2.universe(), &["C -> T"]).unwrap();
        dir.append_generation_manifest(
            2,
            &Manifest {
                schema: schema2,
                fds: fds2,
                app: Vec::new(),
            },
        )
        .unwrap();
        drop(w_ct);
        w_cs.rotate_as(0, 2).unwrap();
        w_cs.append(WalOp::Insert(vec![Value(3), Value(52)]))
            .unwrap();
        w_cs.sync().unwrap();

        // Unexplained boundary: neither tailer advances — above all, the
        // dropped CT's tailer must NOT mistake CS's renumbered segment
        // (whose start_seq happens to continue CT's numbering) for its
        // own log.
        assert_eq!(seqs(&t_ct.poll().unwrap()), Vec::<u64>::new());
        assert_eq!(t_ct.cursor(), Cursor { gen: 1, seq: 2 });
        assert_eq!(seqs(&t_cs.poll().unwrap()), Vec::<u64>::new());
        assert_eq!(t_cs.cursor(), Cursor { gen: 1, seq: 2 });

        // Retargeted, the survivor follows its log across the rename,
        // and each record reports the scheme index of its segment.
        t_cs.retarget(2, 0);
        let poll = t_cs.poll().unwrap();
        let RelationPoll::Records(rs) = &poll else {
            panic!("behind");
        };
        assert_eq!(
            rs.iter()
                .map(|r| (r.gen, r.scheme, r.record.seq))
                .collect::<Vec<_>>(),
            vec![(2, 0, 3)]
        );
        assert_eq!(t_cs.scheme, 0);
        assert_eq!(t_cs.cursor(), Cursor { gen: 2, seq: 3 });
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn generation_manifests_after_scans_disk() {
        use crate::Manifest;
        let root = tmp("manifests-after");
        let (schema, fds) = setup();
        let dir = WalDir::create(&root, &schema, &fds, Vec::new()).unwrap();
        assert!(dir.generation_manifests_after(0).unwrap().is_empty());
        let m = Manifest {
            schema: schema.clone(),
            fds: fds.clone(),
            app: vec![7],
        };
        dir.append_generation_manifest(3, &m).unwrap();
        dir.append_generation_manifest(5, &m).unwrap();
        // The open-time chain is immutable, but the scan sees both.
        let found = dir.generation_manifests_after(0).unwrap();
        assert_eq!(
            found.iter().map(|(g, _, _)| *g).collect::<Vec<_>>(),
            vec![3, 5]
        );
        assert_eq!(found[0].1.app, vec![7]);
        // Payload bytes are the committed frame payload, verbatim.
        assert_eq!(found[0].2, found[0].1.encode());
        let found = dir.generation_manifests_after(3).unwrap();
        assert_eq!(
            found.iter().map(|(g, _, _)| *g).collect::<Vec<_>>(),
            vec![5]
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_files_are_nothing_new() {
        let root = tmp("missing");
        let (schema, fds) = setup();
        let dir = WalDir::create(&root, &schema, &fds, Vec::new()).unwrap();
        let mut t = RelationTailer::new(&root, dir.fingerprint(), 0, Cursor { gen: 1, seq: 0 });
        assert_eq!(seqs(&t.poll().unwrap()), Vec::<u64>::new());
        let mut n = NameTailer::new(&dir.pool_log_path(), dir.fingerprint(), 0);
        assert!(n.poll().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }

    /// One poll, rendered compactly: `M{gen}` for a manifest,
    /// `N[names]^{tip}` for names, `R{relation}@{gen}[seqs]^{tip}` for a
    /// record batch — so one `assert_eq!` pins the order, the batch
    /// splits and every label.
    fn follow(f: &mut Follower) -> Vec<String> {
        let mut shipments = Vec::new();
        let polled = f.poll(|s| {
            shipments.push(s);
            Ok::<_, WalError>(())
        });
        assert_eq!(polled.unwrap(), FollowPoll::Shipped(shipments.len()));
        (shipments.iter())
            .map(|s| match s {
                Shipment::Manifest {
                    gen,
                    manifest,
                    payload,
                } => {
                    assert_eq!(*payload, manifest.encode(), "manifest payload is verbatim");
                    format!("M{gen}")
                }
                Shipment::Names { names, tip } => {
                    let names: Vec<&str> = names.iter().map(|n| n.name.as_str()).collect();
                    format!("N[{}]^{tip}", names.join(","))
                }
                Shipment::Records {
                    relation,
                    gen,
                    tip,
                    records,
                } => {
                    for r in records {
                        assert_eq!(
                            (r.gen, r.scheme),
                            (*gen, *relation),
                            "one segment per batch"
                        );
                        assert_eq!(r.payload, r.record.encode(), "record payload is verbatim");
                    }
                    let seqs: Vec<String> =
                        records.iter().map(|r| r.record.seq.to_string()).collect();
                    format!("R{relation}@{gen}[{}]^{tip}", seqs.join(","))
                }
            })
            .collect()
    }

    fn cursors(f: &Follower) -> Vec<(u64, u64)> {
        f.tailers.iter().map(|t| (t.gen, t.last_seq)).collect()
    }

    fn insert(w: &mut crate::WalWriter, a: u64, b: u64) {
        w.append(WalOp::Insert(vec![Value(a), Value(b)])).unwrap();
    }

    /// The follow loop alone, through writes, a checkpoint, an added
    /// relation, a drop that renumbers a survivor and a torn name-log
    /// tail: manifests ship before every record of their generation,
    /// names before the records that use them, batches split on
    /// `(gen, scheme)`, and cursors land exactly on what was shipped.
    #[test]
    fn follower_ships_in_protocol_order_through_every_transition() {
        use crate::Manifest;
        let root = tmp("follow-loop");
        let (schema, fds) = setup();
        let dir = WalDir::create(&root, &schema, &fds, Vec::new()).unwrap();
        let pool = dir.pool_log_path();
        let (mut names, _) = NameLog::open(&pool, dir.fingerprint()).unwrap();
        let mut w_ct = dir.segment_writer(0, 1, 0).unwrap();
        let mut w_cs = dir.segment_writer(1, 1, 0).unwrap();
        let mut f = Follower::new(&dir, &[Cursor::default(); 2], 0).unwrap();
        assert!(follow(&mut f).is_empty());

        // 1. Writes: the names first, then each relation's records.
        names.append("alpha").unwrap();
        names.append("beta").unwrap();
        insert(&mut w_ct, 0, 1);
        insert(&mut w_cs, 0, 1);
        insert(&mut w_ct, 1, 1);
        assert_eq!(
            follow(&mut f),
            ["N[alpha,beta]^2", "R0@1[1,2]^2", "R1@1[1]^1"]
        );
        assert_eq!(cursors(&f), [(1, 2), (1, 1)]);

        // 2. A checkpoint rotation inside one poll: CT's records split at
        // the generation, both batches carrying the relation's tip; then
        // the covered generation is pruned and nothing is lost.
        insert(&mut w_ct, 2, 1);
        w_ct.rotate(2).unwrap();
        w_cs.rotate(2).unwrap();
        insert(&mut w_ct, 3, 1);
        assert_eq!(follow(&mut f), ["R0@1[3]^4", "R0@2[4]^4"]);
        dir.write_snapshot(&ids_relational::DatabaseState::empty(&schema), &[4, 1], 1)
            .unwrap();
        dir.prune_segments(1).unwrap();
        assert!(follow(&mut f).is_empty());
        assert_eq!(cursors(&f), [(2, 4), (2, 1)]);

        // 3. add_relation SR at generation 3: the manifest first, then the
        // name SR's record uses, then records of the new era — SR tailed
        // from (3, 0).
        let u = Universe::from_names(["C", "T", "S", "R"]).unwrap();
        let s3 =
            DatabaseSchema::parse(u.clone(), &[("CT", "CT"), ("CS", "CS"), ("SR", "SR")]).unwrap();
        let fds3 = FdSet::parse(s3.universe(), &["C -> T"]).unwrap();
        let m3 = Manifest {
            schema: s3,
            fds: fds3,
            app: Vec::new(),
        };
        dir.append_generation_manifest(3, &m3).unwrap();
        w_ct.rotate_as(0, 3).unwrap();
        w_cs.rotate_as(1, 3).unwrap();
        let mut w_sr = dir.segment_writer(2, 3, 0).unwrap();
        names.append("gamma").unwrap();
        insert(&mut w_cs, 1, 0);
        insert(&mut w_sr, 0, 2);
        assert_eq!(
            follow(&mut f),
            ["M3", "N[gamma]^3", "R1@3[2]^2", "R2@3[1]^1"]
        );
        assert_eq!(cursors(&f), [(3, 4), (3, 2), (3, 1)]);

        // 4. Dropping CT at generation 4 (TR keeps T covered): CS is
        // renumbered 1 -> 0 and SR 2 -> 1.  CS's new segment is r0 — CT's
        // old index — and the follower reads it as CS's, under its new
        // label; TR is tailed from (4, 0).
        let s4 = DatabaseSchema::parse(u, &[("CS", "CS"), ("SR", "SR"), ("TR", "TR")]).unwrap();
        let m4 = Manifest {
            schema: s4,
            fds: FdSet::new(),
            app: Vec::new(),
        };
        dir.append_generation_manifest(4, &m4).unwrap();
        drop(w_ct);
        w_cs.rotate_as(0, 4).unwrap();
        w_sr.rotate_as(1, 4).unwrap();
        insert(&mut w_cs, 2, 0);
        assert_eq!(follow(&mut f), ["M4", "R0@4[3]^3"]);
        assert_eq!(cursors(&f), [(4, 3), (4, 1), (4, 0)]);

        // 5. A torn name-log tail is "nothing yet", even with the
        // writer's tail complete; the completed frame ships before the
        // record that uses it.
        names.append("delta").unwrap();
        let full = std::fs::read(&pool).unwrap();
        std::fs::write(&pool, &full[..full.len() - 2]).unwrap();
        assert!(follow(&mut f).is_empty());
        std::fs::write(&pool, &full).unwrap();
        insert(&mut w_sr, 2, 3);
        assert_eq!(follow(&mut f), ["N[delta]^4", "R1@4[2]^2"]);
        assert_eq!(cursors(&f), [(4, 3), (4, 2), (4, 0)]);
        assert!(follow(&mut f).is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn follower_reports_behind_once_a_prune_passes_its_cursor() {
        let root = tmp("follow-behind");
        let (schema, fds) = setup();
        let dir = WalDir::create(&root, &schema, &fds, Vec::new()).unwrap();
        let mut w = dir.segment_writer(0, 1, 0).unwrap();
        insert(&mut w, 1, 10);
        let mut f = Follower::new(&dir, &[Cursor::default(); 2], 0).unwrap();
        assert_eq!(follow(&mut f), ["R0@1[1]^1"]);

        // Record 2 is checkpointed away before the follower looked.
        insert(&mut w, 2, 20);
        w.rotate(2).unwrap();
        let state = ids_relational::DatabaseState::empty(&schema);
        dir.write_snapshot(&state, &[2, 0], 1).unwrap();
        dir.prune_segments(1).unwrap();
        let mut shipped = 0;
        let polled = f.poll(|_| {
            shipped += 1;
            Ok::<_, WalError>(())
        });
        assert_eq!((polled.unwrap(), shipped), (FollowPoll::Behind, 0));

        // Cursors from another schema are refused up front, with both
        // counts.
        assert!(matches!(
            Follower::new(&dir, &[Cursor::default(); 3], 0),
            Err(WalError::CursorCount {
                cursors: 3,
                relations: 2
            })
        ));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_sink_error_ends_the_poll_at_that_shipment() {
        let root = tmp("follow-sink");
        let (schema, fds) = setup();
        let dir = WalDir::create(&root, &schema, &fds, Vec::new()).unwrap();
        let mut w_ct = dir.segment_writer(0, 1, 0).unwrap();
        let mut w_cs = dir.segment_writer(1, 1, 0).unwrap();
        insert(&mut w_ct, 1, 10);
        insert(&mut w_cs, 1, 10);
        let mut f = Follower::new(&dir, &[Cursor::default(); 2], 0).unwrap();
        let mut seen = 0;
        let polled = f.poll(|_| {
            seen += 1;
            Err(WalError::SchemaMismatch { detail: "sink" })
        });
        assert!(matches!(polled, Err(WalError::SchemaMismatch { .. })));
        assert_eq!(seen, 1, "CS's batch is never read once CT's failed to ship");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A later segment whose header skips records no segment holds is
    /// lost records: the current segment is read once more (a rotation
    /// may have sealed more into it), then the gap is typed corruption —
    /// to recovery and to a follower alike.
    #[test]
    fn a_gap_between_segments_is_corrupt_after_one_more_read() {
        let root = tmp("segment-gap");
        let (schema, fds) = setup();
        let dir = WalDir::create(&root, &schema, &fds, Vec::new()).unwrap();
        let mut w = dir.segment_writer(0, 1, 0).unwrap();
        insert(&mut w, 1, 10);
        insert(&mut w, 2, 20);
        drop(w);
        // Records 3 and 4 never landed anywhere.
        drop(dir.segment_writer(0, 2, 4).unwrap());
        assert!(matches!(dir.recover(), Err(WalError::Corrupt { .. })));
        let mut f = Follower::new(&dir, &[Cursor::default(); 2], 0).unwrap();
        match f.poll(|_| Ok::<_, WalError>(())) {
            Err(WalError::Corrupt { detail, .. }) => assert!(detail.contains("sequence gap")),
            other => panic!("expected corruption, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A crash right after a segment's `create_new` leaves it empty: a
    /// torn header.  Recovery crosses it and the next session opens one
    /// generation later; a follower crosses it too — from a cursor
    /// before it and from one inside it — and ships every record before
    /// it reports nothing new.
    #[test]
    fn follower_crosses_a_segment_a_crash_left_empty() {
        let root = tmp("follow-empty");
        let (schema, fds) = setup();
        let dir = WalDir::create(&root, &schema, &fds, Vec::new()).unwrap();
        let mut w = dir.segment_writer(0, 1, 0).unwrap();
        for i in 1..=3 {
            insert(&mut w, i, 10 * i);
        }
        drop(w);
        std::fs::write(root.join("wal").join(segment_file_name(0, 2)), b"").unwrap();

        let r = WalDir::open(&root).unwrap().recover().unwrap();
        assert_eq!((r.next_gen, r.last_seqs()), (3, vec![3, 0]));
        let mut w = dir.segment_writer(0, r.next_gen, 3).unwrap();
        insert(&mut w, 4, 40);
        insert(&mut w, 5, 50);

        let mut f = Follower::new(&dir, &[Cursor { gen: 1, seq: 0 }; 2], 0).unwrap();
        assert_eq!(follow(&mut f), ["R0@1[1,2,3]^5", "R0@3[4,5]^5"]);
        assert!(follow(&mut f).is_empty());
        let inside = [Cursor { gen: 2, seq: 3 }, Cursor { gen: 2, seq: 0 }];
        let mut f = Follower::new(&dir, &inside, 0).unwrap();
        assert_eq!(follow(&mut f), ["R0@3[4,5]^5"]);
        assert!(follow(&mut f).is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }
}
