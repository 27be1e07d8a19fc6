//! The on-disk directory of a durable database: manifest, snapshot,
//! per-relation log segments, and crash recovery.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use ids_deps::FdSet;
use ids_relational::{DatabaseSchema, DatabaseState, SchemeId};

use crate::format::{frame, read_frame, FrameOutcome};
use crate::records::{Manifest, SegmentHeader, Snapshot, WalRecord};
use crate::writer::{parse_segment_file_name, WalWriter};
use crate::{corrupt, io_err, WalError};

/// Name of the manifest file inside the root.
const MANIFEST_FILE: &str = "MANIFEST";
/// Prefix of generation manifests (`MANIFEST-g{n}`), written by schema
/// transitions: the manifest governing every segment of generation `n`
/// and later, until the next generation manifest.
const MANIFEST_GEN_PREFIX: &str = "MANIFEST-g";

/// Builds the canonical generation-manifest file name.
pub fn generation_manifest_name(gen: u64) -> String {
    format!("{MANIFEST_GEN_PREFIX}{gen:010}")
}

/// Parses a generation-manifest file name back into its effective
/// generation.
pub fn parse_generation_manifest_name(name: &str) -> Option<u64> {
    name.strip_prefix(MANIFEST_GEN_PREFIX)?.parse().ok()
}
/// Name of the snapshot file inside the root.
const SNAPSHOT_FILE: &str = "snapshot.ids";
/// Name the snapshot is staged under before the atomic rename.
const SNAPSHOT_TMP_FILE: &str = "snapshot.tmp";
/// Subdirectory holding the per-relation log segments.
pub(crate) const WAL_SUBDIR: &str = "wal";
/// Name of the optional value-pool log (see [`crate::NameLog`]).
const POOL_FILE: &str = "pool.log";

/// Handle to a durable database directory.
///
/// A `WalDir` owns no file descriptors — it is the *layout*: where the
/// manifest, snapshot and segments live, and how to read them back.
/// Writers ([`WalWriter`]) and the recovery pass are created from it.
#[derive(Clone, Debug)]
pub struct WalDir {
    root: PathBuf,
    /// The manifest chain, sorted by effective generation: entry 0 is
    /// the base `MANIFEST` (effective from generation 0), every later
    /// entry a `MANIFEST-g{n}` written by an accepted schema transition.
    /// A segment of generation `g` was written under the latest chain
    /// entry whose effective generation is `≤ g`.
    chain: Vec<(u64, Manifest)>,
    fingerprint: u32,
}

/// What [`WalDir::recover`] found: the snapshot base plus, per
/// relation, the log tail to replay through the normal probe/commit
/// path.
///
/// Everything is expressed in terms of the **latest** manifest's schema:
/// recovery walks the manifest chain, maps each segment's scheme index
/// through the manifest governing its generation, and stitches every
/// relation's segments back together *by name*.  Relations the latest
/// manifest dropped are skipped; relations it added recover from an
/// empty base.  Each tail record is tagged with the chain index of its
/// governing manifest, so replay can re-run it under the enforcement
/// covers of the schema epoch it was accepted in.
#[derive(Debug)]
pub struct Recovered {
    /// State restored from the snapshot (empty when none was taken),
    /// mapped by name into the latest manifest's schema.
    pub base: DatabaseState,
    /// Per-relation last sequence number folded into `base`.
    pub base_seqs: Vec<u64>,
    /// Per-relation records appended after the snapshot, in order, each
    /// tagged with the chain index ([`WalDir::manifests`]) of the
    /// manifest governing the segment it came from.  Replaying them
    /// through each relation's shard *is* recovery; no cross-relation
    /// ordering exists or is needed.
    pub tail: Vec<Vec<(usize, WalRecord)>>,
    /// Generation the snapshot covers (0 when none was taken).
    pub covered_gen: u64,
    /// Generation fresh segments should be opened at.
    pub next_gen: u64,
    /// Whether a snapshot file existed (distinguishes "no snapshot yet"
    /// from "snapshot of an empty state").
    pub has_snapshot: bool,
}

impl Recovered {
    /// Per-relation last durable sequence number after replaying the
    /// tail.
    pub fn last_seqs(&self) -> Vec<u64> {
        self.base_seqs
            .iter()
            .zip(&self.tail)
            .map(|(base, tail)| tail.last().map_or(*base, |(_, r)| r.seq))
            .collect()
    }
}

impl WalDir {
    /// True when `root` already holds a durable database (its manifest
    /// exists).
    pub fn exists(root: &Path) -> bool {
        root.join(MANIFEST_FILE).exists()
    }

    /// Creates a fresh durable directory: `root/`, `root/wal/`, and the
    /// manifest (staged + renamed, so it is either absent or complete —
    /// a crash mid-creation leaves a directory [`WalDir::exists`] still
    /// reports as fresh).  Fails if a manifest is already present.
    pub fn create(
        root: &Path,
        schema: &DatabaseSchema,
        fds: &FdSet,
        app: Vec<u8>,
    ) -> Result<Self, WalError> {
        if Self::exists(root) {
            return Err(io_err(
                &root.join(MANIFEST_FILE),
                std::io::Error::new(std::io::ErrorKind::AlreadyExists, "manifest exists"),
            ));
        }
        std::fs::create_dir_all(root.join(WAL_SUBDIR))
            .map_err(|e| io_err(&root.join(WAL_SUBDIR), e))?;
        let manifest = Manifest {
            schema: schema.clone(),
            fds: fds.clone(),
            app,
        };
        write_manifest_file(root, MANIFEST_FILE, &manifest)?;
        let fingerprint = manifest.fingerprint();
        Ok(WalDir {
            root: root.to_path_buf(),
            chain: vec![(0, manifest)],
            fingerprint,
        })
    }

    /// Opens an existing durable directory by reading its base manifest
    /// and every generation manifest a schema transition appended.
    pub fn open(root: &Path) -> Result<Self, WalError> {
        let base = read_manifest_file(&root.join(MANIFEST_FILE))?;
        let fingerprint = base.fingerprint();
        let mut chain = vec![(0u64, base)];
        for entry in std::fs::read_dir(root).map_err(|e| io_err(root, e))? {
            let entry = entry.map_err(|e| io_err(root, e))?;
            let name = entry.file_name();
            let Some(gen) = name.to_str().and_then(parse_generation_manifest_name) else {
                continue;
            };
            if gen == 0 {
                return Err(corrupt(
                    &entry.path(),
                    "generation manifest at generation 0",
                ));
            }
            chain.push((gen, read_manifest_file(&entry.path())?));
        }
        chain.sort_by_key(|(gen, _)| *gen);
        if chain.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(corrupt(root, "duplicate generation manifest"));
        }
        Ok(WalDir {
            root: root.to_path_buf(),
            chain,
            fingerprint,
        })
    }

    /// The directory root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The base manifest written at create — the directory's immutable
    /// identity (its fingerprint gates every segment and snapshot).
    pub fn manifest(&self) -> &Manifest {
        &self.chain[0].1
    }

    /// The latest manifest of the chain as read at open — the schema a
    /// recovered database serves.  (A handle held across a later
    /// [`WalDir::append_generation_manifest`] keeps its open-time view;
    /// recovery always re-opens.)
    pub fn latest_manifest(&self) -> &Manifest {
        &self.chain[self.chain.len() - 1].1
    }

    /// The full manifest chain, `(effective generation, manifest)` pairs
    /// sorted by generation; entry 0 is the base manifest.
    pub fn manifests(&self) -> &[(u64, Manifest)] {
        &self.chain
    }

    /// Durably appends a generation manifest (staged + renamed +
    /// directory fsync): from generation `gen` on, segments are governed
    /// by `manifest`.  The commit point of an accepted schema
    /// transition — a crash before the rename leaves the old schema in
    /// force, a crash after it recovers under the new one.  Refuses a
    /// generation at or before the newest manifest known to this handle.
    pub fn append_generation_manifest(
        &self,
        gen: u64,
        manifest: &Manifest,
    ) -> Result<(), WalError> {
        let name = generation_manifest_name(gen);
        // The chain loaded at open is immutable; the durable truth for
        // manifests appended since then is the directory itself.
        if gen <= self.chain[self.chain.len() - 1].0 || self.root.join(&name).exists() {
            return Err(corrupt(
                &self.root.join(&name),
                "generation manifest would not extend the chain",
            ));
        }
        write_manifest_file(&self.root, &name, manifest)
    }

    /// Reads every generation manifest on disk with effective generation
    /// `> after`, sorted by generation — **including** manifests appended
    /// after this handle was opened (the open-time chain is immutable;
    /// this scans the directory).  Each entry carries the raw manifest
    /// frame payload exactly as stored, so a replication shipper can
    /// forward the committed bytes verbatim.
    pub(crate) fn generation_manifests_after(
        &self,
        after: u64,
    ) -> Result<Vec<(u64, Manifest, Vec<u8>)>, WalError> {
        let mut found = Vec::new();
        for entry in std::fs::read_dir(&self.root).map_err(|e| io_err(&self.root, e))? {
            let entry = entry.map_err(|e| io_err(&self.root, e))?;
            let name = entry.file_name();
            let Some(gen) = name.to_str().and_then(parse_generation_manifest_name) else {
                continue;
            };
            if gen <= after {
                continue;
            }
            let path = entry.path();
            let bytes = match std::fs::read(&path) {
                Ok(b) => b,
                // Raced a concurrent rename; the retry is the next poll.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(io_err(&path, e)),
            };
            let payload = match read_frame(&bytes) {
                FrameOutcome::Complete { payload, rest } => {
                    if !rest.is_empty() {
                        return Err(corrupt(&path, "trailing bytes after manifest frame"));
                    }
                    payload
                }
                FrameOutcome::Torn => return Err(corrupt(&path, "manifest frame truncated")),
                FrameOutcome::CrcMismatch => {
                    return Err(corrupt(&path, "manifest checksum mismatch"))
                }
                FrameOutcome::Oversize => return Err(corrupt(&path, "manifest length corrupted")),
            };
            let manifest = Manifest::decode(&path, payload)?;
            found.push((gen, manifest, payload.to_vec()));
        }
        found.sort_by_key(|(gen, _, _)| *gen);
        Ok(found)
    }

    /// The identity fingerprint every segment and snapshot carries.
    pub fn fingerprint(&self) -> u32 {
        self.fingerprint
    }

    /// Where the optional value-pool name log lives.
    pub fn pool_log_path(&self) -> PathBuf {
        self.root.join(POOL_FILE)
    }

    /// Checks that a caller-supplied schema + FD set is the one the
    /// directory currently serves (the *latest* manifest of the chain);
    /// a disagreement is the typed [`WalError::SchemaMismatch`]
    /// (replaying under different dependencies would silently
    /// mis-enforce).
    pub fn check_identity(&self, schema: &DatabaseSchema, fds: &FdSet) -> Result<(), WalError> {
        let latest = self.latest_manifest();
        if latest.schema != *schema {
            return Err(WalError::SchemaMismatch { detail: "schema" });
        }
        if !latest.fds.same_fds(fds) {
            return Err(WalError::SchemaMismatch { detail: "FD set" });
        }
        Ok(())
    }

    /// Chain index of the manifest governing generation `g`: the latest
    /// entry whose effective generation is `≤ g`.  Always defined —
    /// entry 0 is effective from generation 0.
    pub(crate) fn governing(&self, g: u64) -> usize {
        self.chain
            .iter()
            .rposition(|(gen, _)| *gen <= g)
            .unwrap_or(0)
    }

    /// The generation a relation of the latest schema was (re)born at:
    /// the effective generation of the earliest manifest of the final
    /// contiguous chain suffix that contains `name` with its latest
    /// attribute set.  Absence — or presence under *different*
    /// attributes — in an earlier manifest is an incarnation boundary:
    /// segments older than the birth belong to a previous relation that
    /// happened to share the name, and must not replay into this one.
    fn birth_gen(&self, name: &str, attrs: ids_relational::AttrSet) -> u64 {
        let mut birth = self.chain[self.chain.len() - 1].0;
        for (gen, manifest) in self.chain.iter().rev() {
            match manifest.schema.scheme_by_name(name) {
                Some(id) if manifest.schema.attrs(id) == attrs => birth = *gen,
                _ => break,
            }
        }
        birth
    }

    /// Opens a fresh log segment for one relation at `gen`, continuing
    /// its sequence numbering from `last_seq`.
    pub fn segment_writer(
        &self,
        scheme: u16,
        gen: u64,
        last_seq: u64,
    ) -> Result<WalWriter, WalError> {
        WalWriter::create(
            &self.root.join(WAL_SUBDIR),
            self.fingerprint,
            scheme,
            gen,
            last_seq,
        )
    }

    /// Atomically replaces the snapshot: write to a temp file, fsync,
    /// rename over `snapshot.ids`, fsync the directory.  Readers only
    /// ever see the old complete snapshot or the new complete one.
    pub fn write_snapshot(
        &self,
        state: &DatabaseState,
        last_seqs: &[u64],
        covered_gen: u64,
    ) -> Result<(), WalError> {
        let snap = Snapshot {
            fingerprint: self.fingerprint,
            covered_gen,
            last_seqs: last_seqs.to_vec(),
            state: state.clone(),
        };
        let tmp = self.root.join(SNAPSHOT_TMP_FILE);
        let dst = self.root.join(SNAPSHOT_FILE);
        let payload = snap.encode();
        // An unreadable-by-construction snapshot must fail the
        // *checkpoint* (log intact) rather than the next recovery
        // (log already pruned).
        crate::check_frame_size(&dst, payload.len())?;
        let mut f = File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        f.write_all(&frame(&payload)).map_err(|e| io_err(&tmp, e))?;
        f.sync_all().map_err(|e| io_err(&tmp, e))?;
        drop(f);
        std::fs::rename(&tmp, &dst).map_err(|e| io_err(&dst, e))?;
        sync_dir(&self.root);
        Ok(())
    }

    /// Deletes every segment of a covered generation — the log
    /// truncation half of a checkpoint.  Safe to call repeatedly; a
    /// crash between snapshot and pruning only leaves covered segments
    /// behind, which the next recovery skips and the next checkpoint
    /// removes.
    pub fn prune_segments(&self, covered_gen: u64) -> Result<(), WalError> {
        let wal = self.root.join(WAL_SUBDIR);
        for entry in std::fs::read_dir(&wal).map_err(|e| io_err(&wal, e))? {
            let entry = entry.map_err(|e| io_err(&wal, e))?;
            let name = entry.file_name();
            let Some((_, gen)) = name.to_str().and_then(parse_segment_file_name) else {
                continue;
            };
            if gen <= covered_gen {
                std::fs::remove_file(entry.path()).map_err(|e| io_err(&entry.path(), e))?;
            }
        }
        sync_dir(&wal);
        Ok(())
    }

    /// Reads the snapshot and every live segment back into a
    /// [`Recovered`]: the base state plus per-relation tails, expressed
    /// in the **latest** manifest's schema.
    ///
    /// Recovery walks the manifest chain: each segment of generation
    /// `g` is interpreted under the manifest governing `g`, its scheme
    /// index mapped through that manifest *by name* into the latest
    /// schema, and its records tagged with the governing chain index so
    /// replay can re-run them under the enforcement covers of the epoch
    /// they were accepted in.  Segments of relations the latest schema
    /// dropped (or of an earlier incarnation of a re-added name — see
    /// `birth_gen`) are skipped; their files remain until checkpoint
    /// pruning.  The snapshot is decoded under the manifest governing
    /// `covered_gen + 1` (the schema live writers held when it was
    /// taken) and carried forward per relation by name.
    ///
    /// Torn tails (a frame cut short) end a segment cleanly at the
    /// acknowledged-and-synced prefix — including a non-final segment,
    /// whose leftover torn bytes a previous crash-recovery cycle may
    /// have left behind: per-relation sequence numbers are contiguous
    /// across segments (rotation carries the counter even when the
    /// scheme index changes), so a benign torn tail is distinguished
    /// from genuine mid-stream loss by the *next* segment's header (it
    /// continues from the clean prefix; anything else is a sequence
    /// gap).  Everything else that is malformed — checksum mismatch,
    /// sequence gaps, bad magic — is a typed [`WalError::Corrupt`].
    pub fn recover(&self) -> Result<Recovered, WalError> {
        let schema = &self.latest_manifest().schema;
        let k = schema.len();

        // 1. Snapshot, if any — decoded under the manifest that governed
        // the generation live writers held when it was taken.  (Alters
        // and checkpoints are serialized over one generation counter, so
        // a manifest effective at exactly `covered_gen + 1` cannot
        // exist: the snapshot's own schema always governs it.)
        let snap_path = self.root.join(SNAPSHOT_FILE);
        let has_snapshot = snap_path.exists();
        let (snap_state, snap_seqs, covered_gen, snap_era) = if has_snapshot {
            let bytes = std::fs::read(&snap_path).map_err(|e| io_err(&snap_path, e))?;
            let payload = match read_frame(&bytes) {
                FrameOutcome::Complete { payload, rest } => {
                    if !rest.is_empty() {
                        return Err(corrupt(&snap_path, "trailing bytes after snapshot frame"));
                    }
                    payload
                }
                // The snapshot is written atomically (temp + rename), so a
                // short or mangled frame is corruption, not a crash artifact.
                FrameOutcome::Torn => return Err(corrupt(&snap_path, "snapshot frame truncated")),
                FrameOutcome::CrcMismatch => {
                    return Err(corrupt(&snap_path, "snapshot checksum mismatch"))
                }
                FrameOutcome::Oversize => {
                    return Err(corrupt(&snap_path, "snapshot length corrupted"))
                }
            };
            // The covered generation sits at a fixed offset after the
            // fingerprint; decode needs the right schema, so peek it
            // first via a cheap two-field decode.
            let covered = Snapshot::peek_covered_gen(&snap_path, payload, self.fingerprint)?;
            let era = self.governing(covered + 1);
            let snap = Snapshot::decode(&snap_path, payload, &self.chain[era].1.schema)?;
            if snap.fingerprint != self.fingerprint {
                return Err(WalError::SchemaMismatch {
                    detail: "schema/FD set (snapshot fingerprint)",
                });
            }
            (snap.state, snap.last_seqs, snap.covered_gen, era)
        } else {
            // No snapshot: an empty base under the *base* manifest's
            // schema (era 0), mapped forward like any other.
            let base_schema = &self.chain[0].1.schema;
            (
                DatabaseState::empty(base_schema),
                vec![0; base_schema.len()],
                0,
                0,
            )
        };
        let snap_schema = &self.chain[snap_era].1.schema;
        let snap_gen = self.chain[snap_era].0;

        // 2. Map the snapshot into the latest schema by name.  A
        // relation carries its snapshot state iff it was already born
        // (same name, same attributes, contiguously to the latest
        // manifest) when the snapshot was taken; otherwise it recovers
        // from empty.
        let births: Vec<u64> = schema
            .iter()
            .map(|(id, s)| self.birth_gen(&s.name, schema.attrs(id)))
            .collect();
        let snap_rels = snap_state.into_relations();
        let mut carried: Vec<Option<ids_relational::Relation>> =
            snap_rels.into_iter().map(Some).collect();
        let mut base_rels = Vec::with_capacity(k);
        let mut base_seqs = Vec::with_capacity(k);
        for (id, s) in schema.iter() {
            let from = (births[id.index()] <= snap_gen)
                .then(|| snap_schema.scheme_by_name(&s.name))
                .flatten();
            match from {
                Some(old) => {
                    base_rels.push(carried[old.index()].take().expect("names are unique"));
                    base_seqs.push(snap_seqs[old.index()]);
                }
                None => {
                    base_rels.push(ids_relational::Relation::new(schema.attrs(id)));
                    base_seqs.push(0);
                }
            }
        }
        let base =
            DatabaseState::from_relations(schema, base_rels).map_err(WalError::Relational)?;

        // 3. Discover live segments and map each to a latest-schema
        // relation by name through its governing manifest.
        let wal = self.root.join(WAL_SUBDIR);
        let mut segments: Vec<Vec<(u64, usize, u16, PathBuf)>> = vec![Vec::new(); k];
        let mut max_gen = covered_gen.max(self.chain[self.chain.len() - 1].0);
        if wal.exists() {
            for entry in std::fs::read_dir(&wal).map_err(|e| io_err(&wal, e))? {
                let entry = entry.map_err(|e| io_err(&wal, e))?;
                let name = entry.file_name();
                let Some((scheme, gen)) = name.to_str().and_then(parse_segment_file_name) else {
                    continue;
                };
                max_gen = max_gen.max(gen);
                if gen <= covered_gen {
                    continue;
                }
                let era = self.governing(gen);
                let era_schema = &self.chain[era].1.schema;
                if scheme as usize >= era_schema.len() {
                    return Err(corrupt(
                        &entry.path(),
                        format!("segment for unknown relation index {scheme}"),
                    ));
                }
                let era_name = &era_schema
                    .scheme(SchemeId::from_index(scheme as usize))
                    .name;
                let Some(id) = schema.scheme_by_name(era_name) else {
                    // Dropped relation: residual segments are dead.
                    continue;
                };
                if era_schema.attrs(SchemeId::from_index(scheme as usize)) != schema.attrs(id)
                    || gen < births[id.index()]
                {
                    // Earlier incarnation of a re-used name.
                    continue;
                }
                segments[id.index()].push((gen, era, scheme, entry.path()));
            }
        }

        // 4. Replay each relation's segments independently, oldest
        // generation first.
        let mut tail: Vec<Vec<(usize, WalRecord)>> = Vec::with_capacity(k);
        for (i, mut segs) in segments.into_iter().enumerate() {
            segs.sort();
            let mut records = Vec::new();
            let mut last_seq = base_seqs[i];
            for (gen, era, scheme, path) in segs {
                let bytes = std::fs::read(&path).map_err(|e| io_err(&path, e))?;
                let mut rest = bytes.as_slice();
                // Header frame.  A torn header is a crash between
                // segment creation and the header write landing: the
                // segment is empty.  The torn bytes are left in place
                // (recovery never writes) — a later segment after a
                // torn one is fine, because its own header must
                // continue the sequence from the clean prefix; genuine
                // mid-stream loss surfaces as a sequence gap below.
                match read_frame(rest) {
                    FrameOutcome::Complete { payload, rest: r } => {
                        let header = SegmentHeader::decode(&path, payload)?;
                        if header.fingerprint != self.fingerprint {
                            return Err(WalError::SchemaMismatch {
                                detail: "schema/FD set (segment fingerprint)",
                            });
                        }
                        if header.scheme != scheme || header.gen != gen {
                            return Err(corrupt(&path, "segment header disagrees with file name"));
                        }
                        if header.start_seq != last_seq + 1 {
                            return Err(corrupt(
                                &path,
                                format!(
                                    "sequence gap: segment starts at {} after {}",
                                    header.start_seq, last_seq
                                ),
                            ));
                        }
                        rest = r;
                    }
                    FrameOutcome::Torn => continue,
                    FrameOutcome::CrcMismatch => {
                        return Err(corrupt(&path, "segment header checksum mismatch"))
                    }
                    FrameOutcome::Oversize => {
                        return Err(corrupt(&path, "segment header length corrupted"))
                    }
                }
                // Record frames.  A torn record ends this segment at
                // the acknowledged-and-synced prefix; if records were
                // really lost mid-stream (not just a torn append), the
                // next segment's header start_seq exposes it as a
                // sequence gap.
                loop {
                    match read_frame(rest) {
                        FrameOutcome::Complete { payload, rest: r } => {
                            let record = WalRecord::decode(&path, payload)?;
                            if record.seq != last_seq + 1 {
                                return Err(corrupt(
                                    &path,
                                    format!(
                                        "sequence gap: record {} after {}",
                                        record.seq, last_seq
                                    ),
                                ));
                            }
                            last_seq = record.seq;
                            records.push((era, record));
                            rest = r;
                        }
                        FrameOutcome::Torn => break,
                        FrameOutcome::CrcMismatch => {
                            return Err(corrupt(&path, "record checksum mismatch"))
                        }
                        FrameOutcome::Oversize => {
                            return Err(corrupt(&path, "record length corrupted"))
                        }
                    }
                }
            }
            tail.push(records);
        }

        Ok(Recovered {
            base,
            base_seqs,
            tail,
            covered_gen,
            next_gen: max_gen + 1,
            has_snapshot,
        })
    }
}

/// Writes a manifest durably under `root/name`: staged at `name.tmp`,
/// fsync'd, renamed into place, directory fsync'd.  The file is either
/// absent or complete; a leftover `.tmp` from a crash is ignored by
/// [`WalDir::open`] (it parses as neither the base manifest nor a
/// generation manifest).
fn write_manifest_file(root: &Path, name: &str, manifest: &Manifest) -> Result<(), WalError> {
    let path = root.join(name);
    let tmp = root.join(format!("{name}.tmp"));
    let payload = manifest.encode();
    crate::check_frame_size(&path, payload.len())?;
    let mut f = File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
    f.write_all(&frame(&payload)).map_err(|e| io_err(&tmp, e))?;
    f.sync_all().map_err(|e| io_err(&tmp, e))?;
    drop(f);
    std::fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
    sync_dir(root);
    Ok(())
}

/// Reads one complete manifest frame back.
fn read_manifest_file(path: &Path) -> Result<Manifest, WalError> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    match read_frame(&bytes) {
        FrameOutcome::Complete { payload, rest } => {
            if !rest.is_empty() {
                return Err(corrupt(path, "trailing bytes after manifest frame"));
            }
            Manifest::decode(path, payload)
        }
        FrameOutcome::Torn => Err(corrupt(path, "manifest frame truncated")),
        FrameOutcome::CrcMismatch => Err(corrupt(path, "manifest checksum mismatch")),
        FrameOutcome::Oversize => Err(corrupt(path, "manifest length corrupted")),
    }
}

/// Best-effort directory fsync (makes creates/renames durable on
/// filesystems that need it; ignored where unsupported).  Also called
/// after every segment / name-log creation, so a power loss cannot
/// erase a file whose contents were already fsync'd.
pub(crate) fn sync_dir(path: &Path) {
    if let Ok(f) = File::open(path) {
        let _ = f.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::WalOp;
    use ids_relational::{SchemeId, Universe, Value};

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("ids-wal-dir-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn setup() -> (DatabaseSchema, FdSet) {
        let u = Universe::from_names(["C", "T", "S"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("CT", "CT"), ("CS", "CS")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["C -> T"]).unwrap();
        (schema, fds)
    }

    #[test]
    fn create_open_identity_and_mismatch() {
        let root = tmp("identity");
        let (schema, fds) = setup();
        let dir = WalDir::create(&root, &schema, &fds, vec![9]).unwrap();
        assert!(WalDir::exists(&root));
        assert!(WalDir::create(&root, &schema, &fds, vec![]).is_err());
        let reopened = WalDir::open(&root).unwrap();
        assert_eq!(reopened.fingerprint(), dir.fingerprint());
        assert_eq!(reopened.manifest().app, vec![9]);
        reopened.check_identity(&schema, &fds).unwrap();
        let other_fds = FdSet::parse(schema.universe(), &["C -> S"]).unwrap();
        assert!(matches!(
            reopened.check_identity(&schema, &other_fds),
            Err(WalError::SchemaMismatch { detail: "FD set" })
        ));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn write_replay_checkpoint_cycle() {
        let root = tmp("cycle");
        let (schema, fds) = setup();
        let dir = WalDir::create(&root, &schema, &fds, Vec::new()).unwrap();

        // Gen 1: two records on relation 0, one on relation 1.
        let mut w0 = dir.segment_writer(0, 1, 0).unwrap();
        let mut w1 = dir.segment_writer(1, 1, 0).unwrap();
        w0.append(WalOp::Insert(vec![Value(1), Value(10)])).unwrap();
        w0.append(WalOp::Remove(vec![Value(1), Value(10)])).unwrap();
        w1.append(WalOp::Insert(vec![Value(1), Value(50)])).unwrap();
        w0.sync().unwrap();
        w1.sync().unwrap();

        let r = dir.recover().unwrap();
        assert_eq!(r.covered_gen, 0);
        assert_eq!(r.next_gen, 2);
        assert_eq!(r.base.total_tuples(), 0);
        assert_eq!(r.tail[0].len(), 2);
        assert_eq!(r.tail[1].len(), 1);
        assert_eq!(r.last_seqs(), vec![2, 1]);

        // Checkpoint: rotate both writers to gen 2, snapshot, prune.
        w0.rotate(2).unwrap();
        w1.rotate(2).unwrap();
        let mut state = DatabaseState::empty(&schema);
        state
            .insert(SchemeId(1), vec![Value(1), Value(50)])
            .unwrap();
        dir.write_snapshot(&state, &[2, 1], 1).unwrap();
        dir.prune_segments(1).unwrap();

        // Post-checkpoint records land in gen 2.
        w1.append(WalOp::Insert(vec![Value(2), Value(60)])).unwrap();
        w1.sync().unwrap();

        let r = dir.recover().unwrap();
        assert_eq!(r.covered_gen, 1);
        assert_eq!(r.next_gen, 3);
        assert_eq!(r.base.total_tuples(), 1);
        assert_eq!(r.base_seqs, vec![2, 1]);
        assert!(r.tail[0].is_empty());
        assert_eq!(r.tail[1].len(), 1);
        assert_eq!(r.tail[1][0].1.seq, 2);
        assert_eq!(r.last_seqs(), vec![2, 2]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn generation_manifests_map_segments_by_name() {
        let root = tmp("generations");
        let (schema, fds) = setup();
        let dir = WalDir::create(&root, &schema, &fds, Vec::new()).unwrap();

        // Gen 1 under the base schema: CT gets one record, CS two.
        let mut w_ct = dir.segment_writer(0, 1, 0).unwrap();
        let mut w_cs = dir.segment_writer(1, 1, 0).unwrap();
        w_ct.append(WalOp::Insert(vec![Value(1), Value(10)]))
            .unwrap();
        w_cs.append(WalOp::Insert(vec![Value(1), Value(50)]))
            .unwrap();
        w_cs.append(WalOp::Insert(vec![Value(2), Value(51)]))
            .unwrap();

        // Transition to gen 2: add relation SR over a grown universe
        // (attribute ids are append-only, so old tuples stay valid).
        let u2 = Universe::from_names(["C", "T", "S", "R"]).unwrap();
        let schema2 =
            DatabaseSchema::parse(u2, &[("CT", "CT"), ("CS", "CS"), ("SR", "SR")]).unwrap();
        let fds2 = FdSet::parse(schema2.universe(), &["C -> T"]).unwrap();
        dir.append_generation_manifest(
            2,
            &Manifest {
                schema: schema2.clone(),
                fds: fds2.clone(),
                app: Vec::new(),
            },
        )
        .unwrap();
        assert!(dir
            .append_generation_manifest(
                2,
                &Manifest {
                    schema: schema2.clone(),
                    fds: fds2.clone(),
                    app: Vec::new()
                }
            )
            .is_err());
        w_ct.rotate(2).unwrap();
        w_cs.rotate(2).unwrap();
        let mut w_sr = dir.segment_writer(2, 2, 0).unwrap();
        w_sr.append(WalOp::Insert(vec![Value(3), Value(70)]))
            .unwrap();
        w_cs.append(WalOp::Insert(vec![Value(4), Value(52)]))
            .unwrap();

        // Transition to gen 3: drop CS — SR is renumbered from index 2
        // to index 1, its sequence counter carrying across the rename.
        let schema3 = DatabaseSchema::parse(
            Universe::from_names(["C", "T", "S", "R"]).unwrap(),
            &[("CT", "CT"), ("SR", "SR")],
        )
        .unwrap();
        let fds3 = FdSet::parse(schema3.universe(), &["C -> T"]).unwrap();
        dir.append_generation_manifest(
            3,
            &Manifest {
                schema: schema3.clone(),
                fds: fds3.clone(),
                app: Vec::new(),
            },
        )
        .unwrap();
        w_ct.rotate(3).unwrap();
        w_sr.rotate_as(1, 3).unwrap();
        w_sr.append(WalOp::Insert(vec![Value(5), Value(71)]))
            .unwrap();
        w_ct.sync().unwrap();
        w_cs.sync().unwrap();
        w_sr.sync().unwrap();

        // A reopened handle sees the whole chain and recovers under the
        // latest schema, stitching SR's segments by name and skipping
        // the dropped CS entirely.
        let dir = WalDir::open(&root).unwrap();
        assert_eq!(dir.manifests().len(), 3);
        assert_eq!(dir.latest_manifest().schema, schema3);
        dir.check_identity(&schema3, &fds3).unwrap();
        assert!(matches!(
            dir.check_identity(&schema, &fds),
            Err(WalError::SchemaMismatch { .. })
        ));

        let r = dir.recover().unwrap();
        assert_eq!(r.next_gen, 4);
        assert_eq!(r.tail.len(), 2);
        // CT: its single gen-1 record, tagged with the base era.
        assert_eq!(
            r.tail[0]
                .iter()
                .map(|(era, rec)| (*era, rec.seq))
                .collect::<Vec<_>>(),
            vec![(0, 1)]
        );
        // SR: born at gen 2 (era 1), renumbered at gen 3 (era 2),
        // sequence numbers contiguous across the rename.
        assert_eq!(
            r.tail[1]
                .iter()
                .map(|(era, rec)| (*era, rec.seq))
                .collect::<Vec<_>>(),
            vec![(1, 1), (2, 2)]
        );
        assert_eq!(r.last_seqs(), vec![1, 2]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn reused_name_with_different_attrs_starts_a_new_incarnation() {
        let root = tmp("incarnation");
        let (schema, fds) = setup();
        let dir = WalDir::create(&root, &schema, &fds, Vec::new()).unwrap();

        // Gen 1: CS gets a record under its original two attributes.
        let mut w_ct = dir.segment_writer(0, 1, 0).unwrap();
        let mut w_cs = dir.segment_writer(1, 1, 0).unwrap();
        w_cs.append(WalOp::Insert(vec![Value(1), Value(50)]))
            .unwrap();
        w_cs.sync().unwrap();

        // Gen 2: CS is re-defined over different attributes (C, T, S).
        // Same name, different shape — the old segment must not replay.
        let u = Universe::from_names(["C", "T", "S"]).unwrap();
        let schema2 = DatabaseSchema::parse(u, &[("CT", "CT"), ("CS", "CTS")]).unwrap();
        let fds2 = FdSet::parse(schema2.universe(), &["C -> T"]).unwrap();
        dir.append_generation_manifest(
            2,
            &Manifest {
                schema: schema2.clone(),
                fds: fds2,
                app: Vec::new(),
            },
        )
        .unwrap();
        w_ct.rotate(2).unwrap();
        drop(w_cs);
        let mut w_cs2 = dir.segment_writer(1, 2, 0).unwrap();
        w_cs2
            .append(WalOp::Insert(vec![Value(2), Value(20), Value(60)]))
            .unwrap();
        w_cs2.sync().unwrap();
        w_ct.sync().unwrap();

        let dir = WalDir::open(&root).unwrap();
        let r = dir.recover().unwrap();
        // Only the new incarnation's record survives; its sequence
        // numbering restarts because the relation is new.
        assert_eq!(
            r.tail[1]
                .iter()
                .map(|(era, rec)| (*era, rec.seq))
                .collect::<Vec<_>>(),
            vec![(1, 1)]
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_tail_recovers_prefix_but_gap_is_corrupt() {
        let root = tmp("torn");
        let (schema, fds) = setup();
        let dir = WalDir::create(&root, &schema, &fds, Vec::new()).unwrap();
        let mut w0 = dir.segment_writer(0, 1, 0).unwrap();
        w0.append(WalOp::Insert(vec![Value(1), Value(10)])).unwrap();
        w0.append(WalOp::Insert(vec![Value(2), Value(20)])).unwrap();
        w0.sync().unwrap();
        let seg = root.join("wal").join("r00000-g0000000001.log");
        let bytes = std::fs::read(&seg).unwrap();

        // Truncating the last record (torn write) keeps the prefix.
        std::fs::write(&seg, &bytes[..bytes.len() - 5]).unwrap();
        let r = dir.recover().unwrap();
        assert_eq!(r.tail[0].len(), 1);

        // Flipping a bit inside a record is corruption, not truncation.
        let mut flipped = bytes.clone();
        let n = flipped.len();
        flipped[n - 1] ^= 0x80;
        std::fs::write(&seg, &flipped).unwrap();
        assert!(matches!(dir.recover(), Err(WalError::Corrupt { .. })));
        let _ = std::fs::remove_dir_all(&root);
    }
}
