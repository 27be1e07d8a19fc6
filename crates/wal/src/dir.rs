//! The on-disk directory of a durable database: manifest, snapshot,
//! per-relation log segments, and crash recovery.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use ids_deps::FdSet;
use ids_relational::{DatabaseSchema, DatabaseState, Relation, SchemeId, Value, ValuePool};

use crate::format::{frame, next_frame, MAX_FRAME_PAYLOAD};
use crate::records::{Manifest, Snapshot, WalRecord};
use crate::tail::{Cursor, FollowPoll, Follower, Shipment};
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
/// The global name log of the format before self-defining logs: a
/// directory holding one is refused ([`WalError::LegacyNameLog`]).
const LEGACY_POOL_FILE: &str = "pool.log";

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
/// Everything is expressed in terms of the **latest** manifest's schema.
/// The follow loop carries each relation across every manifest by the
/// relation identity rule ([`DatabaseSchema::remap_from`]: same name,
/// same attributes), and so does the snapshot base: relations the latest
/// manifest dropped are gone, relations it added — or re-declared over
/// other attributes — recover from an empty base.  Each tail record is
/// tagged with the chain index of its governing manifest, so replay can
/// re-run it under the enforcement covers of the schema epoch it was
/// accepted in.
#[derive(Debug)]
pub struct Recovered {
    /// State restored from the snapshot (empty when none was taken),
    /// carried into the latest manifest's schema.
    pub base: DatabaseState,
    /// Per-relation last sequence number folded into `base`.
    pub base_seqs: Vec<u64>,
    /// Per-relation records appended after the snapshot, in order, each
    /// tagged with the chain index ([`WalDir::manifests`]) of the
    /// manifest governing the segment it came from.  Replaying them
    /// through each relation's shard *is* recovery; no cross-relation
    /// ordering exists or is needed.
    pub tail: Vec<Vec<(usize, WalRecord)>>,
    /// Per relation, each chain index its tail is tagged with, in order,
    /// beside the relation's scheme index under that manifest.
    pub eras: Vec<Vec<(usize, SchemeId)>>,
    /// Generation the snapshot covers (0 when none was taken).
    pub covered_gen: u64,
    /// Generation fresh segments should be opened at.
    pub next_gen: u64,
    /// Whether a snapshot file existed (distinguishes "no snapshot yet"
    /// from "snapshot of an empty state").
    pub has_snapshot: bool,
    /// The value pool the snapshot's and the records' definitions
    /// rebuild, each name under its logged id; an id below the highest
    /// defined one, or below the snapshot's next id, that nothing names
    /// is a hole, never handed out again.
    pub names: ValuePool,
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
    /// and every generation manifest a schema transition appended.  A
    /// directory that still holds the global `pool.log` of the older
    /// format is refused with [`WalError::LegacyNameLog`]: its logs do
    /// not carry the names their records use.
    pub fn open(root: &Path) -> Result<Self, WalError> {
        let legacy = root.join(LEGACY_POOL_FILE);
        if legacy.exists() {
            return Err(WalError::LegacyNameLog { path: legacy });
        }
        let path = root.join(MANIFEST_FILE);
        let base = Manifest::decode(&path, &read_sealed(&path, "manifest")?)?;
        let mut dir = WalDir {
            root: root.to_path_buf(),
            fingerprint: base.fingerprint(),
            chain: vec![(0, base)],
        };
        let later = dir.generation_manifests_after(0)?;
        dir.chain
            .extend(later.into_iter().map(|(gen, m, _)| (gen, m)));
        Ok(dir)
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
        let mut gens = list(&self.root, parse_generation_manifest_name)?;
        gens.sort_unstable();
        if gens.first() == Some(&0) {
            return Err(corrupt(&self.root, "generation manifest at generation 0"));
        }
        if gens.windows(2).any(|w| w[0] == w[1]) {
            return Err(corrupt(&self.root, "duplicate generation manifest"));
        }
        let mut found = Vec::new();
        for gen in gens.into_iter().filter(|&gen| gen > after) {
            let path = self.root.join(generation_manifest_name(gen));
            let payload = match read_sealed(&path, "manifest") {
                // Raced a concurrent rename; the retry is the next poll.
                Err(WalError::Io { source, .. })
                    if source.kind() == std::io::ErrorKind::NotFound =>
                {
                    continue
                }
                read => read?,
            };
            found.push((gen, Manifest::decode(&path, &payload)?, payload));
        }
        Ok(found)
    }

    /// The identity fingerprint every segment and snapshot carries.
    pub fn fingerprint(&self) -> u32 {
        self.fingerprint
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
    /// `names` defines the pool's values, and `next_id` is the pool's
    /// first unused id: the segments that defined them are the ones the
    /// snapshot lets a checkpoint prune.
    pub fn write_snapshot(
        &self,
        state: &DatabaseState,
        last_seqs: &[u64],
        covered_gen: u64,
        names: Vec<(Value, String)>,
        next_id: u64,
    ) -> Result<(), WalError> {
        let snap = Snapshot {
            fingerprint: self.fingerprint,
            covered_gen,
            last_seqs: last_seqs.to_vec(),
            state: state.clone(),
            names,
            next_id,
        };
        let tmp = self.root.join(SNAPSHOT_TMP_FILE);
        let dst = self.root.join(SNAPSHOT_FILE);
        let payload = snap.encode();
        let mut f = File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        // A payload past the frame bound — a large state with its names —
        // is split over consecutive frames; one frame otherwise.
        for chunk in payload.chunks(MAX_FRAME_PAYLOAD as usize) {
            f.write_all(&frame(chunk)).map_err(|e| io_err(&tmp, e))?;
        }
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
        for (scheme, gen) in list(&wal, parse_segment_file_name)? {
            if gen <= covered_gen {
                let path = wal.join(crate::segment_file_name(scheme, gen));
                std::fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
            }
        }
        sync_dir(&wal);
        Ok(())
    }

    /// Reads the snapshot and every live segment back into a
    /// [`Recovered`]: the base state plus per-relation tails, expressed
    /// in the **latest** manifest's schema.
    ///
    /// Recovery *is* the follow loop ([`Follower`]), run once over a
    /// directory nobody is writing to: it starts from the snapshot's
    /// cursors and reads every relation's log to its end, so a segment
    /// reads the same here as it does to a replica.  Each shipped batch
    /// is tagged with the chain index of the manifest governing its
    /// generation and carried, like the snapshot base, into the latest
    /// schema by the relation identity rule.  The snapshot is decoded
    /// under the manifest governing `covered_gen + 1` (the schema live
    /// writers held when it was taken).
    ///
    /// A torn frame — a segment header included — ends a segment cleanly
    /// at the acknowledged-and-synced prefix, whether it is the last
    /// segment or one a previous crash left behind: per-relation sequence
    /// numbers are contiguous across segments (rotation carries the
    /// counter even when the scheme index changes), so the next
    /// segment's header tells a benign torn tail from lost records.
    /// Everything else that is malformed — checksum mismatch, sequence
    /// gaps, bad magic, a log that does not continue from the snapshot —
    /// is a typed [`WalError::Corrupt`] — so are two definitions of one
    /// value that name different strings.  Definitions are collected
    /// from every record read, a dropped relation's included, so a
    /// recovered pool never hands out an id a log already named.
    pub fn recover(&self) -> Result<Recovered, WalError> {
        let last = self.chain.len() - 1;
        let snap_path = self.root.join(SNAPSHOT_FILE);
        let has_snapshot = snap_path.exists();
        let payload = (has_snapshot)
            .then(|| read_sealed(&snap_path, "snapshot"))
            .transpose()?;
        let covered_gen = match &payload {
            Some(p) => Snapshot::peek_covered_gen(&snap_path, p, self.fingerprint)?,
            None => 0,
        };
        // The manifest live writers held when the snapshot was taken.
        // (Alters and checkpoints share one generation counter, so no
        // manifest takes effect at exactly `covered_gen + 1`.)
        let era0 = self.governing(covered_gen + 1);
        let schema0 = &self.chain[era0].1.schema;
        // Every definition the snapshot and the records hold, and the
        // snapshot's next id.
        let (mut defs, mut next_id) = (Vec::new(), 0);
        let (state, seqs) = match payload {
            Some(p) => {
                let snap = Snapshot::decode(&snap_path, &p, schema0)?;
                (defs, next_id) = (snap.names, snap.next_id);
                (snap.state, snap.last_seqs)
            }
            None => (DatabaseState::empty(schema0), vec![0; schema0.len()]),
        };

        // `to_latest[era - era0][i]`: where relation `i` of that era sits
        // in the latest schema, carried one manifest at a time — so a
        // relation dropped and later re-added is a new relation.
        let latest = &self.chain[last].1.schema;
        let mut to_latest = vec![(0..latest.len()).map(Some).collect::<Vec<_>>()];
        for era in (era0..last).rev() {
            let (old, new) = (&self.chain[era].1.schema, &self.chain[era + 1].1.schema);
            let mut map = vec![None; old.len()];
            for (from, &to) in new.remap_from(old).into_iter().zip(&to_latest[0]) {
                if let Some(i) = from {
                    map[i.index()] = to;
                }
            }
            to_latest.insert(0, map);
        }
        let mut base: Vec<Relation> = latest.iter().map(|(_, s)| Relation::new(s.attrs)).collect();
        let mut base_seqs = vec![0; latest.len()];
        for ((rel, &seq), to) in state
            .into_relations()
            .into_iter()
            .zip(&seqs)
            .zip(&to_latest[0])
        {
            if let Some(i) = *to {
                (base[i], base_seqs[i]) = (rel, seq);
            }
        }

        let cursors: Vec<Cursor> = (seqs.iter())
            .map(|&seq| Cursor {
                gen: covered_gen + 1,
                seq,
            })
            .collect();
        let (mut tail, mut eras) = (
            vec![Vec::new(); latest.len()],
            vec![Vec::new(); latest.len()],
        );
        // A manifest committed after this handle opened governs a schema
        // the recovered state is not expressed in: what it governs stays
        // unread.
        let mut horizon = u64::MAX;
        let wal = self.root.join(WAL_SUBDIR);
        let polled = Follower::replaying(self, &cursors)?.poll(|shipment| {
            match shipment {
                Shipment::Manifest { gen, .. } if gen > self.chain[last].0 => {
                    horizon = horizon.min(gen);
                }
                Shipment::Records {
                    relation,
                    gen,
                    mut records,
                    ..
                } => {
                    for r in &mut records {
                        defs.append(&mut r.record.defs);
                    }
                    if gen >= horizon {
                        return Ok(());
                    }
                    let era = self.governing(gen);
                    if let Some(i) = to_latest[era - era0][relation as usize] {
                        if eras[i].last().map(|&(e, _)| e) != Some(era) {
                            eras[i].push((era, SchemeId::from_index(relation as usize)));
                        }
                        tail[i].extend(records.into_iter().map(|r| (era, r.record)));
                    }
                }
                _ => {}
            }
            Ok::<_, WalError>(())
        })?;
        if polled == FollowPoll::Behind {
            return Err(corrupt(
                &wal,
                "a relation's log does not continue from the snapshot",
            ));
        }
        // The pool, built in id order; definitions no pool can hold — two
        // names for one value, one name for two — are corruption.
        defs.sort_unstable();
        defs.dedup();
        let mut names = ValuePool::new();
        for (v, name) in defs {
            (names.define(v, &name))
                .map_err(|e| corrupt(&wal, format!("bad value definitions: {e}")))?;
        }
        names.reserve(next_id);
        let newest = list(&wal, parse_segment_file_name)?
            .into_iter()
            .map(|(_, gen)| gen)
            .max();
        Ok(Recovered {
            base: DatabaseState::from_relations(latest, base)?,
            base_seqs,
            tail,
            eras,
            covered_gen,
            next_gen: newest.unwrap_or(0).max(covered_gen).max(self.chain[last].0) + 1,
            has_snapshot,
            names,
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

/// Reads a file that holds one payload — a manifest or the snapshot —
/// in one frame, or in several when it outgrew the frame bound, and
/// returns the payload.  Those files are staged and renamed into place
/// whole, so a torn frame is corruption, not a crash artifact.
fn read_sealed(path: &Path, what: &str) -> Result<Vec<u8>, WalError> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    let (mut payload, mut rest) = (Vec::new(), &bytes[..]);
    loop {
        let Some((chunk, r)) = next_frame(path, rest, what)? else {
            return Err(corrupt(path, format!("{what} frame truncated")));
        };
        payload.extend_from_slice(chunk);
        if r.is_empty() {
            return Ok(payload);
        }
        rest = r;
    }
}

/// The names of the files in `dir` that `parse` accepts, parsed; an
/// absent directory holds none.
pub(crate) fn list<T>(dir: &Path, parse: fn(&str) -> Option<T>) -> Result<Vec<T>, WalError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err(dir, e)),
    };
    let mut found = Vec::new();
    for entry in entries {
        let name = entry.map_err(|e| io_err(dir, e))?.file_name();
        found.extend(name.to_str().and_then(parse));
    }
    Ok(found)
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
        dir.write_snapshot(&state, &[2, 1], 1, Vec::new(), 0)
            .unwrap();
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

    /// A writer whose segments define their values from `names`.
    fn named_writer(dir: &WalDir, scheme: u16, names: &[&str]) -> WalWriter {
        let mut pool = ids_relational::ValuePool::new();
        for name in names {
            pool.value(name);
        }
        let mut w = dir.segment_writer(scheme, 1, 0).unwrap();
        w.set_names(std::sync::Arc::new(std::sync::Mutex::new(pool)));
        w
    }

    /// Recovery gathers every definition — the snapshot's, and each
    /// relation's records' — and refuses two that rename one value.
    #[test]
    fn recovery_unions_definitions_and_types_a_conflict_as_corrupt() {
        let root = tmp("definitions");
        let (schema, fds) = setup();
        let dir = WalDir::create(&root, &schema, &fds, Vec::new()).unwrap();
        let snap = DatabaseState::empty(&schema);
        dir.write_snapshot(&snap, &[0, 0], 0, vec![(Value(4), "old".into())], 6)
            .unwrap();
        let mut w0 = named_writer(&dir, 0, &["a", "b", "c"]);
        let mut w1 = named_writer(&dir, 1, &["a", "b", "c"]);
        w0.append(WalOp::Insert(vec![Value(0), Value(2)])).unwrap();
        w1.append(WalOp::Insert(vec![Value(0), Value(1)])).unwrap();
        // A value with no name in the pool is not defined.
        w1.append(WalOp::Insert(vec![Value(9), Value(1)])).unwrap();
        drop((w0, w1));
        let r = dir.recover().unwrap();
        let names: Vec<(&str, u64)> = r.names.iter().map(|(n, v)| (n, v.0)).collect();
        assert_eq!(names, [("a", 0), ("b", 1), ("c", 2), ("old", 4)]);
        assert_eq!(r.names.len(), 6);

        // Relation 1's next segment names value 2 differently.
        let mut w1 = dir.segment_writer(1, 2, 2).unwrap();
        let mut pool = ids_relational::ValuePool::new();
        pool.define(Value(2), "not c").unwrap();
        w1.set_names(std::sync::Arc::new(std::sync::Mutex::new(pool)));
        w1.append(WalOp::Insert(vec![Value(2), Value(2)])).unwrap();
        match dir.recover() {
            Err(WalError::Corrupt { detail, .. }) => {
                assert!(
                    detail.contains("conflicting definitions of value 2"),
                    "{detail}"
                )
            }
            other => panic!("expected corruption, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A directory of the format with a global name log is refused with a
    /// typed error, before anything is read.
    #[test]
    fn a_directory_with_a_pool_log_is_refused() {
        let root = tmp("legacy");
        let (schema, fds) = setup();
        WalDir::create(&root, &schema, &fds, Vec::new()).unwrap();
        std::fs::write(root.join("pool.log"), b"").unwrap();
        assert!(matches!(
            WalDir::open(&root),
            Err(WalError::LegacyNameLog { path }) if path == root.join("pool.log")
        ));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A snapshot whose payload outgrew the frame bound is written over
    /// consecutive frames; recovery reads them as one payload, and a torn
    /// last frame is corruption.
    #[test]
    fn a_snapshot_split_over_frames_reads_as_one() {
        let root = tmp("split-snapshot");
        let (schema, fds) = setup();
        let dir = WalDir::create(&root, &schema, &fds, Vec::new()).unwrap();
        let mut state = DatabaseState::empty(&schema);
        state.insert(SchemeId(0), vec![Value(0), Value(1)]).unwrap();
        let names = vec![(Value(0), "a".to_string()), (Value(1), "b".into())];
        dir.write_snapshot(&state, &[0, 0], 0, names, 2).unwrap();
        let path = root.join(SNAPSHOT_FILE);
        let bytes = std::fs::read(&path).unwrap();
        let (payload, []) = next_frame(&path, &bytes, "snapshot").unwrap().unwrap() else {
            panic!("a small snapshot is one frame");
        };
        let split = [frame(&payload[..20]), frame(&payload[20..])].concat();
        std::fs::write(&path, &split).unwrap();
        let r = dir.recover().unwrap();
        assert_eq!(r.base.total_tuples(), 1);
        assert_eq!((r.names.name(Value(1)), r.names.len()), (Some("b"), 2));
        std::fs::write(&path, &split[..split.len() - 1]).unwrap();
        assert!(matches!(dir.recover(), Err(WalError::Corrupt { .. })));
        let _ = std::fs::remove_dir_all(&root);
    }
}
