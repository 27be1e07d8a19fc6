//! The on-disk directory of a durable database: manifest, snapshot,
//! per-relation log segments, and crash recovery.

use std::fs::File;
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};

use ids_deps::FdSet;
use ids_relational::{DatabaseSchema, DatabaseState, Value, ValuePool};

use crate::format::{frame, next_frame, MAX_FRAME_PAYLOAD};
use crate::records::{Manifest, Snapshot};
use crate::tail::{Cursor, Follower};
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
pub(crate) fn parse_generation_manifest_name(name: &str) -> Option<u64> {
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

/// What [`WalDir::recover`] found: the snapshot, and the follow loop
/// positioned right after it.
///
/// The base is expressed in the schema of the manifest governing the
/// snapshot's generation ([`Recovered::era`]); replaying [`Recovered::log`]
/// carries it through every later manifest of the chain in order, each
/// record under the schema it was written in.
#[derive(Debug)]
pub struct Recovered {
    /// Chain index ([`WalDir::manifests`]) of the manifest `base` is
    /// expressed in: the one live writers held when the snapshot was
    /// taken.
    pub era: usize,
    /// State restored from the snapshot (empty when none was taken).
    pub base: DatabaseState,
    /// Per-relation last sequence number folded into `base`.
    pub base_seqs: Vec<u64>,
    /// Generation the snapshot covers (0 when none was taken).
    pub covered_gen: u64,
    /// Generation fresh segments should be opened at.
    pub next_gen: u64,
    /// Whether a snapshot file existed (distinguishes "no snapshot yet"
    /// from "snapshot of an empty state").
    pub has_snapshot: bool,
    /// The value pool the snapshot defines, each name under its id; an
    /// id below the snapshot's next id that nothing names is a hole,
    /// never handed out again.  The records' own definitions arrive with
    /// them, through `log`.
    pub names: ValuePool,
    /// The follow loop from the snapshot's cursors, carrying no record
    /// payloads and no manifest past the chain this handle opened with:
    /// [`Follower::replay`] ships every record after the snapshot and
    /// every manifest after its era, in generation order.  Replaying
    /// them into `base` *is* recovery; no cross-relation ordering exists
    /// or is needed.
    pub log: Follower,
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
        sync_dir(&self.root).map_err(|e| io_err(&self.root, e))
    }

    /// Deletes every segment of a covered generation — the log
    /// truncation half of a checkpoint.  Safe to call repeatedly; a
    /// crash between snapshot and pruning only leaves covered segments
    /// behind, which the next recovery skips and the next checkpoint
    /// removes.
    pub fn prune_segments(&self, covered_gen: u64) -> Result<(), WalError> {
        let wal = self.root.join(WAL_SUBDIR);
        let mut removed = false;
        for (scheme, gen) in list(&wal, parse_segment_file_name)? {
            if gen <= covered_gen {
                let path = wal.join(crate::segment_file_name(scheme, gen));
                std::fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
                removed = true;
            }
        }
        if removed {
            sync_dir(&wal).map_err(|e| io_err(&wal, e))?;
        }
        Ok(())
    }

    /// Reads the snapshot back into a [`Recovered`], with the follow
    /// loop that replays every live segment after it.
    ///
    /// Recovery *is* the follow loop ([`Follower`]), run once over a
    /// directory nobody is writing to: it starts from the snapshot's
    /// cursors and reads every relation's log to its end, so a segment
    /// reads the same here as it does to a replica.  The snapshot is
    /// decoded under the manifest governing `covered_gen + 1` (the
    /// schema live writers held when it was taken).
    ///
    /// A torn frame — a segment header included — ends a segment cleanly
    /// at the acknowledged-and-synced prefix, whether it is the last
    /// segment or one a previous crash left behind: per-relation sequence
    /// numbers are contiguous across segments (rotation carries the
    /// counter even when the scheme index changes), so the next
    /// segment's header tells a benign torn tail from lost records.
    /// Everything else that is malformed — checksum mismatch, sequence
    /// gaps, bad magic, a log that does not continue from the snapshot —
    /// is a typed [`WalError::Corrupt`], and so are two names the
    /// snapshot gives one value.
    pub fn recover(&self) -> Result<Recovered, WalError> {
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
        let era = self.governing(covered_gen + 1);
        let schema = &self.chain[era].1.schema;
        let mut names = ValuePool::new();
        let (base, base_seqs) = match payload {
            Some(p) => {
                let snap = Snapshot::decode(&snap_path, &p, schema)?;
                let mut defs = snap.names;
                defs.sort_unstable();
                // Two names for one value, one name for two: corruption.
                for (v, name) in defs {
                    (names.define(v, &name))
                        .map_err(|e| corrupt(&snap_path, format!("bad value definitions: {e}")))?;
                }
                names.reserve(snap.next_id);
                (snap.state, snap.last_seqs)
            }
            None => (DatabaseState::empty(schema), vec![0; schema.len()]),
        };
        let cursors: Vec<Cursor> = (base_seqs.iter())
            .map(|&seq| Cursor {
                gen: covered_gen + 1,
                seq,
            })
            .collect();
        let log = Follower::replaying(self, &cursors)?;
        let newest = list(&self.root.join(WAL_SUBDIR), parse_segment_file_name)?
            .into_iter()
            .map(|(_, gen)| gen)
            .max();
        let last = self.chain[self.chain.len() - 1].0;
        Ok(Recovered {
            era,
            base,
            base_seqs,
            covered_gen,
            next_gen: newest.unwrap_or(0).max(covered_gen).max(last) + 1,
            has_snapshot,
            names,
            log,
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
    sync_dir(root).map_err(|e| io_err(root, e))
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

/// Fsyncs a directory, which makes the creates and renames in it
/// durable on filesystems that need it.  Called after every rename into
/// place and every segment / name-log creation, so a power loss cannot
/// erase a file whose contents were already fsync'd; a failure is
/// returned, since the entry it was to make durable may not be.  A
/// filesystem that cannot sync a directory (`EINVAL`, `Unsupported`)
/// has nothing more to make durable.
pub(crate) fn sync_dir(path: &Path) -> std::io::Result<()> {
    match File::open(path).and_then(|f| f.sync_all()) {
        Err(e) if matches!(e.kind(), ErrorKind::InvalidInput | ErrorKind::Unsupported) => Ok(()),
        synced => synced,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::WalOp;
    use crate::Shipment;
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

    /// Recovers `dir` and replays its log, rendering the stream in
    /// shipping order: `M{gen}` per manifest, `R{relation}@{gen}[seqs]`
    /// per record batch.
    fn replay(dir: &WalDir) -> Result<(Recovered, Vec<String>), WalError> {
        let mut r = dir.recover()?;
        let mut stream = Vec::new();
        r.log.replay(|shipment| {
            stream.push(match shipment {
                Shipment::Manifest { gen, .. } => format!("M{gen}"),
                Shipment::Records {
                    relation,
                    gen,
                    records,
                    ..
                } => {
                    let seqs: Vec<String> =
                        records.iter().map(|r| r.record.seq.to_string()).collect();
                    format!("R{relation}@{gen}[{}]", seqs.join(","))
                }
            });
            Ok::<_, WalError>(())
        })?;
        Ok((r, stream))
    }

    fn seqs(r: &Recovered) -> Vec<u64> {
        r.log.cursors().iter().map(|c| c.seq).collect()
    }

    #[test]
    fn sync_dir_reports_a_directory_it_cannot_sync() {
        let root = tmp("sync-dir");
        std::fs::create_dir_all(&root).unwrap();
        assert!(sync_dir(&root).is_ok());
        std::fs::remove_dir_all(&root).unwrap();
        assert!(sync_dir(&root).is_err());
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

        let (r, stream) = replay(&dir).unwrap();
        assert_eq!(r.covered_gen, 0);
        assert_eq!(r.next_gen, 2);
        assert_eq!(r.base.total_tuples(), 0);
        assert_eq!(stream, ["R0@1[1,2]", "R1@1[1]"]);
        assert_eq!(seqs(&r), vec![2, 1]);

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

        let (r, stream) = replay(&dir).unwrap();
        assert_eq!(r.covered_gen, 1);
        assert_eq!(r.next_gen, 3);
        assert_eq!(r.base.total_tuples(), 1);
        assert_eq!(r.base_seqs, vec![2, 1]);
        assert_eq!(stream, ["R1@2[2]"]);
        assert_eq!(seqs(&r), vec![2, 2]);
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

        // A reopened handle sees the whole chain.  Recovery ships each
        // era's records before the manifest that ends it, each batch
        // labeled with the relation's index in the schema shipped last:
        // SR's segments are stitched by name across its renumbering, and
        // the dropped CS's records ship only before its drop.
        let dir = WalDir::open(&root).unwrap();
        assert_eq!(dir.manifests().len(), 3);
        assert_eq!(dir.latest_manifest().schema, schema3);
        dir.check_identity(&schema3, &fds3).unwrap();
        assert!(matches!(
            dir.check_identity(&schema, &fds),
            Err(WalError::SchemaMismatch { .. })
        ));

        let (r, stream) = replay(&dir).unwrap();
        assert_eq!(r.next_gen, 4);
        assert_eq!(
            stream,
            [
                "R0@1[1]",
                "R1@1[1,2]",
                "M2",
                "R1@2[3]",
                "R2@2[1]",
                "M3",
                "R1@3[2]"
            ]
        );
        // SR's sequence numbers are contiguous across the rename.
        assert_eq!(seqs(&r), vec![1, 2]);
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

        // The old incarnation's record ships before the manifest that
        // drops it; the new one's log starts after it, its sequence
        // numbering restarted because the relation is new.
        let dir = WalDir::open(&root).unwrap();
        let (_, stream) = replay(&dir).unwrap();
        assert_eq!(stream, ["R1@1[1]", "M2", "R1@2[1]"]);
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
        assert_eq!(replay(&dir).unwrap().1, ["R0@1[1]"]);

        // Flipping a bit inside a record is corruption, not truncation.
        let mut flipped = bytes.clone();
        let n = flipped.len();
        flipped[n - 1] ^= 0x80;
        std::fs::write(&seg, &flipped).unwrap();
        assert!(matches!(replay(&dir), Err(WalError::Corrupt { .. })));
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
