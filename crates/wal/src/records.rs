//! Typed payloads of the durability files: log records, segment
//! headers, the snapshot, and the manifest.
//!
//! Every `encode` here produces a *payload* — the caller wraps it in a
//! [`crate::format::frame`].  Every `decode` takes the file path purely
//! for error context, so corruption reports name the offending file.

use std::path::Path;

use ids_deps::FdSet;
use ids_relational::codec::{Decoder, Encoder};
use ids_relational::{DatabaseSchema, DatabaseState, RelationalError, Value};

use crate::format::{FORMAT_VERSION, MANIFEST_MAGIC, SEGMENT_MAGIC, SNAPSHOT_MAGIC};
use crate::{corrupt, WalError};

/// One logged state change of a single relation.
///
/// Only *effective* operations are logged — accepted inserts and
/// removes of present tuples.  Rejected and duplicate operations change
/// no state and therefore never reach the log; replaying a log through
/// the normal probe/commit path must re-accept every record, which is
/// how recovery doubles as an integrity check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalOp {
    /// An accepted insert of a tuple (canonical scheme order).
    Insert(Vec<Value>),
    /// A remove of a tuple that was present.
    Remove(Vec<Value>),
}

impl WalOp {
    /// The tuple the operation carries.
    pub fn tuple(&self) -> &[Value] {
        match self {
            WalOp::Insert(t) | WalOp::Remove(t) => t,
        }
    }
}

/// One record of a relation's log: a per-relation sequence number, the
/// operation, and the names of the values it is the first in its
/// segment to use.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Per-relation sequence number; contiguous from the segment
    /// header's `start_seq`, `1`-based over the relation's lifetime.
    pub seq: u64,
    /// The state change.
    pub op: WalOp,
    /// `(value, name)` for each pool value of the tuple no earlier
    /// record of the segment defined — what makes a segment readable on
    /// its own.  Empty for most records.
    pub defs: Vec<(Value, String)>,
}

const KIND_INSERT: u8 = 0;
const KIND_REMOVE: u8 = 1;
/// The two kinds above, followed by definitions.
const KIND_INSERT_DEFINING: u8 = 2;
const KIND_REMOVE_DEFINING: u8 = 3;

impl WalRecord {
    /// Encodes the record payload:
    /// `[seq u64][kind u8][arity u16][values u64 × arity]`, then, for
    /// the defining kinds (a record with `defs`), the definitions
    /// `[n u32][(value u64, name str) × n]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u64(self.seq);
        let (kind, tuple) = match &self.op {
            WalOp::Insert(t) => (KIND_INSERT, t),
            WalOp::Remove(t) => (KIND_REMOVE, t),
        };
        let defining = !self.defs.is_empty();
        e.put_u8(if defining {
            kind + KIND_INSERT_DEFINING
        } else {
            kind
        });
        e.put_u16(tuple.len() as u16);
        for v in tuple {
            e.put_u64(v.0);
        }
        if defining {
            put_defs(&mut e, &self.defs);
        }
        e.into_bytes()
    }

    /// Decodes a record payload; `path` is error context only.
    pub fn decode(path: &Path, payload: &[u8]) -> Result<Self, WalError> {
        let mut d = Decoder::new(payload);
        let inner = (|| -> Result<WalRecord, RelationalError> {
            let seq = d.get_u64()?;
            let kind = d.get_u8()?;
            let arity = d.get_u16()? as usize;
            let mut tuple = Vec::with_capacity(arity);
            for _ in 0..arity {
                tuple.push(Value(d.get_u64()?));
            }
            let op = match kind {
                KIND_INSERT | KIND_INSERT_DEFINING => WalOp::Insert(tuple),
                KIND_REMOVE | KIND_REMOVE_DEFINING => WalOp::Remove(tuple),
                _ => return Err(RelationalError::Codec("unknown record kind")),
            };
            let defs = if kind >= KIND_INSERT_DEFINING {
                get_defs(&mut d)?
            } else {
                Vec::new()
            };
            if !d.is_done() {
                return Err(RelationalError::Codec("trailing bytes in record"));
            }
            Ok(WalRecord { seq, op, defs })
        })();
        inner.map_err(|e| corrupt(path, format!("bad log record: {e}")))
    }
}

/// The header frame that opens every log segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Fingerprint of the manifest's schema + FDs (see [`fingerprint`]).
    pub fingerprint: u32,
    /// Index of the relation this segment logs.
    pub scheme: u16,
    /// Checkpoint generation the segment belongs to.
    pub gen: u64,
    /// Sequence number of the first record the segment may hold
    /// (`last durable seq + 1` at creation time).
    pub start_seq: u64,
}

impl SegmentHeader {
    /// Encodes the header payload:
    /// `[magic "IDSW"][version u16][fingerprint u32][scheme u16][gen u64][start_seq u64]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        for b in SEGMENT_MAGIC {
            e.put_u8(b);
        }
        e.put_u16(FORMAT_VERSION);
        e.put_u32(self.fingerprint);
        e.put_u16(self.scheme);
        e.put_u64(self.gen);
        e.put_u64(self.start_seq);
        e.into_bytes()
    }

    /// Decodes a header payload; `path` is error context only.
    pub fn decode(path: &Path, payload: &[u8]) -> Result<Self, WalError> {
        let mut d = Decoder::new(payload);
        check_magic_version(path, &mut d, SEGMENT_MAGIC, "segment")?;
        let inner = (|| -> Result<SegmentHeader, RelationalError> {
            let fingerprint = d.get_u32()?;
            let scheme = d.get_u16()?;
            let gen = d.get_u64()?;
            let start_seq = d.get_u64()?;
            if !d.is_done() {
                return Err(RelationalError::Codec("trailing bytes in segment header"));
            }
            Ok(SegmentHeader {
                fingerprint,
                scheme,
                gen,
                start_seq,
            })
        })();
        inner.map_err(|e| corrupt(path, format!("bad segment header: {e}")))
    }
}

/// The checkpointed state: everything recovery needs besides the log
/// tails.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Fingerprint of the manifest's schema + FDs.
    pub fingerprint: u32,
    /// Highest generation whose segments this snapshot covers; replay
    /// skips them and pruning deletes them.
    pub covered_gen: u64,
    /// Per-relation last sequence number folded into `state`.
    pub last_seqs: Vec<u64>,
    /// The checkpointed database state.
    pub state: DatabaseState,
    /// `(value, name)` for every name of the value pool.
    pub names: Vec<(Value, String)>,
    /// The first value id the pool had not handed out.
    pub next_id: u64,
}

impl Snapshot {
    /// Encodes the snapshot payload:
    /// `[magic "IDSS"][version u16][fingerprint u32][covered_gen u64]`
    /// `[k u16][last_seqs u64 × k][state]`, then — unless there are no
    /// names and `next_id` is 0 — `[next_id u64][n u32][(value u64,
    /// name str) × n]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        for b in SNAPSHOT_MAGIC {
            e.put_u8(b);
        }
        e.put_u16(FORMAT_VERSION);
        e.put_u32(self.fingerprint);
        e.put_u64(self.covered_gen);
        e.put_u16(self.last_seqs.len() as u16);
        for s in &self.last_seqs {
            e.put_u64(*s);
        }
        self.state.encode(&mut e);
        if !self.names.is_empty() || self.next_id != 0 {
            e.put_u64(self.next_id);
            put_defs(&mut e, &self.names);
        }
        e.into_bytes()
    }

    /// Reads just the covered generation out of a snapshot payload —
    /// the field recovery needs *before* it can pick the right schema
    /// (the manifest governing `covered_gen + 1`) to decode the rest
    /// under.  Verifies magic, version, and fingerprint on the way.
    pub(crate) fn peek_covered_gen(
        path: &Path,
        payload: &[u8],
        fingerprint: u32,
    ) -> Result<u64, WalError> {
        let mut d = Decoder::new(payload);
        check_magic_version(path, &mut d, SNAPSHOT_MAGIC, "snapshot")?;
        let inner =
            (|| -> Result<(u32, u64), RelationalError> { Ok((d.get_u32()?, d.get_u64()?)) })();
        let (fp, covered) = inner.map_err(|e| corrupt(path, format!("bad snapshot: {e}")))?;
        if fp != fingerprint {
            return Err(WalError::SchemaMismatch {
                detail: "schema/FD set (snapshot fingerprint)",
            });
        }
        Ok(covered)
    }

    /// Decodes a snapshot payload against its schema.
    pub fn decode(path: &Path, payload: &[u8], schema: &DatabaseSchema) -> Result<Self, WalError> {
        let mut d = Decoder::new(payload);
        check_magic_version(path, &mut d, SNAPSHOT_MAGIC, "snapshot")?;
        let inner = (|| -> Result<Snapshot, RelationalError> {
            let fingerprint = d.get_u32()?;
            let covered_gen = d.get_u64()?;
            let k = d.get_u16()? as usize;
            if k != schema.len() {
                return Err(RelationalError::Codec("snapshot relation count"));
            }
            let mut last_seqs = Vec::with_capacity(k);
            for _ in 0..k {
                last_seqs.push(d.get_u64()?);
            }
            let state = DatabaseState::decode(&mut d, schema)?;
            let (next_id, names) = if d.is_done() {
                (0, Vec::new())
            } else {
                (d.get_u64()?, get_defs(&mut d)?)
            };
            if !d.is_done() {
                return Err(RelationalError::Codec("trailing bytes in snapshot"));
            }
            Ok(Snapshot {
                fingerprint,
                covered_gen,
                last_seqs,
                state,
                names,
                next_id,
            })
        })();
        inner.map_err(|e| corrupt(path, format!("bad snapshot: {e}")))
    }
}

/// The immutable identity of a durable database: schema, dependencies,
/// and an opaque application blob (the `ids-api` layer stores its
/// declaration-order column layouts there).  Written once at creation.
#[derive(Clone, Debug)]
pub struct Manifest {
    /// The database schema the logs are written under.
    pub schema: DatabaseSchema,
    /// The declared dependencies `F`.
    pub fds: FdSet,
    /// Opaque bytes for the embedding application.
    pub app: Vec<u8>,
}

impl Manifest {
    /// Encodes the manifest payload:
    /// `[magic "IDSM"][version u16][schema][fds][app bytes]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        for b in MANIFEST_MAGIC {
            e.put_u8(b);
        }
        e.put_u16(FORMAT_VERSION);
        self.schema.encode(&mut e);
        self.fds.encode(&mut e);
        e.put_bytes(&self.app);
        e.into_bytes()
    }

    /// Decodes a manifest payload; `path` is error context only.
    pub fn decode(path: &Path, payload: &[u8]) -> Result<Self, WalError> {
        let mut d = Decoder::new(payload);
        check_magic_version(path, &mut d, MANIFEST_MAGIC, "manifest")?;
        let inner = (|| -> Result<Manifest, RelationalError> {
            let schema = DatabaseSchema::decode(&mut d)?;
            let fds = FdSet::decode(&mut d)?;
            let app = d.get_bytes()?;
            if !d.is_done() {
                return Err(RelationalError::Codec("trailing bytes in manifest"));
            }
            Ok(Manifest { schema, fds, app })
        })();
        inner.map_err(|e| corrupt(path, format!("bad manifest: {e}")))
    }

    /// The fingerprint of this manifest's identity.
    pub fn fingerprint(&self) -> u32 {
        fingerprint(&self.schema, &self.fds)
    }
}

/// The 32-bit identity every segment and snapshot carries: a
/// CRC over the canonically encoded schema and the *sorted* FD list
/// (so two textually reordered but identical FD sets agree).  Cheap and
/// collision-tolerant by design — the fingerprint is a fast first gate;
/// [`WalDir::open`](crate::WalDir::open) compares the decoded manifest
/// structurally before any replay.
pub fn fingerprint(schema: &DatabaseSchema, fds: &FdSet) -> u32 {
    let mut e = Encoder::new();
    schema.encode(&mut e);
    let mut sorted: Vec<_> = fds.iter().copied().collect();
    sorted.sort();
    e.put_u32(sorted.len() as u32);
    for fd in sorted {
        e.put_attr_set(fd.lhs);
        e.put_attr_set(fd.rhs);
    }
    crate::format::crc32(&e.into_bytes())
}

/// Writes value definitions: `[n u32][(value u64, name str) × n]`.
fn put_defs(e: &mut Encoder, defs: &[(Value, String)]) {
    e.put_u32(defs.len() as u32);
    for (v, name) in defs {
        e.put_u64(v.0);
        e.put_str(name);
    }
}

/// Reads what [`put_defs`] wrote.
fn get_defs(d: &mut Decoder<'_>) -> Result<Vec<(Value, String)>, RelationalError> {
    let n = d.get_u32()?;
    // Each definition takes at least 12 bytes; a count promising more
    // than remain is corruption, not a reason to allocate.
    let mut defs = Vec::with_capacity((n as usize).min(d.remaining() / 12));
    for _ in 0..n {
        defs.push((Value(d.get_u64()?), d.get_str()?));
    }
    Ok(defs)
}

/// Shared magic + version gate for the typed payload decoders.
pub(crate) fn check_magic_version(
    path: &Path,
    d: &mut Decoder<'_>,
    magic: [u8; 4],
    what: &str,
) -> Result<(), WalError> {
    let mut found = [0u8; 4];
    for b in &mut found {
        *b = d
            .get_u8()
            .map_err(|_| corrupt(path, format!("truncated {what} magic")))?;
    }
    if found != magic {
        return Err(corrupt(path, format!("bad {what} magic {found:?}")));
    }
    let version = d
        .get_u16()
        .map_err(|_| corrupt(path, format!("truncated {what} version")))?;
    if version != FORMAT_VERSION {
        return Err(WalError::UnsupportedVersion {
            path: path.to_path_buf(),
            found: version,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_relational::Universe;

    fn schema_and_fds() -> (DatabaseSchema, FdSet) {
        let u = Universe::from_names(["C", "T", "S"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("CT", "CT"), ("CS", "CS")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["C -> T"]).unwrap();
        (schema, fds)
    }

    #[test]
    fn record_round_trip_and_kind_guard() {
        let p = Path::new("test.log");
        for op in [
            WalOp::Insert(vec![Value(1), Value(2)]),
            WalOp::Remove(vec![Value(7)]),
            WalOp::Insert(vec![]),
        ] {
            let r = WalRecord {
                seq: 42,
                op,
                defs: Vec::new(),
            };
            let bytes = r.encode();
            assert_eq!(WalRecord::decode(p, &bytes).unwrap(), r);
        }
        let mut bytes = WalRecord {
            seq: 1,
            op: WalOp::Insert(vec![]),
            defs: Vec::new(),
        }
        .encode();
        bytes[8] = 9; // unknown kind
        assert!(matches!(
            WalRecord::decode(p, &bytes),
            Err(WalError::Corrupt { .. })
        ));
    }

    /// A record that defines values is its plain layout, kind + 2,
    /// followed by `[n u32][(value u64, name str) × n]`.
    #[test]
    fn defining_records_append_their_definitions() {
        let p = Path::new("test.log");
        for (op, kind) in [
            (WalOp::Insert(vec![Value(5), Value(7)]), 2),
            (WalOp::Remove(vec![Value(5), Value(7)]), 3),
        ] {
            let plain = WalRecord {
                seq: 3,
                op,
                defs: Vec::new(),
            };
            let r = WalRecord {
                defs: vec![(Value(7), "Jones".into())],
                ..plain.clone()
            };
            let bytes = r.encode();
            let mut expected = plain.encode();
            expected[8] = kind;
            expected.extend_from_slice(&1u32.to_le_bytes());
            expected.extend_from_slice(&7u64.to_le_bytes());
            expected.extend_from_slice(&5u32.to_le_bytes());
            expected.extend_from_slice(b"Jones");
            assert_eq!(bytes, expected);
            assert_eq!(WalRecord::decode(p, &bytes).unwrap(), r);
            assert!(matches!(
                WalRecord::decode(p, &bytes[..bytes.len() - 1]),
                Err(WalError::Corrupt { .. })
            ));
        }
    }

    #[test]
    fn header_snapshot_manifest_round_trip() {
        let p = Path::new("x");
        let (schema, fds) = schema_and_fds();
        let h = SegmentHeader {
            fingerprint: fingerprint(&schema, &fds),
            scheme: 1,
            gen: 3,
            start_seq: 17,
        };
        assert_eq!(SegmentHeader::decode(p, &h.encode()).unwrap(), h);

        let mut state = DatabaseState::empty(&schema);
        state
            .insert(ids_relational::SchemeId(0), vec![Value(1), Value(2)])
            .unwrap();
        let mut snap = Snapshot {
            fingerprint: h.fingerprint,
            covered_gen: 2,
            last_seqs: vec![5, 0],
            state,
            names: Vec::new(),
            next_id: 0,
        };
        let bytes = snap.encode();
        let back = Snapshot::decode(p, &bytes, &schema).unwrap();
        assert_eq!(back.covered_gen, 2);
        assert_eq!(back.last_seqs, vec![5, 0]);
        assert_eq!(back.state.total_tuples(), 1);
        assert_eq!((back.names, back.next_id), (Vec::new(), 0));
        // The names section follows the state, so a snapshot without one
        // is its exact prefix.
        snap.names = vec![(Value(1), "Jones".into()), (Value(2), String::new())];
        snap.next_id = 9;
        let named = snap.encode();
        assert_eq!(named[..bytes.len()], bytes[..]);
        let back = Snapshot::decode(p, &named, &schema).unwrap();
        assert_eq!((back.names, back.next_id), (snap.names, 9));

        let m = Manifest {
            schema: schema.clone(),
            fds: fds.clone(),
            app: vec![1, 2, 3],
        };
        let back = Manifest::decode(p, &m.encode()).unwrap();
        assert_eq!(back.schema, schema);
        assert!(back.fds.same_fds(&fds));
        assert_eq!(back.app, vec![1, 2, 3]);
    }

    #[test]
    fn fingerprint_ignores_fd_order_but_not_content() {
        let (schema, _) = schema_and_fds();
        let a = FdSet::parse(schema.universe(), &["C -> T", "S -> C"]).unwrap();
        let b = FdSet::parse(schema.universe(), &["S -> C", "C -> T"]).unwrap();
        let c = FdSet::parse(schema.universe(), &["C -> T"]).unwrap();
        assert_eq!(fingerprint(&schema, &a), fingerprint(&schema, &b));
        assert_ne!(fingerprint(&schema, &a), fingerprint(&schema, &c));
    }

    #[test]
    fn version_gate_is_typed() {
        let p = Path::new("v");
        let (schema, fds) = schema_and_fds();
        let mut bytes = Manifest {
            schema,
            fds,
            app: Vec::new(),
        }
        .encode();
        bytes[4] = 0xFF; // version low byte
        assert!(matches!(
            Manifest::decode(p, &bytes),
            Err(WalError::UnsupportedVersion { .. })
        ));
    }
}
