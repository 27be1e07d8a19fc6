//! A tiny append-only string log: a shim kept only for the pinned
//! benchmark probe, which times [`NameLog::append`] on a bare file.  The
//! product no longer writes it: a relation's log carries the names its
//! records use ([`crate::WalRecord::defs`]), and [`crate::WalDir::open`]
//! refuses a directory that still holds a `pool.log`.
//!
//! The log is framed like every other durability file: a header frame
//! (magic, version, fingerprint) followed by one frame per name,
//! replayed in append order.  A torn tail is a clean end.  Appends are
//! fsync'd unconditionally.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};

use ids_relational::codec::{Decoder, Encoder};

use crate::format::{frame, next_frame, FORMAT_VERSION, POOL_MAGIC};
use crate::records::check_magic_version;
use crate::{corrupt, io_err, WalError};

/// An append-only, fsync-per-name string log (see the module docs).
#[derive(Debug)]
pub struct NameLog {
    path: PathBuf,
    file: std::fs::File,
}

impl NameLog {
    /// Opens (or creates) the log at `path` and replays its names in
    /// append order, then truncates the torn tail it stopped at.
    /// `fingerprint` ties the log to its owner; a log carrying a
    /// different fingerprint is a typed [`WalError::SchemaMismatch`].
    pub fn open(path: &Path, fingerprint: u32) -> Result<(Self, Vec<String>), WalError> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err(path, e)),
        };
        let Some((header, mut rest)) = next_frame(path, &bytes, "pool header")? else {
            // Absent, or a crash during creation: start over.
            return Self::create(path, fingerprint).map(|l| (l, Vec::new()));
        };
        let mut d = Decoder::new(header);
        check_magic_version(path, &mut d, POOL_MAGIC, "pool")?;
        if d.get_u32().ok() != Some(fingerprint) {
            return Err(WalError::SchemaMismatch {
                detail: "schema/FD set (pool log fingerprint)",
            });
        }
        let mut names = Vec::new();
        while let Some((payload, r)) = next_frame(path, rest, "pool record")? {
            let name = Decoder::new(payload).get_str();
            names.push(name.map_err(|e| corrupt(path, format!("bad pool record: {e}")))?);
            rest = r;
        }
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        // Drop any torn tail so the next append starts on a frame
        // boundary.
        file.set_len((bytes.len() - rest.len()) as u64)
            .map_err(|e| io_err(path, e))?;
        let path = path.to_path_buf();
        Ok((NameLog { path, file }, names))
    }

    fn create(path: &Path, fingerprint: u32) -> Result<Self, WalError> {
        let mut e = Encoder::new();
        for b in POOL_MAGIC {
            e.put_u8(b);
        }
        e.put_u16(FORMAT_VERSION);
        e.put_u32(fingerprint);
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        file.write_all(&frame(&e.into_bytes()))
            .map_err(|e| io_err(path, e))?;
        file.sync_data().map_err(|e| io_err(path, e))?;
        // Persist the directory entry too, so a power loss cannot drop
        // the file its fsync'd names live in.
        if let Some(parent) = path.parent() {
            crate::dir::sync_dir(parent).map_err(|e| io_err(parent, e))?;
        }
        Ok(NameLog {
            path: path.to_path_buf(),
            file,
        })
    }

    /// Appends one name and fsyncs it.
    pub fn append(&mut self, name: &str) -> Result<(), WalError> {
        crate::check_frame_size(&self.path, name.len() + 4)?;
        let mut e = Encoder::new();
        e.put_str(name);
        self.file
            .write_all(&frame(&e.into_bytes()))
            .map_err(|e| io_err(&self.path, e))?;
        self.file.sync_data().map_err(|e| io_err(&self.path, e))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("ids-wal-namelog-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn names_replay_in_append_order() {
        let p = tmp("replay");
        {
            let (mut log, names) = NameLog::open(&p, 7).unwrap();
            assert!(names.is_empty());
            log.append("Jones").unwrap();
            log.append("").unwrap();
            log.append("日本語").unwrap();
        }
        let (_, names) = NameLog::open(&p, 7).unwrap();
        assert_eq!(
            names,
            vec!["Jones".to_string(), String::new(), "日本語".into()]
        );
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn torn_tail_is_dropped_and_appends_continue() {
        let p = tmp("torn");
        {
            let (mut log, _) = NameLog::open(&p, 7).unwrap();
            log.append("alpha").unwrap();
            log.append("beta").unwrap();
        }
        let len = std::fs::metadata(&p).unwrap().len();
        let bytes = std::fs::read(&p).unwrap();
        std::fs::write(&p, &bytes[..len as usize - 3]).unwrap();
        let (mut log, names) = NameLog::open(&p, 7).unwrap();
        assert_eq!(names, vec!["alpha".to_string()]);
        log.append("gamma").unwrap();
        let (_, names) = NameLog::open(&p, 7).unwrap();
        assert_eq!(names, vec!["alpha".to_string(), "gamma".into()]);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn fingerprint_mismatch_and_corruption_are_typed() {
        let p = tmp("fp");
        {
            let (mut log, _) = NameLog::open(&p, 7).unwrap();
            log.append("x").unwrap();
        }
        assert!(matches!(
            NameLog::open(&p, 8),
            Err(WalError::SchemaMismatch { .. })
        ));
        let mut bytes = std::fs::read(&p).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0x01;
        std::fs::write(&p, &bytes).unwrap();
        assert!(matches!(
            NameLog::open(&p, 7),
            Err(WalError::Corrupt { .. })
        ));
        let _ = std::fs::remove_file(&p);
    }
}
