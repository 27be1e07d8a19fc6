//! A tiny append-only string log, used by the `ids-api` layer to make
//! its interning `ValuePool` durable.
//!
//! Interning order *is* the value assignment, so replaying the names in
//! append order reproduces identical `Value` ids.  The log is framed
//! like every other durability file: a header frame (magic, version,
//! fingerprint) followed by one frame per name.  A torn tail is a clean
//! end; a checksum-valid prefix is always a prefix of the appended
//! names.
//!
//! Appends are fsync'd unconditionally, regardless of the store's
//! [`crate::SyncPolicy`]: a name must be stable *before* any WAL record
//! referencing its value, otherwise a crash could re-assign the id to a
//! different string and silently alias stored tuples.  That is one
//! `sync_data` per *new* string, which is free only for a workload that
//! keeps reusing a warm vocabulary: a keyed workload brings a fresh
//! name with almost every insert (the benchmark's write mix reads
//! `wal.fsyncs_per_kop` 848.6), and there the name log, not the
//! relation's WAL, sets the durable write rate.  ROADMAP item 2
//! (self-defining relation logs) retires this file for that reason.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};

use ids_relational::codec::Encoder;

use crate::format::{frame, FORMAT_VERSION, POOL_MAGIC};
use crate::tail::{decode_name, NameTailer};
use crate::{io_err, WalError};

/// The durable name log backing a `ValuePool`.
#[derive(Debug)]
pub struct NameLog {
    path: PathBuf,
    file: std::fs::File,
}

impl NameLog {
    /// Opens (or creates) the log at `path` and replays its names in
    /// append order, through the [`NameTailer`] followers use, then
    /// truncates the torn tail it stopped at.  `fingerprint` ties the
    /// log to its database; a log carrying a different fingerprint is a
    /// typed [`WalError::SchemaMismatch`].
    pub fn open(path: &Path, fingerprint: u32) -> Result<(Self, Vec<String>), WalError> {
        let mut tailer = NameTailer::new(path, fingerprint, 0);
        let mut names = Vec::new();
        tailer.each_name(|path, payload| {
            names.push(decode_name(path, payload)?);
            Ok(())
        })?;
        if tailer.offset() == 0 {
            // Absent, or a crash during creation: nothing was ever
            // acknowledged against this log, start over.
            return Self::create(path, fingerprint).map(|l| (l, names));
        }
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        // Drop any torn tail so the next append starts on a frame
        // boundary.
        file.set_len(tailer.offset() as u64)
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
        // Persist the directory entry too: losing pool.log wholesale
        // after names were fsync'd into it would let recovery re-assign
        // their value ids to different strings.
        if let Some(parent) = path.parent() {
            crate::dir::sync_dir(parent);
        }
        Ok(NameLog {
            path: path.to_path_buf(),
            file,
        })
    }

    /// Appends one name and fsyncs it (see the module docs for why the
    /// sync is unconditional).
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
    fn fingerprint_mismatch_is_typed() {
        let p = tmp("fp");
        {
            let (mut log, _) = NameLog::open(&p, 7).unwrap();
            log.append("x").unwrap();
        }
        assert!(matches!(
            NameLog::open(&p, 8),
            Err(WalError::SchemaMismatch { .. })
        ));
        let _ = std::fs::remove_file(&p);
    }
}
