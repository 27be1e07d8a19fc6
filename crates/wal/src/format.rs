//! The pinned on-disk building blocks: magics, the format version, the
//! CRC, and the frame.
//!
//! **This module is the format contract.**  The golden-file tests under
//! `tests/golden.rs` assert these layouts byte for byte; change anything
//! here and they fail loudly, which is the intended behavior — bump
//! [`FORMAT_VERSION`] and teach the readers both layouts instead.
//!
//! ## The frame
//!
//! Every self-contained payload on disk — manifest, snapshot, segment
//! header, each log record, each pool-log name — is wrapped in one
//! frame:
//!
//! ```text
//! offset  size  field
//! 0       4     payload length `n` (u32, little-endian)
//! 4       4     CRC-32 (IEEE, reflected) of the length bytes ‖ payload
//! 8       n     payload
//! ```
//!
//! The CRC covers the **length field too**, so a corrupted length that
//! still points inside the buffer is caught as corruption rather than
//! re-framing the log; lengths above [`MAX_FRAME_PAYLOAD`] are rejected
//! outright (no real payload is that large — only corruption is).
//!
//! Reading distinguishes four outcomes ([`FrameOutcome`]):
//!
//! * **Complete** — the full frame is present and the CRC matches;
//! * **Torn** — the buffer ends before the frame does (a crashed append
//!   or a truncated copy): replay stops cleanly *at the previous
//!   record*, which is exactly the acknowledged-and-synced prefix;
//! * **CrcMismatch** — the frame is fully present but its checksum
//!   lies: that is corruption, reported as a typed error, never treated
//!   as an end-of-log;
//! * **Oversize** — the length field exceeds [`MAX_FRAME_PAYLOAD`]:
//!   corruption of the length itself.
//!
//! One gray zone is unavoidable: if the **final** frame's length field
//! is corrupted to a value that stays under the bound but runs past the
//! end of the file, it is indistinguishable from a genuine torn write
//! (the checksum cannot be verified without the bytes the length claims).
//! Recovery prefers availability there and stops at the clean prefix —
//! the affected record is by construction the last of one relation's
//! log, and the cross-segment sequence-contiguity check still exposes
//! the loss as soon as a later segment exists.

use std::path::Path;

use crate::{corrupt, WalError};

/// Version written into every file header; readers refuse others.
pub const FORMAT_VERSION: u16 = 1;

/// Magic prefix of the `MANIFEST` payload.
pub const MANIFEST_MAGIC: [u8; 4] = *b"IDSM";

/// Magic prefix of a log-segment header payload.
pub const SEGMENT_MAGIC: [u8; 4] = *b"IDSW";

/// Magic prefix of the `snapshot.ids` payload.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"IDSS";

/// Magic prefix of the `pool.log` header payload.
pub const POOL_MAGIC: [u8; 4] = *b"IDSP";

/// Hard upper bound on a frame payload (64 MiB).  Far above any real
/// manifest, snapshot or record; a length field claiming more is
/// corruption of the length itself, not a big payload.
pub const MAX_FRAME_PAYLOAD: u32 = 64 << 20;

/// Bytes of the frame header, `[len: u32][crc: u32]`, before the payload.
pub const FRAME_HEADER_LEN: usize = 8;

/// The slice-by-8 tables: `CRC_TABLES[0]` is the classic bytewise table
/// (the CRC of one byte), and `CRC_TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes — so eight table lookups fold eight input
/// bytes at once.  Built at compile time; `static`, so the loop indexes
/// one copy instead of materialising a constant.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// Folds `data` into a running (pre-inverted) CRC: eight bytes per step
/// through [`CRC_TABLES`], then the bytewise tail.
fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC-32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF`) — the
/// checksum inside every frame.  Implemented here so the format has no
/// dependency to drift with.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0u32, data)
}

/// The frame checksum: CRC-32 over the little-endian length bytes
/// followed by the payload, without materializing the concatenation.
fn frame_crc(len_bytes: [u8; 4], payload: &[u8]) -> u32 {
    !crc32_update(crc32_update(!0u32, &len_bytes), payload)
}

/// Seals a frame built in place: `frame` is [`FRAME_HEADER_LEN`]
/// reserved bytes followed by the payload, and this writes the header —
/// the payload's length and the CRC over length and payload.  A writer
/// that encodes straight into its output buffer reserves the header,
/// appends the payload, and calls this on `&mut buf[start..]`; nothing
/// is copied.  The caller bounds the payload by [`MAX_FRAME_PAYLOAD`].
pub fn seal_frame(frame: &mut [u8]) {
    let (header, payload) = frame.split_at_mut(FRAME_HEADER_LEN);
    let len_bytes = (payload.len() as u32).to_le_bytes();
    header[..4].copy_from_slice(&len_bytes);
    header[4..].copy_from_slice(&frame_crc(len_bytes, payload).to_le_bytes());
}

/// Wraps a payload in a frame: `[len][crc(len ‖ payload)][payload]` —
/// one copy of the payload, then [`seal_frame`].
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    out.extend_from_slice(payload);
    seal_frame(&mut out);
    out
}

/// What [`read_frame`] found at the head of a buffer.
#[derive(Debug)]
pub enum FrameOutcome<'a> {
    /// A complete, checksum-valid frame, and the bytes after it.
    Complete {
        /// The frame's payload.
        payload: &'a [u8],
        /// Everything after the frame.
        rest: &'a [u8],
    },
    /// The buffer ends mid-frame: a torn write.  Not an error.
    Torn,
    /// The frame is fully present but its CRC does not match: data
    /// corruption.
    CrcMismatch,
    /// The length field exceeds [`MAX_FRAME_PAYLOAD`]: corruption of
    /// the length itself.
    Oversize,
}

/// Reads the frame at the head of `buf`.
pub fn read_frame(buf: &[u8]) -> FrameOutcome<'_> {
    if buf.len() < 8 {
        return FrameOutcome::Torn;
    }
    let len_bytes: [u8; 4] = buf[0..4].try_into().unwrap();
    let len = u32::from_le_bytes(len_bytes);
    let crc = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    if len > MAX_FRAME_PAYLOAD {
        return FrameOutcome::Oversize;
    }
    let len = len as usize;
    if buf.len() - 8 < len {
        return FrameOutcome::Torn;
    }
    let payload = &buf[8..8 + len];
    if frame_crc(len_bytes, payload) != crc {
        return FrameOutcome::CrcMismatch;
    }
    FrameOutcome::Complete {
        payload,
        rest: &buf[8 + len..],
    }
}

/// A complete frame's payload and the bytes after the frame.
pub(crate) type Split<'a> = (&'a [u8], &'a [u8]);

/// [`read_frame`] as every reader in this crate takes it: a complete
/// frame is `Some((payload, rest))`, a torn one `None`, and a lying
/// checksum or length a typed [`WalError::Corrupt`] naming `what`.
pub(crate) fn next_frame<'a>(
    path: &Path,
    buf: &'a [u8],
    what: &str,
) -> Result<Option<Split<'a>>, WalError> {
    match read_frame(buf) {
        FrameOutcome::Complete { payload, rest } => Ok(Some((payload, rest))),
        FrameOutcome::Torn => Ok(None),
        FrameOutcome::CrcMismatch => Err(corrupt(path, format!("{what} checksum mismatch"))),
        FrameOutcome::Oversize => Err(corrupt(path, format!("{what} length corrupted"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The one-table, one-byte-per-step CRC the slice-by-8 loop replaces.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    /// `len` bytes of splitmix64 output from `seed`.
    fn seeded_bytes(mut seed: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (seed ^ (seed >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    #[test]
    fn slice_by_8_agrees_with_the_bytewise_crc() {
        // Every length 0..=64 at every start offset 0..8: the eight-byte
        // steps, the tail, and a step straddling any alignment.
        let buf = seeded_bytes(7, 64 + 8);
        for start in 0..8 {
            for len in 0..=64 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "len {len} at {start}");
            }
        }
        let big = seeded_bytes(0x1D5, 1 << 20);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
        // A running CRC may be split anywhere, as `frame_crc` splits it.
        let split = !crc32_update(crc32_update(!0, &big[..1001]), &big[1001..]);
        assert_eq!(split, crc32(&big));
    }

    #[test]
    fn a_frame_sealed_in_place_equals_frame() {
        let mut buf = b"prefix".to_vec();
        let start = buf.len();
        buf.extend_from_slice(&[0; FRAME_HEADER_LEN]);
        buf.extend_from_slice(b"payload");
        seal_frame(&mut buf[start..]);
        assert_eq!(&buf[..start], b"prefix");
        assert_eq!(&buf[start..], &frame(b"payload")[..]);
    }

    #[test]
    fn frame_round_trip_and_torn_detection() {
        let f = frame(b"hello");
        match read_frame(&f) {
            FrameOutcome::Complete { payload, rest } => {
                assert_eq!(payload, b"hello");
                assert!(rest.is_empty());
            }
            other => panic!("expected complete frame, got {other:?}"),
        }
        // Every strict prefix is torn, never corrupt: truncation at an
        // arbitrary byte offset must always read as a clean end-of-log.
        for cut in 0..f.len() {
            assert!(
                matches!(read_frame(&f[..cut]), FrameOutcome::Torn),
                "cut at {cut} should be torn"
            );
        }
    }

    #[test]
    fn bit_flip_is_corruption_not_truncation() {
        let mut f = frame(b"payload");
        f[10] ^= 0x01;
        assert!(matches!(read_frame(&f), FrameOutcome::CrcMismatch));
    }

    #[test]
    fn corrupted_length_field_is_not_a_torn_write() {
        // Length flipped smaller: the frame is still in the buffer, the
        // length is covered by the CRC, so this is corruption.
        let mut f = frame(b"a longer payload than one byte");
        f[0] = 1;
        assert!(matches!(read_frame(&f), FrameOutcome::CrcMismatch));
        // Length flipped absurdly large: the bound catches it.
        let mut f = frame(b"x");
        f[3] = 0xFF;
        assert!(matches!(read_frame(&f), FrameOutcome::Oversize));
    }

    #[test]
    fn frames_concatenate() {
        let mut buf = frame(b"a");
        buf.extend_from_slice(&frame(b"bb"));
        let FrameOutcome::Complete { payload, rest } = read_frame(&buf) else {
            panic!("first frame");
        };
        assert_eq!(payload, b"a");
        let FrameOutcome::Complete { payload, rest } = read_frame(rest) else {
            panic!("second frame");
        };
        assert_eq!(payload, b"bb");
        assert!(rest.is_empty());
    }
}
