//! Compact binary (de)serialization of the relational substrate.
//!
//! The durability layer (`ids-wal`) persists schemas, states and value
//! pools; this module is the one place their byte layout is defined, so
//! the on-disk format of every higher layer is pinned by pinning these
//! encoders.  The encoding is deliberately primitive — fixed-width
//! little-endian integers, length-prefixed UTF-8 strings, no
//! self-description — because the WAL wraps every payload in its own
//! CRC-checked frame and stores format magic + version once per file.
//!
//! Conventions:
//!
//! * all integers are little-endian;
//! * `u32` length prefixes for strings, lists and byte blobs;
//! * attribute sets are `u16` count + ascending `u16` attribute ids
//!   (compact for the small sets schemas use, and canonical: two equal
//!   sets always encode to the same bytes);
//! * decoding is *total*: malformed input is a typed
//!   [`RelationalError::Codec`] error, never a panic — the decoders sit
//!   behind crash-recovery paths that must survive arbitrary bytes.

use crate::attr::AttrId;
use crate::attrset::{AttrSet, MAX_ATTRS};
use crate::error::RelationalError;

/// Appends fixed-width primitives to a growing byte buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An encoder that appends after the bytes already in `buf` — so a
    /// caller can encode into a buffer it reuses, then take it back with
    /// [`Encoder::into_bytes`].
    pub fn from_bytes(buf: Vec<u8>) -> Self {
        Encoder { buf }
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`-length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a `u32`-length-prefixed opaque byte blob.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    /// Appends an attribute set: `u16` count + ascending `u16` ids.
    pub fn put_attr_set(&mut self, set: AttrSet) {
        self.put_u16(set.len() as u16);
        for a in set {
            self.put_u16(a.0);
        }
    }
}

/// Reads fixed-width primitives back out of a byte slice.
///
/// Every read is bounds-checked; running past the end is a typed
/// [`RelationalError::Codec`] error.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Builds the uniform truncation error.
fn truncated() -> RelationalError {
    RelationalError::Codec("input truncated")
}

impl<'a> Decoder<'a> {
    /// Wraps a byte slice for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the whole input has been consumed — decoders of
    /// complete payloads should end with this check so trailing garbage
    /// is rejected rather than ignored.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], RelationalError> {
        if self.remaining() < n {
            return Err(truncated());
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a raw byte.
    pub fn get_u8(&mut self) -> Result<u8, RelationalError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, RelationalError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, RelationalError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, RelationalError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, RelationalError> {
        Ok(self.get_str_ref()?.to_owned())
    }

    /// [`Decoder::get_str`] in place: the string is borrowed from the
    /// input, not copied out of it.
    pub fn get_str_ref(&mut self) -> Result<&'a str, RelationalError> {
        let n = self.get_u32()? as usize;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes).map_err(|_| RelationalError::Codec("invalid UTF-8"))
    }

    /// Reads a `u32`-length-prefixed opaque byte blob.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, RelationalError> {
        let n = self.get_u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads an attribute set written by [`Encoder::put_attr_set`].
    pub fn get_attr_set(&mut self) -> Result<AttrSet, RelationalError> {
        let n = self.get_u16()? as usize;
        let mut set = AttrSet::new();
        for _ in 0..n {
            let id = self.get_u16()? as usize;
            if id >= MAX_ATTRS {
                return Err(RelationalError::Codec("attribute id out of range"));
            }
            if !set.insert(AttrId::from_index(id)) {
                return Err(RelationalError::Codec("duplicate attribute in set"));
            }
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u16(300);
        e.put_u32(70_000);
        e.put_u64(u64::MAX - 1);
        e.put_str("héllo");
        e.put_str("");
        e.put_bytes(&[1, 2, 3]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_u8().unwrap(), 7);
        assert_eq!(d.get_u16().unwrap(), 300);
        assert_eq!(d.get_u32().unwrap(), 70_000);
        assert_eq!(d.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.get_str().unwrap(), "héllo");
        assert_eq!(d.get_str().unwrap(), "");
        assert_eq!(d.get_bytes().unwrap(), vec![1, 2, 3]);
        assert!(d.is_done());
    }

    #[test]
    fn attr_sets_encode_canonically() {
        let mut a = AttrSet::new();
        a.insert(AttrId(5));
        a.insert(AttrId(1));
        let mut e1 = Encoder::new();
        e1.put_attr_set(a);
        let mut b = AttrSet::new();
        b.insert(AttrId(1));
        b.insert(AttrId(5));
        let mut e2 = Encoder::new();
        e2.put_attr_set(b);
        assert_eq!(e1.into_bytes(), e2.into_bytes());
    }

    #[test]
    fn truncation_and_garbage_are_typed_errors() {
        let mut e = Encoder::new();
        e.put_str("abc");
        let bytes = e.into_bytes();
        // Truncated mid-string.
        let mut d = Decoder::new(&bytes[..bytes.len() - 1]);
        assert!(matches!(d.get_str(), Err(RelationalError::Codec(_))));
        // Invalid UTF-8.
        let mut e = Encoder::new();
        e.put_bytes(&[0xff, 0xfe]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.get_str(), Err(RelationalError::Codec(_))));
        // Empty input.
        let mut d = Decoder::new(&[]);
        assert!(matches!(d.get_u64(), Err(RelationalError::Codec(_))));
        // Out-of-range attribute id.
        let mut e = Encoder::new();
        e.put_u16(1);
        e.put_u16(u16::MAX);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(
            d.get_attr_set(),
            Err(RelationalError::Codec("attribute id out of range"))
        ));
    }
}
