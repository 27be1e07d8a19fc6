//! [`Chunked`]: fixed-width records in fixed-size chunks.
//!
//! A relation's slab, an ordered index's slot links and the value pool's
//! names and offsets each grow by one record per row.  Held in one
//! doubling `Vec`, such an array reserves up to twice what it holds, and
//! every doubling copies all of it in one step.  A `Chunked` array keeps
//! its records in chunks of [`CHUNK_BYTES`] instead, the way a storage
//! engine allocates fixed-size pages: only the last chunk grows, the
//! first by doubling up to one chunk (so a small array holds what a
//! `Vec` would) and every later one allocated whole.  A large array
//! wastes at most one chunk, the largest single copy is one chunk, and a
//! chunk after the first never moves.
//!
//! A chunk holds a power-of-two count of records, so record `i` lives in
//! chunk `i >> shift` at position `i & mask`, and no record straddles
//! two chunks.

use std::ops::{Index, IndexMut, Range};

/// The byte size of a full chunk; a chunk holds the largest power-of-two
/// count of records that fits (at least one).
pub const CHUNK_BYTES: usize = 128 << 10;

/// Elements of the first allocation of the first chunk.
const MIN_ELEMS: usize = 4;

/// An array of records of `width` elements each, grown at its end and
/// stored in chunks of [`CHUNK_BYTES`].  Record `i` is the slice
/// `chunked[i]`.
///
/// [`Chunked::push`] appends one record.  `Chunked::push_run` appends a
/// run of whole records, and starts the next chunk first when the run
/// would straddle a chunk boundary; the records it skips are
/// **padding**: counted by [`Chunked::len`], never stored, and never to
/// be read.  A single record never pads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Chunked<T> {
    /// Every chunk but the last holds its full `width << shift` elements,
    /// less any padding at its end.
    chunks: Vec<Vec<T>>,
    /// Elements per record.
    width: usize,
    /// Log2 of the records per chunk.
    shift: u32,
    /// Records, padding included.
    len: usize,
}

/// One element per record.
impl<T> Default for Chunked<T> {
    fn default() -> Self {
        Chunked::new(1)
    }
}

impl<T> Chunked<T> {
    /// An empty array of records of `width` elements.
    pub fn new(width: usize) -> Self {
        let record = (width * size_of::<T>()).max(1);
        let per_chunk = (CHUNK_BYTES / record).max(1);
        Chunked {
            chunks: Vec::new(),
            width,
            shift: per_chunk.ilog2(),
            len: 0,
        }
    }

    /// Records held, padding included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no record is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Elements stored: padding is not.
    pub fn stored(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    /// Records per chunk.
    pub fn per_chunk(&self) -> usize {
        1 << self.shift
    }

    /// The first record of the chunk holding record `i`.
    pub(crate) fn chunk_start(&self, i: usize) -> usize {
        i >> self.shift << self.shift
    }

    /// Where [`Chunked::push_run`] would put a run of `records` records:
    /// [`Chunked::len`], or the start of the next chunk when the run would
    /// straddle a boundary.
    pub(crate) fn next_start(&self, records: usize) -> usize {
        let room = self.per_chunk() - (self.len & (self.per_chunk() - 1));
        if records > room && room < self.per_chunk() {
            self.len + room
        } else {
            self.len
        }
    }

    /// The records `range`, which must lie in one chunk, as one slice.
    pub fn run(&self, range: Range<usize>) -> &[T] {
        debug_assert!(range.start <= range.end && range.end <= self.len);
        let at = (range.start & (self.per_chunk() - 1)) * self.width;
        let elems = (range.end - range.start) * self.width;
        &self.chunks[range.start >> self.shift][at..at + elems]
    }

    /// Drops every record.
    pub fn clear(&mut self) {
        self.chunks.clear();
        self.len = 0;
    }

    /// Keeps the first `len` records, dropping every chunk past them.  The
    /// kept records must not end in padding.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        let chunks = len.div_ceil(self.per_chunk());
        self.chunks.truncate(chunks);
        if let Some(last) = self.chunks.last_mut() {
            last.truncate((len - ((chunks - 1) << self.shift)) * self.width);
        }
        self.len = len;
    }
}

impl<T: Copy> Chunked<T> {
    /// Appends one record and returns its index.
    ///
    /// # Panics
    ///
    /// When `record` is not `width` elements.
    pub fn push(&mut self, record: &[T]) -> usize {
        assert_eq!(record.len(), self.width, "a record of `width` elements");
        let full = self.width << self.shift;
        match self.chunks.last_mut() {
            // The common case: the last chunk has room, and its allocation
            // too.  No padding, no growth, no division by the width.
            Some(last) if last.len() < full && last.len() + record.len() <= last.capacity() => {
                last.extend_from_slice(record);
                self.len += 1;
                self.len - 1
            }
            _ => self.push_run(record),
        }
    }

    /// Appends `run`, a whole number of records no more than a chunk holds,
    /// and returns the index of its first record.  A run that would
    /// straddle a chunk boundary starts the next chunk.
    ///
    /// # Panics
    ///
    /// When `run` is not one or more whole records, or is longer than a
    /// chunk.
    pub(crate) fn push_run(&mut self, run: &[T]) -> usize {
        // A zero-width run is one record.
        let records = run.len().checked_div(self.width).unwrap_or(1);
        assert!(
            records > 0 && records * self.width == run.len(),
            "a run of whole records"
        );
        assert!(records <= self.per_chunk(), "a run longer than a chunk");
        let start = self.next_start(records);
        let full = self.width << self.shift;
        if start & (self.per_chunk() - 1) == 0 {
            // The first chunk starts small and doubles; later ones are
            // allocated whole.
            let elems = if self.chunks.is_empty() { 0 } else { full };
            self.chunks.push(Vec::with_capacity(elems));
        }
        let last = self.chunks.last_mut().expect("a chunk to append to");
        if last.len() + run.len() > last.capacity() {
            let want = (last.capacity() * 2)
                .max(last.len() + run.len())
                .max(MIN_ELEMS)
                .min(full);
            last.reserve_exact(want - last.len());
        }
        last.extend_from_slice(run);
        self.len = start + records;
        start
    }

    /// Copies record `from` over record `to`, an earlier one: the step
    /// of a compaction that moves survivors toward the front.
    pub(crate) fn copy_back(&mut self, from: usize, to: usize) {
        debug_assert!(to <= from && from < self.len);
        let w = self.width;
        let mask = self.per_chunk() - 1;
        let (src, dst) = ((from & mask) * w, (to & mask) * w);
        let (from_chunk, to_chunk) = (from >> self.shift, to >> self.shift);
        if from_chunk == to_chunk {
            self.chunks[to_chunk].copy_within(src..src + w, dst);
        } else {
            let (front, back) = self.chunks.split_at_mut(from_chunk);
            front[to_chunk][dst..dst + w].copy_from_slice(&back[0][src..src + w]);
        }
    }
}

/// Record `i`, its `width` elements.
impl<T> Index<usize> for Chunked<T> {
    type Output = [T];

    fn index(&self, i: usize) -> &[T] {
        debug_assert!(i < self.len);
        let at = (i & (self.per_chunk() - 1)) * self.width;
        &self.chunks[i >> self.shift][at..at + self.width]
    }
}

impl<T> IndexMut<usize> for Chunked<T> {
    fn index_mut(&mut self, i: usize) -> &mut [T] {
        debug_assert!(i < self.len);
        let at = (i & (self.per_chunk() - 1)) * self.width;
        &mut self.chunks[i >> self.shift][at..at + self.width]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_cross_chunks_in_place() {
        // 3 × 8 bytes: 5461 records fit a chunk, so a chunk holds 4096.
        let mut c: Chunked<u64> = Chunked::new(3);
        assert_eq!(c.per_chunk(), 4096);
        let n = 3 * 4096 + 5;
        for i in 0..n as u64 {
            assert_eq!(c.push(&[i, i + 1, i + 2]), i as usize);
        }
        assert_eq!(c.len(), n);
        for i in [0, 4095, 4096, 8191, 8192, n - 1] {
            assert_eq!(c[i], [i as u64, i as u64 + 1, i as u64 + 2]);
        }
        // Every chunk but the last is allocated exactly full.
        assert!(c.chunks[..3].iter().all(|k| k.capacity() == 3 * 4096));
        c[4096][1] = 7;
        assert_eq!(c[4096], [4096, 7, 4098]);
        // Compaction moves records back across chunk boundaries.
        c.copy_back(8193, 4095);
        c.copy_back(4097, 4096);
        assert_eq!((c[4095][0], c[4096][0]), (8193, 4097));
        c.truncate(4097);
        assert_eq!((c.len(), c.chunks.len(), c[4096][0]), (4097, 2, 4097));
        c.truncate(4096);
        assert_eq!((c.len(), c.chunks.len()), (4096, 1));
        assert_eq!(c.push(&[1, 2, 3]), 4096);
        c.clear();
        assert_eq!((c.len(), c.stored()), (0, 0));
    }

    #[test]
    fn the_first_chunk_doubles_like_a_vec() {
        let mut c: Chunked<u32> = Chunked::default();
        let mut caps = Vec::new();
        for i in 0..100 {
            c.push(&[i]);
            caps.push(c.chunks[0].capacity());
        }
        caps.dedup();
        assert_eq!(caps, [4, 8, 16, 32, 64, 128]);
    }

    #[test]
    fn a_run_that_would_straddle_starts_the_next_chunk() {
        let mut c: Chunked<u8> = Chunked::default();
        assert_eq!(c.per_chunk(), CHUNK_BYTES);
        let head = vec![1; CHUNK_BYTES - 3];
        assert_eq!(c.push_run(&head), 0);
        assert_eq!(c.next_start(3), CHUNK_BYTES - 3);
        assert_eq!(c.next_start(4), CHUNK_BYTES);
        assert_eq!(c.push_run(b"abcd"), CHUNK_BYTES);
        // The three padding records count but are not stored.
        assert_eq!((c.len(), c.stored()), (CHUNK_BYTES + 4, CHUNK_BYTES + 1));
        assert_eq!(c.run(CHUNK_BYTES..CHUNK_BYTES + 4), b"abcd");
        assert_eq!(c.chunk_start(CHUNK_BYTES + 3), CHUNK_BYTES);
        assert_eq!(c.chunk_start(CHUNK_BYTES - 1), 0);
        // A run exactly one chunk long fills one.
        assert_eq!(c.push_run(&vec![2; CHUNK_BYTES]), 2 * CHUNK_BYTES);
    }

    #[test]
    fn zero_width_records_hold_nothing() {
        let mut c: Chunked<u64> = Chunked::new(0);
        for i in 0..3 {
            assert_eq!(c.push(&[]), i);
        }
        assert_eq!((c.len(), c.stored(), c[2].len()), (3, 0, 0));
    }
}
