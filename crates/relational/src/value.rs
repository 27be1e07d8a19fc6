//! Domain values.

use std::fmt;
use std::hash::BuildHasher;

use crate::codec::{Decoder, Encoder};
use crate::error::RelationalError;
use crate::slot_table::SlotTable;

/// A domain value.
///
/// Values are opaque 64-bit identifiers; equality is all the relational
/// machinery ever needs.  Human-readable names can be attached through a
/// [`ValuePool`].  Algorithms that must invent fresh constants (witness
/// construction, chase padding) allocate from the top of the id space via
/// [`ValuePool::fresh`] or by keeping their own counter.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Value(pub u64);

impl Value {
    /// A small-integer constant (used heavily by the paper's witness
    /// constructions, which build states out of `0`s, `1`s and fresh
    /// integers).
    pub const fn int(n: u64) -> Self {
        Value(n)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An interner attaching names to [`Value`]s for presentation.
///
/// Named values are allocated from the bottom of the id space; anonymous
/// fresh values from the top, so the two never collide in practice.
///
/// Every name is stored **once**, in an arena: one `String` holding the
/// names concatenated in interning order, beside one end offset per
/// name, so value `n` names `arena[ends[n-1]..ends[n]]`.  Lookup by name
/// is a [`SlotTable`] of value ids hashed by the name's bytes and
/// compared through the arena.  Offsets are `u32`, so the arena holds at
/// most `u32::MAX` bytes of names; [`ValuePool::room_for`] says whether a
/// name still fits.
#[derive(Clone, Debug, Default)]
pub struct ValuePool {
    /// Every interned name, concatenated in interning order.
    arena: String,
    /// `ends[i]`: where name `i` ends in `arena` (it starts where name
    /// `i - 1` ends).
    ends: Vec<u32>,
    /// Value ids by name.
    by_name: SlotTable,
    next_fresh: u64,
}

/// Two pools are equal when they hold the same names under the same ids
/// and would hand out the same fresh values; the lookup table's layout
/// and hash keys are not compared.
impl PartialEq for ValuePool {
    fn eq(&self, other: &Self) -> bool {
        self.arena == other.arena && self.ends == other.ends && self.next_fresh == other.next_fresh
    }
}

impl Eq for ValuePool {}

impl ValuePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        ValuePool {
            next_fresh: u64::MAX,
            ..ValuePool::default()
        }
    }

    /// Interns a name, returning a stable value.
    ///
    /// # Panics
    ///
    /// When the name does not fit the arena (see [`ValuePool::room_for`]);
    /// a caller interning names from outside the program checks first.
    pub fn value(&mut self, name: impl AsRef<str>) -> Value {
        let name = name.as_ref();
        let hash = self.by_name.hasher().hash_one(name);
        if let Some(v) = self.find(hash, name) {
            return v;
        }
        let end = self
            .end_after(name)
            .expect("value pool arena full: check room_for before interning");
        let id = u32::try_from(self.ends.len()).expect("fewer names than arena bytes");
        self.arena.push_str(name);
        self.ends.push(end);
        self.by_name.insert(hash, id, ());
        Value(u64::from(id))
    }

    /// `Ok` when the arena has room for `name`'s bytes, which is all
    /// [`ValuePool::value`] needs to intern a name it has not seen;
    /// otherwise [`RelationalError::PoolFull`].
    pub fn room_for(&self, name: &str) -> Result<(), RelationalError> {
        self.end_after(name)
            .map(drop)
            .ok_or(RelationalError::PoolFull)
    }

    /// Returns an already-interned value by name.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.find(self.by_name.hasher().hash_one(name), name)
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no name is interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Bytes of interned names held in the arena.
    pub fn name_bytes(&self) -> usize {
        self.arena.len()
    }

    /// Allocates a fresh anonymous value, distinct from every value handed
    /// out so far.
    pub fn fresh(&mut self) -> Value {
        let v = Value(self.next_fresh);
        self.next_fresh -= 1;
        v
    }

    /// Serializes the pool: `u32` count + names in interning order,
    /// then the next-fresh counter.  Interning order *is* the value
    /// assignment, so decoding reproduces identical `Value` ids.
    pub fn encode(&self, e: &mut Encoder) {
        e.put_u32(self.ends.len() as u32);
        for (n, _) in self.iter() {
            e.put_str(n);
        }
        e.put_u64(self.next_fresh);
    }

    /// Deserializes a pool written by [`ValuePool::encode`].
    pub fn decode(d: &mut Decoder<'_>) -> Result<Self, RelationalError> {
        let n = d.get_u32()? as usize;
        let mut pool = ValuePool::new();
        for _ in 0..n {
            let name = d.get_str()?;
            if pool.get(&name).is_some() {
                return Err(RelationalError::Codec("duplicate name in value pool"));
            }
            if pool.end_after(&name).is_none() {
                return Err(RelationalError::Codec("value pool names exceed 4 GiB"));
            }
            pool.value(name);
        }
        pool.next_fresh = d.get_u64()?;
        Ok(pool)
    }

    /// Iterates the interned names with their values, in interning
    /// order.  Query planners use this to compile *string-level*
    /// comparisons (lexicographic ranges, prefix filters) into the
    /// explicit value sets shards understand: enumerate the pool once
    /// client-side, ship a compact `In` set down.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Value)> + '_ {
        (0..self.ends.len()).map(|i| (self.name_at(i), Value(i as u64)))
    }

    /// The interned name of a value, borrowed from the pool — `None` for
    /// a value that was never interned (a fresh value, or a raw id).
    pub fn name(&self, v: Value) -> Option<&str> {
        let i = usize::try_from(v.0).ok()?;
        (i < self.ends.len()).then(|| self.name_at(i))
    }

    /// Renders a value: its interned name when known, otherwise the raw
    /// id in decimal.
    pub fn render(&self, v: Value) -> String {
        self.name(v).map_or_else(|| v.0.to_string(), str::to_owned)
    }

    /// Name `i`, which must be below `self.ends.len()`.
    fn name_at(&self, i: usize) -> &str {
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p]);
        &self.arena[start as usize..self.ends[i] as usize]
    }

    /// The value of `name`, which hashes to `hash`, if interned.
    fn find(&self, hash: u64, name: &str) -> Option<Value> {
        let found = self
            .by_name
            .get(hash, |id| self.name_at(id as usize) == name);
        found.map(|(id, ())| Value(u64::from(id)))
    }

    /// Where `name` would end in the arena, if it fits a `u32` offset.
    fn end_after(&self, name: &str) -> Option<u32> {
        u32::try_from(self.arena.len().checked_add(name.len())?).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut p = ValuePool::new();
        let a = p.value("Smith");
        let b = p.value("Jones");
        assert_ne!(a, b);
        assert_eq!(p.value("Smith"), a);
        assert_eq!(p.render(a), "Smith");
        assert_eq!(p.get("Jones"), Some(b));
        assert_eq!(p.get("nobody"), None);
        // Names are sliced out of one arena: an empty name and multi-byte
        // characters keep their boundaries.
        let (empty, accented) = (p.value(""), p.value("Brontë"));
        assert_eq!(
            (p.name(empty), p.name(accented)),
            (Some(""), Some("Brontë"))
        );
        assert_eq!(p.get("Jones"), Some(b));
        assert_eq!((p.len(), p.name_bytes()), (4, "SmithJonesBrontë".len()));
        // Equality is by names, ids and fresh counter, not table layout.
        let mut q = ValuePool::new();
        for (name, _) in p.iter() {
            q.value(name);
        }
        assert_eq!(p, q);
    }

    #[test]
    fn fresh_values_are_distinct_from_named() {
        let mut p = ValuePool::new();
        let named = p.value("x");
        let f1 = p.fresh();
        let f2 = p.fresh();
        assert_ne!(f1, f2);
        assert_ne!(f1, named);
        assert_eq!(p.render(f1), format!("{}", f1.0));
        assert_eq!(p.name(named), Some("x"));
        assert_eq!(p.name(f1), None);
        assert_eq!(p.name(Value(1)), None, "one past the last interned name");
    }
}
