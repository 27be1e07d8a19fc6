//! Domain values.

use std::collections::BTreeMap;
use std::fmt;
use std::hash::BuildHasher;

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
///
/// A pool rebuilt from a log ([`ValuePool::define`]) learns names under
/// explicit ids, in any order.  An id below [`ValuePool::len`] that no
/// definition named is a **hole**: it renders as its decimal id, is
/// skipped by [`ValuePool::iter`], and is never handed out again.
#[derive(Clone, Debug, Default)]
pub struct ValuePool {
    /// Every interned name, concatenated in interning order.
    arena: String,
    /// `ends[i]`: where name `i` ends in `arena` (it starts where name
    /// `i - 1` ends).
    ends: Vec<u32>,
    /// Value ids by name.
    by_name: SlotTable,
    /// The names whose spans are empty: the empty name, and names
    /// defined after a higher id was (the arena only grows at its end).
    /// An empty span not listed here is a hole.
    late: BTreeMap<u32, Box<str>>,
    next_fresh: u64,
}

/// Two pools are equal when they hold the same names under the same ids
/// and would hand out the same fresh values; the lookup table's layout
/// and hash keys are not compared.
impl PartialEq for ValuePool {
    fn eq(&self, other: &Self) -> bool {
        self.arena == other.arena
            && self.ends == other.ends
            && self.late == other.late
            && self.next_fresh == other.next_fresh
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
        if name.is_empty() {
            self.late.insert(id, "".into());
        }
        self.arena.push_str(name);
        self.ends.push(end);
        self.by_name.insert(hash, id, ());
        Value(u64::from(id))
    }

    /// Names value `v` `name`, as a log that interned it elsewhere
    /// recorded — ids below `v` nobody named yet become holes.
    /// Idempotent; a definition that disagrees with the pool (`v` names
    /// another string, or `name` is another value) is
    /// [`RelationalError::NameConflict`], and a name the arena has no
    /// room for is [`RelationalError::PoolFull`].
    pub fn define(&mut self, v: Value, name: &str) -> Result<(), RelationalError> {
        let conflict = RelationalError::NameConflict(v.0);
        let hash = self.by_name.hasher().hash_one(name);
        if let Some(have) = self.find(hash, name) {
            return if have == v { Ok(()) } else { Err(conflict) };
        }
        let id = u32::try_from(v.0)
            .ok()
            .filter(|&id| id < u32::MAX)
            .ok_or(conflict.clone())?;
        let below = (id as usize) < self.ends.len();
        if below && self.name_at(id as usize).is_some() {
            // Only a hole may take a name below the end.
            return Err(conflict);
        }
        if !below {
            self.room_for(name)?;
            self.reserve(v.0);
            self.arena.push_str(name);
            self.ends.push(self.arena.len() as u32);
        }
        if below || name.is_empty() {
            self.late.insert(id, name.into());
        }
        self.by_name.insert(hash, id, ());
        Ok(())
    }

    /// Makes every id below `next` unavailable to [`ValuePool::value`]:
    /// those not handed out yet become holes.
    pub fn reserve(&mut self, next: u64) {
        let end = self.ends.last().copied().unwrap_or(0);
        let next = next.min(u64::from(u32::MAX)) as usize;
        self.ends.resize(self.ends.len().max(next), end);
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

    /// Number of ids handed out: the names, plus any holes below them.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no id has been handed out.
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

    /// Iterates the interned names with their values, in interning
    /// order.  Query planners use this to compile *string-level*
    /// comparisons (lexicographic ranges, prefix filters) into the
    /// explicit value sets shards understand: enumerate the pool once
    /// client-side, ship a compact `In` set down.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Value)> + '_ {
        (0..self.ends.len()).filter_map(|i| Some((self.name_at(i)?, Value(i as u64))))
    }

    /// The interned name of a value, borrowed from the pool — `None` for
    /// a value that was never interned (a fresh value, a raw id, or a
    /// hole).
    pub fn name(&self, v: Value) -> Option<&str> {
        let i = usize::try_from(v.0).ok()?;
        (i < self.ends.len()).then(|| self.name_at(i)).flatten()
    }

    /// Renders a value: its interned name when known, otherwise the raw
    /// id in decimal.
    pub fn render(&self, v: Value) -> String {
        self.name(v).map_or_else(|| v.0.to_string(), str::to_owned)
    }

    /// Name `i`, which must be below `self.ends.len()`; `None` for a
    /// hole.
    fn name_at(&self, i: usize) -> Option<&str> {
        let (start, end) = (i.checked_sub(1).map_or(0, |p| self.ends[p]), self.ends[i]);
        if start == end {
            // A hole, the empty name, or a name defined late.
            return self.late.get(&(i as u32)).map(|name| &**name);
        }
        Some(&self.arena[start as usize..end as usize])
    }

    /// The value of `name`, which hashes to `hash`, if interned.
    fn find(&self, hash: u64, name: &str) -> Option<Value> {
        let found = self
            .by_name
            .get(hash, |id| self.name_at(id as usize) == Some(name));
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

    #[test]
    fn explicit_ids_leave_holes_that_are_never_reissued() {
        let mut p = ValuePool::new();
        // Defined out of order, as two relations' logs deliver them.
        p.define(Value(3), "c").unwrap();
        p.define(Value(1), "a").unwrap();
        p.define(Value(1), "a").unwrap(); // idempotent
        assert_eq!(p.len(), 4);
        assert_eq!((p.name(Value(1)), p.name(Value(3))), (Some("a"), Some("c")));
        assert_eq!((p.get("a"), p.get("c")), (Some(Value(1)), Some(Value(3))));
        // Ids 0 and 2 are holes: decimal, skipped, never handed out.
        assert_eq!(
            (p.name(Value(0)), p.render(Value(2))),
            (None, "2".to_string())
        );
        assert_eq!(
            p.iter().collect::<Vec<_>>(),
            vec![("a", Value(1)), ("c", Value(3))]
        );
        assert_eq!(p.value("d"), Value(4));
        p.reserve(7);
        assert_eq!(
            (p.value("e"), p.render(Value(6))),
            (Value(7), "6".to_string())
        );
        // A hole still takes its name, the empty one included.
        p.define(Value(2), "").unwrap();
        assert_eq!((p.name(Value(2)), p.get("")), (Some(""), Some(Value(2))));
        // Disagreeing redefinitions are refused and change nothing.
        let before = p.clone();
        for (v, name) in [(1, "z"), (8, "a"), (4, "c"), (u64::MAX, "far")] {
            assert_eq!(
                p.define(Value(v), name),
                Err(RelationalError::NameConflict(v))
            );
        }
        assert_eq!(p, before);
    }
}
