//! Domain values.

use std::collections::HashMap;
use std::fmt;

use crate::codec::{Decoder, Encoder};
use crate::error::RelationalError;

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
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ValuePool {
    names: Vec<String>,
    by_name: HashMap<String, Value>,
    next_fresh: u64,
}

impl ValuePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        ValuePool {
            names: Vec::new(),
            by_name: HashMap::new(),
            next_fresh: u64::MAX,
        }
    }

    /// Interns a name, returning a stable value.
    pub fn value(&mut self, name: impl AsRef<str>) -> Value {
        let name = name.as_ref();
        if let Some(v) = self.by_name.get(name) {
            return *v;
        }
        let v = Value(self.names.len() as u64);
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), v);
        v
    }

    /// Returns an already-interned value by name.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.by_name.get(name).copied()
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
        e.put_u32(self.names.len() as u32);
        for n in &self.names {
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
            if pool.by_name.contains_key(&name) {
                return Err(RelationalError::Codec("duplicate name in value pool"));
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
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), Value(i as u64)))
    }

    /// The interned name of a value, borrowed from the pool — `None` for
    /// a value that was never interned (a fresh value, or a raw id).
    pub fn name(&self, v: Value) -> Option<&str> {
        let i = usize::try_from(v.0).ok()?;
        self.names.get(i).map(String::as_str)
    }

    /// Renders a value: its interned name when known, otherwise the raw
    /// id in decimal.
    pub fn render(&self, v: Value) -> String {
        self.name(v).map_or_else(|| v.0.to_string(), str::to_owned)
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
