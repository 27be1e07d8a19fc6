//! Database states.

use crate::codec::{Decoder, Encoder};
use crate::error::RelationalError;
use crate::relation::{join_all, Relation};
use crate::scheme::{DatabaseSchema, SchemeId};
use crate::value::Value;

/// A state `p` of a database schema: one relation instance per scheme.
#[derive(Clone, Debug)]
pub struct DatabaseState {
    relations: Vec<Relation>,
}

impl DatabaseState {
    /// Creates the empty state of a schema.
    pub fn empty(schema: &DatabaseSchema) -> Self {
        DatabaseState {
            relations: schema
                .ids()
                .map(|id| Relation::new(schema.attrs(id)))
                .collect(),
        }
    }

    /// The state obtained by projecting a universal instance onto every
    /// scheme: `π_D(I)`.  Such a state is *join consistent* by construction.
    pub fn project_universal(schema: &DatabaseSchema, universal: &Relation) -> Self {
        debug_assert_eq!(universal.attrs(), schema.universe().all());
        DatabaseState {
            relations: schema
                .ids()
                .map(|id| universal.project(schema.attrs(id)))
                .collect(),
        }
    }

    /// Reassembles a state from per-scheme relation instances, in scheme
    /// order — the inverse of tearing a state apart across shards.
    /// Validates the count and each instance's attribute set.
    pub fn from_relations(
        schema: &DatabaseSchema,
        relations: Vec<Relation>,
    ) -> Result<Self, RelationalError> {
        if relations.len() != schema.len() {
            return Err(RelationalError::SchemaMismatch("schemas"));
        }
        for (id, rel) in schema.ids().zip(relations.iter()) {
            if rel.attrs() != schema.attrs(id) {
                return Err(RelationalError::SchemaMismatch("schemes"));
            }
        }
        Ok(DatabaseState { relations })
    }

    /// Tears the state apart into its per-scheme relation instances, in
    /// scheme order — the counterpart of [`DatabaseState::from_relations`]
    /// for handing each relation to its own shard.
    pub fn into_relations(self) -> Vec<Relation> {
        self.relations
    }

    /// Number of relations (= number of schemes).
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True when the state has no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(Relation::len).sum()
    }

    /// The instance assigned to a scheme.
    ///
    /// # Panics
    /// Panics when the id does not belong to this state's schema; use
    /// [`DatabaseState::get_relation`] at trust boundaries where the id
    /// comes from outside.
    pub fn relation(&self, id: SchemeId) -> &Relation {
        &self.relations[id.index()]
    }

    /// Mutable access to the instance assigned to a scheme.
    ///
    /// # Panics
    /// Panics when the id does not belong to this state's schema.
    pub fn relation_mut(&mut self, id: SchemeId) -> &mut Relation {
        &mut self.relations[id.index()]
    }

    /// The instance assigned to a scheme, or `None` when the id is out of
    /// range — the non-panicking lookup for ids that cross an API
    /// boundary.
    pub fn get_relation(&self, id: SchemeId) -> Option<&Relation> {
        self.relations.get(id.index())
    }

    /// Iterates over `(scheme id, instance)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SchemeId, &Relation)> {
        self.relations
            .iter()
            .enumerate()
            .map(|(i, r)| (SchemeId::from_index(i), r))
    }

    /// Inserts a tuple (scheme order) into the instance of `id`.
    pub fn insert(&mut self, id: SchemeId, tuple: Vec<Value>) -> Result<bool, RelationalError> {
        self.relations[id.index()].insert(tuple)
    }

    /// The join of the whole state, `*p = r1 ⋈ … ⋈ rk`.
    pub fn join(&self) -> Option<Relation> {
        join_all(self.relations.iter())
    }

    /// True when the state is *join consistent*: it is the set of
    /// projections of a single universal instance, i.e. `π_Ri(*p) = ri` for
    /// every `i`.
    pub fn is_join_consistent(&self) -> bool {
        let Some(j) = self.join() else {
            return true;
        };
        self.relations
            .iter()
            .all(|r| j.project(r.attrs()).set_eq(r))
    }

    /// The tuples of `relation(id)` that are *dangling*: lost in `*p`
    /// because they join with nothing.
    pub fn dangling_tuples(&self, id: SchemeId) -> Vec<Vec<Value>> {
        let Some(j) = self.join() else {
            return Vec::new();
        };
        let r = &self.relations[id.index()];
        let pj = j.project(r.attrs());
        r.iter()
            .filter(|t| !pj.contains(t))
            .map(|t| t.to_vec())
            .collect()
    }

    /// Serializes the state: `u16` relation count + per relation a
    /// `u32` tuple count and the tuples as raw `u64` values in scheme
    /// order.  Schemes themselves are *not* written — a state is only
    /// meaningful against its schema, which the decoder requires (and
    /// which durability layers persist separately, exactly once).
    pub fn encode(&self, e: &mut Encoder) {
        e.put_u16(self.relations.len() as u16);
        for rel in &self.relations {
            e.put_u32(rel.len() as u32);
            for t in rel.iter() {
                for v in t.iter() {
                    e.put_u64(v.0);
                }
            }
        }
    }

    /// Deserializes a state written by [`DatabaseState::encode`]
    /// against its schema.  The relation count must match the schema
    /// and every tuple is re-validated (arity, duplicates) on insert.
    pub fn decode(d: &mut Decoder<'_>, schema: &DatabaseSchema) -> Result<Self, RelationalError> {
        let n = d.get_u16()? as usize;
        if n != schema.len() {
            return Err(RelationalError::Codec("relation count differs from schema"));
        }
        let mut state = DatabaseState::empty(schema);
        for id in schema.ids() {
            let tuples = d.get_u32()? as usize;
            let arity = schema.attrs(id).len();
            for _ in 0..tuples {
                let mut t = Vec::with_capacity(arity);
                for _ in 0..arity {
                    t.push(Value(d.get_u64()?));
                }
                if !state.insert(id, t)? {
                    return Err(RelationalError::Codec("duplicate tuple in relation"));
                }
            }
        }
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    fn v(n: u64) -> Value {
        Value::int(n)
    }

    fn schema() -> DatabaseSchema {
        let u = Universe::from_names(["A", "B", "C"]).unwrap();
        DatabaseSchema::parse(u, &[("AB", "A B"), ("BC", "B C")]).unwrap()
    }

    #[test]
    fn empty_state_shape() {
        let d = schema();
        let p = DatabaseState::empty(&d);
        assert_eq!(p.len(), 2);
        assert_eq!(p.total_tuples(), 0);
        assert!(p.is_join_consistent());
    }

    #[test]
    fn projection_of_universal_is_join_consistent() {
        let d = schema();
        let mut univ = Relation::new(d.universe().all());
        univ.insert(vec![v(1), v(2), v(3)]).unwrap();
        univ.insert(vec![v(4), v(5), v(6)]).unwrap();
        let p = DatabaseState::project_universal(&d, &univ);
        assert!(p.is_join_consistent());
        assert_eq!(p.total_tuples(), 4);
        assert!(p.dangling_tuples(SchemeId(0)).is_empty());
    }

    #[test]
    fn dangling_tuple_detected() {
        let d = schema();
        let mut p = DatabaseState::empty(&d);
        p.insert(SchemeId(0), vec![v(1), v(2)]).unwrap();
        p.insert(SchemeId(1), vec![v(9), v(3)]).unwrap(); // B=9 joins nothing
        assert!(!p.is_join_consistent());
        assert_eq!(p.dangling_tuples(SchemeId(0)).len(), 1);
        assert_eq!(p.dangling_tuples(SchemeId(1)).len(), 1);
    }

    #[test]
    fn from_relations_roundtrips_and_validates() {
        let d = schema();
        let mut p = DatabaseState::empty(&d);
        p.insert(SchemeId(0), vec![v(1), v(2)]).unwrap();
        let parts: Vec<Relation> = d.ids().map(|id| p.relation(id).clone()).collect();
        let q = DatabaseState::from_relations(&d, parts).unwrap();
        assert_eq!(q.total_tuples(), 1);
        assert!(q.relation(SchemeId(0)).contains(&[v(1), v(2)]));
        // Wrong count rejected.
        assert!(DatabaseState::from_relations(&d, Vec::new()).is_err());
        // Wrong scheme order rejected.
        let mut swapped: Vec<Relation> = d.ids().map(|id| p.relation(id).clone()).collect();
        swapped.reverse();
        assert!(DatabaseState::from_relations(&d, swapped).is_err());
    }

    #[test]
    fn get_relation_is_total_over_ids() {
        let d = schema();
        let mut p = DatabaseState::empty(&d);
        p.insert(SchemeId(0), vec![v(1), v(2)]).unwrap();
        assert_eq!(p.get_relation(SchemeId(0)).unwrap().len(), 1);
        assert!(p.get_relation(SchemeId(2)).is_none());
        p.insert(SchemeId(1), vec![v(2), v(3)]).unwrap();
        assert_eq!(p.total_tuples(), 2);
    }

    #[test]
    fn join_reassembles() {
        let d = schema();
        let mut p = DatabaseState::empty(&d);
        p.insert(SchemeId(0), vec![v(1), v(2)]).unwrap();
        p.insert(SchemeId(1), vec![v(2), v(3)]).unwrap();
        let j = p.join().unwrap();
        assert_eq!(j.len(), 1);
        assert!(j.contains(&[v(1), v(2), v(3)]));
        assert!(p.is_join_consistent());
    }
}
