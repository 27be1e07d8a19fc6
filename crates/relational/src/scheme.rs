//! Relation schemes and database schemas.

use std::fmt;
use std::sync::Arc;

use crate::attrset::AttrSet;
use crate::codec::{Decoder, Encoder};
use crate::error::RelationalError;
use crate::universe::Universe;

/// Index of a relation scheme within its [`DatabaseSchema`] — a
/// position in one schema value, not a lasting identity.  A schema
/// transition that drops a relation moves every relation declared after
/// it down one position, so a `SchemeId` means "the relation at this
/// position of the schema current when the id is used": a caller that
/// holds one across a transition must re-resolve it by name
/// ([`DatabaseSchema::scheme_by_name`]; [`DatabaseSchema::remap_from`]
/// maps a whole schema's ids across one).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SchemeId(pub u16);

impl SchemeId {
    /// The id as a dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a dense index.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        debug_assert!(i <= u16::MAX as usize);
        SchemeId(i as u16)
    }
}

impl fmt::Debug for SchemeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// A relation scheme: a named, nonempty subset of the universe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelationScheme {
    /// Display name (`CT`, `Enrollment`, ..).
    pub name: String,
    /// The attributes of the scheme.
    pub attrs: AttrSet,
}

/// A database schema `D = {R1, .., Rk}`.
///
/// The schema owns its [`Universe`].  Construction validates the conventions
/// of the paper: at least one scheme, every scheme nonempty, and the schemes
/// jointly covering `U` (so that `*D` is a join dependency over `U`).
///
/// A schema is immutable after construction and internally reference
/// counted: `clone()` is a cheap `Arc` bump, so handles can be shared
/// freely across maintenance engines, caller threads and snapshots
/// without copying the universe or scheme table.
#[derive(Clone, Debug)]
pub struct DatabaseSchema {
    inner: Arc<SchemaInner>,
}

#[derive(Debug)]
struct SchemaInner {
    universe: Universe,
    schemes: Vec<RelationScheme>,
}

/// Structural equality: same universe (names in the same id order) and
/// the same named schemes in the same order.  Two handles cloned from
/// one schema compare equal via the cheap `Arc` pointer check.
impl PartialEq for DatabaseSchema {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
            || (self.inner.universe == other.inner.universe
                && self.inner.schemes == other.inner.schemes)
    }
}

impl Eq for DatabaseSchema {}

impl DatabaseSchema {
    /// Builds and validates a schema from named attribute sets.
    pub fn new(universe: Universe, schemes: Vec<RelationScheme>) -> Result<Self, RelationalError> {
        if schemes.is_empty() {
            return Err(RelationalError::EmptySchema);
        }
        let mut covered = AttrSet::new();
        let mut names: Vec<&str> = Vec::with_capacity(schemes.len());
        for s in &schemes {
            if s.attrs.is_empty() {
                return Err(RelationalError::EmptyScheme(s.name.clone()));
            }
            if names.contains(&s.name.as_str()) {
                return Err(RelationalError::DuplicateScheme(s.name.clone()));
            }
            names.push(&s.name);
            covered.union_in_place(s.attrs);
        }
        if covered != universe.all() {
            let missing = universe.render(universe.all().difference(covered));
            return Err(RelationalError::SchemaDoesNotCoverUniverse { missing });
        }
        Ok(DatabaseSchema {
            inner: Arc::new(SchemaInner { universe, schemes }),
        })
    }

    /// Convenience builder: schemes given as `(name, attribute-spec)` pairs,
    /// attribute specs in [`Universe::parse_set`] syntax.
    pub fn parse(universe: Universe, specs: &[(&str, &str)]) -> Result<Self, RelationalError> {
        let mut schemes = Vec::with_capacity(specs.len());
        for (name, spec) in specs {
            let attrs = universe.parse_set(spec)?;
            schemes.push(RelationScheme {
                name: (*name).to_string(),
                attrs,
            });
        }
        Self::new(universe, schemes)
    }

    /// The schema's universe.
    pub fn universe(&self) -> &Universe {
        &self.inner.universe
    }

    /// Number of relation schemes.
    pub fn len(&self) -> usize {
        self.inner.schemes.len()
    }

    /// True when the schema is empty (never, post-validation).
    pub fn is_empty(&self) -> bool {
        self.inner.schemes.is_empty()
    }

    /// The scheme with the given id.
    ///
    /// # Panics
    /// Panics when the id does not belong to this schema; use
    /// [`DatabaseSchema::get_scheme`] at trust boundaries where the id
    /// comes from outside (routers, deserialized operations).
    pub fn scheme(&self, id: SchemeId) -> &RelationScheme {
        &self.inner.schemes[id.index()]
    }

    /// The scheme with the given id, or `None` when the id is out of
    /// range — the non-panicking lookup for ids that cross an API
    /// boundary.
    pub fn get_scheme(&self, id: SchemeId) -> Option<&RelationScheme> {
        self.inner.schemes.get(id.index())
    }

    /// Attribute set of the scheme with the given id.
    pub fn attrs(&self, id: SchemeId) -> AttrSet {
        self.inner.schemes[id.index()].attrs
    }

    /// All schemes with their ids.
    pub fn iter(&self) -> impl Iterator<Item = (SchemeId, &RelationScheme)> {
        self.inner
            .schemes
            .iter()
            .enumerate()
            .map(|(i, s)| (SchemeId::from_index(i), s))
    }

    /// All scheme ids.
    pub fn ids(&self) -> impl Iterator<Item = SchemeId> {
        (0..self.inner.schemes.len()).map(SchemeId::from_index)
    }

    /// Looks a scheme up by name.
    pub fn scheme_by_name(&self, name: &str) -> Option<SchemeId> {
        self.inner
            .schemes
            .iter()
            .position(|s| s.name == name)
            .map(SchemeId::from_index)
    }

    /// The relation identity rule across a schema transition: relation
    /// `j` of `self` *is* relation `i` of `old` when both carry the same
    /// name and the same attribute set (a same-name relation over other
    /// attributes is a new relation).  Returns, per relation of `self` in
    /// scheme order, its index in `old`, or `None` for a relation `old`
    /// does not hold.
    pub fn remap_from(&self, old: &DatabaseSchema) -> Vec<Option<SchemeId>> {
        (self.inner.schemes.iter())
            .map(|s| {
                old.scheme_by_name(&s.name)
                    .filter(|&i| old.attrs(i) == s.attrs)
            })
            .collect()
    }

    /// The components of the schema's join dependency `*D`.
    pub fn join_dependency_components(&self) -> Vec<AttrSet> {
        self.inner.schemes.iter().map(|s| s.attrs).collect()
    }

    /// Serializes the schema: the universe, then `u16` scheme count +
    /// per scheme its name and attribute set.
    pub fn encode(&self, e: &mut Encoder) {
        self.inner.universe.encode(e);
        e.put_u16(self.inner.schemes.len() as u16);
        for s in &self.inner.schemes {
            e.put_str(&s.name);
            e.put_attr_set(s.attrs);
        }
    }

    /// Deserializes a schema written by [`DatabaseSchema::encode`],
    /// re-running construction validation (coverage, nonempty schemes).
    pub fn decode(d: &mut Decoder<'_>) -> Result<Self, RelationalError> {
        let universe = Universe::decode(d)?;
        let n = d.get_u16()? as usize;
        let mut schemes = Vec::with_capacity(n);
        for _ in 0..n {
            let name = d.get_str()?;
            let attrs = d.get_attr_set()?;
            if !attrs.is_subset(universe.all()) {
                return Err(RelationalError::Codec("scheme attrs outside universe"));
            }
            schemes.push(RelationScheme { name, attrs });
        }
        Self::new(universe, schemes)
    }
}

impl fmt::Display for DatabaseSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.inner.universe)?;
        for (id, s) in self.iter() {
            writeln!(
                f,
                "  {:?} {} = {}",
                id,
                s.name,
                self.inner.universe.render(s.attrs)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cthr_universe() -> Universe {
        Universe::from_names(["C", "T", "H", "R"]).unwrap()
    }

    #[test]
    fn parse_builds_valid_schema() {
        let d = DatabaseSchema::parse(cthr_universe(), &[("CT", "CT"), ("CHR", "CHR")]).unwrap();
        assert_eq!(d.len(), 2);
        let ct = d.scheme_by_name("CT").unwrap();
        assert_eq!(d.attrs(ct).len(), 2);
        assert_eq!(d.join_dependency_components().len(), 2);
    }

    #[test]
    fn schema_must_cover_universe() {
        let err = DatabaseSchema::parse(cthr_universe(), &[("CT", "CT")]).unwrap_err();
        assert!(matches!(
            err,
            RelationalError::SchemaDoesNotCoverUniverse { .. }
        ));
    }

    #[test]
    fn empty_schema_and_empty_scheme_rejected() {
        assert!(matches!(
            DatabaseSchema::parse(cthr_universe(), &[]),
            Err(RelationalError::EmptySchema)
        ));
        assert!(matches!(
            DatabaseSchema::parse(cthr_universe(), &[("E", ""), ("ALL", "CTHR")]),
            Err(RelationalError::EmptyScheme(_))
        ));
    }

    #[test]
    fn duplicate_scheme_names_rejected() {
        assert!(matches!(
            DatabaseSchema::parse(cthr_universe(), &[("X", "CT"), ("X", "CHR")]),
            Err(RelationalError::DuplicateScheme(_))
        ));
    }

    #[test]
    fn get_scheme_is_total_over_ids() {
        let d = DatabaseSchema::parse(cthr_universe(), &[("CT", "CT"), ("CHR", "CHR")]).unwrap();
        assert_eq!(d.get_scheme(SchemeId(0)).unwrap().name, "CT");
        assert_eq!(d.get_scheme(SchemeId(1)).unwrap().name, "CHR");
        assert!(d.get_scheme(SchemeId(2)).is_none());
        assert!(d.get_scheme(SchemeId(u16::MAX)).is_none());
    }

    #[test]
    fn clones_share_the_inner_table() {
        let d = DatabaseSchema::parse(cthr_universe(), &[("CT", "CT"), ("CHR", "CHR")]).unwrap();
        let d2 = d.clone();
        assert!(Arc::ptr_eq(&d.inner, &d2.inner));
    }

    #[test]
    fn duplicate_attribute_sets_allowed_under_distinct_names() {
        // The paper treats D as a collection; distinct appearances of the
        // same attribute set are legal.
        let d = DatabaseSchema::parse(cthr_universe(), &[("A1", "CTHR"), ("A2", "CTHR")]).unwrap();
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn remap_from_matches_name_and_attributes() {
        let old = DatabaseSchema::parse(cthr_universe(), &[("CT", "CT"), ("CHR", "CHR")]).unwrap();
        // CHR survives renumbered, CT is re-declared over other
        // attributes (a new relation), HR is added.
        let new = DatabaseSchema::parse(
            cthr_universe(),
            &[("CHR", "CHR"), ("CT", "CTH"), ("HR", "HR")],
        )
        .unwrap();
        assert_eq!(new.remap_from(&old), vec![Some(SchemeId(1)), None, None]);
        assert_eq!(
            old.remap_from(&old),
            vec![Some(SchemeId(0)), Some(SchemeId(1))]
        );
    }
}
