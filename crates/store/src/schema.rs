//! The fluent schema builder and the validated [`Schema`] handle.

use std::collections::HashMap;

use ids_core::{analyze, IndependenceAnalysis, Verdict, Witness};
use ids_deps::{Fd, FdSet};
use ids_relational::{
    AttrId, AttrSet, DatabaseSchema, RelationScheme, RelationalError, SchemeId, Universe,
};

use crate::error::Error;

/// How the user declared one relation: column names in declaration order,
/// plus the permutation from declaration order to the scheme's canonical
/// tuple order (ascending attribute id).
///
/// The two orders differ as soon as a relation mentions attributes first
/// introduced by different relations — the layout is what lets
/// `ids_api::Database` accept and render tuples in the order the user
/// wrote, while the store below sees canonical scheme order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelationLayout {
    /// Column names, in declaration order.
    pub columns: Vec<String>,
    /// `perm[j]` = position in the canonical tuple of declared column `j`.
    pub perm: Vec<usize>,
}

/// One `ALTER`-class schema transition, as accepted by
/// `ids_api::Database::alter`.
///
/// Each operation names its target at the string level — relation and
/// column names, FD specs in the same `"lhs -> rhs"` syntax as
/// [`SchemaBuilder::fd`] — so the same value round-trips over the wire
/// protocol unchanged.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Alter {
    /// Add a relation with the given column names (declaration order).
    /// Columns the universe has not seen are appended to it; existing
    /// attribute and scheme ids stay stable.
    AddRelation {
        /// The new relation's name.
        name: String,
        /// Its column names, in declaration order.
        columns: Vec<String>,
    },
    /// Drop a relation (and any ordered indexes declared on it); refused
    /// if the drop would leave universe attributes covered by no
    /// relation.  The relations declared after it move down one
    /// position, so their [`SchemeId`]s change: a name-addressed
    /// operation resolves its relation in the era it runs in and never
    /// notices, but a caller holding a `SchemeId` across the drop must
    /// re-resolve it by name ([`Schema::scheme_id`]).
    DropRelation {
        /// The relation to drop.
        name: String,
    },
    /// Declare an additional functional dependency.  Existing data is
    /// backfill-validated; tuples violating the new dependency refuse
    /// the transition with a witness pair.
    AddFd {
        /// The dependency, in [`SchemaBuilder::fd`] syntax.
        spec: String,
    },
    /// Retract a declared functional dependency (verbatim — dropping a
    /// merely implied FD is refused as a no-op).
    DropFd {
        /// The dependency, in [`SchemaBuilder::fd`] syntax.
        spec: String,
    },
}

impl std::fmt::Display for Alter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Alter::AddRelation { name, columns } => {
                write!(f, "add relation {name}({})", columns.join(", "))
            }
            Alter::DropRelation { name } => write!(f, "drop relation {name}"),
            Alter::AddFd { spec } => write!(f, "add fd {spec}"),
            Alter::DropFd { spec } => write!(f, "drop fd {spec}"),
        }
    }
}

/// A validated schema handle: the declared relations and dependencies,
/// with the independence analysis already run — **exactly once**, at
/// build time.  Every store opened from this handle reuses the stored
/// verdict and enforcement covers instead of re-deciding.
///
/// It is also the one live schema of a running [`crate::Store`]: the
/// store's topology holds the handle of the era it serves, and every
/// name-addressed operation resolves its relation, declared layout and
/// slot through that one handle ([`crate::Era`]).
///
/// Cheap to clone (the underlying [`DatabaseSchema`] is reference
/// counted; dependencies and analysis are small).  Two handles compare
/// equal when they declare the same relations, columns, dependencies and
/// indexes.
#[derive(Clone, Debug)]
pub struct Schema {
    pub(crate) definition: DatabaseSchema,
    pub(crate) fds: FdSet,
    pub(crate) analysis: IndependenceAnalysis,
    pub(crate) layouts: Vec<RelationLayout>,
    /// Ordered secondary indexes declared with [`SchemaBuilder::index`],
    /// resolved to `(scheme, attribute)` at build time.  Every store
    /// opened from this handle builds them, so range and set-membership
    /// filters on these columns are answered from the index's per-value
    /// slot chains instead of a linear scan.
    pub(crate) ordered_indexes: Vec<(SchemeId, AttrId)>,
    /// name → id, precomputed: every string-level operation resolves its
    /// relation through this map, so the per-op cost is one hash lookup,
    /// not a linear scan of the scheme table.
    pub(crate) by_name: HashMap<String, SchemeId>,
}

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        // The analysis is a function of the definition and dependencies.
        self.definition == other.definition
            && self.fds.same_fds(&other.fds)
            && self.layouts == other.layouts
            && self.ordered_indexes == other.ordered_indexes
    }
}

impl Schema {
    /// Assembles a handle, deriving its name map.
    fn new(
        definition: DatabaseSchema,
        fds: FdSet,
        analysis: IndependenceAnalysis,
        layouts: Vec<RelationLayout>,
        ordered_indexes: Vec<(SchemeId, AttrId)>,
    ) -> Schema {
        let by_name = (definition.iter())
            .map(|(id, s)| (s.name.clone(), id))
            .collect();
        Schema {
            definition,
            fds,
            analysis,
            layouts,
            ordered_indexes,
            by_name,
        }
    }

    /// The handle of a schema declared below the string layer: every
    /// relation's columns in canonical order, no ordered index, and the
    /// independence analysis run once, here.  What a typed-level caller
    /// opens a [`crate::Store`] with; a dependent schema is refused at
    /// open, with its witness.
    pub fn canonical(definition: &DatabaseSchema, fds: &FdSet) -> Schema {
        let analysis = analyze(definition, fds);
        Schema::analyzed(definition.clone(), fds.clone(), analysis)
    }

    /// [`Schema::canonical`] with the analysis already computed.
    pub(crate) fn analyzed(
        definition: DatabaseSchema,
        fds: FdSet,
        analysis: IndependenceAnalysis,
    ) -> Schema {
        let layouts = (definition.iter())
            .map(|(_, s)| RelationLayout {
                columns: (s.attrs.iter())
                    .map(|a| definition.universe().name(a).to_string())
                    .collect(),
                perm: (0..s.attrs.len()).collect(),
            })
            .collect();
        Schema::new(definition, fds, analysis, layouts, Vec::new())
    }

    /// Starts a fluent builder.
    pub fn builder() -> SchemaBuilder {
        SchemaBuilder::default()
    }

    /// The underlying schema definition (universe + schemes).
    pub fn definition(&self) -> &DatabaseSchema {
        &self.definition
    }

    /// The declared functional dependencies `F`.
    pub fn fds(&self) -> &FdSet {
        &self.fds
    }

    /// The independence analysis computed at build time.
    pub fn analysis(&self) -> &IndependenceAnalysis {
        &self.analysis
    }

    /// True when the schema is independent w.r.t. `F ∪ {*D}`.
    pub fn is_independent(&self) -> bool {
        self.analysis.is_independent()
    }

    /// The `LSAT ∖ WSAT` counterexample, when not independent (only
    /// reachable through [`SchemaBuilder::build_any`]).
    pub fn witness(&self) -> Option<&Witness> {
        self.analysis.witness()
    }

    /// Per-scheme enforcement covers `Fi`, when independent.
    pub fn enforcement(&self) -> Option<&[FdSet]> {
        match &self.analysis.verdict {
            Verdict::Independent { enforcement } => Some(enforcement),
            Verdict::NotIndependent { .. } => None,
        }
    }

    /// The per-scheme enforcement covers a store serving this handle
    /// probes — a typed refusal on a dependent handle.
    pub(crate) fn covers(&self) -> Result<&[FdSet], crate::Error> {
        crate::covers(&self.definition, &self.analysis)
    }

    /// This handle with the ordered indexes a [`crate::StoreConfig`]
    /// asks for added to the ones it declares — the one place a store
    /// takes them in, at open.  A pair naming a foreign scheme or column
    /// is a typed error; a repeated pair is a no-op.
    pub(crate) fn with_ordered_indexes(
        mut self,
        extra: &[(SchemeId, AttrId)],
    ) -> Result<Schema, crate::Error> {
        for &(id, attr) in extra {
            let scheme = (self.definition.get_scheme(id)).ok_or(crate::Error::UnknownScheme(id))?;
            if !scheme.attrs.contains(attr) {
                return Err(RelationalError::SchemaMismatch(
                    "secondary index column outside the relation scheme",
                )
                .into());
            }
            if !self.ordered_indexes.contains(&(id, attr)) {
                self.ordered_indexes.push((id, attr));
            }
        }
        Ok(self)
    }

    /// Resolves a relation name to its id — O(1), via the name map built
    /// at `build` time.
    pub fn scheme_id(&self, relation: &str) -> Result<SchemeId, Error> {
        self.by_name
            .get(relation)
            .copied()
            .ok_or_else(|| Error::UnknownRelation(relation.to_string()))
    }

    /// The declared column names of a relation, in declaration order.
    pub fn columns(&self, relation: &str) -> Result<&[String], Error> {
        let id = self.scheme_id(relation)?;
        Ok(&self.layouts[id.index()].columns)
    }

    /// All relation names, in declaration order.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.definition.iter().map(|(_, s)| s.name.as_str())
    }

    /// How relation `id` was declared: its column names in declaration
    /// order and where each sits in a canonical tuple.
    ///
    /// # Panics
    ///
    /// When `id` is not a relation of this schema.
    pub fn layout(&self, id: SchemeId) -> &RelationLayout {
        &self.layouts[id.index()]
    }

    /// Serializes the declaration-order column layouts — the manifest
    /// `app` blob a durable store writes with every manifest (at creation
    /// and at each schema transition), so recovery and followers rebuild
    /// the string-level surface exactly as declared.  An
    /// index section (declared ordered secondary indexes, by name) is
    /// appended after the layouts; old blobs simply end before it, so
    /// the format stays append-only compatible in both directions.
    pub(crate) fn encode_layouts(&self) -> Vec<u8> {
        let mut e = ids_relational::codec::Encoder::new();
        e.put_u16(self.layouts.len() as u16);
        for layout in &self.layouts {
            e.put_u16(layout.columns.len() as u16);
            for c in &layout.columns {
                e.put_str(c);
            }
        }
        e.put_u16(self.ordered_indexes.len() as u16);
        for &(id, attr) in &self.ordered_indexes {
            e.put_str(
                // Index ids are resolved against this definition by the
                // builder, and renumbered with it by `evolved`.
                &self
                    .definition
                    .get_scheme(id)
                    .expect("resolved at build")
                    .name,
            );
            e.put_str(self.definition.universe().name(attr));
        }
        e.into_bytes()
    }

    /// Rebuilds a `Schema` from a durable manifest: the decoded
    /// definition + FDs, plus the layouts blob written with them.  An
    /// empty blob (a manifest written before stores recorded their
    /// layouts) falls back to canonical column order.  The independence
    /// analysis runs here — once, exactly like
    /// [`SchemaBuilder::build_any`].
    pub(crate) fn from_recovered(
        definition: DatabaseSchema,
        fds: FdSet,
        app: &[u8],
    ) -> Result<Schema, RelationalError> {
        let analysis = analyze(&definition, &fds);
        let mut schema = Schema::analyzed(definition, fds, analysis);
        if app.is_empty() {
            return Ok(schema);
        }
        let definition = &schema.definition;
        let mut d = ids_relational::codec::Decoder::new(app);
        let bad = || RelationalError::Codec("manifest layout blob");
        let n = d.get_u16()? as usize;
        if n != definition.len() {
            return Err(bad());
        }
        let mut layouts = Vec::with_capacity(n);
        for (id, scheme) in definition.iter() {
            let cols = d.get_u16()? as usize;
            if cols != scheme.attrs.len() {
                return Err(bad());
            }
            let mut columns = Vec::with_capacity(cols);
            let mut perm = Vec::with_capacity(cols);
            let mut seen = ids_relational::AttrSet::new();
            for _ in 0..cols {
                let name = d.get_str()?;
                let attr = definition.universe().require(&name)?;
                if !scheme.attrs.contains(attr) || !seen.insert(attr) {
                    return Err(bad());
                }
                perm.push(definition.attrs(id).rank(attr));
                columns.push(name);
            }
            layouts.push(RelationLayout { columns, perm });
        }
        // Optional index section: blobs written before ordered
        // indexes existed simply end here (append-only format).
        if !d.is_done() {
            let n = d.get_u16()? as usize;
            for _ in 0..n {
                let rel = d.get_str()?;
                let col = d.get_str()?;
                let (id, scheme) = definition
                    .iter()
                    .find(|(_, s)| s.name == rel)
                    .ok_or_else(bad)?;
                let attr = definition.universe().require(&col)?;
                if !scheme.attrs.contains(attr) {
                    return Err(bad());
                }
                schema.ordered_indexes.push((id, attr));
            }
            if !d.is_done() {
                return Err(bad());
            }
        }
        schema.layouts = layouts;
        Ok(schema)
    }

    /// Rebuilds a `Schema` from a durable manifest
    /// ([`ids_wal::Manifest`]) — the public face of the recovery path,
    /// for embedders that open the log directory themselves (a
    /// replication follower bootstrapping from a primary's directory,
    /// a manifest inspection tool).  Identical to what
    /// `ids_api::Database::recover` does internally, including the one
    /// independence analysis.
    pub fn from_manifest(manifest: &ids_wal::Manifest) -> Result<Schema, Error> {
        Ok(Self::from_recovered(
            manifest.schema.clone(),
            manifest.fds.clone(),
            &manifest.app,
        )?)
    }

    /// Builds the **target** schema handle for one [`Alter`] operation —
    /// the pure, engine-independent half of a transition.  The
    /// independence verdict is recomputed *incrementally*
    /// ([`ids_evolve::incremental_analyze`]): per-scheme Loop runs whose
    /// footprint the transition does not touch are reused from this
    /// handle's analysis.  A dependent target is refused here, before
    /// any engine state moves, as [`Error::NotIndependent`] with the
    /// `LSAT ∖ WSAT` witness.
    ///
    /// Returns the new handle and the reuse statistics.  `self` is
    /// untouched — on any error the current schema keeps serving.
    pub(crate) fn evolved(&self, op: &Alter) -> Result<(Schema, ids_evolve::ReuseStats), Error> {
        let (definition, fds, layouts, ordered_indexes) = match op {
            Alter::AddRelation { name, columns } => {
                let def = ids_evolve::add_relation(&self.definition, name, columns)?;
                let mut layouts = self.layouts.clone();
                // `add_relation` succeeded, so `def` holds `name` over
                // exactly `columns` (it extends the universe to cover them).
                let id = def.scheme_by_name(name).expect("just added");
                let attrs = def.attrs(id);
                layouts.push(RelationLayout {
                    columns: columns.clone(),
                    perm: columns
                        .iter()
                        .map(|c| attrs.rank(def.universe().attr(c).expect("just added")))
                        .collect(),
                });
                (def, self.fds.clone(), layouts, self.ordered_indexes.clone())
            }
            Alter::DropRelation { name } => {
                let dropped = self
                    .by_name
                    .get(name.as_str())
                    .copied()
                    .ok_or_else(|| Error::UnknownRelation(name.clone()))?;
                let def = ids_evolve::drop_relation(&self.definition, name)?;
                let mut layouts = self.layouts.clone();
                layouts.remove(dropped.index());
                // Indexes on the dropped relation go with it; later
                // schemes renumber down by one (attribute ids are
                // untouched — the universe is append-only).
                let ordered_indexes = self
                    .ordered_indexes
                    .iter()
                    .filter(|(id, _)| *id != dropped)
                    .map(|&(id, attr)| {
                        if id.index() > dropped.index() {
                            (SchemeId::from_index(id.index() - 1), attr)
                        } else {
                            (id, attr)
                        }
                    })
                    .collect();
                (def, self.fds.clone(), layouts, ordered_indexes)
            }
            Alter::AddFd { spec } => {
                let fd = parse_fd_spec(&self.definition, spec)?;
                let fds = ids_evolve::add_fd(&self.fds, fd, self.definition.universe())?;
                (
                    self.definition.clone(),
                    fds,
                    self.layouts.clone(),
                    self.ordered_indexes.clone(),
                )
            }
            Alter::DropFd { spec } => {
                let fd = parse_fd_spec(&self.definition, spec)?;
                let fds = ids_evolve::drop_fd(&self.fds, fd, self.definition.universe())?;
                (
                    self.definition.clone(),
                    fds,
                    self.layouts.clone(),
                    self.ordered_indexes.clone(),
                )
            }
        };
        let (analysis, stats) =
            ids_evolve::check_transition(&self.definition, &self.analysis, &definition, &fds)?;
        let next = Schema::new(definition, fds, analysis, layouts, ordered_indexes);
        Ok((next, stats))
    }
}

/// Fluent builder for a [`Schema`]: declare relations by column name,
/// state dependencies as `"lhs -> rhs"` strings, and build.
///
/// The attribute universe is collected automatically from the declared
/// columns (first appearance wins the id), so the schemes always cover it
/// — no separate [`Universe`] bookkeeping, no positional ids.
///
/// ```
/// use ids_store::Schema;
///
/// let schema = Schema::builder()
///     .relation("CT", ["course", "teacher"])
///     .relation("CS", ["course", "student"])
///     .relation("CHR", ["course", "hour", "room"])
///     .fd("course -> teacher")
///     .fd("course hour -> room")
///     .build()
///     .expect("Example 2 is independent");
/// assert!(schema.is_independent());
/// ```
#[derive(Clone, Debug, Default)]
pub struct SchemaBuilder {
    relations: Vec<(String, Vec<String>)>,
    fds: Vec<String>,
    indexes: Vec<(String, String)>,
}

impl SchemaBuilder {
    /// Declares a relation with its column names, in the order tuples
    /// will be written and read through the `ids_api::Database`.
    pub fn relation<N, C, S>(mut self, name: N, columns: C) -> Self
    where
        N: Into<String>,
        C: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.relations
            .push((name.into(), columns.into_iter().map(Into::into).collect()));
        self
    }

    /// Declares a functional dependency, e.g. `"course -> teacher"`,
    /// `"course hour -> room"` or `"a, b -> c, d"` (declared column
    /// names separated by whitespace and/or commas, one `->` between
    /// the sides).  Parsed — and reported — at build time: a malformed
    /// spec is a typed [`Error::FdParse`] carrying the byte span of the
    /// offending fragment, never a panic or a silently-empty side.
    pub fn fd(mut self, spec: impl Into<String>) -> Self {
        self.fds.push(spec.into());
        self
    }

    /// Declares an **ordered secondary index** on one column of one
    /// relation.  The owning shard then chains the rows of each distinct
    /// value of that column in insertion order, so range, set-membership
    /// and non-key-equality filters on it are answered from the index
    /// instead of a linear scan — the write path pays one lookup among
    /// the distinct values and an `O(1)` link per accepted tuple.
    /// Durable databases persist it in the manifest and rebuild the
    /// index on recovery.  Unknown names are typed errors at build time.
    pub fn index(mut self, relation: impl Into<String>, column: impl Into<String>) -> Self {
        self.indexes.push((relation.into(), column.into()));
        self
    }

    /// Builds the schema and **refuses non-independent inputs**: the
    /// error carries the decision procedure's diagnosis and its
    /// `LSAT ∖ WSAT` counterexample ([`Error::witness`]).
    ///
    /// This is the front door: a handle from `build` opens a
    /// `ids_api::Database`, whose sharded store independence makes sound.
    pub fn build(self) -> Result<Schema, Error> {
        let schema = self.assemble()?;
        match &schema.analysis.verdict {
            Verdict::Independent { .. } => Ok(schema),
            Verdict::NotIndependent { reason, witness } => Err(Error::NotIndependent {
                reason: reason.clone(),
                witness: Box::new(witness.clone()),
            }),
        }
    }

    /// Builds the schema **without** the independence gate: the verdict
    /// (and witness, if any) stays available on the handle.  A dependent
    /// schema is served by the maintainers that do not rely on
    /// independence, driven directly over [`Schema::definition`] and
    /// [`Schema::fds`]: [`ids_core::ChaseMaintainer`] (complete) and
    /// [`ids_core::FdOnlyMaintainer`] (sound, incomplete).  Opening a
    /// `ids_api::Database` on a dependent handle is a typed
    /// [`Error::NotIndependent`].
    pub fn build_any(self) -> Result<Schema, Error> {
        self.assemble()
    }

    fn assemble(self) -> Result<Schema, Error> {
        // Universe: every column name, id by first appearance.
        let mut universe = Universe::new();
        for (_, columns) in &self.relations {
            for column in columns {
                if universe.attr(column).is_none() {
                    universe.add(column.clone())?;
                }
            }
        }
        // Schemes + layouts.  A column repeated within one relation is an
        // error (the builder cannot know which position the user meant).
        let mut schemes = Vec::with_capacity(self.relations.len());
        let mut layouts = Vec::with_capacity(self.relations.len());
        for (name, columns) in &self.relations {
            let mut attrs = AttrSet::new();
            for column in columns {
                // The loop above added every declared column to `universe`.
                let id = universe.attr(column).expect("collected above");
                if !attrs.insert(id) {
                    return Err(RelationalError::DuplicateAttribute(column.clone()).into());
                }
            }
            layouts.push(RelationLayout {
                columns: columns.clone(),
                perm: columns
                    .iter()
                    .map(|c| attrs.rank(universe.attr(c).expect("collected above")))
                    .collect(),
            });
            schemes.push(RelationScheme {
                name: name.clone(),
                attrs,
            });
        }
        let definition = DatabaseSchema::new(universe, schemes)?;
        let mut fds = FdSet::new();
        for spec in &self.fds {
            fds.insert(parse_fd_spec(&definition, spec)?);
        }
        // Resolve declared ordered indexes against the built schemes.
        let mut ordered_indexes = Vec::with_capacity(self.indexes.len());
        for (relation, column) in &self.indexes {
            let id = definition
                .scheme_by_name(relation)
                .ok_or_else(|| Error::UnknownRelation(relation.clone()))?;
            let attr = definition
                .universe()
                .attr(column)
                .filter(|a| definition.attrs(id).contains(*a))
                .ok_or_else(|| Error::UnknownColumn {
                    relation: relation.clone(),
                    column: column.clone(),
                })?;
            ordered_indexes.push((id, attr));
        }
        // The one and only run of the decision procedure for this handle.
        let analysis = analyze(&definition, &fds);
        Ok(Schema::new(
            definition,
            fds,
            analysis,
            layouts,
            ordered_indexes,
        ))
    }
}

/// Tokenizes one side of an FD spec into `(token, byte offset)` pairs,
/// splitting on whitespace and commas.
fn tokens_with_offsets(s: &str) -> Vec<(&str, usize)> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, ch) in s.char_indices() {
        if ch.is_whitespace() || ch == ',' {
            if let Some(st) = start.take() {
                out.push((&s[st..i], st));
            }
        } else if start.is_none() {
            start = Some(i);
        }
    }
    if let Some(st) = start {
        out.push((&s[st..], st));
    }
    out
}

/// Parses one [`SchemaBuilder::fd`] spec against the declared columns.
///
/// Deliberately stricter than the paper-level [`Fd::parse`]: every token
/// must be a *declared column name*, exactly — there is no single-letter
/// concatenation fallback (`"CT -> H"` meaning `C, T → H`), which for
/// word-level column names is a silent surprise, not a convenience.
/// Every failure is a typed [`Error::FdParse`] with the byte span of the
/// offending fragment inside the spec.
fn parse_fd_spec(definition: &DatabaseSchema, spec: &str) -> Result<Fd, Error> {
    let err = |span: (usize, usize), reason: String| Error::FdParse {
        spec: spec.to_string(),
        span,
        reason,
    };
    let Some(arrow) = spec.find("->") else {
        return Err(err((0, spec.len()), "missing the `->` separator".into()));
    };
    if let Some(second) = spec[arrow + 2..].find("->") {
        let at = arrow + 2 + second;
        return Err(err((at, at + 2), "more than one `->` separator".into()));
    }
    let side = |text: &str, base: usize, which: &str| -> Result<AttrSet, Error> {
        let mut set = AttrSet::new();
        let mut any = false;
        for (token, off) in tokens_with_offsets(text) {
            match definition.universe().attr(token) {
                Some(a) => {
                    set.insert(a);
                    any = true;
                }
                None => {
                    return Err(err(
                        (base + off, base + off + token.len()),
                        format!("unknown column `{token}`"),
                    ))
                }
            }
        }
        if !any {
            return Err(err(
                (base, base + text.len()),
                format!("the {which} names no columns"),
            ));
        }
        Ok(set)
    };
    let lhs = side(&spec[..arrow], 0, "left-hand side")?;
    let rhs = side(&spec[arrow + 2..], arrow + 2, "right-hand side")?;
    Ok(Fd::new(lhs, rhs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example2() -> SchemaBuilder {
        Schema::builder()
            .relation("CT", ["course", "teacher"])
            .relation("CS", ["course", "student"])
            .relation("CHR", ["course", "hour", "room"])
            .fd("course -> teacher")
            .fd("course hour -> room")
    }

    #[test]
    fn builder_collects_universe_and_certifies_independence() {
        let schema = example2().build().unwrap();
        assert!(schema.is_independent());
        assert_eq!(schema.definition().universe().len(), 5);
        assert_eq!(schema.definition().len(), 3);
        assert_eq!(schema.columns("CHR").unwrap(), ["course", "hour", "room"]);
        assert_eq!(
            schema.relation_names().collect::<Vec<_>>(),
            ["CT", "CS", "CHR"]
        );
        // Enforcement covers land on the declaring relations.
        let covers = schema.enforcement().unwrap();
        let cs = schema.scheme_id("CS").unwrap();
        assert!(covers[cs.index()].is_empty());
    }

    #[test]
    fn non_independent_schemas_are_refused_with_a_witness() {
        // Example 2 + "a student is in one room per hour".
        let err = example2().fd("student hour -> room").build().unwrap_err();
        assert!(matches!(err, Error::NotIndependent { .. }), "got {err}");
        let witness = err.witness().expect("refusal carries a witness");
        assert!(witness.state.total_tuples() > 0);
    }

    #[test]
    fn build_any_keeps_the_verdict_and_witness() {
        let schema = example2().fd("student hour -> room").build_any().unwrap();
        assert!(!schema.is_independent());
        assert!(schema.witness().is_some());
        assert!(schema.enforcement().is_none());
    }

    #[test]
    fn layout_permutation_tracks_declaration_order() {
        // "TR" declares (room, teacher) but `teacher` already has a lower
        // attribute id from "CT" — the canonical tuple order is (teacher,
        // room), and the layout must record that inversion.
        let schema = Schema::builder()
            .relation("CT", ["course", "teacher"])
            .relation("TR", ["room", "teacher"])
            .build()
            .unwrap();
        let tr = schema.scheme_id("TR").unwrap();
        assert_eq!(schema.layout(tr).perm, vec![1, 0]);
        assert_eq!(schema.columns("TR").unwrap(), ["room", "teacher"]);
    }

    #[test]
    fn index_declarations_resolve_and_round_trip_through_the_manifest_blob() {
        let schema = example2()
            .index("CHR", "hour")
            .index("CT", "teacher")
            .build()
            .unwrap();
        let (d, u) = (&schema.definition, schema.definition.universe());
        let hour = (d.scheme_by_name("CHR").unwrap(), u.attr("hour").unwrap());
        let teacher = (d.scheme_by_name("CT").unwrap(), u.attr("teacher").unwrap());
        assert_eq!(schema.ordered_indexes, [hour, teacher]);
        // Unknown names are typed errors at build time.
        assert!(matches!(
            example2().index("nope", "hour").build(),
            Err(Error::UnknownRelation(_))
        ));
        assert!(matches!(
            example2().index("CT", "room").build(),
            Err(Error::UnknownColumn { .. })
        ));
        // The manifest blob round-trips the declarations.
        let blob = schema.encode_layouts();
        let back =
            Schema::from_recovered(schema.definition.clone(), schema.fds.clone(), &blob).unwrap();
        assert_eq!(back.ordered_indexes, schema.ordered_indexes);
        // A pre-index blob (layouts only) still decodes — to no indexes.
        let old = example2().build().unwrap();
        let mut short = old.encode_layouts();
        short.truncate(short.len() - 2); // drop the (empty) index section
        let back = Schema::from_recovered(old.definition.clone(), old.fds.clone(), &short).unwrap();
        assert!(back.ordered_indexes.is_empty());
        // A corrupt index section is a typed error, not a panic.
        let mut bad = schema.encode_layouts();
        bad.truncate(bad.len() - 1);
        assert!(
            Schema::from_recovered(schema.definition.clone(), schema.fds.clone(), &bad).is_err()
        );
    }

    #[test]
    fn builder_error_paths_are_typed() {
        // Duplicate column within one relation.
        let err = Schema::builder()
            .relation("R", ["a", "b", "a"])
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            Error::Relational(RelationalError::DuplicateAttribute(_))
        ));
        // FD mentioning an undeclared column.
        let err = Schema::builder()
            .relation("R", ["a", "b"])
            .fd("a -> zz")
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::FdParse { .. }));
        // No relations at all.
        let err = Schema::builder().build().unwrap_err();
        assert!(matches!(
            err,
            Error::Relational(RelationalError::EmptySchema)
        ));
        // Unknown relation lookups on a good handle.
        let schema = example2().build().unwrap();
        assert!(matches!(
            schema.scheme_id("nope"),
            Err(Error::UnknownRelation(_))
        ));
    }

    /// The builder that parses the compound/whitespace forms: one FD
    /// spec, many spellings, identical parse.
    fn abcd(spec: &str) -> Result<Schema, Error> {
        Schema::builder()
            .relation("R", ["a", "b", "c", "d"])
            .fd(spec)
            .build_any()
    }

    #[test]
    fn fd_specs_accept_compound_and_whitespace_forms() {
        let canonical = abcd("a b -> c d").unwrap();
        for spec in [
            "a, b -> c, d",
            "a,b->c,d",
            "  a \t b  ->c   d ",
            "a, b ->\tc,d",
        ] {
            let schema = abcd(spec).unwrap_or_else(|e| panic!("`{spec}` failed: {e}"));
            assert!(
                schema.fds().same_fds(canonical.fds()),
                "`{spec}` parsed differently"
            );
        }
        let fd = canonical.fds().iter().next().unwrap();
        assert_eq!(fd.lhs.len(), 2);
        assert_eq!(fd.rhs.len(), 2);
    }

    #[test]
    fn fd_parse_errors_are_typed_with_spans() {
        // Missing arrow: the whole spec is the span.
        let err = abcd("a b c").unwrap_err();
        let Error::FdParse { spec, span, reason } = &err else {
            panic!("expected FdParse, got {err}");
        };
        assert_eq!(spec, "a b c");
        assert_eq!(*span, (0, 5));
        assert!(reason.contains("->"), "{reason}");

        // Unknown column: the span points at exactly the bad token.
        let err = abcd("a, b -> c, zz").unwrap_err();
        let Error::FdParse { spec, span, reason } = &err else {
            panic!("expected FdParse, got {err}");
        };
        assert_eq!(&spec[span.0..span.1], "zz");
        assert!(reason.contains("unknown column `zz`"), "{reason}");

        // No single-letter concatenation surprise: "ab" is not "a, b".
        let err = abcd("ab -> c").unwrap_err();
        assert!(
            matches!(&err, Error::FdParse { reason, .. } if reason.contains("`ab`")),
            "got {err}"
        );

        // Empty sides are refused, not silently-trivial FDs.
        for (spec, side) in [("-> c", "left"), ("a , ->", "right"), (" -> ", "left")] {
            let err = abcd(spec).unwrap_err();
            assert!(
                matches!(&err, Error::FdParse { reason, .. } if reason.contains(side)),
                "`{spec}` gave {err}"
            );
        }

        // A second arrow is diagnosed as such, span on the second arrow.
        let err = abcd("a -> b -> c").unwrap_err();
        let Error::FdParse { spec, span, reason } = &err else {
            panic!("expected FdParse, got {err}");
        };
        assert_eq!(&spec[span.0..span.1], "->");
        assert!(span.0 > 2);
        assert!(reason.contains("more than one"), "{reason}");

        // Display carries spec, reason and span for humans.
        let msg = abcd("a -> zz").unwrap_err().to_string();
        assert!(msg.contains("a -> zz") && msg.contains("zz"), "{msg}");
    }
}
