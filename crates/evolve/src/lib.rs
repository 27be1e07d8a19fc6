//! # ids-evolve
//!
//! Online schema evolution for independent database schemas: the
//! planning and re-analysis half of `ALTER`-class operations
//! (`add_relation`, `drop_relation`, `add_fd`, `drop_fd`) on a running
//! database.
//!
//! The paper's central observation makes evolution tractable:
//! independence is a **local** property.  Every enforcement cover `Fi`
//! touches exactly one relation scheme, and the Section 4 Loop run for
//! a scheme `Rl` reads only `Rl`'s attribute set plus the *other*
//! schemes' covers (`(scheme, X, X*)` triples — nothing else of the
//! schema).  So when a transition changes one relation, only the Loop
//! runs whose inputs actually changed need re-running; the rest of the
//! old analysis is reused verbatim.  [`incremental_analyze`] implements
//! exactly that footprint test, and [`ReuseStats`] reports how much
//! work it saved.
//!
//! Two invariants keep transitions sound against a live store and an
//! append-only log:
//!
//! * **The universe is append-only.**  Tuples are positional by sorted
//!   [`ids_relational::AttrId`] rank, and log records are schema-free,
//!   so attribute ids must never be renumbered.  [`add_relation`] grows
//!   the universe at the end; [`drop_relation`] leaves it untouched —
//!   and is refused (typed [`EvolveError::UniverseUncovered`]) when the
//!   dropped relation was the only one covering some attribute, because
//!   a schema must cover its universe.
//! * **Dependent targets are refused with a witness.**  A transition
//!   whose target schema is not independent surfaces the
//!   `LSAT ∖ WSAT` counterexample ([`EvolveError::Dependent`]) and the
//!   current schema keeps serving.
//!
//! This crate is pure planning: it never touches the store or the log.
//! The `ids-api` layer builds target schemas here, and on acceptance
//! drives the durable transition (generation manifests, online shard
//! add/drop, backfill) in `ids-store`/`ids-wal`.

#![warn(missing_docs)]

use ids_core::{
    find_crossing, lemma3_witness, lemma7_witness, run_loop, test_cover_embedding,
    theorem4_witness, CoverEmbedding, IndependenceAnalysis, LoopTrace, NotIndependentReason,
    Verdict, Witness,
};
use ids_deps::{Fd, FdSet};
use ids_relational::{
    AttrSet, DatabaseSchema, RelationScheme, RelationalError, SchemeId, Universe,
};

/// Why a schema transition was refused.  The current schema keeps
/// serving in every case.
#[derive(Debug)]
#[non_exhaustive]
pub enum EvolveError {
    /// The target schema is not independent: local enforcement would be
    /// incomplete.  Carries the failing condition and a machine-checkable
    /// state in `LSAT ∖ WSAT`.
    Dependent {
        /// Which of Theorem 2's conditions failed.
        reason: NotIndependentReason,
        /// The counterexample state.
        witness: Box<Witness>,
    },
    /// `add_relation` with a name the schema already uses.
    DuplicateRelation(String),
    /// `drop_relation` (or any by-name lookup) on a name the schema
    /// does not have.
    UnknownRelation(String),
    /// `drop_relation` would leave universe attributes covered by no
    /// relation — and attribute ids are append-only, so they cannot be
    /// retired either.
    UniverseUncovered {
        /// The relation whose drop was refused.
        relation: String,
        /// Attribute names only that relation covered.
        missing: Vec<String>,
    },
    /// `add_fd` of a dependency the set already contains verbatim.
    DuplicateFd(String),
    /// `drop_fd` of a dependency the set does not contain verbatim.
    UnknownFd(String),
    /// A substrate error while assembling the target schema (duplicate
    /// attribute, universe overflow, empty scheme, ...).
    Relational(RelationalError),
}

impl std::fmt::Display for EvolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Dependent { reason, .. } => {
                write!(f, "target schema is not independent: {reason:?}")
            }
            Self::DuplicateRelation(name) => write!(f, "relation {name:?} already exists"),
            Self::UnknownRelation(name) => write!(f, "no relation named {name:?}"),
            Self::UniverseUncovered { relation, missing } => write!(
                f,
                "dropping {relation:?} would leave attributes {} covered by no relation",
                missing.join(", ")
            ),
            Self::DuplicateFd(spec) => write!(f, "dependency {spec} is already declared"),
            Self::UnknownFd(spec) => write!(f, "no declared dependency {spec}"),
            Self::Relational(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EvolveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Relational(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelationalError> for EvolveError {
    fn from(e: RelationalError) -> Self {
        Self::Relational(e)
    }
}

/// Builds the target schema for `add_relation`: the new scheme is
/// appended **at the end** (existing [`SchemeId`]s stay stable), and
/// any column name the universe has not seen is appended to the
/// universe (existing [`ids_relational::AttrId`]s stay stable).
pub fn add_relation(
    schema: &DatabaseSchema,
    name: &str,
    columns: &[String],
) -> Result<DatabaseSchema, EvolveError> {
    if schema.scheme_by_name(name).is_some() {
        return Err(EvolveError::DuplicateRelation(name.to_string()));
    }
    let mut universe = schema.universe().clone();
    let mut attrs = AttrSet::new();
    for col in columns {
        let attr = match universe.attr(col) {
            Some(a) => a,
            None => universe.add(col.clone())?,
        };
        attrs.insert(attr);
    }
    let mut schemes: Vec<RelationScheme> = schema
        .iter()
        .map(|(_, s)| RelationScheme {
            name: s.name.clone(),
            attrs: s.attrs,
        })
        .collect();
    schemes.push(RelationScheme {
        name: name.to_string(),
        attrs,
    });
    DatabaseSchema::new(universe, schemes).map_err(Into::into)
}

/// Builds the target schema for `drop_relation`: the scheme is removed
/// and later schemes are renumbered down by one (the store renames
/// their logs atomically with the transition).  The universe is left
/// untouched — attribute ids are append-only — so a relation that was
/// the sole cover of some attribute cannot be dropped.
pub fn drop_relation(schema: &DatabaseSchema, name: &str) -> Result<DatabaseSchema, EvolveError> {
    let dropped = schema
        .scheme_by_name(name)
        .ok_or_else(|| EvolveError::UnknownRelation(name.to_string()))?;
    let mut covered = AttrSet::new();
    let mut schemes = Vec::with_capacity(schema.len() - 1);
    for (id, s) in schema.iter() {
        if id == dropped {
            continue;
        }
        covered = covered.union(s.attrs);
        schemes.push(RelationScheme {
            name: s.name.clone(),
            attrs: s.attrs,
        });
    }
    let missing = schema.universe().all().difference(covered);
    if !missing.is_empty() {
        return Err(EvolveError::UniverseUncovered {
            relation: name.to_string(),
            missing: missing
                .iter()
                .map(|a| schema.universe().name(a).to_string())
                .collect(),
        });
    }
    DatabaseSchema::new(schema.universe().clone(), schemes).map_err(Into::into)
}

/// Builds the target FD set for `add_fd`.  Refuses a dependency the
/// set already contains verbatim (implied-but-absent dependencies are
/// fine — the analysis derives covers itself).
pub fn add_fd(fds: &FdSet, fd: Fd, universe: &Universe) -> Result<FdSet, EvolveError> {
    if fds.iter().any(|f| f.lhs == fd.lhs && f.rhs == fd.rhs) {
        return Err(EvolveError::DuplicateFd(render_fd(&fd, universe)));
    }
    let mut next = fds.clone();
    next.insert(fd);
    Ok(next)
}

/// Builds the target FD set for `drop_fd`.  The dependency must be
/// declared verbatim (dropping a merely *implied* FD would be a no-op
/// and is refused as such).
pub fn drop_fd(fds: &FdSet, fd: Fd, universe: &Universe) -> Result<FdSet, EvolveError> {
    let mut next = FdSet::new();
    let mut found = false;
    for f in fds.iter() {
        if f.lhs == fd.lhs && f.rhs == fd.rhs {
            found = true;
        } else {
            next.insert(*f);
        }
    }
    if !found {
        return Err(EvolveError::UnknownFd(render_fd(&fd, universe)));
    }
    Ok(next)
}

fn render_fd(fd: &Fd, universe: &Universe) -> String {
    format!("{} -> {}", universe.render(fd.lhs), universe.render(fd.rhs))
}

/// How much of the previous analysis [`incremental_analyze`] reused.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Loop runs whose footprint was unchanged and were reused.
    pub reused: usize,
    /// Loop runs that had to be re-run.
    pub reran: usize,
}

/// Decides independence of a target schema, reusing the previous
/// analysis wherever the paper's locality permits.
///
/// Steps 1–3 of [`ids_core::analyze`] (cover embedding, partition,
/// crossing check) are always recomputed — they are cheap closure
/// computations.  Step 4, the per-scheme Loop (the expensive part,
/// tagged-tableau comparisons), is where locality pays: the run for a
/// scheme `l` reads only
///
/// * `attrs(l)`, and
/// * for every other scheme `j` with a nonempty cover `Fj`, the triples
///   `(j, X, cl_Fj(X))` for each `X → Y ∈ Fj`
///
/// — so its outcome is a function of `(attrs(l), {(name_j, Fj)})`,
/// invariant under scheme renumbering (names identify schemes across a
/// transition).  When that footprint matches the old analysis (which
/// must have accepted), the old run's acceptance is reused; otherwise
/// the Loop re-runs.  A reused [`LoopTrace`] is diagnostic data from
/// the *old* schema — its scheme ids may be stale after a drop
/// renumbers later relations.
pub fn incremental_analyze(
    old_schema: &DatabaseSchema,
    old: &IndependenceAnalysis,
    schema: &DatabaseSchema,
    fds: &FdSet,
) -> (IndependenceAnalysis, ReuseStats) {
    let mut stats = ReuseStats::default();

    // Step 1: Section 3 — embed a cover H of F ∪ {*D}.
    let cover_steps = match test_cover_embedding(schema, fds) {
        CoverEmbedding::NotEmbedded { failing, closed } => {
            let witness = lemma3_witness(schema, failing, closed);
            return (
                IndependenceAnalysis {
                    verdict: Verdict::NotIndependent {
                        reason: NotIndependentReason::CoverNotEmbedded { failing, closed },
                        witness,
                    },
                    embedded_cover: None,
                    partition: None,
                    traces: Vec::new(),
                },
                stats,
            );
        }
        CoverEmbedding::Embedded { cover } => cover,
    };

    // Step 2: partition H per scheme.
    let mut partition: Vec<FdSet> = schema.ids().map(|_| FdSet::new()).collect();
    let mut h = FdSet::new();
    for step in &cover_steps {
        partition[step.scheme.index()].insert(step.fd);
        h.insert(step.fd);
    }

    // Step 3: Lemma 7 — cross-component derivations.
    if let Some(crossing) = find_crossing(schema, &partition) {
        let witness = lemma7_witness(schema, &h, &crossing);
        return (
            IndependenceAnalysis {
                verdict: Verdict::NotIndependent {
                    reason: NotIndependentReason::CrossingDerivation {
                        scheme: crossing.scheme,
                        attr: crossing.attr,
                    },
                    witness,
                },
                embedded_cover: Some(h),
                partition: Some(partition),
                traces: Vec::new(),
            },
            stats,
        );
    }

    // Step 4: per-scheme Loop runs, footprint-gated against the old
    // analysis.  Reuse is only sound from an *accepted* old run — a
    // rejected analysis has no per-scheme acceptance to carry over.
    let old_partition = match (&old.verdict, &old.partition) {
        (Verdict::Independent { .. }, Some(p)) => Some(p),
        _ => None,
    };
    let mut traces: Vec<LoopTrace> = Vec::with_capacity(schema.len());
    for l in schema.ids() {
        let reused = old_partition.and_then(|old_part| {
            let trace = reusable_run(old_schema, old_part, old, schema, &partition, l)?;
            Some(trace.clone())
        });
        match reused {
            Some(trace) => {
                stats.reused += 1;
                traces.push(trace);
            }
            None => {
                stats.reran += 1;
                let (outcome, trace) = run_loop(schema, &partition, l);
                traces.push(trace);
                if let Err(reject) = outcome {
                    let witness = theorem4_witness(schema, &reject);
                    return (
                        IndependenceAnalysis {
                            verdict: Verdict::NotIndependent {
                                reason: NotIndependentReason::LoopRejection(reject),
                                witness,
                            },
                            embedded_cover: Some(h),
                            partition: Some(partition),
                            traces,
                        },
                        stats,
                    );
                }
            }
        }
    }
    (
        IndependenceAnalysis {
            verdict: Verdict::Independent {
                enforcement: partition.clone(),
            },
            embedded_cover: Some(h),
            partition: Some(partition),
            traces,
        },
        stats,
    )
}

/// The footprint gate: returns the old trace for new scheme `l` when
/// the Loop run's entire input is unchanged relative to the old
/// (accepted) analysis, matching schemes **by name** across any
/// renumbering.
fn reusable_run<'a>(
    old_schema: &DatabaseSchema,
    old_partition: &[FdSet],
    old: &'a IndependenceAnalysis,
    schema: &DatabaseSchema,
    partition: &[FdSet],
    l: SchemeId,
) -> Option<&'a LoopTrace> {
    let name = &schema.scheme(l).name;
    let old_l = old_schema.scheme_by_name(name)?;
    if old_schema.attrs(old_l) != schema.attrs(l) {
        return None;
    }
    // The other schemes' covers must match as a name-keyed family:
    // every nonempty new Fj has an identically named old counterpart
    // with the same FDs, and vice versa.  (Empty covers contribute no
    // l.h.s. and are invisible to the run.)
    for (j, s) in schema.iter() {
        if j == l || partition[j.index()].is_empty() {
            continue;
        }
        let old_j = old_schema.scheme_by_name(&s.name)?;
        if old_j == old_l || !old_partition[old_j.index()].same_fds(&partition[j.index()]) {
            return None;
        }
    }
    for (old_j, s) in old_schema.iter() {
        if old_j == old_l || old_partition[old_j.index()].is_empty() {
            continue;
        }
        let j = schema.scheme_by_name(&s.name)?;
        if j == l || partition[j.index()].is_empty() {
            return None;
        }
    }
    let trace = old.traces.get(old_l.index())?;
    trace.accepted.then_some(trace)
}

/// [`incremental_analyze`], surfaced the way a transition wants it:
/// an accepted analysis or the typed [`EvolveError::Dependent`] with
/// its witness.
pub fn check_transition(
    old_schema: &DatabaseSchema,
    old: &IndependenceAnalysis,
    schema: &DatabaseSchema,
    fds: &FdSet,
) -> Result<(IndependenceAnalysis, ReuseStats), EvolveError> {
    let (analysis, stats) = incremental_analyze(old_schema, old, schema, fds);
    match &analysis.verdict {
        Verdict::Independent { .. } => Ok((analysis, stats)),
        Verdict::NotIndependent { reason, witness } => Err(EvolveError::Dependent {
            reason: reason.clone(),
            witness: Box::new(witness.clone()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_chase::ChaseConfig;
    use ids_core::analyze;

    /// Example 2: CT, CS, CHR with C→T, CH→R — independent.
    fn example2() -> (DatabaseSchema, FdSet) {
        let u = Universe::from_names(["C", "T", "H", "R", "S"]).unwrap();
        let schema =
            DatabaseSchema::parse(u, &[("CT", "CT"), ("CS", "CS"), ("CHR", "CHR")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["C -> T", "CH -> R"]).unwrap();
        (schema, fds)
    }

    fn cols(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    /// Incremental and full analysis must agree on the verdict (and on
    /// enforcement covers when independent).
    fn assert_matches_full(
        old_schema: &DatabaseSchema,
        old: &IndependenceAnalysis,
        schema: &DatabaseSchema,
        fds: &FdSet,
    ) -> (IndependenceAnalysis, ReuseStats) {
        let (inc, stats) = incremental_analyze(old_schema, old, schema, fds);
        let full = analyze(schema, fds);
        assert_eq!(inc.is_independent(), full.is_independent());
        if let (Verdict::Independent { enforcement: a }, Verdict::Independent { enforcement: b }) =
            (&inc.verdict, &full.verdict)
        {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert!(x.same_fds(y));
            }
        }
        (inc, stats)
    }

    #[test]
    fn add_relation_reuses_every_old_run() {
        let (schema, fds) = example2();
        let old = analyze(&schema, &fds);
        let next = add_relation(&schema, "SR", &cols(&["S", "Rm"])).unwrap();
        assert_eq!(next.len(), 4);
        // Old attribute ids are stable; the new one was appended.
        assert_eq!(next.universe().len(), 6);
        let (_, stats) = assert_matches_full(&schema, &old, &next, &fds);
        // The three untouched schemes reuse their runs; only the new
        // relation's run is fresh.
        assert_eq!(
            stats,
            ReuseStats {
                reused: 3,
                reran: 1
            }
        );
    }

    #[test]
    fn add_fd_reruns_only_the_other_schemes() {
        let (schema, fds) = example2();
        let old = analyze(&schema, &fds);
        let fd = Fd::new(
            schema.universe().parse_set("C").unwrap(),
            schema.universe().parse_set("S").unwrap(),
        );
        let next_fds = add_fd(&fds, fd, schema.universe()).unwrap();
        let (inc, stats) = assert_matches_full(&schema, &old, &schema, &next_fds);
        assert!(inc.is_independent());
        // CS's own cover changed: runs *for* the other schemes see a
        // new footprint and re-run; CS's own run reads only the others'
        // covers, which are unchanged — it is the one reused.
        assert_eq!(
            stats,
            ReuseStats {
                reused: 1,
                reran: 2
            }
        );
    }

    #[test]
    fn dependent_target_is_refused_with_a_verifiable_witness() {
        let (schema, fds) = example2();
        let old = analyze(&schema, &fds);
        let fd = Fd::new(
            schema.universe().parse_set("S H").unwrap(),
            schema.universe().parse_set("R").unwrap(),
        );
        let next_fds = add_fd(&fds, fd, schema.universe()).unwrap();
        assert_matches_full(&schema, &old, &schema, &next_fds);
        let err = check_transition(&schema, &old, &schema, &next_fds).unwrap_err();
        let EvolveError::Dependent { witness, .. } = err else {
            panic!("expected Dependent, got {err}");
        };
        assert!(ids_core::verify_witness(
            &schema,
            &next_fds,
            &witness.state,
            &ChaseConfig::default()
        )
        .unwrap());
    }

    #[test]
    fn drop_relation_renumbers_and_still_reuses_by_name() {
        let (schema, fds) = example2();
        let old = analyze(&schema, &fds);
        // CS covers only C and S; C is also in CT and CHR, S only in
        // CS — so CS cannot be dropped...
        let err = drop_relation(&schema, "CS").unwrap_err();
        assert!(
            matches!(err, EvolveError::UniverseUncovered { ref missing, .. } if missing == &["S"])
        );
        // ...but after adding SR (covering S), it can.
        let grown = add_relation(&schema, "SR", &cols(&["S", "R"])).unwrap();
        let old = {
            let (a, _) = incremental_analyze(&schema, &old, &grown, &fds);
            a
        };
        let next = drop_relation(&grown, "CS").unwrap();
        assert_eq!(next.len(), 3);
        assert_eq!(
            next.scheme(SchemeId::from_index(2)).name,
            "SR",
            "SR renumbered from 3 to 2"
        );
        let (_, stats) = assert_matches_full(&grown, &old, &next, &fds);
        // CS contributed no cover, so every surviving scheme's
        // footprint is unchanged: all three runs are reused.
        assert_eq!(
            stats,
            ReuseStats {
                reused: 3,
                reran: 0
            }
        );
    }

    #[test]
    fn drop_fd_differential_and_unknown_fd_typed() {
        let (schema, fds) = example2();
        let old = analyze(&schema, &fds);
        let fd = Fd::new(
            schema.universe().parse_set("C").unwrap(),
            schema.universe().parse_set("T").unwrap(),
        );
        let next_fds = drop_fd(&fds, fd, schema.universe()).unwrap();
        assert_matches_full(&schema, &old, &schema, &next_fds);
        let missing = Fd::new(
            schema.universe().parse_set("H").unwrap(),
            schema.universe().parse_set("R").unwrap(),
        );
        assert!(matches!(
            drop_fd(&fds, missing, schema.universe()),
            Err(EvolveError::UnknownFd(_))
        ));
        assert!(add_fd(&next_fds, fd, schema.universe()).is_ok());
        assert!(matches!(
            add_fd(&fds, fd, schema.universe()),
            Err(EvolveError::DuplicateFd(_))
        ));
    }

    #[test]
    fn duplicate_and_unknown_relations_are_typed() {
        let (schema, _) = example2();
        assert!(matches!(
            add_relation(&schema, "CT", &cols(&["C", "T"])),
            Err(EvolveError::DuplicateRelation(_))
        ));
        assert!(matches!(
            drop_relation(&schema, "ZZ"),
            Err(EvolveError::UnknownRelation(_))
        ));
    }
}
