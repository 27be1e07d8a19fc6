//! Section 4: the tagged-tableau Loop deciding independence for an
//! embedded cover `F = F1 ∪ … ∪ Fk`.
//!
//! Run once per relation scheme `Rl`.  The run is "essentially a
//! computation of the closure `Rl⁺` of `Rl` under `F`" with two twists:
//! available left-hand sides are processed **weakest first** (weakness of
//! their tagged tableaux `T(X)`), and processing a l.h.s. adds its whole
//! *local* closure `X*` at once.  Rejection at line 4 (a newly calculated
//! attribute was already available through a different, incomparable
//! calculation) or line 5 (two equivalent l.h.s. disagree on what they
//! newly calculate) exhibits two distinct minimal calculations of the same
//! function `Rl → A` — the seed of a Theorem 4 counterexample state.

use ids_chase::{TaggedRow, TaggedTableau};
use ids_deps::{closure_of, Fd, FdSet};
use ids_relational::{AttrId, AttrSet, DatabaseSchema, SchemeId};

/// A left-hand side appearing in some `Fi`, with its local closure.
///
/// The paper distinguishes appearances of the same attribute set in
/// different schemes; `scheme` is part of the identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LhsInfo {
    /// The scheme `Ri` whose `Fi` contains this l.h.s.
    pub scheme: SchemeId,
    /// The attribute set `X`.
    pub attrs: AttrSet,
    /// The local closure `X*` (closure of `X` under `Fi`).
    pub star: AttrSet,
}

/// Which guard rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RejectLine {
    /// Line 4: an attribute of `X*new` was already available.
    Line4,
    /// Line 5: an equivalent l.h.s. computes a different `new` set.  The
    /// reject info's `picked` is already converted to the l.h.s. whose
    /// line-4-style conflict witnesses the failure (Theorem 4, case 2).
    Line5 {
        /// The l.h.s. originally picked at line 1.
        original_pick: LhsInfo,
    },
}

/// Everything the Theorem 4 witness construction needs about a rejection.
#[derive(Clone, Debug)]
pub struct RejectInfo {
    /// The scheme `Rl` the Loop was running for.
    pub run_for: SchemeId,
    /// Which guard fired.
    pub line: RejectLine,
    /// The l.h.s. `X` used for witness construction.
    pub picked: LhsInfo,
    /// The available attribute `A ∈ X*new` that conflicts.
    pub conflict_attr: Option<AttrId>,
    /// `T(X)`.
    pub t_x: TaggedTableau,
    /// `T(A)` for the conflicting attribute (empty when `conflict_attr` is
    /// `None`).
    pub t_a: TaggedTableau,
    /// `X*old` — closure of `X` under `WF(X) = {Z → Z* : Z ∈ W(X)}`.
    pub x_old: AttrSet,
    /// `X*new = X* − X*old`.
    pub x_new: AttrSet,
}

/// One iteration of the Loop, for traces.
#[derive(Clone, Debug)]
pub struct IterationRecord {
    /// The l.h.s. picked at line 1.
    pub picked: LhsInfo,
    /// `E(X)`: available l.h.s. of the same scheme equivalent to `X`.
    pub equivalent: Vec<LhsInfo>,
    /// `W(X)`: available l.h.s. of the same scheme strictly weaker.
    pub weaker: Vec<LhsInfo>,
    /// `X*old`.
    pub x_old: AttrSet,
    /// `X*new`.
    pub x_new: AttrSet,
}

/// Full trace of one per-scheme run.
#[derive(Clone, Debug)]
pub struct LoopTrace {
    /// The scheme the run was for.
    pub run_for: SchemeId,
    /// Iterations in order.
    pub iterations: Vec<IterationRecord>,
    /// Whether the run accepted.
    pub accepted: bool,
}

/// Outcome of one per-scheme run.
pub type LoopOutcome = Result<(), Box<RejectInfo>>;

/// Internal state of one per-scheme run; exposed opaquely to pickers via
/// [`LoopRun::lhs_info`].
pub struct LoopRun<'a> {
    schema: &'a DatabaseSchema,
    run_for: SchemeId,
    lhs: Vec<LhsInfo>,
    t_lhs: Vec<Option<TaggedTableau>>,
    processed: Vec<bool>,
    available_attrs: AttrSet,
    t_attr: Vec<Option<TaggedTableau>>,
}

impl<'a> LoopRun<'a> {
    fn new(schema: &'a DatabaseSchema, partition: &[FdSet], run_for: SchemeId) -> Self {
        // Collect the distinct l.h.s. of every Fi with i ≠ run_for.
        let mut lhs: Vec<LhsInfo> = Vec::new();
        for (id, _) in schema.iter() {
            if id == run_for {
                continue;
            }
            let fi = &partition[id.index()];
            for fd in fi.iter() {
                if lhs.iter().any(|e| e.scheme == id && e.attrs == fd.lhs) {
                    continue;
                }
                lhs.push(LhsInfo {
                    scheme: id,
                    attrs: fd.lhs,
                    star: fi.closure(fd.lhs),
                });
            }
        }
        let n = lhs.len();
        let width = schema.universe().len();
        let mut run = LoopRun {
            schema,
            run_for,
            lhs,
            t_lhs: vec![None; n],
            processed: vec![false; n],
            available_attrs: schema.attrs(run_for),
            t_attr: vec![None; width],
        };
        for a in schema.attrs(run_for) {
            run.t_attr[a.index()] = Some(TaggedTableau::new());
        }
        run.refresh_lhs_availability();
        run
    }

    /// Materializes `T(X)` for l.h.s. that just became available
    /// (`T(X) = ∪_{A∈X} T(A) ∪ {X*-row}`, frozen thereafter).
    fn refresh_lhs_availability(&mut self) {
        for i in 0..self.lhs.len() {
            if self.t_lhs[i].is_some() {
                continue;
            }
            let e = self.lhs[i];
            if !e.attrs.is_subset(self.available_attrs) {
                continue;
            }
            let mut t = TaggedTableau::new();
            for a in e.attrs {
                t = t.union(
                    self.t_attr[a.index()]
                        .as_ref()
                        .expect("available attribute has a defined tableau"),
                );
            }
            t.push(TaggedRow {
                tag: e.scheme,
                dvs: e.star,
            });
            self.t_lhs[i] = Some(t);
        }
    }

    fn tableau(&self, i: usize) -> &TaggedTableau {
        self.t_lhs[i].as_ref().expect("available l.h.s.")
    }

    fn available(&self, i: usize) -> bool {
        self.t_lhs[i].is_some()
    }

    /// `E(X)` as indexes: available l.h.s. of the same scheme equivalent to
    /// `X` (including `X` itself).
    fn equivalence_class(&self, x: usize) -> Vec<usize> {
        let tx = self.tableau(x);
        (0..self.lhs.len())
            .filter(|&i| {
                self.available(i)
                    && self.lhs[i].scheme == self.lhs[x].scheme
                    && self.tableau(i).equivalent(tx)
            })
            .collect()
    }

    /// `W(X)` as indexes: available l.h.s. of the same scheme strictly
    /// weaker than `X`.
    fn strictly_weaker_set(&self, x: usize) -> Vec<usize> {
        let tx = self.tableau(x);
        (0..self.lhs.len())
            .filter(|&i| {
                self.available(i)
                    && self.lhs[i].scheme == self.lhs[x].scheme
                    && self.tableau(i).strictly_weaker(tx)
            })
            .collect()
    }

    /// `WF(X) = {Z → Z* : Z ∈ W(X)}`.
    fn wf(&self, weaker: &[usize]) -> Vec<Fd> {
        weaker
            .iter()
            .map(|&i| Fd::new(self.lhs[i].attrs, self.lhs[i].star))
            .collect()
    }

    fn run(
        &mut self,
        picker: &mut dyn FnMut(&[usize], &LoopRun<'_>) -> usize,
    ) -> (LoopOutcome, LoopTrace) {
        let mut trace = LoopTrace {
            run_for: self.run_for,
            iterations: Vec::new(),
            accepted: false,
        };
        loop {
            // Candidates: available but unprocessed.
            let candidates: Vec<usize> = (0..self.lhs.len())
                .filter(|&i| self.available(i) && !self.processed[i])
                .collect();
            if candidates.is_empty() {
                trace.accepted = true;
                return (Ok(()), trace);
            }
            // Weakest candidates: minimal under ≤ among the candidates.
            let minimal: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&i| {
                    !candidates
                        .iter()
                        .any(|&j| j != i && self.tableau(j).strictly_weaker(self.tableau(i)))
                })
                .collect();
            debug_assert!(!minimal.is_empty());
            let x = picker(&minimal, self);

            // Lines 1–3.
            let e_set = self.equivalence_class(x);
            let w_set = self.strictly_weaker_set(x);
            let wf = self.wf(&w_set);
            let x_old = closure_of(&wf, self.lhs[x].attrs);
            let x_new = self.lhs[x].star.difference(x_old);

            trace.iterations.push(IterationRecord {
                picked: self.lhs[x],
                equivalent: e_set.iter().map(|&i| self.lhs[i]).collect(),
                weaker: w_set.iter().map(|&i| self.lhs[i]).collect(),
                x_old,
                x_new,
            });

            // Line 4: every attribute of X*new must be unavailable.
            if let Some(a) = x_new.iter().find(|a| self.available_attrs.contains(*a)) {
                let reject = RejectInfo {
                    run_for: self.run_for,
                    line: RejectLine::Line4,
                    picked: self.lhs[x],
                    conflict_attr: Some(a),
                    t_x: self.tableau(x).clone(),
                    t_a: self.t_attr[a.index()].clone().unwrap_or_default(),
                    x_old,
                    x_new,
                };
                return (Err(Box::new(reject)), trace);
            }

            // Line 5: every equivalent l.h.s. must compute the same new set.
            for &y in &e_set {
                if y == x {
                    continue;
                }
                let y_old = closure_of(&wf, self.lhs[y].attrs);
                let y_new = self.lhs[y].star.difference(y_old);
                if y_new != x_new {
                    // Theorem 4 case 2: picking Y would have rejected at
                    // line 4 — find the available attribute in Y*new.
                    let conflict = y_new.iter().find(|a| self.available_attrs.contains(*a));
                    debug_assert!(
                        conflict.is_some(),
                        "line-5 rejection must expose an available attribute in Y*new"
                    );
                    let t_a = conflict
                        .and_then(|a| self.t_attr[a.index()].clone())
                        .unwrap_or_default();
                    let reject = RejectInfo {
                        run_for: self.run_for,
                        line: RejectLine::Line5 {
                            original_pick: self.lhs[x],
                        },
                        picked: self.lhs[y],
                        conflict_attr: conflict,
                        t_x: self.tableau(y).clone(),
                        t_a,
                        x_old: y_old,
                        x_new: y_new,
                    };
                    return (Err(Box::new(reject)), trace);
                }
            }

            // Line 6: the new attributes become available with T(A) = T(X).
            let tx = self.tableau(x).clone();
            for a in x_new {
                self.available_attrs.insert(a);
                self.t_attr[a.index()] = Some(tx.clone());
            }

            // Line 7: availability and tableaux of l.h.s. are updated.
            self.refresh_lhs_availability();

            // Line 8: unprocessed l.h.s. of the same scheme with Z* ⊆ X*
            // are marked processed (this includes X itself).
            let x_scheme = self.lhs[x].scheme;
            let x_star = self.lhs[x].star;
            for i in 0..self.lhs.len() {
                if !self.processed[i]
                    && self.lhs[i].scheme == x_scheme
                    && self.lhs[i].star.is_subset(x_star)
                {
                    self.processed[i] = true;
                }
            }
            debug_assert!(self.processed[x]);
        }
    }
}

/// Runs the Loop for `run_for`, picking the first weakest candidate
/// deterministically.
pub fn run_loop(
    schema: &DatabaseSchema,
    partition: &[FdSet],
    run_for: SchemeId,
) -> (LoopOutcome, LoopTrace) {
    run_loop_with_picker(schema, partition, run_for, &mut |min, _| min[0])
}

/// Runs the Loop with a custom choice among the weakest candidates —
/// used by tests to replay both branches of the paper's Example 3.
pub fn run_loop_with_picker(
    schema: &DatabaseSchema,
    partition: &[FdSet],
    run_for: SchemeId,
    picker: &mut dyn FnMut(&[usize], &LoopRun<'_>) -> usize,
) -> (LoopOutcome, LoopTrace) {
    LoopRun::new(schema, partition, run_for).run(picker)
}

/// Information tests can read from inside a picker callback.
impl LoopRun<'_> {
    /// The l.h.s. entry at an index (for pickers).
    pub fn lhs_info(&self, i: usize) -> LhsInfo {
        self.lhs[i]
    }

    /// The schema the run operates on (for pickers).
    pub fn schema(&self) -> &DatabaseSchema {
        self.schema
    }
}

/// Runs the Loop for **every** scheme; `Ok` means the algorithm accepts
/// (`D` independent w.r.t. the embedded cover), `Err` carries the first
/// rejection.
pub(crate) fn run_all(
    schema: &DatabaseSchema,
    partition: &[FdSet],
) -> (Result<(), Box<RejectInfo>>, Vec<LoopTrace>) {
    let mut traces = Vec::with_capacity(schema.len());
    for id in schema.ids() {
        let (outcome, trace) = run_loop(schema, partition, id);
        traces.push(trace);
        if let Err(r) = outcome {
            return (Err(r), traces);
        }
    }
    (Ok(()), traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_deps::partition_embedded;
    use ids_relational::Universe;

    /// The reconstructed Example 3 (see DESIGN.md):
    /// `D = {R1 = A1B1, R2 = A1B1A2B2C}`,
    /// `F = F2 = {A1→A2, B1→B2, A1B1→C, A2B2→A1B1C}`.
    fn example3() -> (DatabaseSchema, Vec<FdSet>) {
        let u = Universe::from_names(["A1", "B1", "A2", "B2", "C"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("R1", "A1 B1"), ("R2", "A1 B1 A2 B2 C")]).unwrap();
        let fds = FdSet::parse(
            schema.universe(),
            &["A1 -> A2", "B1 -> B2", "A1 B1 -> C", "A2 B2 -> A1 B1 C"],
        )
        .unwrap();
        let partition = partition_embedded(&fds, &schema.join_dependency_components()).unwrap();
        (schema, partition)
    }

    #[test]
    fn example3_rejects() {
        let (schema, partition) = example3();
        let r1 = schema.scheme_by_name("R1").unwrap();
        let (outcome, trace) = run_loop(&schema, &partition, r1);
        assert!(outcome.is_err(), "Example 3 must reject when run for R1");
        assert!(!trace.accepted);
    }

    #[test]
    fn example3_trace_matches_paper() {
        // Replay the printed trace: first two iterations process {A1} and
        // {B1}; the third picks among the equivalent pair {A1B1, A2B2} and
        // rejects (line 4 for A2B2, line 5 for A1B1).
        let (schema, partition) = example3();
        let u = schema.universe();
        let r1 = schema.scheme_by_name("R1").unwrap();
        let a1b1 = u.parse_set("A1 B1").unwrap();
        let a2b2 = u.parse_set("A2 B2").unwrap();

        // Branch 1: prefer A2B2 at the third iteration → line 4.
        let mut pick_a2b2 = |min: &[usize], run: &LoopRun<'_>| {
            min.iter()
                .copied()
                .find(|&i| run.lhs_info(i).attrs == a2b2)
                .unwrap_or(min[0])
        };
        let (outcome, trace) = run_loop_with_picker(&schema, &partition, r1, &mut pick_a2b2);
        let reject = outcome.unwrap_err();
        assert_eq!(reject.line, RejectLine::Line4);
        assert_eq!(reject.picked.attrs, a2b2);
        // (A2B2)*old = A2B2, (A2B2)*new = A1B1C — as printed in the paper.
        assert_eq!(u.render(reject.x_old), "A2 B2");
        assert_eq!(u.render(reject.x_new), "A1 B1 C");
        assert_eq!(trace.iterations.len(), 3);
        // The first two iterations processed the singleton l.h.s.
        assert_eq!(u.render(trace.iterations[0].picked.attrs), "A1");
        assert_eq!(u.render(trace.iterations[1].picked.attrs), "B1");
        // W(A2B2) = {A1, B1}.
        let w: Vec<String> = trace.iterations[2]
            .weaker
            .iter()
            .map(|e| u.render(e.attrs))
            .collect();
        assert_eq!(w, vec!["A1", "B1"]);
        // E(A2B2) = {A1B1, A2B2}.
        assert_eq!(trace.iterations[2].equivalent.len(), 2);

        // Branch 2: prefer A1B1 → line 5 (converted to the A2B2 conflict).
        let mut pick_a1b1 = |min: &[usize], run: &LoopRun<'_>| {
            min.iter()
                .copied()
                .find(|&i| run.lhs_info(i).attrs == a1b1)
                .unwrap_or(min[0])
        };
        let (outcome, _) = run_loop_with_picker(&schema, &partition, r1, &mut pick_a1b1);
        let reject = outcome.unwrap_err();
        match reject.line {
            RejectLine::Line5 { original_pick } => {
                assert_eq!(original_pick.attrs, a1b1);
                assert_eq!(reject.picked.attrs, a2b2);
                assert!(reject.conflict_attr.is_some());
            }
            RejectLine::Line4 => panic!("picking A1B1 must reject at line 5"),
        }
    }

    #[test]
    fn example2_accepts() {
        // Example 2 (CT, CS, CHR with C→T, CH→R) is independent; the Loop
        // must accept for every scheme.
        let u = Universe::from_names(["C", "T", "H", "R", "S"]).unwrap();
        let schema =
            DatabaseSchema::parse(u, &[("CT", "CT"), ("CS", "CS"), ("CHR", "CHR")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["C -> T", "CH -> R"]).unwrap();
        let partition = partition_embedded(&fds, &schema.join_dependency_components()).unwrap();
        let (outcome, traces) = run_all(&schema, &partition);
        assert!(outcome.is_ok());
        assert_eq!(traces.len(), 3);
        assert!(traces.iter().all(|t| t.accepted));
    }

    #[test]
    fn no_fds_accepts_trivially() {
        let u = Universe::from_names(["A", "B"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("AB", "AB")]).unwrap();
        let partition = vec![FdSet::new()];
        let (outcome, _) = run_all(&schema, &partition);
        assert!(outcome.is_ok());
    }
}
