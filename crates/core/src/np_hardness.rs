//! Theorem 1: intractability of the maintenance problem.
//!
//! The reduction is from *membership in a projected join*: given a
//! universal relation `r`, a schema `{R1..Rk}` and an `X`-tuple `t`, is
//! `t ∈ π_X(π_R1(r) ⋈ … ⋈ π_Rk(r))`?  (\[Y\] proves this NP-complete.)
//! Theorem 1 turns any such instance into a maintenance quadruple
//! `(p, p', D, F)` where `p` is always satisfying and `p'` (one inserted
//! tuple) is satisfying **iff** `t` is *not* in the projected join.
//!
//! This module provides the NP-complete problem, a backtracking solver for
//! it, and the reduction — so the benchmark suite can exhibit the
//! exponential wall the paper's fast path avoids.

use ids_deps::{Fd, FdSet};
use ids_relational::{
    AttrId, AttrSet, DatabaseSchema, DatabaseState, Relation, RelationScheme, SchemeId, Universe,
    Value,
};

/// An instance of the membership-in-projected-join problem.
#[derive(Clone, Debug)]
pub struct JoinMembershipInstance {
    /// The universal relation `r` over the original universe `U0`.
    pub r: Relation,
    /// The component schemes `R1..Rk` (covering `U0`).
    pub components: Vec<AttrSet>,
    /// The projection attributes `X`.
    pub x: AttrSet,
    /// The candidate `X`-tuple `t` (in `X`'s scheme order).
    pub t: Vec<Value>,
}

/// Decides `t ∈ π_X(*π_D(r))` by backtracking over components: each step
/// picks a tuple of `π_Ri(r)` consistent with the partial assignment.
/// Exponential in the worst case — that is the point.
pub fn tuple_in_projected_join(inst: &JoinMembershipInstance) -> bool {
    let width = inst.r.attrs().len();
    debug_assert_eq!(inst.r.attrs(), AttrSet::first_n(width));
    let mut assignment: Vec<Option<Value>> = vec![None; width];
    for (a, v) in inst.x.iter().zip(inst.t.iter()) {
        assignment[a.index()] = Some(*v);
    }
    let projections: Vec<Relation> = inst.components.iter().map(|c| inst.r.project(*c)).collect();
    search(&projections, &inst.components, 0, &mut assignment)
}

fn search(
    projections: &[Relation],
    components: &[AttrSet],
    i: usize,
    assignment: &mut [Option<Value>],
) -> bool {
    if i == projections.len() {
        return true;
    }
    let comp = components[i];
    'tuples: for tuple in projections[i].iter() {
        let mut touched: Vec<usize> = Vec::new();
        for (pos, a) in comp.iter().enumerate() {
            let v = tuple[pos];
            match assignment[a.index()] {
                Some(existing) if existing != v => {
                    for t in touched {
                        assignment[t] = None;
                    }
                    continue 'tuples;
                }
                Some(_) => {}
                None => {
                    assignment[a.index()] = Some(v);
                    touched.push(a.index());
                }
            }
        }
        if search(projections, components, i + 1, assignment) {
            return true;
        }
        for t in touched {
            assignment[t] = None;
        }
    }
    false
}

/// The Theorem 1 gadget: a maintenance quadruple.
#[derive(Debug)]
pub struct MaintenanceGadget {
    /// The schema `D = {R1·Â, .., R(k−1)·Â, Rk·Â·B̂}`.
    pub schema: DatabaseSchema,
    /// `F = {X → B̂}`.
    pub fds: FdSet,
    /// The base state `p` — always satisfying.
    pub base: DatabaseState,
    /// Scheme receiving the insert (the last component).
    pub insert_scheme: SchemeId,
    /// The tuple `t1[Rk·Â·B̂]` whose insertion is satisfying iff
    /// `t ∉ π_X(*π_D(r))`.
    pub insert_tuple: Vec<Value>,
}

/// Builds the Theorem 1 reduction from a join-membership instance.
///
/// `universe0` names the original attributes; two fresh attributes `Â`
/// and `B̂` are appended.
pub fn theorem1_reduction(
    universe0: &Universe,
    inst: &JoinMembershipInstance,
) -> MaintenanceGadget {
    let width0 = universe0.len();
    // New universe U = U0 ∪ {Â, B̂}.
    let mut u = universe0.clone();
    let a_hat = u.add("__A").expect("fresh name");
    let b_hat = u.add("__B").expect("fresh name");

    // Constant A/B values and fresh values for t1 on U − X.
    let mut max_val: u64 = 0;
    for t in inst.r.iter() {
        for v in t.iter() {
            max_val = max_val.max(v.0);
        }
    }
    for v in &inst.t {
        max_val = max_val.max(v.0);
    }
    let a_val = Value::int(max_val + 1);
    let b_val = Value::int(max_val + 2);
    let mut fresh = max_val + 3;

    // t1: t extended to the whole of U with fresh values — including Â.
    // The fresh Â-value is what stops t1's fragments from joining with s's
    // (Â appears in every scheme), giving s1* = *π_D(s) ∪ {t1}.
    let mut t1: Vec<Value> = Vec::with_capacity(width0 + 2);
    for c in 0..width0 {
        let attr = AttrId::from_index(c);
        if inst.x.contains(attr) {
            t1.push(inst.t[inst.x.rank(attr)]);
        } else {
            t1.push(Value::int(fresh));
            fresh += 1;
        }
    }
    t1.push(Value::int(fresh)); // Â-value of t1: fresh
    fresh += 1;
    // B̂-value of t1 is new as well (differs from b).
    let t1_b = Value::int(fresh);

    // Schema: Ri ∪ {Â} for i < k; Rk ∪ {Â, B̂}.
    let k = inst.components.len();
    let mut schemes = Vec::with_capacity(k);
    for (i, comp) in inst.components.iter().enumerate() {
        let mut attrs = *comp;
        attrs.insert(a_hat);
        if i == k - 1 {
            attrs.insert(b_hat);
        }
        schemes.push(RelationScheme {
            name: format!("R{}", i + 1),
            attrs,
        });
    }
    let schema = DatabaseSchema::new(u, schemes).expect("components cover U0, Â/B̂ added");

    // F = {X → B̂}.
    let fds = FdSet::from_fds([Fd::new(inst.x, AttrSet::singleton(b_hat))]);

    // s = r × {(a, b)}; s1 = s ∪ {t1·b'}.
    // p: components 1..k−1 take projections of s1; component k takes the
    // projection of s only.
    let mut base = DatabaseState::empty(&schema);
    let mut full_t1 = t1.clone();
    full_t1.push(t1_b);
    for (i, _) in inst.components.iter().enumerate() {
        let id = SchemeId::from_index(i);
        let attrs = schema.attrs(id);
        let last = i == k - 1;
        // Project each universal tuple of s (= r × {(a,b)}) onto Ri·Â(·B̂);
        // the first k−1 components additionally receive t1's fragment.
        for t in inst.r.iter() {
            let mut full = t.to_vec();
            full.push(a_val);
            full.push(b_val);
            let proj = project_row(&full, width0 + 2, attrs);
            base.relation_mut(id).insert(proj).expect("arity");
        }
        if !last {
            let proj = project_row(&full_t1, width0 + 2, attrs);
            base.relation_mut(id).insert(proj).expect("arity");
        }
    }

    // The inserted tuple: t1[Rk·Â·B̂] with the *fresh* B̂-value.
    let insert_scheme = SchemeId::from_index(k - 1);
    let insert_tuple = project_row(&full_t1, width0 + 2, schema.attrs(insert_scheme));

    MaintenanceGadget {
        schema,
        fds,
        base,
        insert_scheme,
        insert_tuple,
    }
}

/// Projects a full-width row onto `attrs` (scheme order).
fn project_row(full: &[Value], width: usize, attrs: AttrSet) -> Vec<Value> {
    debug_assert_eq!(full.len(), width);
    attrs.iter().map(|a| full[a.index()]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_chase::{satisfies, ChaseConfig};

    fn v(n: u64) -> Value {
        Value::int(n)
    }

    /// Reference implementation: materialize the whole join (exponential
    /// memory) — used to validate the backtracking solver on small inputs.
    fn tuple_in_projected_join_materialized(inst: &JoinMembershipInstance) -> bool {
        let projections: Vec<Relation> =
            inst.components.iter().map(|c| inst.r.project(*c)).collect();
        let Some(join) = ids_relational::join_all(projections.iter()) else {
            return false;
        };
        join.project(inst.x).contains(&inst.t)
    }

    /// A small instance over U0 = {A,B,C}, components {AB, BC}, X = {A,C}.
    fn small_instance(t_in_join: bool) -> (Universe, JoinMembershipInstance) {
        let u = Universe::from_names(["A", "B", "C"]).unwrap();
        let mut r = Relation::new(u.all());
        r.insert(vec![v(1), v(2), v(3)]).unwrap();
        r.insert(vec![v(4), v(2), v(5)]).unwrap();
        let x = u.parse_set("AC").unwrap();
        // Mixing through B=2: (1,·,5) IS in the projected join; (1,·,9) not.
        let t = if t_in_join {
            vec![v(1), v(5)]
        } else {
            vec![v(1), v(9)]
        };
        let inst = JoinMembershipInstance {
            r,
            components: vec![u.parse_set("AB").unwrap(), u.parse_set("BC").unwrap()],
            x,
            t,
        };
        (u, inst)
    }

    #[test]
    fn solver_agrees_with_materialized_join() {
        for flag in [true, false] {
            let (_, inst) = small_instance(flag);
            assert_eq!(
                tuple_in_projected_join(&inst),
                tuple_in_projected_join_materialized(&inst)
            );
            assert_eq!(tuple_in_projected_join(&inst), flag);
        }
    }

    #[test]
    fn base_state_always_satisfies() {
        for flag in [true, false] {
            let (u0, inst) = small_instance(flag);
            let g = theorem1_reduction(&u0, &inst);
            let sat = satisfies(&g.schema, &g.fds, &g.base, &ChaseConfig::default()).unwrap();
            assert!(sat.is_satisfying(), "p must satisfy Σ (claim 1)");
        }
    }

    #[test]
    fn insert_satisfying_iff_tuple_not_in_join() {
        for flag in [true, false] {
            let (u0, inst) = small_instance(flag);
            let in_join = tuple_in_projected_join(&inst);
            assert_eq!(in_join, flag);
            let g = theorem1_reduction(&u0, &inst);
            let mut p_prime = g.base.clone();
            p_prime
                .insert(g.insert_scheme, g.insert_tuple.clone())
                .unwrap();
            let sat = satisfies(&g.schema, &g.fds, &p_prime, &ChaseConfig::default()).unwrap();
            assert_eq!(
                sat.is_satisfying(),
                !in_join,
                "p' satisfies iff t is NOT in the projected join (claim 2)"
            );
        }
    }

    #[test]
    fn empty_join_membership() {
        let u = Universe::from_names(["A", "B"]).unwrap();
        let r = Relation::new(u.all());
        let inst = JoinMembershipInstance {
            r,
            components: vec![u.parse_set("A").unwrap(), u.parse_set("B").unwrap()],
            x: u.parse_set("A").unwrap(),
            t: vec![v(1)],
        };
        assert!(!tuple_in_projected_join(&inst));
        assert!(!tuple_in_projected_join_materialized(&inst));
    }

    #[test]
    fn ring_parity_family_is_searchable() {
        // The cyclic family used by bench E3: components {A1A2, .., AkA1},
        // r = all equal-parity pairs; t asks for an odd cycle — absent.
        let k = 5usize;
        let names: Vec<String> = (1..=k).map(|i| format!("A{i}")).collect();
        let u = Universe::from_names(names.iter().map(String::as_str)).unwrap();
        let mut r = Relation::new(u.all());
        // Two universal tuples: all-0 and all-1.
        r.insert((0..k).map(|_| v(0)).collect()).unwrap();
        r.insert((0..k).map(|_| v(1)).collect()).unwrap();
        let mut components = Vec::new();
        for i in 0..k {
            let mut c = AttrSet::singleton(AttrId::from_index(i));
            c.insert(AttrId::from_index((i + 1) % k));
            components.push(c);
        }
        // X = {A1, A3}: is (0, 1) reachable? Only via a mixed chain, which
        // the all-equal r does not provide: expect false.
        let x: AttrSet = [AttrId::from_index(0), AttrId::from_index(2)]
            .into_iter()
            .collect();
        let inst = JoinMembershipInstance {
            r,
            components,
            x,
            t: vec![v(0), v(1)],
        };
        assert!(!tuple_in_projected_join(&inst));
        assert!(!tuple_in_projected_join_materialized(&inst));
    }
}
