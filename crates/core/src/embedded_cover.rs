//! Section 3: testing condition (1) of Theorem 2 — does `D` embed a cover
//! of `G`, the FDs implied by `F ∪ {*D}`?
//!
//! The paper extends Beeri–Honeyman's embedded-cover test: by Lemma 5,
//! closures under `G1 = G|D` (the implied FDs embedded in `D`) are computed
//! by the fixpoint
//!
//! ```text
//! while changing:  for each Ri ∈ D:  Z ∪= Ri ∩ cl_Σ(Ri ∩ Z)
//! ```
//!
//! where `cl_Σ` is FD-closure under `F ∪ {*D}` (the polynomial \[MSY\]
//! primitive, `ids_deps::closure_with_jd`).  `D` embeds a cover of `G` iff
//! `A ∈ cl_G1(X)` for every `X → A ∈ F` (Lemma 2).  When it does, the FDs
//! `Ri∩Z → Ri∩cl_Σ(Ri∩Z)` that fired form an embedded cover `H` with
//! `|H| ≤ |F|·|U|`.

use ids_deps::{closure_with_jd, Fd, FdSet, JoinDependency};
use ids_relational::{AttrSet, DatabaseSchema, SchemeId};

/// One firing of the Lemma 5 fixpoint: the embedded FD
/// `Ri∩Z → Ri∩cl_Σ(Ri∩Z)` that enlarged the closure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClosureStep {
    /// The scheme the recorded FD is embedded in.
    pub scheme: SchemeId,
    /// The embedded FD.
    pub fd: Fd,
}

/// Computes `cl_G1(x)` together with the embedded FDs that fired.
///
/// `cl_sigma` abstracts the Σ-closure so the same fixpoint serves both the
/// paper's `Σ = F ∪ {*D}` (via [`closure_with_jd`]) and plain
/// Beeri–Honeyman (`Σ = F`).
fn closure_embedded_with<C>(
    schema: &DatabaseSchema,
    cl_sigma: C,
    x: AttrSet,
) -> (AttrSet, Vec<ClosureStep>)
where
    C: Fn(AttrSet) -> AttrSet,
{
    let mut z = x;
    let mut steps: Vec<ClosureStep> = Vec::new();
    let mut changed = true;
    while changed {
        changed = false;
        for (id, scheme) in schema.iter() {
            let y = scheme.attrs.intersect(z);
            if y.is_empty() {
                continue;
            }
            let c = cl_sigma(y).intersect(scheme.attrs);
            if !c.is_subset(z) {
                steps.push(ClosureStep {
                    scheme: id,
                    fd: Fd::new(y, c),
                });
                z.union_in_place(c);
                changed = true;
            }
        }
    }
    (z, steps)
}

/// Result of the cover-embedding test.
#[derive(Clone, Debug)]
pub enum CoverEmbedding {
    /// `D` embeds a cover of `G`; the extracted cover `H = ∪ Hi` follows,
    /// as `(scheme, fd)` pairs with every FD embedded in its scheme.
    Embedded {
        /// The embedded cover, each FD paired with a scheme embedding it.
        cover: Vec<ClosureStep>,
    },
    /// Some FD of `F` is not implied by the embedded consequences: by
    /// Lemma 3, `D` is **not independent**.
    NotEmbedded {
        /// A witness FD `X → A ∈ F` with `A ∉ cl_G1(X)`.
        failing: Fd,
        /// The closed set `cl_G1(X)` (Lemma 3 builds the two-tuple
        /// counterexample instance agreeing exactly on this set).
        closed: AttrSet,
    },
}

/// Tests condition (1) of Theorem 2 and extracts the embedded cover `H`.
pub fn test_cover_embedding(schema: &DatabaseSchema, fds: &FdSet) -> CoverEmbedding {
    let jd = JoinDependency::of_schema(schema);
    let cl = |y: AttrSet| closure_with_jd(fds.as_slice(), &jd, y);
    let mut cover: Vec<ClosureStep> = Vec::new();
    for fd in fds.iter() {
        let (closed, steps) = closure_embedded_with(schema, cl, fd.lhs);
        if !fd.rhs.is_subset(closed) {
            return CoverEmbedding::NotEmbedded {
                failing: *fd,
                closed,
            };
        }
        // Prune to the steps that actually contribute to deriving fd.rhs
        // (backward pass), keeping |H| ≤ |F|·|U|.
        let mut needed = fd.rhs.difference(fd.lhs);
        for step in steps.iter().rev() {
            if step.fd.rhs.intersects(needed) {
                needed = needed
                    .difference(step.fd.rhs)
                    .union(step.fd.lhs.difference(fd.lhs));
                if !cover.contains(step) {
                    cover.push(*step);
                }
            }
        }
    }
    CoverEmbedding::Embedded { cover }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_relational::Universe;

    /// Example 2 of the paper: CT, CS, CHR with C→T, CH→R.
    fn example2() -> (DatabaseSchema, FdSet) {
        let u = Universe::from_names(["C", "T", "H", "R", "S"]).unwrap();
        let schema =
            DatabaseSchema::parse(u, &[("CT", "CT"), ("CS", "CS"), ("CHR", "CHR")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["C -> T", "CH -> R"]).unwrap();
        (schema, fds)
    }

    #[test]
    fn example2_embeds_its_fds() {
        let (schema, fds) = example2();
        let CoverEmbedding::Embedded { cover } = test_cover_embedding(&schema, &fds) else {
            panic!("example 2 embeds");
        };
        let h: FdSet = cover.iter().map(|s| s.fd).collect();
        assert!(h.implies_all(&fds));
        // Every cover FD is embedded in its recorded scheme.
        for s in &cover {
            assert!(s.fd.embedded_in(schema.attrs(s.scheme)));
        }
    }

    #[test]
    fn example2_with_sh_to_r_fails_condition_1() {
        // Adding SH→R: "the new dependency cannot be derived from the
        // embedded ones, and therefore condition (1) is not satisfied."
        let (schema, _) = example2();
        let fds = FdSet::parse(schema.universe(), &["C -> T", "CH -> R", "SH -> R"]).unwrap();
        let res = test_cover_embedding(&schema, &fds);
        match res {
            CoverEmbedding::NotEmbedded { failing, .. } => {
                assert_eq!(failing, Fd::parse(schema.universe(), "SH -> R").unwrap());
            }
            CoverEmbedding::Embedded { .. } => panic!("SH->R must not embed"),
        }
    }

    #[test]
    fn non_embedded_fd_derivable_via_embedded_transitivity() {
        // C→T, TH→R with schemes {CT, THR, CH?}: CH→R not needed; instead:
        // the classic: F = {C→T, TH→R}, D = {CT, CTH? ...}. Use
        // D = {CT, CTHR? } simpler: D = {CT, CHR}: TH→R is NOT embedded,
        // but CH→R is an embedded consequence and covers F? No: TH→R is
        // strictly stronger than CH→R. Condition (1) must fail.
        let u = Universe::from_names(["C", "T", "H", "R"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("CT", "CT"), ("CHR", "CHR")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["C -> T", "TH -> R"]).unwrap();
        let res = test_cover_embedding(&schema, &fds);
        match res {
            CoverEmbedding::NotEmbedded { failing, .. } => {
                assert_eq!(failing, Fd::parse(schema.universe(), "TH -> R").unwrap());
            }
            CoverEmbedding::Embedded { .. } => {
                panic!("TH->R is not recoverable from embedded FDs")
            }
        }
    }

    #[test]
    fn cover_size_bound() {
        let (schema, fds) = example2();
        if let CoverEmbedding::Embedded { cover } = test_cover_embedding(&schema, &fds) {
            let u_size = schema.universe().len();
            assert!(cover.len() <= fds.len() * u_size);
        } else {
            panic!("example 2 embeds");
        }
    }

    #[test]
    fn closure_embedded_is_sound() {
        // cl_G1(X) must be contained in cl_Σ(X) and contain cl of embedded
        // FDs of F.
        let (schema, fds) = example2();
        let jd = JoinDependency::of_schema(&schema);
        for spec in ["C", "CH", "S", "CS"] {
            let x = schema.universe().parse_set(spec).unwrap();
            let cl = |y| closure_with_jd(fds.as_slice(), &jd, y);
            let (z, _) = closure_embedded_with(&schema, cl, x);
            assert!(z.is_subset(closure_with_jd(fds.as_slice(), &jd, x)));
            assert!(x.is_subset(z));
        }
    }
}
