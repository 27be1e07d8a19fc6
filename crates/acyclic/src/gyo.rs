//! GYO ear reduction, α-acyclicity and join trees.

use ids_relational::AttrSet;

/// A join tree over the edges (schemes) of an acyclic hypergraph.
///
/// `parent[i]` is the parent edge of edge `i` (`None` for the root).  A
/// valid join tree has the *running intersection property*: for every pair
/// of edges, their shared attributes appear on every edge along the tree
/// path between them — equivalently, `Ei ∩ (union of earlier ears)` is
/// contained in `parent[i]` for the ear elimination order used here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinTree {
    /// The edges, as supplied.
    pub edges: Vec<AttrSet>,
    /// Parent pointer per edge; exactly one root.
    pub parent: Vec<Option<usize>>,
    /// An ear-elimination order (leaves first, root last).
    pub elimination_order: Vec<usize>,
}

impl JoinTree {
    /// The root edge index.
    pub fn root(&self) -> usize {
        self.parent
            .iter()
            .position(Option::is_none)
            .expect("a join tree has a root")
    }

    /// Verifies the running-intersection property (used by tests).
    pub fn has_running_intersection(&self) -> bool {
        let n = self.edges.len();
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let shared = self.edges[i].intersect(self.edges[j]);
                if shared.is_empty() {
                    continue;
                }
                // Every edge on the path i..j must contain `shared`.
                let path = self.path(i, j);
                if !path.iter().all(|k| shared.is_subset(self.edges[*k])) {
                    return false;
                }
            }
        }
        true
    }

    /// The unique tree path between two edges (inclusive).
    fn path(&self, a: usize, b: usize) -> Vec<usize> {
        let ancestors = |mut x: usize| {
            let mut chain = vec![x];
            while let Some(p) = self.parent[x] {
                chain.push(p);
                x = p;
            }
            chain
        };
        let ca = ancestors(a);
        let cb = ancestors(b);
        // Find lowest common ancestor.
        let lca = *ca
            .iter()
            .find(|x| cb.contains(x))
            .expect("single tree: LCA exists");
        let mut path: Vec<usize> = ca.iter().take_while(|x| **x != lca).copied().collect();
        path.push(lca);
        let tail: Vec<usize> = cb.iter().take_while(|x| **x != lca).copied().collect();
        path.extend(tail.into_iter().rev());
        path
    }
}

/// GYO ear reduction: repeatedly removes an *ear* — an edge `Ei` whose
/// attributes are each either exclusive to `Ei` or contained in a single
/// witness edge `Ej`.  The hypergraph is α-acyclic iff reduction reaches a
/// single edge.  Returns a join tree on success.
pub fn join_tree(edges: &[AttrSet]) -> Option<JoinTree> {
    let n = edges.len();
    if n == 0 {
        return None;
    }
    let mut alive: Vec<bool> = vec![true; n];
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut remaining = n;

    while remaining > 1 {
        let mut removed_this_round = false;
        'ears: for i in 0..n {
            if !alive[i] {
                continue;
            }
            // Attributes of Ei shared with some other live edge.
            let mut shared = AttrSet::EMPTY;
            for j in 0..n {
                if j != i && alive[j] {
                    shared.union_in_place(edges[i].intersect(edges[j]));
                }
            }
            // Ear iff `shared` fits inside one other live edge (the parent).
            for j in 0..n {
                if j != i && alive[j] && shared.is_subset(edges[j]) {
                    alive[i] = false;
                    parent[i] = Some(j);
                    order.push(i);
                    remaining -= 1;
                    removed_this_round = true;
                    if remaining == 1 {
                        break 'ears;
                    }
                    // Restart the scan: removing an ear can create new ears.
                    continue 'ears;
                }
            }
        }
        if !removed_this_round {
            return None; // stuck: cyclic
        }
    }
    let root = alive.iter().position(|a| *a).expect("one edge remains");
    order.push(root);
    Some(JoinTree {
        edges: edges.to_vec(),
        parent,
        elimination_order: order,
    })
}

/// α-acyclicity test (GYO reducibility).
pub fn is_acyclic(edges: &[AttrSet]) -> bool {
    join_tree(edges).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_relational::Universe;

    fn edges(u: &Universe, specs: &[&str]) -> Vec<AttrSet> {
        specs.iter().map(|s| u.parse_set(s).unwrap()).collect()
    }

    #[test]
    fn chain_is_acyclic() {
        let u = Universe::from_names(["A", "B", "C", "D"]).unwrap();
        let e = edges(&u, &["AB", "BC", "CD"]);
        let t = join_tree(&e).unwrap();
        assert!(t.has_running_intersection());
        assert_eq!(t.elimination_order.len(), 3);
    }

    #[test]
    fn star_is_acyclic() {
        let u = Universe::from_names(["K", "A", "B", "C"]).unwrap();
        let e = edges(&u, &["KA", "KB", "KC"]);
        assert!(is_acyclic(&e));
        let t = join_tree(&e).unwrap();
        assert!(t.has_running_intersection());
    }

    #[test]
    fn triangle_is_cyclic() {
        let u = Universe::from_names(["A", "B", "C"]).unwrap();
        let e = edges(&u, &["AB", "BC", "CA"]);
        assert!(!is_acyclic(&e));
    }

    #[test]
    fn triangle_with_cover_edge_is_acyclic() {
        // Adding ABC makes the classic triangle α-acyclic.
        let u = Universe::from_names(["A", "B", "C"]).unwrap();
        let e = edges(&u, &["AB", "BC", "CA", "ABC"]);
        assert!(is_acyclic(&e));
        assert!(join_tree(&e).unwrap().has_running_intersection());
    }

    #[test]
    fn contained_edges_are_ears() {
        let u = Universe::from_names(["A", "B", "C"]).unwrap();
        let e = edges(&u, &["ABC", "AB", "C"]);
        let t = join_tree(&e).unwrap();
        assert!(t.has_running_intersection());
        assert_eq!(t.root(), 0);
    }

    #[test]
    fn single_edge_is_acyclic() {
        let u = Universe::from_names(["A", "B"]).unwrap();
        let e = edges(&u, &["AB"]);
        let t = join_tree(&e).unwrap();
        assert_eq!(t.root(), 0);
    }

    #[test]
    fn ring_of_four_is_cyclic() {
        let u = Universe::from_names(["A", "B", "C", "D"]).unwrap();
        let e = edges(&u, &["AB", "BC", "CD", "DA"]);
        assert!(!is_acyclic(&e));
    }

    #[test]
    fn path_computation() {
        let u = Universe::from_names(["A", "B", "C", "D"]).unwrap();
        let e = edges(&u, &["AB", "BC", "CD"]);
        let t = join_tree(&e).unwrap();
        // Path endpoints included, connected through the tree.
        let p = t.path(0, 2);
        assert!(p.contains(&0) && p.contains(&2));
    }
}
