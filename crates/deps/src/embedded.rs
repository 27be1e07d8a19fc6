//! Embedded FDs: partitioning an FD set among the schemes that embed it.

use ids_relational::AttrSet;

use crate::fdset::FdSet;

/// Partition of an embedded FD set into per-scheme lists `Fi` (Section 4's
/// `F = F1 ∪ … ∪ Fk`): every FD is assigned to the **first** scheme that
/// embeds it.  Returns `None` if some FD is embedded in no scheme.
pub fn partition_embedded(fds: &FdSet, schemes: &[AttrSet]) -> Option<Vec<FdSet>> {
    let mut parts: Vec<FdSet> = schemes.iter().map(|_| FdSet::new()).collect();
    for fd in fds.iter() {
        let home = schemes.iter().position(|r| fd.embedded_in(*r))?;
        parts[home].insert(*fd);
    }
    Some(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_relational::Universe;

    fn u() -> Universe {
        Universe::from_names(["C", "T", "H", "R"]).unwrap()
    }

    #[test]
    fn partition_assigns_each_fd_once() {
        let u = u();
        let f = FdSet::parse(&u, &["C -> T", "CH -> R"]).unwrap();
        let schemes = [u.parse_set("CT").unwrap(), u.parse_set("CHR").unwrap()];
        let parts = partition_embedded(&f, &schemes).unwrap();
        assert_eq!(parts[0].len(), 1);
        assert_eq!(parts[1].len(), 1);
        // An FD embedded nowhere breaks the partition.
        let bad = FdSet::parse(&u, &["T -> R"]).unwrap();
        assert!(partition_embedded(&bad, &schemes).is_none());
    }
}
