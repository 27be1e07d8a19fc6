//! Pretty-printing of relations and states as text tables.

use std::fmt::Write as _;

use crate::relation::Relation;
use crate::scheme::DatabaseSchema;
use crate::state::DatabaseState;
use crate::universe::Universe;
use crate::value::ValuePool;

/// Renders a relation as an aligned text table using attribute names from
/// `universe` and value names from `pool` (pass a fresh pool for raw ids).
pub fn render_relation(
    universe: &Universe,
    pool: &ValuePool,
    name: &str,
    rel: &Relation,
) -> String {
    let headers: Vec<String> = rel
        .attrs()
        .iter()
        .map(|a| universe.name(a).to_string())
        .collect();
    let rows: Vec<Vec<String>> = rel
        .iter()
        .map(|t| t.iter().map(|v| pool.render(*v)).collect())
        .collect();
    render_table(name, &headers, &rows)
}

/// Renders a whole database state, one table per relation.
pub fn render_state(schema: &DatabaseSchema, pool: &ValuePool, state: &DatabaseState) -> String {
    let mut out = String::new();
    for (id, rel) in state.iter() {
        let name = &schema.scheme(id).name;
        out.push_str(&render_relation(schema.universe(), pool, name, rel));
        out.push('\n');
    }
    out
}

/// Low-level aligned table renderer shared by relation and report output.
fn render_table(title: &str, headers: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
    }
    let mut out = String::new();
    if !title.is_empty() {
        let _ = writeln!(out, "{title}");
    }
    let line = |out: &mut String, cells: &[String]| {
        let mut s = String::from("  ");
        for (i, c) in cells.iter().enumerate() {
            let pad = widths.get(i).copied().unwrap_or(0);
            let _ = write!(s, "{c:<pad$}  ");
        }
        let _ = writeln!(out, "{}", s.trim_end());
    };
    line(&mut out, headers);
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(&mut out, &sep);
    for row in rows {
        line(&mut out, row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::SchemeId;

    #[test]
    fn renders_aligned_table() {
        let u = Universe::from_names(["C", "T"]).unwrap();
        let d = DatabaseSchema::parse(u, &[("CT", "C T")]).unwrap();
        let mut pool = ValuePool::new();
        let cs101 = pool.value("CS101");
        let smith = pool.value("Smith");
        let mut p = DatabaseState::empty(&d);
        p.insert(SchemeId(0), vec![cs101, smith]).unwrap();

        let text = render_state(&d, &pool, &p);
        assert!(text.contains("CT"));
        assert!(text.contains("CS101"));
        assert!(text.contains("Smith"));
        // header separator present
        assert!(text.contains("---"));
    }
}
