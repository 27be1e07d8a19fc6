//! The fluent query surface: [`Query`] builders in, typed [`Rows`] out.
//!
//! ```
//! use ids_api::{eq, Database, EngineKind, Schema};
//!
//! let schema = Schema::builder()
//!     .relation("CT", ["course", "teacher"])
//!     .relation("CS", ["course", "student"])
//!     .fd("course -> teacher")
//!     .build()?;
//! let db = Database::open(schema, EngineKind::Local)?;
//! db.insert("CT", ["CS402", "Jones"])?;
//! db.insert("CT", ["CS500", "Curie"])?;
//!
//! let rows = db.query("CT").filter("course", eq("CS402")).select(["teacher"]).run()?;
//! assert_eq!(rows.len(), 1);
//! assert_eq!(rows.iter().next().unwrap().get("teacher"), Some("Jones"));
//! # Ok::<(), ids_api::Error>(())
//! ```
//!
//! Execution is pushed down, not emulated: the builder resolves names
//! once, hands the store a typed [`ids_relational::Predicate`], and
//! only the owning shard evaluates it — a point
//! lookup on a key column is O(1) against the enforcement hash index,
//! and only the matching tuples' values are gathered, into one buffer
//! per read.  See
//! [`crate::Database::query`] for the consistency model.

use std::fmt;
use std::sync::Arc;

use crate::Error;

/// A filter condition on one column.  Constructed with [`eq`], [`ne`],
/// [`lt`], [`le`], [`gt`], [`ge`], [`between`] or [`one_of`]; carried by
/// [`Query::filter`] and [`JoinQuery::filter`].
///
/// The comparison conditions (`Lt`..`Range`) compare **lexicographically
/// on the rendered strings** — the only total order the string-level
/// surface can promise.  Workloads that need numeric ranges store
/// zero-padded fixed-width numerals, under which the two orders agree.
///
/// Marked `#[non_exhaustive]` so richer conditions can still be added
/// without breaking matches.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
#[must_use = "a condition does nothing until passed to `Query::filter`"]
pub enum Cond {
    /// The column equals the given (string-level) value.
    Eq(String),
    /// The column differs from the given value.
    Ne(String),
    /// The column is lexicographically less than the given value.
    Lt(String),
    /// The column is lexicographically at most the given value.
    Le(String),
    /// The column is lexicographically greater than the given value.
    Gt(String),
    /// The column is lexicographically at least the given value.
    Ge(String),
    /// The column lies in the inclusive range `lo ..= hi`
    /// (lexicographic).  An inverted range matches nothing.
    Range(String, String),
    /// The column is one of the listed values.
    In(Vec<String>),
}

/// The equality condition: `filter("course", eq("CS402"))`.
pub fn eq(value: impl Into<String>) -> Cond {
    Cond::Eq(value.into())
}

/// The inequality condition: `filter("teacher", ne("Jones"))`.
pub fn ne(value: impl Into<String>) -> Cond {
    Cond::Ne(value.into())
}

/// Lexicographic less-than: `filter("hour", lt("10am"))`.
pub fn lt(value: impl Into<String>) -> Cond {
    Cond::Lt(value.into())
}

/// Lexicographic at-most: `filter("hour", le("10am"))`.
pub fn le(value: impl Into<String>) -> Cond {
    Cond::Le(value.into())
}

/// Lexicographic greater-than: `filter("hour", gt("10am"))`.
pub fn gt(value: impl Into<String>) -> Cond {
    Cond::Gt(value.into())
}

/// Lexicographic at-least: `filter("hour", ge("10am"))`.
pub fn ge(value: impl Into<String>) -> Cond {
    Cond::Ge(value.into())
}

/// The inclusive lexicographic range: `filter("course", between("CS100", "CS499"))`.
pub fn between(lo: impl Into<String>, hi: impl Into<String>) -> Cond {
    Cond::Range(lo.into(), hi.into())
}

/// Set membership: `filter("teacher", one_of(["Jones", "Curie"]))`.
pub fn one_of<I, S>(values: I) -> Cond
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    Cond::In(values.into_iter().map(Into::into).collect())
}

/// A fluent single-relation query: built from [`crate::Database::query`],
/// executed by [`Query::run`].
///
/// Name resolution (relation, columns, values) happens once, in `run`,
/// against the schema's O(1) lookup tables; unknown names are typed
/// errors ([`Error::UnknownRelation`], [`Error::UnknownColumn`]) before
/// the store is consulted.
#[must_use = "a query does nothing until `.run()`"]
pub struct Query<'a> {
    pub(crate) db: &'a crate::Database,
    pub(crate) relation: String,
    pub(crate) filters: Vec<(String, Cond)>,
    pub(crate) select: Option<Vec<String>>,
    pub(crate) order: Option<(String, bool)>,
    pub(crate) limit: Option<usize>,
}

impl fmt::Debug for Query<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Query")
            .field("relation", &self.relation)
            .field("filters", &self.filters)
            .field("select", &self.select)
            .field("order", &self.order)
            .field("limit", &self.limit)
            .finish_non_exhaustive()
    }
}

impl Query<'_> {
    /// Adds a filter on one column; multiple filters conjoin.  Filtering
    /// one column twice with different values is simply unsatisfiable
    /// (empty result), never an error.
    pub fn filter(mut self, column: impl Into<String>, cond: Cond) -> Self {
        self.filters.push((column.into(), cond));
        self
    }

    /// Selects the output columns, in the given order (duplicates
    /// allowed).  Without a select, every column comes back in
    /// declaration order.
    pub fn select<I, S>(mut self, columns: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.select = Some(columns.into_iter().map(Into::into).collect());
        self
    }

    /// Sorts the result ascending by one output column (lexicographic on
    /// the rendered strings; stable, so insertion order breaks ties).
    /// The column must be part of the output, else
    /// [`Error::UnknownColumn`].
    pub fn order_by(mut self, column: impl Into<String>) -> Self {
        self.order = Some((column.into(), false));
        self
    }

    /// Sorts the result descending by one output column; see
    /// [`Query::order_by`].
    pub fn order_by_desc(mut self, column: impl Into<String>) -> Self {
        self.order = Some((column.into(), true));
        self
    }

    /// Keeps at most the first `n` rows (after any ordering).
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Executes the query and returns the matching [`Rows`].
    pub fn run(mut self) -> Result<Rows, Error> {
        let select = self.select.take();
        let mut rows = self.matches(select)?;
        if let Some((column, desc)) = &self.order {
            let Some(pos) = rows.columns().iter().position(|c| c == column) else {
                return Err(Error::UnknownColumn {
                    relation: self.relation,
                    column: column.clone(),
                });
            };
            rows.rows.sort_by(|a, b| {
                let ord = a.values[pos].cmp(&b.values[pos]);
                if *desc {
                    ord.reverse()
                } else {
                    ord
                }
            });
        }
        if let Some(n) = self.limit {
            rows.rows.truncate(n);
        }
        Ok(rows)
    }

    /// Number of matching rows, counted where the tuples live — no row
    /// is shipped or rendered to answer it (the count is taken under the
    /// owning shard's lock and only the integer leaves it).  Like every
    /// aggregate it covers all the matches: an ordering or a limit does
    /// not apply.
    pub fn count(self) -> Result<usize, Error> {
        self.db.run_count(&self.relation, &self.filters)
    }

    /// The lexicographically smallest value of `column` among the
    /// matches (`None` when nothing matched).  Ships only that column.
    pub fn min(self, column: impl Into<String>) -> Result<Option<String>, Error> {
        Ok(self.column_values(column)?.into_iter().min())
    }

    /// The lexicographically largest value of `column` among the matches
    /// (`None` when nothing matched).  Ships only that column.
    pub fn max(self, column: impl Into<String>) -> Result<Option<String>, Error> {
        Ok(self.column_values(column)?.into_iter().max())
    }

    /// Sums `column` over the matches, parsing each rendered value as an
    /// `i64`.  A non-numeric stored value is a typed
    /// [`Error::NonNumeric`] naming the column and the offending value,
    /// and a total outside `i64` is [`Error::SumOverflow`] naming the
    /// column.
    pub fn sum(self, column: impl Into<String>) -> Result<i64, Error> {
        let column = column.into();
        let mut total = 0i64;
        for value in self.column_values(column.clone())? {
            let parsed: i64 = value.parse().map_err(|_| Error::NonNumeric {
                column: column.clone(),
                value: value.clone(),
            })?;
            total = total
                .checked_add(parsed)
                .ok_or_else(|| Error::SumOverflow {
                    column: column.clone(),
                })?;
        }
        Ok(total)
    }

    /// Shared tail of the single-column aggregates: every match's value
    /// of `column`, whatever the select, ordering or limit.
    fn column_values(self, column: impl Into<String>) -> Result<Vec<String>, Error> {
        let rows = self.matches(Some(vec![column.into()]))?;
        Ok(rows.rows.into_iter().flat_map(|r| r.values).collect())
    }

    /// Every match, collected into [`Rows`] under `select`, in the order
    /// the store shipped them: [`crate::Database::query_into`].
    fn matches(&self, select: Option<Vec<String>>) -> Result<Rows, Error> {
        let mut rows = Rows::default();
        self.db
            .query_into(&self.relation, &self.filters, select, &mut rows)?;
        Ok(rows)
    }
}

/// A fluent multi-relation natural-join query: built from
/// [`crate::Database::join_query`], executed by [`JoinQuery::run`].
///
/// Per-relation filters conjoin and are **pushed down** before the join:
/// the planner (see [`crate::Database::join`]) narrows every relation
/// with its own filters — and, on an acyclic relation set, with semijoin
/// reducers derived from its neighbors — before tuples are shipped and
/// assembled client-side.
#[must_use = "a join does nothing until `.run()`"]
pub struct JoinQuery<'a> {
    pub(crate) db: &'a crate::Database,
    pub(crate) relations: Vec<String>,
    pub(crate) filters: Vec<(String, String, Cond)>,
}

impl fmt::Debug for JoinQuery<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JoinQuery")
            .field("relations", &self.relations)
            .field("filters", &self.filters)
            .finish_non_exhaustive()
    }
}

impl JoinQuery<'_> {
    /// Adds a filter on one column of one joined relation; multiple
    /// filters conjoin.  The relation must be part of the join and the
    /// column part of that relation — typed errors otherwise, before the
    /// store is consulted.
    pub fn filter(
        mut self,
        relation: impl Into<String>,
        column: impl Into<String>,
        cond: Cond,
    ) -> Self {
        self.filters.push((relation.into(), column.into(), cond));
        self
    }

    /// Executes the join and returns the matching [`Rows`]; see
    /// [`crate::Database::join`] for the column-order contract and the
    /// consistency model.
    pub fn run(self) -> Result<Rows, Error> {
        Ok(self.run_with_report()?.0)
    }

    /// [`JoinQuery::run`] plus the planner's [`JoinReport`] — how the
    /// join was executed and how much crossed the store boundary.
    pub fn run_with_report(self) -> Result<(Rows, JoinReport), Error> {
        let mut rows = Rows::default();
        let report = self
            .db
            .join_into(&self.relations, &self.filters, &mut rows)?;
        Ok((rows, report))
    }
}

/// How a join was executed: whether the Yannakakis-style planner ran
/// (acyclic relation sets) or the naive whole-relation fold did
/// (cyclic), and how much data crossed the store boundary either way.
///
/// `tuples_shipped` counts every tuple gathered out of the store: those
/// fetched for the fold, and those a filtered relation's pass-1 read
/// gathers to compute its reducers; `keys_shipped` counts
/// semijoin-reducer values: one per distinct value
/// of a shared column, shipped up from a constrained relation's matches
/// or down from a fetched parent.  The planner's win
/// condition is shipping *keys* instead of *tuples* wherever a filter or
/// a neighbor makes a relation selective.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JoinReport {
    /// True when the acyclic planner executed the join (false: naive
    /// per-relation fold).
    pub planned: bool,
    /// Full tuples gathered from the store: the fold's fetches plus pass
    /// 1's reduction reads.
    pub tuples_shipped: usize,
    /// Semijoin-reducer values shipped (`In` values, up and down).
    pub keys_shipped: usize,
}

/// A consumer of a read's result, one rendered value at a time — what
/// the one string-level read feeds, through
/// [`crate::Database::query_into`] (its one-relation case),
/// [`crate::Database::query_eq_into`] and [`crate::Database::join_into`].
///
/// A successful read calls [`RowSink::start`] exactly once, then for each
/// row [`RowSink::row`] followed by one [`RowSink::value`] per column; a
/// failed read calls nothing.  The values are borrowed from the
/// database's value pool, and every call is made while the database
/// holds its name lock — so a sink renders into memory and does no I/O.
/// [`Rows`] is the sink the string-level API collects into; the wire
/// server's sink writes reply bytes instead, so a row is never built as
/// `String`s on its way to a socket.
///
/// The read allocates per reply, not per value: its plan and buffers
/// are this thread's scratch, and the columns of a one-relation read
/// without a select list are the relation's own shared layout, handed
/// to [`RowSink::start`] as the `Arc` it is — a sink keeps them with one
/// reference count.  What a sink allocates is its own: [`Rows`] one
/// vector per reply and per row and one `String` per value, the wire's
/// sink nothing once its buffer is sized.  The read owns its scratch,
/// taken out of the thread's slot, while it calls the sink, so a sink
/// may itself read, in a scratch of its own — another
/// [`crate::Database`], or this one's [`crate::Database::count`] and
/// [`crate::Database::read`], which take no name lock.
pub trait RowSink {
    /// The output column names, and how many rows follow.
    fn start(&mut self, columns: &Arc<[String]>, rows: usize);
    /// Opens the next row; `columns.len()` values follow.
    fn row(&mut self);
    /// The next value of the open row, rendered.
    fn value(&mut self, value: &str);
}

/// Collects the rows as owned strings — the sink behind [`Query::run`]
/// and [`JoinQuery::run`].
impl RowSink for Rows {
    fn start(&mut self, columns: &Arc<[String]>, rows: usize) {
        self.columns = Arc::clone(columns);
        self.rows = Vec::with_capacity(rows);
    }

    fn row(&mut self) {
        self.rows.push(Row {
            columns: self.columns.clone(),
            values: Vec::with_capacity(self.columns.len()),
        });
    }

    fn value(&mut self, value: &str) {
        if let Some(row) = self.rows.last_mut() {
            row.values.push(value.to_owned());
        }
    }
}

/// The result of a query or join: named columns plus matching [`Row`]s,
/// in the relation's insertion order.
///
/// Holds exactly the tuples the store shipped (only the matches —
/// never a whole-relation clone for a filtered query).  Iterate with [`Rows::iter`] / `IntoIterator`, or flatten to
/// plain string matrices with [`Rows::into_string_rows`].
#[derive(Clone, Debug, Default)]
#[must_use = "query results carry the matching rows"]
pub struct Rows {
    pub(crate) columns: Arc<[String]>,
    pub(crate) rows: Vec<Row>,
}

impl Rows {
    /// The output column names, in select (or declaration) order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of matching rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when nothing matched.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates over the rows.
    pub fn iter(&self) -> std::slice::Iter<'_, Row> {
        self.rows.iter()
    }

    /// Flattens into plain string matrices, row-major — the shape
    /// [`crate::Database::rows`] returns.
    pub fn into_string_rows(self) -> Vec<Vec<String>> {
        self.rows.into_iter().map(|r| r.values).collect()
    }
}

impl IntoIterator for Rows {
    type Item = Row;
    type IntoIter = std::vec::IntoIter<Row>;

    fn into_iter(self) -> Self::IntoIter {
        self.rows.into_iter()
    }
}

impl<'a> IntoIterator for &'a Rows {
    type Item = &'a Row;
    type IntoIter = std::slice::Iter<'a, Row>;

    fn into_iter(self) -> Self::IntoIter {
        self.rows.iter()
    }
}

impl fmt::Display for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}]", self.columns.join(", "))?;
        for row in &self.rows {
            writeln!(f, "{row}")?;
        }
        Ok(())
    }
}

/// One matching row: rendered values addressable by column name or
/// position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    pub(crate) columns: Arc<[String]>,
    pub(crate) values: Vec<String>,
}

impl Row {
    /// The value of the named column, when it is part of the output.
    pub fn get(&self, column: &str) -> Option<&str> {
        self.columns
            .iter()
            .position(|c| c == column)
            .map(|i| self.values[i].as_str())
    }

    /// The output column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The rendered values, in output-column order.
    pub fn values(&self) -> &[String] {
        &self.values
    }
}

impl std::ops::Index<usize> for Row {
    type Output = str;

    fn index(&self, i: usize) -> &str {
        &self.values[i]
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, (c, v)) in self.columns.iter().zip(&self.values).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}={v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Rows {
        let columns: Arc<[String]> = vec!["course".to_string(), "teacher".to_string()].into();
        let rows = vec![
            Row {
                columns: columns.clone(),
                values: vec!["CS402".into(), "Jones".into()],
            },
            Row {
                columns: columns.clone(),
                values: vec!["CS500".into(), "Curie".into()],
            },
        ];
        Rows { columns, rows }
    }

    #[test]
    fn rows_expose_columns_values_and_iteration() {
        let rows = rows();
        assert_eq!(rows.len(), 2);
        assert!(!rows.is_empty());
        assert_eq!(rows.columns(), ["course", "teacher"]);
        let first = rows.iter().next().unwrap();
        assert_eq!(first.get("teacher"), Some("Jones"));
        assert_eq!(first.get("room"), None);
        assert_eq!(&first[0], "CS402");
        assert_eq!(first.to_string(), "(course=CS402, teacher=Jones)");
        let display = rows.to_string();
        assert!(display.starts_with("[course, teacher]"));
        assert!(display.contains("(course=CS500, teacher=Curie)"));
        let collected: Vec<&Row> = (&rows).into_iter().collect();
        assert_eq!(collected.len(), 2);
        assert_eq!(
            rows.into_string_rows(),
            vec![
                vec!["CS402".to_string(), "Jones".to_string()],
                vec!["CS500".to_string(), "Curie".to_string()],
            ]
        );
    }

    #[test]
    fn eq_builds_the_equality_condition() {
        assert_eq!(eq("CS402"), Cond::Eq("CS402".to_string()));
    }

    #[test]
    fn condition_constructors_build_their_variants() {
        assert_eq!(ne("x"), Cond::Ne("x".to_string()));
        assert_eq!(lt("x"), Cond::Lt("x".to_string()));
        assert_eq!(le("x"), Cond::Le("x".to_string()));
        assert_eq!(gt("x"), Cond::Gt("x".to_string()));
        assert_eq!(ge("x"), Cond::Ge("x".to_string()));
        assert_eq!(
            between("a", "b"),
            Cond::Range("a".to_string(), "b".to_string())
        );
        assert_eq!(
            one_of(["a", "b"]),
            Cond::In(vec!["a".to_string(), "b".to_string()])
        );
    }
}
