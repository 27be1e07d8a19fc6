//! [`SharedDatabase`]: the old name of the thread-shared front end, kept
//! as a shim over [`Database`].
//!
//! [`Database`] is itself the `&self`, `Send + Sync` handle every caller
//! shares; nothing here adds behaviour.  The shim exists because the
//! frozen `benchmark/` package pins [`Database::into_shared`], the
//! `SharedDatabase` name (through `Server::serve`'s parameter) and the
//! three-argument [`SharedDatabase::query`], whose name collides with the
//! [`Database::query`] builder.  It is listed for deletion with those
//! pins (ROADMAP item 1(a)); new code names [`Database`].

use crate::database::Database;
use crate::query::{Cond, Rows};
use crate::Error;

/// A [`Database`] under its old shared-front-end name: every method of
/// [`Database`] through `Deref`, plus the one whose name differs.
pub struct SharedDatabase(pub(crate) Database);

impl std::ops::Deref for SharedDatabase {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.0
    }
}

impl SharedDatabase {
    /// [`Database::query_into`] collecting [`Rows`], under the name the
    /// old front end gave it (shadowing the [`Database::query`] builder
    /// on this type).
    pub fn query(
        &self,
        relation: &str,
        filters: &[(String, Cond)],
        select: Option<Vec<String>>,
    ) -> Result<Rows, Error> {
        let mut rows = Rows::default();
        self.0.query_into(relation, filters, select, &mut rows)?;
        Ok(rows)
    }
}
