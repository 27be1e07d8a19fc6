//! The read-only [`Engine`] a replica's [`ids_api::Database`] runs on.
//!
//! The engine is a window onto the replica's [`Store`] — the primary's
//! own store type, which the apply loop drives through its
//! `insert`/`remove`.  A read takes only its relation's slot lock, as on
//! the primary, so reads are per-relation-consistent — each read sees a
//! prefix of that relation's log — with no cross-relation barrier.
//!
//! Writes are refused with the typed
//! [`ids_api::Error::ReplicaReadOnly`]: a replica's state may change
//! only by re-applying the primary's shipped records, and a direct
//! write would fork it from the log it follows.

use std::sync::Arc;

use ids_api::{Engine, Error};
use ids_relational::{DatabaseState, ReadPlan, ReadReply, SchemeId};
use ids_store::{OpOutcome, Store, StoreOp};

/// The replica's [`Engine`]: reads served from the replica's store,
/// writes refused with [`Error::ReplicaReadOnly`].
pub struct ReplicaEngine(pub(crate) Arc<Store>);

impl Engine for ReplicaEngine {
    /// Refused — and with it the provided `insert`/`remove`, which are
    /// one-op batches.
    fn apply_batch(&mut self, _ops: Vec<StoreOp>) -> Result<Vec<OpOutcome>, Error> {
        Err(Error::ReplicaReadOnly)
    }

    fn read(&self, id: SchemeId, plan: &ReadPlan) -> Result<ReadReply, Error> {
        Engine::read(&*self.0, id, plan)
    }

    fn snapshot(&self) -> Result<DatabaseState, Error> {
        Engine::snapshot(&*self.0)
    }

    fn read_only(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_api::Schema;
    use ids_relational::{Predicate, Value};
    use ids_store::StoreConfig;

    fn engine() -> (ReplicaEngine, SchemeId) {
        let schema = Schema::builder()
            .relation("CT", ["course", "teacher"])
            .fd("course -> teacher")
            .build()
            .unwrap();
        let definition = schema.definition();
        let store = Store::from_analysis(definition, schema.analysis(), StoreConfig::default());
        let id = definition.ids().next().unwrap();
        (ReplicaEngine(Arc::new(store.unwrap())), id)
    }

    #[test]
    fn every_write_path_is_typed_read_only() {
        let (mut engine, id) = engine();
        assert!(matches!(
            engine.insert(id, vec![Value(0), Value(1)]),
            Err(Error::ReplicaReadOnly)
        ));
        assert!(matches!(
            engine.remove(id, &[Value(0), Value(1)]),
            Err(Error::ReplicaReadOnly)
        ));
        // Even an empty batch is refused: batches exist to mutate.
        assert!(matches!(
            engine.apply_batch(vec![]),
            Err(Error::ReplicaReadOnly)
        ));
        // And the refusals left the read surface untouched.
        let all = ReadPlan::tuples(Predicate::new());
        assert_eq!(engine.read(id, &all).unwrap(), ReadReply::default());
    }

    #[test]
    fn reads_check_the_scheme_id() {
        let (engine, _) = engine();
        let bogus = SchemeId::from_index(7);
        for plan in [
            ReadPlan::tuples(Predicate::new()),
            ReadPlan::count(Predicate::new()),
        ] {
            assert!(matches!(
                engine.read(bogus, &plan),
                Err(Error::UnknownScheme(id)) if id == bogus
            ));
        }
    }
}
