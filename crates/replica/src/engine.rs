//! The read-only [`Engine`] a replica's [`ids_api::Database`] runs on.
//!
//! The engine shares the replica's relation state (relations plus their
//! enforcement shards) behind one mutex: the apply loop holds it for
//! the duration of one record's probe/commit, reads hold it for one
//! [`RelationShard::read`].  Reads are therefore per-relation-consistent — each
//! read sees a prefix of that relation's log — with no cross-relation
//! barrier, exactly the primary's barrier-free read model.
//!
//! Writes are refused with the typed
//! [`ids_api::Error::ReplicaReadOnly`]: a replica's state may change
//! only by re-applying the primary's shipped records, and a direct
//! write would fork it from the log it follows.

use std::sync::{Arc, Mutex, MutexGuard};

use ids_api::{Engine, Error};
use ids_core::RelationShard;
use ids_relational::{DatabaseSchema, DatabaseState, ReadPlan, ReadReply, Relation, SchemeId};
use ids_store::{OpOutcome, StoreOp};

/// The replica's mutable relation state: one relation + enforcement
/// shard per scheme, in scheme order.
pub(crate) struct ReplicaState {
    pub(crate) relations: Vec<Relation>,
    pub(crate) shards: Vec<RelationShard>,
}

pub(crate) type SharedState = Arc<Mutex<ReplicaState>>;

/// The replica's [`Engine`]: reads served from the shared applied
/// state, writes refused with [`Error::ReplicaReadOnly`].
pub struct ReplicaEngine {
    schema: DatabaseSchema,
    state: SharedState,
}

impl ReplicaEngine {
    pub(crate) fn new(schema: DatabaseSchema, state: SharedState) -> Self {
        ReplicaEngine { schema, state }
    }

    /// Locks the applied state; a poisoned mutex means the apply loop
    /// panicked mid-record, and serving reads from a half-applied
    /// state would be a lie — propagate the panic.
    fn state(&self) -> MutexGuard<'_, ReplicaState> {
        self.state
            .lock()
            .expect("replica state mutex poisoned: the apply loop panicked mid-record")
    }
}

impl Engine for ReplicaEngine {
    /// Refused — and with it the provided `insert`/`remove`, which are
    /// one-op batches.
    fn apply_batch(&mut self, _ops: Vec<StoreOp>) -> Result<Vec<OpOutcome>, Error> {
        Err(Error::ReplicaReadOnly)
    }

    fn read(&self, id: SchemeId, plan: &ReadPlan) -> Result<ReadReply, Error> {
        let state = self.state();
        let shard = state
            .shards
            .get(id.index())
            .ok_or(Error::UnknownScheme(id))?;
        // The shard answers in place (using its key index for point
        // lookups), so only the plan's shape of the matches is cloned out.
        shard
            .read(&state.relations[id.index()], plan)
            .map_err(Into::into)
    }

    fn snapshot(&self) -> Result<DatabaseState, Error> {
        let relations = self.state().relations.clone();
        DatabaseState::from_relations(&self.schema, relations).map_err(Into::into)
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

    fn engine() -> (ReplicaEngine, SchemeId) {
        let schema = Schema::builder()
            .relation("CT", ["course", "teacher"])
            .fd("course -> teacher")
            .build()
            .unwrap();
        let definition = schema.definition().clone();
        let enforcement = schema.enforcement().unwrap().to_vec();
        let relations = DatabaseState::empty(&definition).into_relations();
        let shards = definition
            .ids()
            .zip(&relations)
            .map(|(id, rel)| {
                RelationShard::with_relation(&definition, id, enforcement[id.index()].clone(), rel)
                    .unwrap()
            })
            .collect();
        let id = definition.ids().next().unwrap();
        let state = Arc::new(Mutex::new(ReplicaState { relations, shards }));
        (ReplicaEngine::new(definition, state), id)
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
