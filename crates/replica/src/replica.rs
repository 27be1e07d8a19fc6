//! The [`Replica`] itself: bootstrap, the two transports, the apply
//! loop, and the lag/staleness observability surface.

use std::net::ToSocketAddrs;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ids_api::{Database, Schema};
use ids_client::{Client, FrameBatch, StreamEvent, Subscription};
use ids_core::InsertOutcome;
use ids_obs::{Counter, Event, Gauge, MetricsSnapshot, Registry};
use ids_relational::{DatabaseSchema, DatabaseState, Relation, SchemeId};
use ids_store::{Store, StoreConfig, StoreError};
use ids_wal::{
    Cursor, FollowPoll, Follower, Manifest, Shipment, TailedRecord, WalDir, WalError, WalOp,
    WalRecord,
};

use crate::ReplicaError;

/// How the replica receives the primary's log.  Both transports yield
/// the one follow loop's [`Shipment`]s, in its order.
enum Transport {
    /// Shared directory: the follow loop itself, over the primary's
    /// files, read-only.
    File(Follower),
    /// TCP subscription: the server runs the same follow loop over its
    /// own files and ships each shipment's payloads verbatim.
    /// `barrier` is the request id of the in-flight sync ping, if any:
    /// the server answers a ping only after a poll round that started
    /// after it arrived, so the matching `Pong` proves everything
    /// durable before the ping was sent has been delivered.
    Wire {
        sub: Subscription,
        barrier: Option<u64>,
    },
}

impl Transport {
    /// Arms a fresh sync barrier: on the wire, puts a new ping on the
    /// stream (superseding any in-flight one — its late answer is
    /// ignored).  A no-op on the file transport, where every poll reads
    /// the primary's current files directly.
    fn arm(&mut self) -> Result<(), ReplicaError> {
        if let Transport::Wire { sub, barrier } = self {
            *barrier = Some(sub.ping()?);
        }
        Ok(())
    }

    /// Polls for new shipments.  The boolean is **quiescent**: this
    /// poll proved the follower had everything the transport could see
    /// when it ran (an empty file round; the acknowledged wire
    /// barrier).
    fn poll(&mut self) -> Result<(Vec<Shipment>, bool), ReplicaError> {
        let (sub, barrier) = match self {
            Transport::File(follower) => {
                let mut shipments = Vec::new();
                let polled = follower.poll(|mut shipment| {
                    // Records are applied, not forwarded: drop each
                    // payload copy as it arrives, so a catch-up round
                    // holds decoded records only.
                    if let Shipment::Records { records, .. } = &mut shipment {
                        records.iter_mut().for_each(|r| r.payload = Vec::new());
                    }
                    shipments.push(shipment);
                    Ok::<_, WalError>(())
                })?;
                let FollowPoll::Shipped(shipped) = polled else {
                    return Err(ReplicaError::Behind);
                };
                return Ok((shipments, shipped == 0));
            }
            Transport::Wire { sub, barrier } => (sub, barrier),
        };
        // Keep a barrier armed: its `Pong` is the only sound caught-up
        // proof on the wire (an idle heartbeat may have been generated
        // before a write we already know was acknowledged).
        if barrier.is_none() {
            *barrier = Some(sub.ping()?);
        }
        // One blocking receive; the server heartbeats when idle, so this
        // returns regularly without traffic.
        let wire = Path::new("<wire>");
        let shipment = match sub.next_event()? {
            StreamEvent::Pong { id } => {
                let acked = *barrier == Some(id);
                if acked {
                    *barrier = None;
                }
                return Ok((Vec::new(), acked));
            }
            StreamEvent::Manifest {
                generation,
                payload,
            } => Shipment::Manifest {
                gen: generation,
                manifest: Manifest::decode(wire, &payload)?,
                payload,
            },
            // The idle heartbeat: only liveness — the armed barrier
            // carries the caught-up proof.
            StreamEvent::Frames(FrameBatch { frames, .. }) if frames.is_empty() => {
                return Ok((Vec::new(), false));
            }
            StreamEvent::Frames(FrameBatch {
                relation,
                gen,
                tip,
                frames,
            }) => Shipment::Records {
                relation,
                gen,
                tip,
                records: (frames.into_iter())
                    .map(|payload| {
                        let record = WalRecord::decode(wire, &payload)?;
                        Ok(TailedRecord {
                            gen,
                            scheme: relation,
                            record,
                            payload,
                        })
                    })
                    .collect::<Result<_, WalError>>()?,
            },
        };
        Ok((vec![shipment], false))
    }
}

/// What one [`Replica::poll`] accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicaProgress {
    /// Records applied by this poll (across all relations).
    pub applied: u64,
    /// Whether the replica is caught up with everything the transport
    /// could see: a quiescent poll.
    pub caught_up: bool,
}

/// One relation's replication lag, as the `(gen, seq)` delta between
/// the primary's last shipped tip and the replica's applied cursor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicaLag {
    /// Checkpoint generations the replica's cursor is behind.
    pub gen_delta: u64,
    /// Records the replica has not applied yet.
    pub seq_delta: u64,
}

/// Everything the bootstrap produces.
struct Bootstrap {
    db: Database,
    dir: WalDir,
    cursors: Vec<Cursor>,
    /// The manifest chain as known at bootstrap: `(first governed
    /// generation, relation names in scheme order)` per era.
    eras: Vec<(u64, Vec<String>)>,
    registry: Registry,
}

/// A read replica following one durable primary — see the crate docs
/// for the model, and [`Replica::open`] / [`Replica::connect`] for the
/// two transports.
///
/// The replica is **pull-based**: call [`Replica::poll`] to ingest
/// whatever the primary has appended since the last call (or
/// [`Replica::wait_caught_up`] to poll until quiescent).  Reads go
/// through [`Replica::database`].  That handle's write methods take
/// `&self` too, so what keeps a follower from forking is not the
/// borrow: it is a follower's handle ([`Database::follower`]), which
/// refuses every write with the typed
/// [`ids_api::Error::ReplicaReadOnly`] *before* interning any of its
/// strings — the name pool, which must hold exactly the primary's
/// `value ↦ name` pairs, is fed only by the apply loop, which owns the
/// handle.  Reads take only their relation's lock, as on the primary.
pub struct Replica {
    /// The read surface over the applied state — the primary's own store
    /// type, recovered from the directory by the store's replay and
    /// advanced by its `insert`/`remove`.
    db: Database,
    transport: Transport,
    /// Applied position per relation.
    cursors: Vec<Cursor>,
    /// Last known primary tip per relation (seq, and max gen seen).
    tips: Vec<u64>,
    tip_gens: Vec<u64>,
    /// The schema-era chain: `(first governed generation, relation
    /// names in that era's scheme order)`.  Shipped records are labeled
    /// with their own era's scheme index; this chain maps `(index,
    /// generation)` → name → index under the **current** (last) era.
    /// Grows by one entry per applied [`Shipment::Manifest`].
    eras: Vec<(u64, Vec<String>)>,
    registry: Registry,
    shipped_counters: Vec<Arc<Counter>>,
    applied_counters: Vec<Arc<Counter>>,
    lag_gauges: Vec<Arc<Gauge>>,
    staleness: Arc<Gauge>,
    /// Instant of the last poll that applied something or proved
    /// quiescence — what the staleness gauge measures from.
    fresh_at: Instant,
    caught_up: bool,
}

impl Replica {
    /// A **file-tail** follower of the durable primary at `root`
    /// (primary and follower share the directory; the follower only
    /// ever reads).  Bootstraps by the store's own crash recovery —
    /// creating or modifying no file — then runs the follow loop over
    /// the primary's files from the recovered cursors.
    pub fn open(root: impl AsRef<Path>) -> Result<Replica, ReplicaError> {
        let boot = bootstrap(root.as_ref())?;
        let follower = Follower::new(&boot.dir, &boot.cursors)?;
        Ok(Replica::assemble(boot, Transport::File(follower)))
    }

    /// A **wire-stream** follower: bootstraps from the seed directory
    /// at `seed` (a copy of the primary's durable directory — manifests,
    /// snapshot, segments; a base backup), then subscribes to
    /// the `ids-server` at `addr` from the recovered cursors.  The
    /// server ships every later frame verbatim.
    ///
    /// The seed may lag the primary arbitrarily — the subscription
    /// resumes exactly after it — but if the primary has since pruned
    /// the seed's generation, the stream reports [`ReplicaError::Behind`]
    /// and a fresh seed copy is needed.
    pub fn connect(
        seed: impl AsRef<Path>,
        addr: impl ToSocketAddrs,
    ) -> Result<Replica, ReplicaError> {
        let boot = bootstrap(seed.as_ref())?;
        let client = Client::connect(addr)?;
        let cursors = boot.cursors.iter().map(|c| (c.gen, c.seq)).collect();
        let sub = client.subscribe(cursors)?;
        Ok(Replica::assemble(
            boot,
            Transport::Wire { sub, barrier: None },
        ))
    }

    fn assemble(boot: Bootstrap, transport: Transport) -> Replica {
        let mut replica = Replica {
            db: boot.db,
            transport,
            tips: boot.cursors.iter().map(|c| c.seq).collect(),
            tip_gens: boot.cursors.iter().map(|c| c.gen).collect(),
            cursors: boot.cursors,
            eras: boot.eras,
            shipped_counters: Vec::new(),
            applied_counters: Vec::new(),
            lag_gauges: Vec::new(),
            staleness: boot.registry.gauge("replica.staleness_ms"),
            registry: boot.registry,
            fresh_at: Instant::now(),
            caught_up: false,
        };
        replica.bind_families();
        replica
    }

    /// (Re)fetches the per-relation metric handles for the current
    /// relations.  Handles are positional (`replica.r{i}.*`): after a
    /// transition a survivor that changed index continues in its new
    /// slot's family, so per-slot histories blend across it.
    fn bind_families(&mut self) {
        let n = self.cursors.len();
        let registry = &self.registry;
        let counters = |what: &str| -> Vec<Arc<Counter>> {
            (0..n)
                .map(|i| registry.counter(&format!("replica.r{i}.{what}")))
                .collect()
        };
        let gauges = |what: &str| -> Vec<Arc<Gauge>> {
            (0..n)
                .map(|i| registry.gauge(&format!("replica.r{i}.{what}")))
                .collect()
        };
        self.shipped_counters = counters("shipped");
        self.applied_counters = counters("applied");
        self.lag_gauges = gauges("lag");
    }

    /// The read surface: `read` / `query` / `rows` / `count` / `join`
    /// on the replica's applied state.  Writes through it (`insert`,
    /// `remove`, `insert_raw`, `apply_batch`) are refused with
    /// [`ids_api::Error::ReplicaReadOnly`] and leave the name pool untouched;
    /// `intern` needs the `&mut Database` only the apply loop has.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The schema the replica currently serves: recovered from the
    /// primary's manifest, then advanced by each streamed transition.
    pub fn schema(&self) -> Arc<Schema> {
        self.db.schema()
    }

    /// Ingests everything the transport can currently see, in the
    /// follow loop's order — transitions, then each relation's new
    /// records: their definitions into the pool, their operations
    /// through the store's `insert`/`remove`.  Returns how
    /// much was applied and whether the replica is now caught up; typed
    /// errors for corruption ([`ReplicaError::Wal`]), divergence
    /// ([`ReplicaError::Diverged`]), and pruned-past cursors
    /// ([`ReplicaError::Behind`]).
    ///
    /// On the wire transport this blocks until the server's next batch
    /// or idle heartbeat (at most tens of milliseconds); on the file
    /// transport it returns immediately.
    pub fn poll(&mut self) -> Result<ReplicaProgress, ReplicaError> {
        // Caught up: the poll was quiescent, and every record it shipped
        // has been applied below.
        let (shipments, caught_up) = self.transport.poll()?;
        let mut applied = 0u64;
        for shipment in shipments {
            match shipment {
                Shipment::Manifest { gen, manifest, .. } => {
                    self.apply_manifest(gen, &manifest)?;
                }
                Shipment::Records {
                    relation,
                    gen,
                    tip,
                    records,
                } => {
                    // Map the record label — the scheme index under the
                    // manifest governing `gen` — to the current schema.
                    // `None` means the relation was since dropped:
                    // stragglers of an old era with nothing under the
                    // current schema to apply them to.
                    let Some(i) = self.resolve_relation(relation, gen)? else {
                        continue;
                    };
                    self.tips[i] = self.tips[i].max(tip);
                    self.tip_gens[i] = self.tip_gens[i].max(gen);
                    self.shipped_counters[i].add(records.len() as u64);
                    for TailedRecord { record, .. } in records {
                        applied += u64::from(self.apply(i, gen, record)?);
                    }
                }
            }
        }
        self.refresh_gauges(applied > 0 || caught_up);
        if caught_up && !self.caught_up {
            // Fires once per transition, so "the replica caught up
            // after the write stream stopped" is a checkable event.
            let records = self.applied_counters.iter().map(|c| c.get()).sum();
            self.registry
                .events()
                .record(Event::ReplicaCaughtUp { records });
        }
        self.caught_up = caught_up;
        Ok(ReplicaProgress { applied, caught_up })
    }

    /// Polls until a poll proves the replica caught up, or `timeout`
    /// elapses.  Returns whether it caught up.
    pub fn wait_caught_up(&mut self, timeout: Duration) -> Result<bool, ReplicaError> {
        let deadline = Instant::now() + timeout;
        // A fresh barrier, so "caught up" covers every write the
        // primary acknowledged before this call — not just before some
        // earlier in-flight ping.
        self.transport.arm()?;
        loop {
            if self.poll()?.caught_up {
                return Ok(true);
            }
            if Instant::now() >= deadline {
                return Ok(false);
            }
            if matches!(self.transport, Transport::File(_)) {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }

    /// Whether the last [`Replica::poll`] proved the replica caught up.
    pub fn is_caught_up(&self) -> bool {
        self.caught_up
    }

    /// Per-relation replication lag, in scheme order: the `(gen, seq)`
    /// delta between the last tip the transport reported and the
    /// replica's applied cursor.
    pub fn lag(&self) -> Vec<ReplicaLag> {
        self.cursors
            .iter()
            .zip(self.tips.iter().zip(&self.tip_gens))
            .map(|(cursor, (&tip, &tip_gen))| ReplicaLag {
                gen_delta: tip_gen.saturating_sub(cursor.gen),
                seq_delta: tip.saturating_sub(cursor.seq),
            })
            .collect()
    }

    /// The replica's applied position per relation, in scheme order —
    /// what a restart would resume from.
    pub fn cursors(&self) -> &[Cursor] {
        &self.cursors
    }

    /// A snapshot of the replica's metric families: per-relation
    /// `replica.r{i}.shipped` / `.applied` counters (every shipped
    /// record is applied at once, so they agree after each poll), the
    /// `.lag` gauges, the `replica.staleness_ms` gauge, the
    /// bootstrap's `wal.r{i}.recovered_records` family, and the event
    /// log (with its [`Event::ReplicaCaughtUp`] transitions).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Maps a shipped record label `(scheme index, generation)` —
    /// scheme indexes are per-manifest — to the relation's index under
    /// the schema currently applied.  `Ok(None)` means the relation was
    /// since dropped; an index outside its own era's schema is
    /// divergence.
    fn resolve_relation(&self, relation: u16, gen: u64) -> Result<Option<usize>, ReplicaError> {
        let (_, era_names) = self
            .eras
            .iter()
            .rev()
            .find(|(g, _)| *g <= gen)
            .or_else(|| self.eras.first())
            .expect("era chain always holds the base manifest");
        let Some(name) = era_names.get(relation as usize) else {
            return Err(ReplicaError::Diverged {
                relation,
                seq: 0,
                detail: "shipped records for a relation outside the schema of their era".into(),
            });
        };
        let (_, current) = self.eras.last().expect("era chain never empty");
        Ok(current.iter().position(|n| n == name))
    }

    /// Applies one schema transition: rebuilds the replica's store and
    /// per-relation bookkeeping under the new manifest's
    /// schema, remapping by relation name — the follower's mirror of the
    /// primary's [`Store::apply_transition`], driven by the shipped
    /// manifest instead of a live `alter` call.
    ///
    /// Survivor relations keep their tuples: the new store is opened
    /// over them with [`Store::from_schema`] — serving the manifest's
    /// full [`Schema`], declared layouts and indexes included — which
    /// re-validates each under its new enforcement cover (a shipped
    /// transition was accepted on the primary, so a cover its data
    /// violates is [`ReplicaError::Diverged`]); dropped relations are
    /// released; added relations start empty, with cursors at `(gen, 0)`.
    ///
    /// The survivors are copied out of the old store (its
    /// [`Store::snapshot`]; readers may still hold it, so it cannot be
    /// taken apart), so a shipped transition briefly holds every
    /// relation twice — a cold path, once per transition.  The new store
    /// is swapped in under the database's own pool
    /// ([`Database::replace_store`]).
    fn apply_manifest(&mut self, gen: u64, manifest: &Manifest) -> Result<(), ReplicaError> {
        if gen <= self.eras.last().map_or(0, |(g, _)| *g) {
            // A re-shipped transition (reconnect replays): already applied.
            return Ok(());
        }
        let schema = Schema::from_manifest(manifest)?;
        let definition = schema.definition();
        let current = self.db.schema();
        // `new index j → old index` by the relation identity rule — a
        // same-name relation with different columns is a different
        // incarnation and starts empty.
        let remap: Vec<Option<usize>> = (definition.remap_from(current.definition()).into_iter())
            .map(|i| i.map(SchemeId::index))
            .collect();
        let mut old: Vec<Option<Relation>> = (self.db.store().snapshot()?.into_relations())
            .into_iter()
            .map(Some)
            .collect();
        let relations = (definition.iter().zip(&remap))
            .map(|((_, s), m)| {
                m.and_then(|i| old[i].take())
                    .unwrap_or_else(|| Relation::new(s.attrs))
            })
            .collect();
        let state =
            DatabaseState::from_relations(definition, relations).map_err(StoreError::from)?;
        let config = StoreConfig {
            initial_state: Some(state),
            ..StoreConfig::default()
        };
        let names = relation_names(definition);
        let store = Store::from_schema(schema.clone(), config).map_err(|e| match e {
            StoreError::InvalidBaseState { scheme, violated } => ReplicaError::Diverged {
                relation: scheme.index() as u16,
                seq: 0,
                detail: format!("shipped transition does not re-shard cleanly: {violated:?}"),
            },
            e => e.into(),
        })?;
        self.db.replace_store(schema, Arc::new(store));
        // Remap the per-relation bookkeeping by the same name map.
        // Added relations: their log starts at the transition, cursor
        // `(gen, 0)`.
        self.cursors = (remap.iter())
            .map(|m| m.map_or(Cursor { gen, seq: 0 }, |i| self.cursors[i]))
            .collect();
        self.tips = remap
            .iter()
            .map(|m| m.map_or(0, |i| self.tips[i]))
            .collect();
        self.tip_gens = (remap.iter())
            .map(|m| m.map_or(gen, |i| self.tip_gens[i]))
            .collect();
        self.bind_families();
        self.registry.events().record(Event::SchemaAltered {
            generation: gen,
            relations: names.len() as u64,
        });
        self.eras.push((gen, names));
        Ok(())
    }

    /// Applies one record of relation `i`: its definitions into the
    /// pool, then its operation through the replica's store — the same
    /// slot probe/commit as the primary and as crash recovery.  The
    /// record was an accepted, effective operation on the primary, so
    /// it must re-accept here, and its names must agree with the pool's;
    /// anything else is [`ReplicaError::Diverged`].  Returns whether the
    /// record was new.
    fn apply(&mut self, i: usize, gen: u64, record: WalRecord) -> Result<bool, ReplicaError> {
        let (relation, seq) = (i as u16, record.seq);
        let cursor = self.cursors[i];
        if seq <= cursor.seq {
            // Already applied (a re-shipped prefix after reconnect).
            self.cursors[i].gen = cursor.gen.max(gen);
            return Ok(false);
        }
        if seq != cursor.seq + 1 {
            return Err(ReplicaError::Diverged {
                relation,
                seq,
                detail: format!("sequence gap: record {seq} after {}", cursor.seq),
            });
        }
        for (v, name) in &record.defs {
            if let Err(e) = self.db.define(*v, name) {
                return Err(ReplicaError::Diverged {
                    relation,
                    seq,
                    detail: format!("shipped definition does not fit the pool: {e}"),
                });
            }
        }
        let (id, store) = (SchemeId::from_index(i), self.db.store());
        let reapplied = match record.op {
            WalOp::Insert(t) => matches!(store.insert(id, t), Ok(InsertOutcome::Accepted)),
            WalOp::Remove(t) => matches!(store.remove(id, t), Ok(true)),
        };
        if !reapplied {
            return Err(ReplicaError::Diverged {
                relation,
                seq,
                detail: "shipped record did not re-accept through the relation's store slot".into(),
            });
        }
        self.cursors[i] = Cursor { gen, seq };
        self.applied_counters[i].inc();
        Ok(true)
    }

    /// Updates the lag gauges from cursors/tips, and the staleness
    /// gauge (milliseconds since the last poll that applied something
    /// or proved quiescence — only as fresh as the last poll).
    fn refresh_gauges(&mut self, fresh: bool) {
        for (i, gauge) in self.lag_gauges.iter().enumerate() {
            let lag = self.tips[i].saturating_sub(self.cursors[i].seq) as i64;
            gauge.add(lag - gauge.get());
        }
        if fresh {
            self.fresh_at = Instant::now();
        }
        let staleness = self.fresh_at.elapsed().as_millis() as i64;
        self.staleness.add(staleness - self.staleness.get());
    }
}

/// Rebuilds a replica's applied state from a durable directory,
/// read-only: manifest → schema (with the one independence analysis),
/// then the store's own recovery ([`Store::recover_from`]: snapshot +
/// per-relation tails through the era-tagged replay a durable reopen
/// runs, writing nothing, the value pool rebuilt from their
/// definitions — the follower's handle starts from that pool).
fn bootstrap(root: &Path) -> Result<Bootstrap, ReplicaError> {
    let dir = WalDir::open(root)?;
    // The *latest* manifest is the schema the replica serves; older
    // chain entries only direct the store's per-era replay.
    let schema = Schema::from_manifest(dir.latest_manifest())?;
    let (store, cursors) = Store::recover_from(&dir, schema.clone())?;
    // The bootstrap replay lands in the same per-relation family the
    // primary's recovery uses, so one dashboard query covers both sides
    // of the ship.
    let registry = Registry::new();
    let replayed = store.metrics();
    for i in 0..cursors.len() {
        let family = format!("wal.r{i}.recovered_records");
        registry
            .counter(&family)
            .add(replayed.counter(&family).unwrap_or(0));
    }
    let eras = (dir.manifests().iter())
        .map(|(g, m)| (*g, relation_names(&m.schema)))
        .collect();
    let db = Database::follower(schema, Arc::new(store));
    Ok(Bootstrap {
        db,
        dir,
        cursors,
        eras,
        registry,
    })
}

/// A schema's relation names, in scheme order.
fn relation_names(schema: &DatabaseSchema) -> Vec<String> {
    schema.iter().map(|(_, s)| s.name.clone()).collect()
}
