//! The [`Replica`] itself: bootstrap, the two transports, the apply
//! loop, and the lag/staleness observability surface.

use std::collections::VecDeque;
use std::net::ToSocketAddrs;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ids_api::{Database, Error as ApiError, Schema};
use ids_client::{Client, StreamEvent, Subscription};
use ids_core::{InsertOutcome, RelationShard};
use ids_obs::{Counter, Event, Gauge, MetricsSnapshot, Registry};
use ids_relational::codec::Decoder;
use ids_relational::Relation;
use ids_server::wire::POOL_STREAM;
use ids_wal::{
    Cursor, Manifest, NameTailer, RelationPoll, RelationTailer, WalDir, WalOp, WalRecord,
};

use crate::engine::{ReplicaEngine, ReplicaState, SharedState};
use crate::ReplicaError;

/// Interned (pool-referenced) values live in the bottom half of the id
/// space; fresh anonymous values are allocated from the top
/// ([`ids_relational::ValuePool::fresh`]).  A shipped record's value
/// below this floor references a pool name, so it can only be applied
/// once that name has arrived.
const FRESH_FLOOR: u64 = 1 << 63;

/// One batch a transport produced, already decoded.
enum Shipment {
    /// New pool names, in interning order; `tip` is the primary's
    /// total name count as of the batch.
    Names { names: Vec<String>, tip: u64 },
    /// New records of one relation's log, from one segment generation;
    /// `tip` is the primary's last durable sequence for the relation.
    /// `relation` is the scheme index **under the manifest governing
    /// `gen`** — the replica maps it to its current schema through the
    /// era chain.
    Records {
        relation: u16,
        gen: u64,
        tip: u64,
        records: Vec<WalRecord>,
    },
    /// A schema transition the primary committed: the generation
    /// manifest, guaranteed by both transports to arrive before any
    /// records of a generation ≥ its own.
    Manifest { gen: u64, manifest: Manifest },
}

/// How the replica receives the primary's log.
enum Transport {
    /// Shared directory: poll the segment files read-only.
    File {
        dir: WalDir,
        fingerprint: u32,
        tailers: Vec<RelationTailer>,
        names: NameTailer,
        /// Highest generation-manifest generation already surfaced as a
        /// [`Shipment::Manifest`]; anything newer on disk ships first.
        manifest_gen: u64,
    },
    /// TCP subscription: the server tails its own files and ships the
    /// frame payloads verbatim.  `barrier` is the request id of the
    /// in-flight sync ping, if any: the server answers a ping only
    /// after a poll round that started after it arrived, so the
    /// matching `Pong` proves everything durable before the ping was
    /// sent has been delivered.
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
        match self {
            Transport::File {
                dir,
                tailers,
                names,
                manifest_gen,
                ..
            } => {
                // Transitions first, and *alone*: a new manifest remaps
                // relation indexes, so the records of this round must
                // wait until the replica has applied it (and retargeted
                // these tailers) — they ship on the next poll.  The
                // tailers' own manifest-boundary guard means records
                // polled before the manifest was noticed could only be
                // pre-transition anyway.
                let fresh = dir.generation_manifests_after(*manifest_gen)?;
                if !fresh.is_empty() {
                    *manifest_gen = fresh.last().map(|(g, ..)| *g).expect("non-empty");
                    let out = fresh
                        .into_iter()
                        .map(|(gen, manifest, _)| Shipment::Manifest { gen, manifest })
                        .collect();
                    return Ok((out, false));
                }
                let mut out = Vec::new();
                // Names next — the primary fsyncs a name before any
                // record referencing it, and applying in the same
                // order keeps the deferred-record buffer small.
                let tailed = names.poll()?;
                if !tailed.is_empty() {
                    out.push(Shipment::Names {
                        names: tailed.into_iter().map(|n| n.name).collect(),
                        tip: names.emitted(),
                    });
                }
                for tailer in tailers.iter_mut() {
                    match tailer.poll()? {
                        RelationPoll::Records(recs) if !recs.is_empty() => {
                            let tip = tailer.cursor().seq;
                            // A poll can cross a checkpoint rotation or
                            // a transition boundary: split per
                            // generation (labeling each batch with its
                            // records' own scheme index) so cursors —
                            // and era mapping — stay exact.
                            let mut batch = Vec::new();
                            let mut gen = recs[0].gen;
                            let mut scheme = recs[0].scheme;
                            for rec in recs {
                                if rec.gen != gen || rec.scheme != scheme {
                                    out.push(Shipment::Records {
                                        relation: scheme,
                                        gen,
                                        tip,
                                        records: std::mem::take(&mut batch),
                                    });
                                    gen = rec.gen;
                                    scheme = rec.scheme;
                                }
                                batch.push(rec.record);
                            }
                            out.push(Shipment::Records {
                                relation: scheme,
                                gen,
                                tip,
                                records: batch,
                            });
                        }
                        RelationPoll::Records(_) => {}
                        RelationPoll::Behind => return Err(ReplicaError::Behind),
                    }
                }
                let quiescent = out.is_empty();
                Ok((out, quiescent))
            }
            Transport::Wire { sub, barrier } => {
                // Keep a barrier armed: its `Pong` is the only sound
                // caught-up proof on the wire (an idle heartbeat may
                // have been generated before a write we already know
                // was acknowledged).
                if barrier.is_none() {
                    *barrier = Some(sub.ping()?);
                }
                // One blocking receive; the server heartbeats when
                // idle, so this returns regularly without traffic.
                let batch = match sub.next_event()? {
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
                    } => {
                        // The server ships the manifest verbatim and
                        // before any frames of its generation; decode
                        // and surface it in the same order.
                        let manifest = Manifest::decode(Path::new("<wire>"), &payload)?;
                        return Ok((
                            vec![Shipment::Manifest {
                                gen: generation,
                                manifest,
                            }],
                            false,
                        ));
                    }
                    StreamEvent::Frames(batch) => batch,
                };
                if batch.relation == POOL_STREAM {
                    if batch.frames.is_empty() {
                        // The idle heartbeat: only liveness — the
                        // armed barrier carries the caught-up proof.
                        return Ok((Vec::new(), false));
                    }
                    let mut names = Vec::with_capacity(batch.frames.len());
                    for payload in &batch.frames {
                        let mut d = Decoder::new(payload);
                        let name = d.get_str().map_err(|e| ids_wal::WalError::Corrupt {
                            path: "<wire>".into(),
                            detail: format!("bad shipped pool record: {e}"),
                        })?;
                        names.push(name);
                    }
                    Ok((
                        vec![Shipment::Names {
                            names,
                            tip: batch.tip,
                        }],
                        false,
                    ))
                } else {
                    let path = Path::new("<wire>");
                    let records = batch
                        .frames
                        .iter()
                        .map(|payload| WalRecord::decode(path, payload))
                        .collect::<Result<Vec<_>, _>>()?;
                    Ok((
                        vec![Shipment::Records {
                            relation: batch.relation,
                            gen: batch.gen,
                            tip: batch.tip,
                            records,
                        }],
                        false,
                    ))
                }
            }
        }
    }
}

/// What one [`Replica::poll`] accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicaProgress {
    /// Records applied by this poll (across all relations).
    pub applied: u64,
    /// Whether the replica is caught up with everything the transport
    /// could see: a quiescent poll with no deferred records pending.
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

/// Everything the bootstrap replay produces.
struct Bootstrap {
    db: Database,
    state: SharedState,
    cursors: Vec<Cursor>,
    names_applied: u64,
    fingerprint: u32,
    /// The manifest chain as known at bootstrap: `(first governed
    /// generation, relation names in scheme order)` per era.
    eras: Vec<(u64, Vec<String>)>,
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
/// borrow: its engine answers [`ids_api::Engine::read_only`], and the
/// database refuses every write with the typed
/// [`ApiError::ReplicaReadOnly`] *before* interning any of its strings
/// — the name pool, whose insertion order is the primary's value
/// assignment, is fed only by the apply loop, which owns the handle.
pub struct Replica {
    db: Database,
    state: SharedState,
    transport: Transport,
    /// Applied position per relation.
    cursors: Vec<Cursor>,
    /// Last known primary tip per relation (seq, and max gen seen).
    tips: Vec<u64>,
    tip_gens: Vec<u64>,
    names_applied: u64,
    names_tip: u64,
    /// Records shipped but not yet applicable: their pool names have
    /// not arrived.  Per relation, in log order — the "in-flight" term
    /// of the conservation law `shipped == applied + pending`.
    pending: Vec<VecDeque<(u64, WalRecord)>>,
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
    pending_gauges: Vec<Arc<Gauge>>,
    staleness: Arc<Gauge>,
    /// Instant of the last poll that applied something or proved
    /// quiescence — what the staleness gauge measures from.
    fresh_at: Instant,
    caught_up: bool,
}

impl Replica {
    /// A **file-tail** follower of the durable primary at `root`
    /// (primary and follower share the directory; the follower only
    /// ever reads).  Bootstraps from the snapshot + name log + segment
    /// tail exactly like crash recovery, then tails the segment files
    /// from the recovered cursors.
    pub fn open(root: impl AsRef<Path>) -> Result<Replica, ReplicaError> {
        let root = root.as_ref();
        let registry = Registry::new();
        let boot = bootstrap(root, &registry)?;
        let dir = WalDir::open(root)?;
        let tailers = boot
            .cursors
            .iter()
            .enumerate()
            .map(|(i, &cursor)| RelationTailer::new(root, boot.fingerprint, i as u16, cursor))
            .collect();
        let names = NameTailer::new(&dir.pool_log_path(), boot.fingerprint, boot.names_applied);
        let manifest_gen = boot.eras.last().map(|(g, _)| *g).unwrap_or(0);
        let fingerprint = boot.fingerprint;
        Ok(Replica::assemble(
            boot,
            Transport::File {
                dir,
                fingerprint,
                tailers,
                names,
                manifest_gen,
            },
            registry,
        ))
    }

    /// A **wire-stream** follower: bootstraps from the seed directory
    /// at `seed` (a copy of the primary's durable directory — manifest,
    /// snapshot, name log, segments; a base backup), then subscribes to
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
        let registry = Registry::new();
        let boot = bootstrap(seed.as_ref(), &registry)?;
        let client = Client::connect(addr)?;
        let cursors = boot.cursors.iter().map(|c| (c.gen, c.seq)).collect();
        let sub = client.subscribe(cursors, boot.names_applied)?;
        Ok(Replica::assemble(
            boot,
            Transport::Wire { sub, barrier: None },
            registry,
        ))
    }

    fn assemble(boot: Bootstrap, transport: Transport, registry: Registry) -> Replica {
        let n = boot.cursors.len();
        let shipped_counters = (0..n)
            .map(|i| registry.counter(&format!("replica.r{i}.shipped")))
            .collect();
        let applied_counters = (0..n)
            .map(|i| registry.counter(&format!("replica.r{i}.applied")))
            .collect();
        let lag_gauges = (0..n)
            .map(|i| registry.gauge(&format!("replica.r{i}.lag")))
            .collect();
        let pending_gauges = (0..n)
            .map(|i| registry.gauge(&format!("replica.r{i}.pending")))
            .collect();
        let staleness = registry.gauge("replica.staleness_ms");
        let tips = boot.cursors.iter().map(|c| c.seq).collect();
        let tip_gens = boot.cursors.iter().map(|c| c.gen).collect();
        Replica {
            db: boot.db,
            state: boot.state,
            transport,
            tips,
            tip_gens,
            names_applied: boot.names_applied,
            names_tip: boot.names_applied,
            pending: vec![VecDeque::new(); n],
            cursors: boot.cursors,
            eras: boot.eras,
            registry,
            shipped_counters,
            applied_counters,
            lag_gauges,
            pending_gauges,
            staleness,
            fresh_at: Instant::now(),
            caught_up: false,
        }
    }

    /// The read surface: `read` / `query` / `rows` / `count` / `join`
    /// on the replica's applied state.  Writes through it (`insert`,
    /// `remove`, `insert_raw`, `apply_batch`) are refused with
    /// [`ApiError::ReplicaReadOnly`] and leave the name pool untouched;
    /// `intern` needs the `&mut Database` only the apply loop has.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The schema the replica currently serves: recovered from the
    /// primary's manifest, then advanced by each streamed transition.
    pub fn schema(&self) -> Arc<Schema> {
        self.db.schema()
    }

    /// Ingests everything the transport can currently see: names
    /// first, then each relation's new records through the shard
    /// probe/commit.  Returns how much was applied and whether the
    /// replica is now caught up; typed errors for corruption
    /// ([`ReplicaError::Wal`]), divergence
    /// ([`ReplicaError::Diverged`]), and pruned-past cursors
    /// ([`ReplicaError::Behind`]).
    ///
    /// On the wire transport this blocks until the server's next batch
    /// or idle heartbeat (at most tens of milliseconds); on the file
    /// transport it returns immediately.
    pub fn poll(&mut self) -> Result<ReplicaProgress, ReplicaError> {
        let (shipments, quiescent) = self.transport.poll()?;
        let mut applied = 0u64;
        for shipment in shipments {
            match shipment {
                Shipment::Names { names, tip } => {
                    self.names_tip = self.names_tip.max(tip);
                    for name in names {
                        // Interning order is value assignment: feeding
                        // the streamed names in pool order reproduces
                        // the primary's exact `Value` ids.
                        self.db.intern(&name)?;
                        self.names_applied += 1;
                    }
                    // New names may unblock deferred records.
                    applied += self.drain_pending()?;
                }
                Shipment::Manifest { gen, manifest } => {
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
                    for record in records {
                        if !self.pending[i].is_empty() || self.needs_names(&record) {
                            self.pending[i].push_back((gen, record));
                            self.pending_gauges[i].inc();
                        } else {
                            self.apply(i as u16, gen, record)?;
                            applied += 1;
                        }
                    }
                }
            }
        }
        let pending_total: usize = self.pending.iter().map(VecDeque::len).sum();
        let caught_up = quiescent && pending_total == 0;
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
            if matches!(self.transport, Transport::File { .. }) {
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

    /// Records shipped but deferred because their pool names have not
    /// arrived yet — the "in-flight" term of the conservation law
    /// `shipped == applied + pending` (assertable from
    /// [`Replica::metrics`] alone: `replica.r{i}.shipped` ==
    /// `replica.r{i}.applied` + `replica.r{i}.pending`).
    pub fn pending(&self) -> usize {
        self.pending.iter().map(VecDeque::len).sum()
    }

    /// A snapshot of the replica's metric families: per-relation
    /// `replica.r{i}.shipped` / `.applied` counters, `.lag` /
    /// `.pending` gauges, the `replica.staleness_ms` gauge, the
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

    /// Applies one schema transition: rebuilds the replica's state,
    /// engine, and per-relation bookkeeping under the new manifest's
    /// schema, remapping by relation name — the mirror of the primary's
    /// [`ids_store::Store::apply_transition`], driven by the shipped
    /// manifest instead of a live `alter` call.
    ///
    /// Survivor relations keep their tuples (re-sharded under the new
    /// enforcement cover — a shipped transition was accepted on the
    /// primary, so a cover its data violates is
    /// [`ReplicaError::Diverged`]); dropped relations are released;
    /// added relations start empty, with cursors at `(gen, 0)`.
    fn apply_manifest(&mut self, gen: u64, manifest: &Manifest) -> Result<(), ReplicaError> {
        let last = self.eras.last().map(|(g, _)| *g).unwrap_or(0);
        if gen <= last {
            // A re-shipped transition (reconnect replays): already applied.
            return Ok(());
        }
        let schema = Schema::from_manifest(manifest)?;
        let enforcement = match &schema.analysis().verdict {
            ids_core::Verdict::Independent { enforcement } => enforcement.clone(),
            ids_core::Verdict::NotIndependent { reason, witness } => {
                // The primary only commits transitions to independent
                // targets; a dependent shipped manifest is self-contradictory.
                return Err(ApiError::NotIndependent {
                    reason: reason.clone(),
                    witness: Box::new(witness.clone()),
                }
                .into());
            }
        };
        let definition = schema.definition().clone();
        let old_names = self
            .eras
            .last()
            .map(|(_, names)| names.clone())
            .unwrap_or_default();
        let new_names: Vec<String> = definition.iter().map(|(_, s)| s.name.clone()).collect();
        // `new index j → old index` by name (and unchanged attributes —
        // a same-name relation with different columns is a different
        // incarnation and starts empty).
        let remap: Vec<Option<usize>> = definition
            .iter()
            .map(|(jid, scheme)| {
                old_names
                    .iter()
                    .position(|n| n == &scheme.name)
                    .filter(|&i| {
                        self.db
                            .schema()
                            .definition()
                            .attrs(ids_relational::SchemeId::from_index(i))
                            == definition.attrs(jid)
                    })
            })
            .collect();
        // Rebuild the applied state in place (readers keep their handle:
        // the engine's `Arc` is the same allocation).
        {
            let mut state = self
                .state
                .lock()
                .expect("replica state mutex poisoned: a reader panicked");
            let mut old: Vec<Option<Relation>> = std::mem::take(&mut state.relations)
                .into_iter()
                .map(Some)
                .collect();
            let mut relations = Vec::with_capacity(new_names.len());
            let mut shards = Vec::with_capacity(new_names.len());
            for (jid, scheme) in definition.iter() {
                let rel = remap[jid.index()]
                    .and_then(|i| old[i].take())
                    .unwrap_or_else(|| Relation::new(scheme.attrs));
                let shard = RelationShard::with_relation(
                    &definition,
                    jid,
                    enforcement[jid.index()].clone(),
                    &rel,
                )
                .map_err(|e| ReplicaError::Diverged {
                    relation: jid.index() as u16,
                    seq: 0,
                    detail: format!("shipped transition does not re-shard cleanly: {e}"),
                })?;
                relations.push(rel);
                shards.push(shard);
            }
            state.relations = relations;
            state.shards = shards;
        }
        let engine = ReplicaEngine::new(definition.clone(), Arc::clone(&self.state));
        self.db.adopt_engine(schema, Box::new(engine));
        // Remap the per-relation bookkeeping by the same name map.
        // Added relations: their log starts at the transition, cursor
        // `(gen, 0)`.  Dropped relations' pending records are released —
        // the transition supersedes them.
        let n = new_names.len();
        self.cursors = remap
            .iter()
            .map(|m| m.map(|i| self.cursors[i]).unwrap_or(Cursor { gen, seq: 0 }))
            .collect();
        self.tips = remap
            .iter()
            .map(|m| m.map(|i| self.tips[i]).unwrap_or(0))
            .collect();
        self.tip_gens = remap
            .iter()
            .map(|m| m.map(|i| self.tip_gens[i]).unwrap_or(gen))
            .collect();
        let mut old_pending: Vec<Option<VecDeque<(u64, WalRecord)>>> =
            std::mem::take(&mut self.pending)
                .into_iter()
                .map(Some)
                .collect();
        self.pending = remap
            .iter()
            .map(|m| m.and_then(|i| old_pending[i].take()).unwrap_or_default())
            .collect();
        // Metric handles are positional (`replica.r{i}.*`): re-fetch for
        // the new indexes.  A survivor that changed index continues in
        // its new slot's family, so per-slot histories blend across a
        // transition; the gauges are corrected to the true values below.
        self.shipped_counters = (0..n)
            .map(|i| self.registry.counter(&format!("replica.r{i}.shipped")))
            .collect();
        self.applied_counters = (0..n)
            .map(|i| self.registry.counter(&format!("replica.r{i}.applied")))
            .collect();
        self.lag_gauges = (0..n)
            .map(|i| self.registry.gauge(&format!("replica.r{i}.lag")))
            .collect();
        self.pending_gauges = (0..n)
            .map(|i| self.registry.gauge(&format!("replica.r{i}.pending")))
            .collect();
        for (gauge, queue) in self.pending_gauges.iter().zip(&self.pending) {
            gauge.add(queue.len() as i64 - gauge.get());
        }
        self.eras.push((gen, new_names.clone()));
        // On the file transport, retarget the tailers: survivors follow
        // their relation to its new scheme index, dropped relations'
        // tailers fall away, added relations tail from `(gen, 0)`.
        if let Transport::File {
            dir,
            fingerprint,
            tailers,
            ..
        } = &mut self.transport
        {
            let mut old: Vec<Option<RelationTailer>> = tailers.drain(..).map(Some).collect();
            for (j, name) in new_names.iter().enumerate() {
                let prev = old_names
                    .iter()
                    .position(|n| n == name)
                    .and_then(|i| old.get_mut(i).and_then(Option::take));
                match prev {
                    Some(mut t) => {
                        t.retarget(gen, j as u16);
                        tailers.push(t);
                    }
                    None => tailers.push(RelationTailer::new(
                        dir.root(),
                        *fingerprint,
                        j as u16,
                        Cursor { gen, seq: 0 },
                    )),
                }
            }
        }
        self.registry.events().record(Event::SchemaAltered {
            generation: gen,
            relations: n as u64,
        });
        Ok(())
    }

    /// True when every value the record references is already interned.
    fn needs_names(&self, record: &WalRecord) -> bool {
        let (WalOp::Insert(tuple) | WalOp::Remove(tuple)) = &record.op;
        tuple
            .iter()
            .any(|v| v.0 < FRESH_FLOOR && v.0 >= self.names_applied)
    }

    /// Re-runs deferred records whose names have arrived, in log order
    /// per relation.
    fn drain_pending(&mut self) -> Result<u64, ReplicaError> {
        let mut applied = 0u64;
        for i in 0..self.pending.len() {
            while let Some((gen, record)) = self.pending[i].front() {
                if self.needs_names(record) {
                    break;
                }
                let gen = *gen;
                let record = self.pending[i].pop_front().expect("front just existed").1;
                self.pending_gauges[i].dec();
                self.apply(i as u16, gen, record)?;
                applied += 1;
            }
        }
        Ok(applied)
    }

    /// Applies one record through the relation's shard — the same
    /// probe/commit as the primary and as crash recovery.  The record
    /// was an accepted, effective operation on the primary, so it must
    /// re-accept here; anything else is [`ReplicaError::Diverged`].
    fn apply(&mut self, relation: u16, gen: u64, record: WalRecord) -> Result<(), ReplicaError> {
        let i = relation as usize;
        let cursor = self.cursors[i];
        if record.seq <= cursor.seq {
            // Already applied (a re-shipped prefix after reconnect).
            self.cursors[i].gen = cursor.gen.max(gen);
            return Ok(());
        }
        if record.seq != cursor.seq + 1 {
            return Err(ReplicaError::Diverged {
                relation,
                seq: record.seq,
                detail: format!("sequence gap: record {} after {}", record.seq, cursor.seq),
            });
        }
        let seq = record.seq;
        let reapplied = {
            let mut state = self
                .state
                .lock()
                .expect("replica state mutex poisoned: a reader panicked");
            let ReplicaState { relations, shards } = &mut *state;
            match record.op {
                WalOp::Insert(t) => {
                    matches!(
                        shards[i].insert(&mut relations[i], t),
                        Ok(InsertOutcome::Accepted)
                    )
                }
                WalOp::Remove(t) => matches!(shards[i].remove(&mut relations[i], &t), Ok(true)),
            }
        };
        if !reapplied {
            return Err(ReplicaError::Diverged {
                relation,
                seq,
                detail: "shipped record did not re-accept through the relation's shard".into(),
            });
        }
        self.cursors[i] = Cursor { gen, seq };
        self.applied_counters[i].inc();
        Ok(())
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
/// snapshot + per-relation tails → relations and shards via the same
/// probe/commit replay as crash recovery, name log → the database's
/// value pool in interning order.
fn bootstrap(root: &Path, registry: &Registry) -> Result<Bootstrap, ReplicaError> {
    let dir = WalDir::open(root)?;
    let recovered = dir.recover()?;
    // The *latest* manifest is the schema the replica serves; older
    // chain entries only direct the per-era replay below — each tail
    // record replays under the schema its segment was written against.
    let schema = Schema::from_manifest(dir.latest_manifest())?;
    let Some(enforcement) = schema.enforcement() else {
        // A durable primary can only exist over an independent schema,
        // so a manifest that fails the analysis is self-contradictory.
        let (reason, witness) = match &schema.analysis().verdict {
            ids_core::Verdict::NotIndependent { reason, witness } => {
                (reason.clone(), Box::new(witness.clone()))
            }
            ids_core::Verdict::Independent { .. } => unreachable!("enforcement was None"),
        };
        return Err(ApiError::NotIndependent { reason, witness }.into());
    };
    let definition = schema.definition();
    let chain = dir.manifests();
    let last_era = chain.len() - 1;
    let mut era_enf: Vec<Option<Vec<_>>> = vec![None; chain.len()];
    let cursors: Vec<Cursor> = recovered
        .last_seqs()
        .into_iter()
        .map(|seq| Cursor {
            gen: recovered.next_gen.saturating_sub(1),
            seq,
        })
        .collect();
    let base = recovered.base.into_relations();
    let mut relations = Vec::with_capacity(definition.len());
    let mut shards = Vec::with_capacity(definition.len());
    for ((id, mut rel), records) in definition.ids().zip(base).zip(recovered.tail) {
        let name = definition.scheme(id).name.clone();
        // The bootstrap replay lands in the same per-relation family
        // the primary's recovery uses, so one dashboard query covers
        // both sides of the ship.
        registry
            .counter(&format!("wal.r{}.recovered_records", id.index()))
            .add(records.len() as u64);
        // Records are era-tagged: each run replays through a shard
        // enforcing the cover of the manifest its segment was written
        // under — exactly the primary's own recovery.
        let mut cur: Option<(usize, RelationShard)> = None;
        for (era, record) in records {
            if cur.as_ref().map(|(e, _)| *e) != Some(era) {
                let shard = if era == last_era {
                    RelationShard::with_relation(
                        definition,
                        id,
                        enforcement[id.index()].clone(),
                        &rel,
                    )
                } else {
                    let m = &chain[era].1;
                    let eid = m.schema.scheme_by_name(&name).ok_or_else(|| {
                        ids_wal::WalError::Corrupt {
                            path: root.to_path_buf(),
                            detail: format!(
                                "records of {name:?} map to a generation whose schema lacks it"
                            ),
                        }
                    })?;
                    if era_enf[era].is_none() {
                        let analysis = ids_core::analyze(&m.schema, &m.fds);
                        let enf = match analysis.verdict {
                            ids_core::Verdict::Independent { enforcement } => enforcement,
                            ids_core::Verdict::NotIndependent { reason, witness } => {
                                return Err(ApiError::NotIndependent {
                                    reason,
                                    witness: Box::new(witness),
                                }
                                .into())
                            }
                        };
                        era_enf[era] = Some(enf);
                    }
                    let cover = era_enf[era].as_ref().expect("just filled")[eid.index()].clone();
                    RelationShard::with_relation(&m.schema, eid, cover, &rel)
                }
                .map_err(|e| ReplicaError::Api(e.into()))?;
                cur = Some((era, shard));
            }
            let (_, shard) = cur.as_mut().expect("just installed");
            let seq = record.seq;
            let reapplied = match record.op {
                WalOp::Insert(t) => {
                    matches!(shard.insert(&mut rel, t), Ok(InsertOutcome::Accepted))
                }
                WalOp::Remove(t) => matches!(shard.remove(&mut rel, &t), Ok(true)),
            };
            if !reapplied {
                return Err(ReplicaError::Diverged {
                    relation: id.index() as u16,
                    seq,
                    detail: "logged record did not replay cleanly at bootstrap".into(),
                });
            }
        }
        // The live shard enforces under the final schema; reuse the
        // last era's when it already is that.
        let shard = match cur {
            Some((era, shard)) if era == last_era => shard,
            _ => {
                RelationShard::with_relation(definition, id, enforcement[id.index()].clone(), &rel)
                    .map_err(|e| ReplicaError::Api(e.into()))?
            }
        };
        relations.push(rel);
        shards.push(shard);
    }
    let eras: Vec<(u64, Vec<String>)> = chain
        .iter()
        .map(|(g, m)| (*g, m.schema.iter().map(|(_, s)| s.name.clone()).collect()))
        .collect();
    let state: SharedState = Arc::new(Mutex::new(ReplicaState { relations, shards }));
    let engine = ReplicaEngine::new(definition.clone(), Arc::clone(&state));
    let mut db = Database::with_engine(schema, Box::new(engine));
    // Replay the name log in interning order — order *is* the value
    // assignment, so the replica's pool renders the primary's values
    // identically.  A `NameTailer` (not `NameLog::open`) because the
    // primary may be live: its log must never be truncated by us.
    let mut name_tailer = NameTailer::new(&dir.pool_log_path(), dir.fingerprint(), 0);
    let mut names_applied = 0u64;
    for tailed in name_tailer.poll()? {
        db.intern(&tailed.name)?;
        names_applied += 1;
    }
    Ok(Bootstrap {
        db,
        state,
        cursors,
        names_applied,
        fingerprint: dir.fingerprint(),
        eras,
    })
}
