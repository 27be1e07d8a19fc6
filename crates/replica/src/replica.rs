//! The [`Replica`] itself: bootstrap, the two transports, the apply
//! loop, and the lag/staleness observability surface.

use std::net::ToSocketAddrs;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ids_api::{Database, Schema};
use ids_client::{Client, FrameBatch, StreamEvent, Subscription};
use ids_obs::{Counter, Event, Gauge, MetricsSnapshot, Registry};
use ids_store::{Error, Store};
use ids_wal::{
    Cursor, FollowPoll, Follower, Manifest, Shipment, TailedRecord, WalDir, WalError, WalRecord,
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
                        Ok(TailedRecord { record, payload })
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
    /// Generation of the last manifest the bootstrap's replay applied.
    manifest_gen: u64,
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
/// `value ↦ name` pairs, is fed only by the store's replay the apply
/// loop drives.  Reads take only their relation's lock, as on the
/// primary.
pub struct Replica {
    /// The read surface over the applied state — the primary's own store
    /// type, recovered from the directory by the store's replay and
    /// advanced by the same replay ([`Store::follow`]).
    db: Database,
    transport: Transport,
    /// Applied position per relation.
    cursors: Vec<Cursor>,
    /// Last known primary tip per relation (seq, and max gen seen).
    tips: Vec<u64>,
    tip_gens: Vec<u64>,
    /// Generation of the last manifest applied: one shipped again (a
    /// reconnect replays) is skipped.
    manifest_gen: u64,
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
            manifest_gen: boot.manifest_gen,
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
    /// follow loop's order — each relation's records, each transition
    /// after the records written before it — through the store's one
    /// replay ([`Store::follow`]): definitions into the pool, operations
    /// re-accepted through the relation's slot, manifests switched in
    /// place.  Returns how much was applied and whether the replica is
    /// now caught up; typed errors for corruption
    /// ([`ReplicaError::Wal`]), divergence ([`ReplicaError::Diverged`]),
    /// and pruned-past cursors ([`ReplicaError::Behind`]).
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
                Shipment::Manifest { gen, .. } if gen <= self.manifest_gen => {}
                Shipment::Manifest { gen, .. } => self.apply_manifest(gen, shipment)?,
                Shipment::Records {
                    relation,
                    gen,
                    tip,
                    records,
                } => applied += self.apply_records(relation, gen, tip, records)?,
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

    /// Applies one schema transition through the store's in-place
    /// switch — the follower's mirror of the primary's [`Store::alter`],
    /// driven by the shipped manifest — and remaps the per-relation
    /// bookkeeping by the same relation identity rule.  Added relations start with cursors at `(gen, 0)`, where
    /// their logs begin.  A shipped transition was accepted on the
    /// primary, so a cover the follower's rows violate is
    /// [`ReplicaError::Diverged`].
    fn apply_manifest(&mut self, gen: u64, shipment: Shipment) -> Result<(), ReplicaError> {
        let before = self.db.schema();
        self.db.store().follow([shipment]).map_err(diverged)?;
        let schema = self.db.schema();
        let remap = schema.definition().remap_from(before.definition());
        let carry = |of: &[u64], added: u64| -> Vec<u64> {
            (remap.iter())
                .map(|m| m.map_or(added, |i| of[i.index()]))
                .collect()
        };
        self.tips = carry(&self.tips, 0);
        self.tip_gens = carry(&self.tip_gens, gen);
        self.cursors = (remap.iter())
            .map(|m| m.map_or(Cursor { gen, seq: 0 }, |i| self.cursors[i.index()]))
            .collect();
        self.manifest_gen = gen;
        self.bind_families();
        self.registry.events().record(Event::SchemaAltered {
            generation: gen,
            relations: remap.len() as u64,
        });
        Ok(())
    }

    /// Applies one relation's shipped records through the store's one
    /// replay ([`Store::follow`]), after dropping those already applied
    /// (a re-shipped prefix after a reconnect) and checking that the rest
    /// continue the relation's sequence.  The batch is labeled with the
    /// relation's index under the last manifest shipped, which is the
    /// schema the store serves.  Returns how many records were new.
    fn apply_records(
        &mut self,
        relation: u16,
        gen: u64,
        tip: u64,
        mut records: Vec<TailedRecord>,
    ) -> Result<u64, ReplicaError> {
        let i = relation as usize;
        let refuse = |seq: u64, detail: String| ReplicaError::Diverged {
            relation,
            seq,
            detail,
        };
        if i >= self.cursors.len() {
            return Err(refuse(
                0,
                "shipped records for a relation outside the schema".into(),
            ));
        }
        self.tips[i] = self.tips[i].max(tip);
        self.tip_gens[i] = self.tip_gens[i].max(gen);
        self.shipped_counters[i].add(records.len() as u64);
        let cursor = self.cursors[i];
        records.retain(|r| r.record.seq > cursor.seq);
        for (next, r) in (cursor.seq + 1..).zip(&records) {
            if r.record.seq != next {
                let detail = format!("sequence gap: record {} after {}", r.record.seq, next - 1);
                return Err(refuse(r.record.seq, detail));
            }
        }
        let (n, seq) = (records.len() as u64, cursor.seq + records.len() as u64);
        if n > 0 {
            let batch = Shipment::Records {
                relation,
                gen,
                tip,
                records,
            };
            self.db.store().follow([batch]).map_err(diverged)?;
        }
        self.cursors[i] = Cursor {
            gen: cursor.gen.max(gen),
            seq,
        };
        self.applied_counters[i].add(n);
        Ok(n)
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

/// A shipment the store's replay refused: the primary's log and the
/// follower's state contradict each other.
fn diverged(e: Error) -> ReplicaError {
    match e {
        Error::Replay {
            scheme,
            seq,
            detail,
        } => ReplicaError::Diverged {
            relation: scheme.index() as u16,
            seq,
            detail,
        },
        Error::BackfillViolation {
            scheme, violated, ..
        } => ReplicaError::Diverged {
            relation: scheme.index() as u16,
            seq: 0,
            detail: format!(
                "shipped transition does not hold on the follower's rows: {violated:?}"
            ),
        },
        e => e.into(),
    }
}

/// Rebuilds a replica's applied state from a durable directory,
/// read-only: manifest → schema (with the one independence analysis),
/// then the store's own recovery ([`Store::recover_from`]: the snapshot,
/// then every later record and manifest through the one replay a
/// durable reopen runs, writing nothing, the value pool rebuilt from
/// their definitions — the follower's handle starts from that pool).
fn bootstrap(root: &Path) -> Result<Bootstrap, ReplicaError> {
    let dir = WalDir::open(root)?;
    // The *latest* manifest is the schema the replica serves: the
    // store's replay ends in it.
    let schema = Schema::from_manifest(dir.latest_manifest())?;
    let (store, cursors) = Store::recover_from(&dir, schema)?;
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
    let manifest_gen = dir.manifests()[dir.manifests().len() - 1].0;
    let db = Database::follower(Arc::new(store));
    Ok(Bootstrap {
        db,
        dir,
        cursors,
        manifest_gen,
        registry,
    })
}
