//! # ids-obs
//!
//! The observability substrate of the independent-schemas engine:
//! relaxed-atomic [`Counter`]s and [`Gauge`]s, a fixed log2-bucket
//! [`LatencyHistogram`] with an allocation-free record path, a bounded
//! [`EventLog`] ring of structured [`Event`]s, and a [`Registry`] of
//! named metric families that snapshots into one typed
//! [`MetricsSnapshot`].
//!
//! ## Why per-shard metrics are free
//!
//! Theorem 3 of Graham & Yannakakis makes every maintenance decision on
//! an independent schema a *per-relation-shard local* decision — and
//! the same locality argument applies to telemetry.  Each shard records
//! into its **own** counter family, so the hot path never contends with
//! another shard on a cache line, exactly as the store's relations never
//! coordinate on enforcement state.  Aggregation happens only at read
//! time, in [`Registry::snapshot`] — the observability mirror of the
//! store's barrier-free read path.
//!
//! ## Read semantics
//!
//! All record paths use `Ordering::Relaxed`: each counter is
//! individually monotonic, but a snapshot taken while writers are live
//! makes **no cross-counter atomicity promise** — e.g. `accepted` may
//! already include an op whose latency sample is still in flight.
//! Conservation invariants (counter totals equal acknowledged ops) hold
//! exactly once the writers are quiescent, which is how the E12
//! experiment and the e2e suites assert them.
//!
//! ## Turning it off
//!
//! * At runtime: [`set_recording`]`(false)` flips one global relaxed
//!   `AtomicBool`; every record path checks it first and becomes a
//!   branch-plus-return.
//! * At compile time: the `off` cargo feature pins [`recording`] to a
//!   constant `false`, deleting the record paths entirely.

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// The global recording switch.

#[cfg(not(feature = "off"))]
static RECORDING: AtomicBool = AtomicBool::new(true);

/// Is metric recording currently on?
///
/// Every record path ([`Counter::add`], [`Gauge::add`],
/// [`LatencyHistogram::record`], [`EventLog::record`]) checks this
/// first.  With the `off` cargo feature the function is a constant
/// `false` and the record paths compile out.  Reads ([`Counter::get`],
/// snapshots) are never gated.
#[cfg(not(feature = "off"))]
#[inline(always)]
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Is metric recording currently on?  (Compiled-out build: always
/// `false`, so the optimizer deletes every record path.)
#[cfg(feature = "off")]
#[inline(always)]
pub const fn recording() -> bool {
    false
}

/// Turns metric recording on or off process-wide (default: on).
///
/// The switch is a relaxed atomic: flipping it is not a barrier, so
/// ops already in flight on other threads may still record.  Intended
/// for benchmark harnesses measuring instrumentation overhead — flip,
/// quiesce, measure.  A no-op under the `off` feature.
pub fn set_recording(on: bool) {
    #[cfg(not(feature = "off"))]
    RECORDING.store(on, Ordering::Relaxed);
    #[cfg(feature = "off")]
    let _ = on;
}

// ---------------------------------------------------------------------
// Primitives.

/// A monotonically increasing relaxed-atomic counter.
///
/// The record path is one relaxed `fetch_add` behind the [`recording`]
/// gate; cross-thread visibility is eventual, per-counter order is
/// monotonic (see the crate docs' read-semantics section).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` (no-op while recording is off).
    #[inline]
    pub fn add(&self, n: u64) {
        if recording() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one (no-op while recording is off).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.  Never gated: reads work even while
    /// recording is off.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A relaxed-atomic signed gauge (live queue depths, open connections).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` (no-op while recording is off).
    #[inline]
    pub fn add(&self, delta: i64) {
        if recording() {
            self.0.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Adds one (no-op while recording is off).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one (no-op while recording is off).
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// The current value.  Never gated.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of buckets in a [`LatencyHistogram`]: bucket `i` counts
/// samples in `[2^i, 2^(i+1))` nanoseconds (bucket 0 also takes 0ns),
/// the last bucket takes everything ≥ `2^39`ns (≈ 9 minutes).
pub(crate) const HISTOGRAM_BUCKETS: usize = 40;

/// A fixed-size log2-bucket latency histogram.
///
/// The record path is two relaxed adds and one `fetch_add` into a
/// bucket chosen by `leading_zeros` — no allocation, no locks, no
/// floating point.  Bucket boundaries are powers of two nanoseconds.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

/// The bucket a sample of `ns` nanoseconds lands in.
#[inline]
fn bucket_of(ns: u64) -> usize {
    if ns == 0 {
        return 0;
    }
    ((63 - ns.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

impl LatencyHistogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one duration sample (no-op while recording is off).
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one sample in nanoseconds (no-op while recording is
    /// off).
    #[inline]
    fn record_ns(&self, ns: u64) {
        if recording() {
            self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Total samples recorded.  Never gated.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies the current contents into an owned snapshot.  Relaxed:
    /// concurrent records may straddle the copy (see the crate docs).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a [`LatencyHistogram`]'s state at one point in
/// time, with derived statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts; bucket `i` covers `[2^i, 2^(i+1))`ns.
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples in nanoseconds.
    pub sum_ns: u64,
}

impl HistogramSnapshot {
    /// Mean sample duration (zero when empty).
    pub fn mean(&self) -> Duration {
        Duration::from_nanos(self.sum_ns.checked_div(self.count).unwrap_or(0))
    }

    /// An upper bound on the `q`-quantile (0.0 ..= 1.0): the exclusive
    /// upper edge of the bucket where the cumulative count crosses
    /// `q * count`.  Zero when empty.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Duration::from_nanos(bucket_upper_ns(i));
            }
        }
        Duration::from_nanos(bucket_upper_ns(self.buckets.len().saturating_sub(1)))
    }
}

/// The exclusive upper edge of bucket `i`, in nanoseconds (saturating
/// for the open-ended last bucket).
fn bucket_upper_ns(i: usize) -> u64 {
    if i + 1 >= 64 {
        u64::MAX
    } else {
        1u64 << (i + 1)
    }
}

// ---------------------------------------------------------------------
// Structured events.

/// One structured, timestamped occurrence worth more than a counter
/// bump: rare, high-information state transitions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A relation's log hit a durability failure and the relation
    /// stopped serving; carries the preserved first-failure reason.
    ShardPoisoned {
        /// Index of the poisoned relation's metric family
        /// (`store.shard{i}`).
        shard: u64,
        /// Rendered reason of the first durability failure.
        reason: String,
    },
    /// A checkpoint began rotating the logs onto `generation`.
    CheckpointStarted {
        /// The generation the logs rotate onto.
        generation: u64,
    },
    /// A checkpoint finished (snapshot written, old segments pruned).
    CheckpointCompleted {
        /// The generation the logs now live on.
        generation: u64,
        /// Wall-clock duration of the whole checkpoint.
        duration: Duration,
    },
    /// A request was shed with a typed `Overloaded` reply because more
    /// than the connection's backlog bound were waiting unread.
    OverloadShed {
        /// The shedding connection's id.
        connection: u64,
    },
    /// Recovery replayed a write-ahead log into a fresh store.
    RecoveryReplayed {
        /// Log records replayed through probe/commit.
        records: u64,
        /// Wall-clock duration of the replay.
        duration: Duration,
    },
    /// A client connection was accepted.
    ConnectionOpened {
        /// The connection's id (monotonic per server).
        connection: u64,
    },
    /// A client connection ended (clean or not), with its byte totals.
    ConnectionClosed {
        /// The connection's id.
        connection: u64,
        /// Bytes read from the peer over the connection's lifetime.
        bytes_in: u64,
        /// Bytes written to the peer over the connection's lifetime.
        bytes_out: u64,
    },
    /// A batch of log frames for one relation was shipped to (or
    /// received by) a replication follower.
    SegmentShipped {
        /// Index of the relation the frames belong to.
        relation: u16,
        /// Checkpoint generation the frames came from.
        generation: u64,
        /// Records in the batch.
        records: u64,
    },
    /// A replication follower observed the primary's tip with nothing
    /// left to apply — it is (momentarily) fully caught up.
    ReplicaCaughtUp {
        /// Records applied since the previous caught-up transition.
        records: u64,
    },
    /// An accepted schema transition was made durable and applied: the
    /// database now serves `generation`'s schema.
    SchemaAltered {
        /// The generation the new schema is effective from.
        generation: u64,
        /// Relations in the new schema.
        relations: u64,
    },
    /// A schema transition was refused — dependent target schema, FD
    /// the data violates, or a malformed request — and the current
    /// schema keeps serving.
    AlterRejected {
        /// Rendered reason of the refusal.
        reason: String,
    },
    /// An `add_fd` transition finished re-validating (backfilling) an
    /// existing relation under its strengthened cover.
    BackfillCompleted {
        /// Index of the re-validated relation.
        relation: u64,
        /// Tuples re-checked.
        tuples: u64,
        /// Wall-clock duration of the re-validation.
        duration: Duration,
    },
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ShardPoisoned { shard, reason } => {
                write!(f, "shard {shard} poisoned: {reason}")
            }
            Self::CheckpointStarted { generation } => {
                write!(f, "checkpoint started (generation {generation})")
            }
            Self::CheckpointCompleted {
                generation,
                duration,
            } => write!(
                f,
                "checkpoint completed (generation {generation}, {duration:?})"
            ),
            Self::OverloadShed { connection } => {
                write!(f, "connection {connection} shed a request (backlog full)")
            }
            Self::RecoveryReplayed { records, duration } => {
                write!(f, "recovery replayed {records} records in {duration:?}")
            }
            Self::ConnectionOpened { connection } => {
                write!(f, "connection {connection} opened")
            }
            Self::ConnectionClosed {
                connection,
                bytes_in,
                bytes_out,
            } => write!(
                f,
                "connection {connection} closed ({bytes_in}B in, {bytes_out}B out)"
            ),
            Self::SegmentShipped {
                relation,
                generation,
                records,
            } => write!(
                f,
                "shipped {records} records of relation {relation} (generation {generation})"
            ),
            Self::ReplicaCaughtUp { records } => {
                write!(f, "replica caught up ({records} records applied)")
            }
            Self::SchemaAltered {
                generation,
                relations,
            } => write!(
                f,
                "schema altered (generation {generation}, {relations} relations)"
            ),
            Self::AlterRejected { reason } => {
                write!(f, "schema alter rejected: {reason}")
            }
            Self::BackfillCompleted {
                relation,
                tuples,
                duration,
            } => write!(
                f,
                "backfill of relation {relation} completed ({tuples} tuples, {duration:?})"
            ),
        }
    }
}

/// An [`Event`] with its log-assigned sequence number and the elapsed
/// time since the [`EventLog`] was created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// Monotonic per-log sequence number (0-based, never reused); the
    /// gap between the first retained record's `seq` and 0 says how
    /// many older events the bounded ring dropped.
    pub seq: u64,
    /// Elapsed time since the log's creation when the event fired.
    pub at: Duration,
    /// The event itself.
    pub event: Event,
}

/// A bounded ring of structured events: the newest `capacity` records
/// are retained, older ones are dropped (their count remains readable
/// through the retained records' sequence numbers).
///
/// Events are rare by design (poisons, checkpoints, connection
/// lifecycle), so the ring is a short mutex-guarded deque behind an
/// atomic sequence counter — the hot paths of the engine never touch
/// it.
#[derive(Debug)]
pub struct EventLog {
    origin: Instant,
    capacity: usize,
    seq: AtomicU64,
    slots: Mutex<VecDeque<EventRecord>>,
}

impl Default for EventLog {
    fn default() -> Self {
        Self::new(256)
    }
}

impl EventLog {
    /// A fresh log retaining at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        EventLog {
            origin: Instant::now(),
            capacity,
            seq: AtomicU64::new(0),
            slots: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// Appends one event (no-op while recording is off).
    pub fn record(&self, event: Event) {
        if !recording() {
            return;
        }
        let record = EventRecord {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            at: self.origin.elapsed(),
            event,
        };
        let mut slots = self.slots.lock().expect("event log poisoned");
        if slots.len() == self.capacity {
            slots.pop_front();
        }
        slots.push_back(record);
    }

    /// Events ever recorded (including ones the ring has dropped).
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// An owned copy of the currently retained records, oldest first.
    pub fn snapshot(&self) -> Vec<EventRecord> {
        self.slots
            .lock()
            .expect("event log poisoned")
            .iter()
            .cloned()
            .collect()
    }
}

// ---------------------------------------------------------------------
// The registry.

/// Named metric families behind one handle: counters, gauges and
/// histograms are created (or re-fetched) by name, external handles
/// can be registered under a name, and [`Registry::snapshot`] reads
/// everything into one [`MetricsSnapshot`].
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<Families>,
    events: Arc<EventLog>,
}

#[derive(Debug, Default)]
struct Families {
    counters: Vec<(String, Arc<Counter>)>,
    gauges: Vec<(String, Arc<Gauge>)>,
    histograms: Vec<(String, Arc<LatencyHistogram>)>,
}

impl Registry {
    /// A fresh registry with a default-capacity event log.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created at zero on first use.  The
    /// returned handle is the thing to keep on the hot path — the
    /// registry lock is paid once, here, not per record.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut fam = self.families.lock().expect("registry poisoned");
        if let Some((_, c)) = fam.counters.iter().find(|(n, _)| n == name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        fam.counters.push((name.to_string(), Arc::clone(&c)));
        c
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut fam = self.families.lock().expect("registry poisoned");
        if let Some((_, g)) = fam.gauges.iter().find(|(n, _)| n == name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::new());
        fam.gauges.push((name.to_string(), Arc::clone(&g)));
        g
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<LatencyHistogram> {
        let mut fam = self.families.lock().expect("registry poisoned");
        if let Some((_, h)) = fam.histograms.iter().find(|(n, _)| n == name) {
            return Arc::clone(h);
        }
        let h = Arc::new(LatencyHistogram::new());
        fam.histograms.push((name.to_string(), Arc::clone(&h)));
        h
    }

    /// Registers an externally created counter under `name`, so a
    /// metric family owned by another layer (e.g. the write-ahead
    /// log's) appears in this registry's snapshots.  Last registration
    /// of a name wins.
    pub fn register_counter(&self, name: &str, counter: Arc<Counter>) {
        let mut fam = self.families.lock().expect("registry poisoned");
        fam.counters.retain(|(n, _)| n != name);
        fam.counters.push((name.to_string(), counter));
    }

    /// Registers an externally created histogram under `name`.
    pub fn register_histogram(&self, name: &str, histogram: Arc<LatencyHistogram>) {
        let mut fam = self.families.lock().expect("registry poisoned");
        fam.histograms.retain(|(n, _)| n != name);
        fam.histograms.push((name.to_string(), histogram));
    }

    /// The registry's event log.
    pub fn events(&self) -> &Arc<EventLog> {
        &self.events
    }

    /// Reads every family and the event ring into one owned snapshot,
    /// names sorted.  Relaxed semantics: individually-monotonic values,
    /// no cross-metric atomicity (see the crate docs).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let fam = self.families.lock().expect("registry poisoned");
        let mut counters: Vec<(String, u64)> = fam
            .counters
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect();
        let mut gauges: Vec<(String, i64)> = fam
            .gauges
            .iter()
            .map(|(n, g)| (n.clone(), g.get()))
            .collect();
        let mut histograms: Vec<(String, HistogramSnapshot)> = fam
            .histograms
            .iter()
            .map(|(n, h)| (n.clone(), h.snapshot()))
            .collect();
        drop(fam);
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            events: self.events.snapshot(),
            poisoned: None,
        }
    }
}

// ---------------------------------------------------------------------
// The snapshot.

/// One owned, typed reading of every metric family a layer exposes —
/// what `Store::metrics()` / `Database::metrics()` return and what the
/// `Stats` wire request ships to a remote client.
///
/// ## Read semantics
///
/// Values are read with `Ordering::Relaxed` while writers may be live:
/// every counter is **individually monotonic** across snapshots, but
/// there is **no cross-counter atomicity** — a snapshot is not a
/// consistent cut.  Conservation identities (e.g. per-shard
/// `accepted + duplicate + rejected` equals acknowledged inserts) hold
/// exactly when the writers are quiescent.  Per-shard families never
/// share cache lines across shards (the Theorem 3 locality argument
/// applied to telemetry), which is what makes always-on recording
/// cheap.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// The retained tail of the structured event ring, oldest first.
    pub events: Vec<EventRecord>,
    /// The preserved first-failure reason when a shard has poisoned
    /// the store this snapshot came from — readable from a plain stats
    /// poll, without issuing a failing operation.
    pub poisoned: Option<String>,
}

impl MetricsSnapshot {
    /// The counter named `name`, when present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The gauge named `name`, when present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The histogram named `name`, when present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Sums every counter whose name equals `suffix` or ends with
    /// `.suffix` — e.g. `counter_sum("accepted")` totals
    /// `store.shard0.accepted`, `store.shard1.accepted`, … across
    /// shards.
    pub fn counter_sum(&self, suffix: &str) -> u64 {
        let dotted = format!(".{suffix}");
        self.counters
            .iter()
            .filter(|(n, _)| n == suffix || n.ends_with(&dotted))
            .map(|(_, v)| v)
            .sum()
    }

    /// Appends another layer's snapshot (the server merges its own
    /// families onto the store's before answering a `Stats` request).
    /// Events keep each source's internal order, `other`'s after
    /// `self`'s; a poison reason in either side survives (`self`'s
    /// wins when both are set).
    pub fn merge(&mut self, other: MetricsSnapshot) {
        self.counters.extend(other.counters);
        self.gauges.extend(other.gauges);
        self.histograms.extend(other.histograms);
        self.events.extend(other.events);
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        if self.poisoned.is_none() {
            self.poisoned = other.poisoned;
        }
    }

    /// Renders the snapshot as aligned human-readable text — the
    /// `metrics_tour` example's output format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(reason) = &self.poisoned {
            out.push_str(&format!("POISONED: {reason}\n"));
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            let w = self
                .counters
                .iter()
                .map(|(n, _)| n.len())
                .max()
                .unwrap_or(0);
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<w$}  {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            let w = self.gauges.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
            for (name, v) in &self.gauges {
                out.push_str(&format!("  {name:<w$}  {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            let w = self
                .histograms
                .iter()
                .map(|(n, _)| n.len())
                .max()
                .unwrap_or(0);
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "  {name:<w$}  count={} mean={:?} p50≤{:?} p99≤{:?}\n",
                    h.count,
                    h.mean(),
                    h.quantile(0.5),
                    h.quantile(0.99),
                ));
            }
        }
        if !self.events.is_empty() {
            out.push_str("events:\n");
            for e in &self.events {
                out.push_str(&format!("  [{:>5} +{:?}] {}\n", e.seq, e.at, e.event));
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests here share the process-global recording switch, so every
    /// test that records (or toggles) takes this lock.
    #[cfg(not(feature = "off"))]
    static SWITCH: Mutex<()> = Mutex::new(());

    #[cfg(not(feature = "off"))]
    #[test]
    fn counters_and_gauges_record_and_read() {
        let _guard = SWITCH.lock().unwrap_or_else(|e| e.into_inner());
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        g.add(-3);
        assert_eq!(g.get(), -2);
    }

    #[cfg(not(feature = "off"))]
    #[test]
    fn the_recording_switch_gates_writes_but_not_reads() {
        let _guard = SWITCH.lock().unwrap_or_else(|e| e.into_inner());
        let c = Counter::new();
        c.inc();
        set_recording(false);
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 1, "writes are gated");
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(5));
        assert_eq!(h.count(), 0);
        let log = EventLog::new(4);
        log.record(Event::CheckpointStarted { generation: 1 });
        assert_eq!(log.recorded(), 0);
        set_recording(true);
        c.inc();
        assert_eq!(c.get(), 2);
    }

    #[cfg(feature = "off")]
    #[test]
    fn the_off_feature_compiles_recording_out() {
        assert!(!recording());
        set_recording(true); // a no-op: the feature pins it off
        assert!(!recording());
        let c = Counter::new();
        c.add(7);
        assert_eq!(c.get(), 0);
        let h = LatencyHistogram::new();
        h.record_ns(100);
        assert_eq!(h.snapshot().count, 0);
        let log = EventLog::new(4);
        log.record(Event::CheckpointStarted { generation: 1 });
        assert!(log.snapshot().is_empty());
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[cfg(not(feature = "off"))]
    #[test]
    fn histogram_statistics_from_known_samples() {
        let _guard = SWITCH.lock().unwrap_or_else(|e| e.into_inner());
        let h = LatencyHistogram::new();
        for ns in [100u64, 100, 100, 1_000_000] {
            h.record_ns(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum_ns, 1_000_300);
        assert_eq!(s.mean(), Duration::from_nanos(250_075));
        // Three of four samples sit in the 64..128ns bucket: the median
        // upper bound is 128ns.
        assert_eq!(s.quantile(0.5), Duration::from_nanos(128));
        // The max sample (1ms) sits in [2^19, 2^20): p99 bound is 2^20.
        assert_eq!(s.quantile(0.99), Duration::from_nanos(1 << 20));
        assert_eq!(HistogramSnapshot::default().quantile(0.5), Duration::ZERO);
    }

    #[cfg(not(feature = "off"))]
    #[test]
    fn event_ring_is_bounded_and_keeps_sequence_numbers() {
        let _guard = SWITCH.lock().unwrap_or_else(|e| e.into_inner());
        let log = EventLog::new(2);
        for generation in 0..5 {
            log.record(Event::CheckpointStarted { generation });
        }
        assert_eq!(log.recorded(), 5);
        let tail = log.snapshot();
        assert_eq!(tail.len(), 2, "ring retains only the newest capacity");
        assert_eq!(tail[0].seq, 3);
        assert_eq!(tail[1].seq, 4);
        assert!(tail[0].at <= tail[1].at);
        assert_eq!(tail[1].event, Event::CheckpointStarted { generation: 4 });
    }

    #[cfg(not(feature = "off"))]
    #[test]
    fn registry_interns_by_name_and_snapshots_sorted() {
        let _guard = SWITCH.lock().unwrap_or_else(|e| e.into_inner());
        let r = Registry::new();
        let a = r.counter("b.total");
        let a2 = r.counter("b.total");
        assert!(Arc::ptr_eq(&a, &a2), "same name, same counter");
        a.add(3);
        r.counter("a.total").inc();
        r.gauge("depth").add(7);
        r.histogram("lat").record_ns(50);
        r.events()
            .record(Event::CheckpointStarted { generation: 9 });
        let snap = r.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a.total".into(), 1), ("b.total".into(), 3)]
        );
        assert_eq!(snap.gauge("depth"), Some(7));
        assert_eq!(snap.histogram("lat").unwrap().count, 1);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.poisoned, None);
        // External registration surfaces a foreign family.
        let external = Arc::new(Counter::new());
        external.add(11);
        r.register_counter("wal.appends", Arc::clone(&external));
        assert_eq!(r.snapshot().counter("wal.appends"), Some(11));
    }

    #[cfg(not(feature = "off"))]
    #[test]
    fn snapshot_sums_merge_and_render() {
        let _guard = SWITCH.lock().unwrap_or_else(|e| e.into_inner());
        let r = Registry::new();
        r.counter("store.shard0.accepted").add(2);
        r.counter("store.shard1.accepted").add(3);
        r.counter("store.shard1.rejected").add(1);
        let mut snap = r.snapshot();
        assert_eq!(snap.counter_sum("accepted"), 5);
        assert_eq!(snap.counter_sum("rejected"), 1);
        assert_eq!(snap.counter_sum("missing"), 0);

        let other = Registry::new();
        other.counter("server.shed").add(4);
        other.events().record(Event::OverloadShed { connection: 1 });
        let mut theirs = other.snapshot();
        theirs.poisoned = Some("disk gone".into());
        snap.merge(theirs);
        assert_eq!(snap.counter("server.shed"), Some(4));
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.poisoned.as_deref(), Some("disk gone"));

        let text = snap.render();
        assert!(text.contains("POISONED: disk gone"));
        assert!(text.contains("store.shard0.accepted"));
        assert!(text.contains("shed a request"));
        assert!(MetricsSnapshot::default().render().contains("no metrics"));
    }
}
