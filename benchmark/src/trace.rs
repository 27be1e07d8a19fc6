//! The traced run: the per-layer cost ledger, measured from outside.
//!
//! This change may not put spans inside the program, so the trace replays
//! one seeded op stream single-threaded at each layer's public boundary,
//! bottom-up, each on a fresh instance, recording one span per product
//! call.  A layer's self time is its boundary's ns/op minus the boundary
//! below it.  Counts come from the product's `metrics()` snapshots, the
//! filesystem and the counting allocator.

use std::collections::{HashSet, VecDeque};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::gen::{mix_val, Answer, Generator, Kind, Op, Outcome, Preload, Tallies, KINDS};
use crate::layers::{self, Clock, Sync};
use crate::metrics::PER_LAYER;
use crate::stats;
use crate::workloads::{mix_op, Ledger, Mix, Workload, WINDOW};
use crate::ScratchDir;

/// Ops of the window-1 cycle appended to the stream, so every kind of
/// call appears in every workload's trace.
const CYCLE_OPS: usize = 89 * 40;
/// Boundaries that fsync once per fresh name replay only this many ops
/// of the mix (and a tenth of the cycle): 2 000 fsyncs take ~0.5 s here.
const NAME_FSYNC_OPS: usize = 2_000;
/// Names appended to the bare `NameLog`.
const NAME_LOG_APPENDS: u64 = 1_000;
/// Names interned to size the pool.
const POOL_NAMES: u64 = 10_000;
const RECOVERIES: usize = 5;

struct Span {
    name: u32,
    parent: u32,
    op: u32,
    start_ns: u64,
    end_ns: u64,
}

const NO_SPAN: u32 = u32::MAX;

/// Spans in memory until the run ends, then one JSON file.
struct Tracer {
    clock: Clock,
    names: Vec<String>,
    spans: Vec<Span>,
    /// Off for every other op of the top boundary's replay, the untraced
    /// control `trace.overhead_share` compares against.
    recording: bool,
}

impl Tracer {
    fn new() -> Self {
        let mut tracer = Tracer {
            clock: Clock::default(),
            names: Vec::new(),
            spans: Vec::new(),
            recording: true,
        };
        tracer.open("trace", NO_SPAN);
        tracer
    }

    fn name_id(&mut self, name: &str) -> u32 {
        match self.names.iter().position(|n| n == name) {
            Some(at) => at as u32,
            None => {
                self.names.push(name.to_string());
                self.names.len() as u32 - 1
            }
        }
    }

    /// Opens an enclosing span; `close` stamps its end.
    fn open(&mut self, name: &str, parent: u32) -> u32 {
        let name = self.name_id(name);
        let now = self.clock.now_ns();
        self.spans.push(Span {
            name,
            parent,
            op: NO_SPAN,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() as u32 - 1
    }

    fn close(&mut self, span: u32) {
        self.spans[span as usize].end_ns = self.clock.now_ns();
    }

    fn span(&mut self, name: u32, parent: u32, op: usize, start_ns: u64, end_ns: u64) {
        if self.recording {
            self.spans.push(Span {
                name,
                parent,
                op: op as u32,
                start_ns,
                end_ns,
            });
        }
    }

    /// Records the product call the clock just timed.
    fn call(&mut self, name: u32, parent: u32, op: usize) {
        self.span(name, parent, op, self.clock.start_ns, self.clock.end_ns);
    }

    fn write(&mut self, path: &Path) -> Result<(), String> {
        self.close(0);
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        let io = |e: std::io::Error| format!("{}: {e}", path.display());
        let names: Vec<String> = self.names.iter().map(|n| format!("\"{n}\"")).collect();
        writeln!(
            out,
            "{{\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"op_id\"],\"names\":[{}],\"spans\":[",
            names.join(",")
        )
        .map_err(io)?;
        let id = |v: u32| if v == NO_SPAN { -1 } else { i64::from(v) };
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "[{},{},{},{},{}]{comma}",
                s.name,
                s.start_ns,
                s.end_ns,
                id(s.parent),
                id(s.op)
            )
            .map_err(io)?;
        }
        writeln!(out, "]}}").map_err(io)?;
        out.flush().map_err(io)
    }
}

/// Durations of one boundary's calls, by op kind.
#[derive(Default)]
struct Timing {
    ns: [Vec<u64>; KINDS.len()],
    allocs: [u64; KINDS.len()],
}

impl Timing {
    fn add(&mut self, kind: Kind, clock: &Clock) {
        self.ns[kind.index()].push(clock.end_ns - clock.start_ns);
        self.allocs[kind.index()] += clock.allocs;
    }

    fn count(&self, kind: Kind) -> u64 {
        self.ns[kind.index()].len() as u64
    }

    /// ns per call of `kind` at the quiet percentile (see
    /// `stats::QUIET_PERCENTILE`) — what the per-layer metrics report: it
    /// repeats from run to run where the mean does not.
    fn quiet(&self, kind: Kind) -> f64 {
        quiet_ns(&self.ns[kind.index()])
    }

    /// Median ns per call of `kind` — for boundaries that fsync on every
    /// call, whose quiet percentile would be the device's luckiest case.
    fn median(&self, kind: Kind) -> f64 {
        stats::percentile_us(&self.ns[kind.index()], 50.0) * 1000.0
    }

    /// Mean ns per call of `kind` — what the ledger adds up: means of
    /// parts sum to the mean of the whole, percentiles do not.
    fn mean(&self, kind: Kind) -> f64 {
        mean_ns(&self.ns[kind.index()])
    }

    /// The same over every write call (inserts, refused inserts, removes).
    fn quiet_write(&self) -> f64 {
        let writes: Vec<u64> = WRITE_KINDS
            .iter()
            .flat_map(|kind| self.ns[kind.index()].iter().copied())
            .collect();
        quiet_ns(&writes)
    }

    /// Allocation calls per write call.
    fn allocs_per_write(&self) -> f64 {
        let calls: u64 = WRITE_KINDS.iter().map(|&kind| self.count(kind)).sum();
        let allocs: u64 = WRITE_KINDS
            .iter()
            .map(|kind| self.allocs[kind.index()])
            .sum();
        allocs as f64 / calls as f64
    }
}

const WRITE_KINDS: [Kind; 3] = [Kind::Insert, Kind::Refused, Kind::Remove];

fn mean_ns(samples_ns: &[u64]) -> f64 {
    samples_ns.iter().sum::<u64>() as f64 / samples_ns.len() as f64
}

fn quiet_ns(samples_ns: &[u64]) -> f64 {
    stats::percentile_us(samples_ns, stats::QUIET_PERCENTILE) * 1000.0
}

/// Replays `ops` through `call`, one span per product call; ops the
/// boundary has no call for (`None`) are skipped.
fn replay(
    tracer: &mut Tracer,
    boundary: &str,
    ops: &[&Op],
    ledger: &mut Ledger,
    mut call: impl FnMut(&Op, &mut Clock) -> Option<Answer>,
) -> Timing {
    let parent = tracer.open(&format!("replay:{boundary}"), 0);
    let name = tracer.name_id(boundary);
    let mut timing = Timing::default();
    for (i, op) in ops.iter().enumerate() {
        if let Some(answer) = call(op, &mut tracer.clock) {
            tracer.call(name, parent, i);
            timing.add(op.kind(), &tracer.clock);
            ledger.check(op, &answer);
        }
    }
    tracer.close(parent);
    timing
}

/// Replays the writes of `ops` through `apply_batch` in chunks of `chunk`;
/// returns ns per op at the `read_at` percentile of the batches.
fn replay_batches(
    tracer: &mut Tracer,
    boundary: &str,
    rig: &layers::StoreRig,
    ops: &[&Op],
    chunk: usize,
    read_at: f64,
    ledger: &mut Ledger,
) -> f64 {
    let parent = tracer.open(&format!("replay:{boundary}"), 0);
    let name = tracer.name_id(boundary);
    let writes: Vec<Op> = ops
        .iter()
        .filter(|op| op.is_write())
        .map(|&op| op.clone())
        .collect();
    let mut ns_per_op = Vec::new();
    for (i, batch) in writes.chunks(chunk).enumerate() {
        let answers = rig.batch(batch, &mut tracer.clock);
        tracer.call(name, parent, i * chunk);
        ns_per_op.push((tracer.clock.end_ns - tracer.clock.start_ns) / batch.len() as u64);
        if answers.len() != batch.len() {
            ledger.fail(format!(
                "{boundary}: {} answers for {} ops",
                answers.len(),
                batch.len()
            ));
            continue;
        }
        for (op, answer) in batch.iter().zip(&answers) {
            ledger.check(op, answer);
        }
    }
    tracer.close(parent);
    stats::percentile_us(&ns_per_op, read_at) * 1000.0
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// p50 of 200 × (32-byte append + `sync_data`) on a scratch file, in µs:
/// the device's own cost, so a slow disk can be told from a slow commit.
pub fn device_fsync_us(scratch: &Path) -> Result<f64, String> {
    let path = scratch.join("fsync-probe.bin");
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut file = std::fs::File::create(&path).map_err(io)?;
    let mut us = Vec::with_capacity(200);
    for _ in 0..200 {
        file.write_all(&[0u8; 32]).map_err(io)?;
        let start = Instant::now();
        file.sync_data().map_err(io)?;
        us.push(start.elapsed().as_nanos() as f64 / 1000.0);
    }
    drop(file);
    let _ = std::fs::remove_file(&path);
    Ok(stats::median(&us))
}

pub struct TraceReport {
    pub workload: &'static str,
    pub seed: u64,
    /// `(name, value)` for every row of `PER_LAYER`, in table order.
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub spans: usize,
    pub trace_file: PathBuf,
}

/// One traced run: the stream, the instruments, and the metrics so far.
/// Each layer's method replays the stream at that layer's boundary and
/// hands the timings a higher layer subtracts from to its caller.
struct Session<'a> {
    w: &'a Workload,
    preload: Preload,
    schema: ids_api::Schema,
    scratch: &'a Path,
    /// The whole stream: the mix, then the window-1 cycle.
    full: Vec<&'a Op>,
    /// Its prefix for boundaries that fsync once per fresh name.
    short: Vec<&'a Op>,
    /// The oracle's tallies after `full`.
    tallies: Tallies,
    tracer: Tracer,
    ledger: Ledger,
    metrics: Vec<(&'static str, f64)>,
}

impl Session<'_> {
    fn push(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn scratch_dir(&self, purpose: &str) -> ScratchDir {
        ScratchDir::new(self.scratch, &format!("{}-trace-{purpose}", self.w.name))
    }

    /// `core`: `RelationShard`, then `LocalMaintainer`.  Returns the
    /// maintainer's timings.
    fn core(&mut self) -> Result<Timing, String> {
        let mut rig = layers::shard_rig(&self.schema);
        let heap_before = stats::live_bytes();
        rig.preload(&self.preload)?;
        let heap = stats::live_bytes().saturating_sub(heap_before);
        let shard = replay(
            &mut self.tracer,
            "core.shard",
            &self.full,
            &mut self.ledger,
            |op, clock| rig.call(op, clock),
        );
        drop(rig);
        let mut rig = layers::maintainer_rig(&self.schema)?;
        rig.preload(&self.preload)?;
        let maintainer = replay(
            &mut self.tracer,
            "core.maintainer",
            &self.full,
            &mut self.ledger,
            |op, clock| rig.call(op, clock),
        );
        self.push("core.shard_insert_ns", shard.quiet(Kind::Insert));
        self.push("core.shard_remove_ns", shard.quiet(Kind::Remove));
        self.push("core.shard_point_ns", shard.quiet(Kind::Point));
        self.push("core.shard_group_ns", shard.quiet(Kind::Group));
        self.push("core.maintainer_insert_ns", maintainer.quiet(Kind::Insert));
        self.push(
            "core.allocs_per_insert",
            shard.allocs[Kind::Insert.index()] as f64 / shard.count(Kind::Insert) as f64,
        );
        self.push(
            "core.live_bytes_per_row",
            heap as f64 / self.preload.row_counts()[0] as f64,
        );
        Ok(maintainer)
    }

    /// `store`: one op per call, then batches of 64 and 4096.  Returns the
    /// one-op timings and the ns/op of the 64-batches.
    fn store(&mut self) -> Result<(Timing, f64), String> {
        let rig = layers::store_rig(&self.schema, None)?;
        rig.preload(&self.preload)?;
        let one = replay(
            &mut self.tracer,
            "store.apply1",
            &self.full,
            &mut self.ledger,
            |op, clock| rig.call(op, clock),
        );
        let counted = layers::tallies_of(&rig.metrics());
        let expected = Tallies {
            accepted: self.tallies.accepted + self.preload.row_counts()[0],
            ..self.tallies
        };
        if counted != expected {
            self.ledger.fail(format!(
                "store counters {counted:?} differ from the oracle's {expected:?}"
            ));
        }
        rig.close()?;
        let mut batch_ns = [0.0; 2];
        for (slot, chunk) in batch_ns.iter_mut().zip([64, 4096]) {
            let rig = layers::store_rig(&self.schema, None)?;
            rig.preload(&self.preload)?;
            *slot = replay_batches(
                &mut self.tracer,
                &format!("store.apply{chunk}"),
                &rig,
                &self.full,
                chunk,
                stats::QUIET_PERCENTILE,
                &mut self.ledger,
            );
            rig.close()?;
        }
        let [apply64, apply4096] = batch_ns;
        self.push("store.apply1_ns", one.quiet_write());
        self.push("store.apply64_ns", apply64);
        self.push("store.apply4096_ns", apply4096);
        self.push("store.query_point_ns", one.quiet(Kind::Point));
        self.push("store.query_group_ns", one.quiet(Kind::Group));
        self.push("store.allocs_per_op1", one.allocs_per_write());
        self.push("store.accepted", counted.accepted as f64);
        self.push("store.rejected", counted.rejected as f64);
        self.push("store.duplicate", counted.duplicate as f64);
        self.push("store.removed", counted.removed as f64);
        Ok((one, apply64))
    }

    /// `wal` under the store: the 64-batches again with a log under each
    /// sync policy, a checkpoint, and the bare name log.
    fn wal(&mut self, apply64: f64) -> Result<(), String> {
        for (metric, sync) in [
            ("wal.append_never_ns", Sync::Never),
            ("wal.batch4096_ns", Sync::Batch4096),
            ("wal.always_ns", Sync::Always),
        ] {
            let dir = self.scratch_dir("store");
            let rig = layers::store_rig(&self.schema, Some((&dir.0, sync)))?;
            rig.preload(&self.preload)?;
            let before = rig.metrics();
            // `Always` fsyncs on every batch: read the median, not the
            // device's luckiest case.
            let read_at = if sync == Sync::Always {
                50.0
            } else {
                stats::QUIET_PERCENTILE
            };
            let ns = replay_batches(
                &mut self.tracer,
                &format!("wal.{sync:?}"),
                &rig,
                &self.full,
                64,
                read_at,
                &mut self.ledger,
            );
            self.push(metric, ns - apply64);
            if sync == Sync::Batch4096 {
                let after = rig.metrics();
                let delta = |name| layers::counter(&after, name) - layers::counter(&before, name);
                self.push(
                    "wal.bytes_per_op",
                    delta("wal.append_bytes") as f64 / delta("wal.appends") as f64,
                );
                rig.checkpoint(&mut self.tracer.clock)?;
                let name = self.tracer.name_id("wal.checkpoint");
                self.tracer.call(name, 0, 0);
                let clock = &self.tracer.clock;
                self.push(
                    "wal.checkpoint_ms",
                    (clock.end_ns - clock.start_ns) as f64 / 1e6,
                );
            }
            rig.close()?;
        }

        let dir = self.scratch_dir("names");
        std::fs::create_dir_all(&dir.0).map_err(|e| e.to_string())?;
        let path = dir.0.join("names.log");
        let parent = self.tracer.open("replay:wal.name_append", 0);
        let name = self.tracer.name_id("wal.name_append");
        let appends = layers::name_log_appends(
            &path,
            (0..NAME_LOG_APPENDS).map(|i| crate::gen::mix_key(0, i)),
            &mut self.tracer.clock,
        )?;
        for (i, &(start_ns, end_ns)) in appends.iter().enumerate() {
            self.tracer.span(name, parent, i, start_ns, end_ns);
        }
        self.tracer.close(parent);
        let append_ns: Vec<u64> = appends.iter().map(|(start, end)| end - start).collect();
        let bytes = std::fs::metadata(&path).map_or(0, |meta| meta.len());
        self.push(
            "wal.name_append_ns",
            stats::percentile_us(&append_ns, 50.0) * 1000.0,
        );
        self.push(
            "wal.names_bytes_per_name",
            bytes as f64 / NAME_LOG_APPENDS as f64,
        );
        Ok(())
    }

    /// `api`: the name pool over the sequential engine, then
    /// `SharedDatabase` in memory and durable (whose directory also gives
    /// the disk and recovery numbers).  Returns the two `SharedDatabase`
    /// timings.
    fn api(&mut self, maintainer: &Timing, store_one: &Timing) -> Result<(Timing, Timing), String> {
        let mut rig = layers::local_database_rig(&self.preload)?;
        let local = replay(
            &mut self.tracer,
            "api.local_database",
            &self.full,
            &mut self.ledger,
            |op, clock| rig.call(op, clock),
        );
        drop(rig);
        let mut db = layers::open_database(None, &self.preload)?;
        let (join_rows, tuples_shipped, keys_shipped) = layers::join_report(&db)?;
        if join_rows != crate::gen::D1_ROWS {
            self.ledger
                .fail(format!("planned join returned {join_rows} rows"));
        }
        let heap_before = stats::live_bytes();
        layers::intern_all(&mut db, (0..POOL_NAMES).map(|i| format!("n{i}")))?;
        let pool_bytes = stats::live_bytes().saturating_sub(heap_before);
        let shared = layers::share(db)?;
        let in_memory = replay(
            &mut self.tracer,
            "api.shared",
            &self.full,
            &mut self.ledger,
            |op, clock| Some(layers::shared_call_timed(&shared, op, clock)),
        );
        drop(shared);

        // Every preloaded name costs a durable database one fsync, so the
        // durable rig of a memory workload loads the small preload; it only
        // replays writes, which never touch preloaded rows.
        let preload = Preload {
            groups: self.preload.groups.min(10),
        };
        let dir = self.scratch_dir("api");
        let shared = layers::share(layers::open_database(Some(&dir.0), &preload)?)?;
        let before = layers::shared_metrics(&shared);
        let durable = replay(
            &mut self.tracer,
            "api.shared_durable",
            &self.short,
            &mut self.ledger,
            |op, clock| {
                op.is_write()
                    .then(|| layers::shared_call_timed(&shared, op, clock))
            },
        );
        let wal_fsyncs = layers::counter(&layers::shared_metrics(&shared), "wal.fsyncs")
            - layers::counter(&before, "wal.fsyncs");
        let live_rows = layers::shared_row_counts(&shared)?;
        drop(shared);
        // Every fresh string costs one name-log fsync: one per fresh key,
        // one per recurring value on first use.
        let mut fresh_values = HashSet::new();
        let mut fresh_names = 0u64;
        let mut user_bytes: u64 = (0..4)
            .flat_map(|relation| preload.rows(relation))
            .map(|row| (row[0].len() + row[1].len()) as u64)
            .sum();
        for op in &self.short {
            if let Op::Insert {
                val,
                expect: Outcome::Accepted,
                ..
            } = op
            {
                fresh_names += 1 + u64::from(fresh_values.insert(mix_val(*val)));
                user_bytes += op.user_bytes();
            }
        }
        let writes = self.short.iter().filter(|op| op.is_write()).count();
        let disk_bytes = dir_bytes(&dir.0);
        let mut recover_s = Vec::new();
        for _ in 0..RECOVERIES {
            let start = Instant::now();
            let found = layers::recover_row_counts(&dir.0)?;
            recover_s.push(start.elapsed().as_secs_f64());
            if found != live_rows {
                self.ledger.fail(format!(
                    "recovered {found:?}, the live database held {live_rows:?}"
                ));
            }
        }
        self.push(
            "wal.fsyncs_per_kop",
            (wal_fsyncs + fresh_names) as f64 * 1000.0 / writes as f64,
        );
        self.push(
            "wal.disk_bytes_per_user_byte",
            disk_bytes as f64 / user_bytes as f64,
        );
        self.push(
            "wal.recover_rows_per_s",
            live_rows.iter().sum::<u64>() as f64 / stats::median(&recover_s),
        );
        self.push(
            "api.intern_ns",
            local.quiet(Kind::Insert) - maintainer.quiet(Kind::Insert),
        );
        self.push("api.shared_insert_ns", in_memory.quiet(Kind::Insert));
        self.push("api.shared_insert_durable_ns", durable.median(Kind::Insert));
        self.push(
            "api.query_plan_render_ns",
            in_memory.quiet(Kind::Point) - store_one.quiet(Kind::Point),
        );
        self.push("api.join_ns", in_memory.quiet(Kind::Join));
        self.push("api.join_tuples_shipped", tuples_shipped as f64);
        self.push("api.join_keys_shipped", keys_shipped as f64);
        self.push(
            "api.pool_bytes_per_name",
            pool_bytes as f64 / POOL_NAMES as f64,
        );
        Ok((in_memory, durable))
    }

    /// `server`: the codec alone, no socket.  Returns its timings.
    fn server(&mut self) -> Timing {
        let parent = self.tracer.open("replay:server.codec", 0);
        let name = self.tracer.name_id("server.codec");
        let mut codec = Timing::default();
        for (i, op) in self.short.iter().enumerate() {
            match layers::codec_round_trip(op, &mut self.tracer.clock) {
                Ok(()) => {
                    self.tracer.call(name, parent, i);
                    codec.add(op.kind(), &self.tracer.clock);
                }
                Err(e) => self.ledger.fail(e),
            }
        }
        self.tracer.close(parent);
        self.push("server.codec_write_ns", codec.quiet_write());
        self.push("server.codec_point_ns", codec.quiet(Kind::Point));
        self.push("server.codec_group_ns", codec.quiet(Kind::Group));
        codec
    }

    /// `client`: the top boundary, over loopback, on the workload's own
    /// kind of deployment — window 1, then window 64 — and the ledger.
    /// `below(kind)` is the mean cost of the layers under the socket.
    fn client(&mut self, below: impl Fn(Kind) -> f64) -> Result<(), String> {
        let primary = match self.w.mix {
            Mix::Write => Kind::Insert,
            Mix::Read => Kind::Point,
        };
        let ops: &[&Op] = if self.w.durable {
            &self.short
        } else {
            &self.full
        };
        let deploy = |dir: Option<&ScratchDir>| -> Result<_, String> {
            let db = layers::open_database(dir.map(|d| d.0.as_path()), &self.preload)?;
            let shared = layers::share(db)?;
            let server = layers::serve(&shared)?;
            let client = layers::connect(layers::server_addr(&server))?;
            Ok((shared, server, client))
        };

        let dir = self.w.durable.then(|| self.scratch_dir("top1"));
        let (shared, server, mut client) = deploy(dir.as_ref())?;
        let before = layers::server_metrics(&server);
        // Spans are recorded for every other op, so the replay is its own
        // untraced control: same deployment, same seconds.
        let parent = self.tracer.open("replay:client.w1", 0);
        let name = self.tracer.name_id("client.w1");
        let mut w1 = [Timing::default(), Timing::default()];
        for (i, op) in ops.iter().enumerate() {
            self.tracer.recording = i % 2 == 0;
            let answer = layers::client_round_trip(&mut client, op, &mut self.tracer.clock);
            self.tracer.call(name, parent, i);
            w1[i % 2].add(op.kind(), &self.tracer.clock);
            self.ledger.check(op, &answer);
        }
        self.tracer.recording = true;
        self.tracer.close(parent);
        let [traced, untraced] = w1;
        let after = layers::client_stats(&mut client)?;
        let sent = ops.len() as f64;
        let per_op =
            |name| (layers::counter(&after, name) - layers::counter(&before, name)) as f64 / sent;
        // The bare round trip, on the connection the replay warmed.
        let mut ping_ns = Vec::new();
        for _ in 0..2_000 {
            ping_ns.push(layers::client_ping_ns(&mut client)?);
        }
        drop(client);
        layers::shutdown_server(server);
        drop((shared, dir));

        let dir = self.w.durable.then(|| self.scratch_dir("top64"));
        let (shared, server, mut client) = deploy(dir.as_ref())?;
        let parent = self.tracer.open("replay:client.w64", 0);
        let name = self.tracer.name_id("client.w64");
        let mut inflight: VecDeque<(u64, usize, u64)> = VecDeque::with_capacity(WINDOW);
        let mut kinds = [0u64; KINDS.len()];
        let start = self.tracer.clock.now_ns();
        let mut next = 0;
        while next < ops.len() || !inflight.is_empty() {
            while next < ops.len() && inflight.len() < WINDOW {
                let sent = self.tracer.clock.now_ns();
                match layers::client_send(&mut client, ops[next]) {
                    Ok(id) => inflight.push_back((id, next, sent)),
                    Err(answer) => self.ledger.check(ops[next], &answer),
                }
                next += 1;
            }
            let Some((id, at, sent)) = inflight.pop_front() else {
                break;
            };
            let answer = layers::client_recv(&mut client, id);
            let received = self.tracer.clock.now_ns();
            self.tracer.span(name, parent, at, sent, received);
            kinds[ops[at].kind().index()] += 1;
            self.ledger.check(ops[at], &answer);
        }
        let w64_ns = (self.tracer.clock.now_ns() - start) as f64 / ops.len() as f64;
        self.tracer.close(parent);
        drop(client);
        layers::shutdown_server(server);
        drop((shared, dir));

        let below_w64: f64 = KINDS
            .iter()
            .filter(|kind| kinds[kind.index()] > 0)
            .map(|&kind| kinds[kind.index()] as f64 * below(kind))
            .sum::<f64>()
            / ops.len() as f64;
        self.push("server.bytes_in_per_op", per_op("server.bytes_in"));
        self.push("server.bytes_out_per_op", per_op("server.bytes_out"));
        self.push("server.shed", layers::counter(&after, "server.shed") as f64);
        // A durable top boundary fsyncs on every fresh insert.
        self.push(
            "client.w1_ns",
            if self.w.durable {
                traced.median(primary)
            } else {
                traced.quiet(primary)
            },
        );
        self.push("client.w64_ns", w64_ns);
        self.push("client.transport_w1_ns", quiet_ns(&ping_ns));
        self.push("client.transport_w64_ns", w64_ns - below_w64);
        self.push(
            "client.w1_p99_us",
            stats::percentile_us(&traced.ns[primary.index()], 99.0),
        );
        self.push(
            "ledger.attributed_share",
            (below(primary) + mean_ns(&ping_ns)) / traced.mean(primary),
        );
        self.push(
            "trace.overhead_share",
            traced.quiet(primary) / untraced.quiet(primary) - 1.0,
        );
        Ok(())
    }
}

/// Runs the traced replay of `w`'s stream (`mix_ops` ops of its mix plus
/// the window-1 cycle) and returns every per-layer metric.
pub fn run(
    w: &Workload,
    seed: u64,
    groups: u64,
    mix_ops: usize,
    scratch: &Path,
    out: &Path,
) -> Result<TraceReport, String> {
    let preload = Preload { groups };
    let mut generator = Generator::new(seed, &preload, 0);
    let mix: Vec<Op> = (0..mix_ops)
        .map(|_| mix_op(&mut generator, w.mix))
        .collect();
    let cycle: Vec<Op> = (0..CYCLE_OPS).map(|_| generator.cycle()).collect();
    let mut session = Session {
        w,
        preload,
        schema: layers::build_schema(),
        scratch,
        full: mix.iter().chain(&cycle).collect(),
        short: mix
            .iter()
            .take(NAME_FSYNC_OPS)
            .chain(cycle.iter().take(CYCLE_OPS / 10))
            .collect(),
        tallies: generator.tallies,
        tracer: Tracer::new(),
        ledger: Ledger::default(),
        metrics: Vec::new(),
    };

    let fsync_before = device_fsync_us(scratch)?;
    let maintainer = session.core()?;
    let (store_one, apply64) = session.store()?;
    session.wal(apply64)?;
    let (in_memory, durable) = session.api(&maintainer, &store_one)?;
    let fsync_after = device_fsync_us(scratch)?;
    session.push("wal.device_fsync_us", (fsync_before + fsync_after) / 2.0);
    let codec = session.server();
    // Under the socket: the codec plus `SharedDatabase` — the durable one
    // where the workload is durable and the durable replay held that kind.
    session.client(|kind| {
        let api = if w.durable && durable.count(kind) > 0 {
            durable.mean(kind)
        } else {
            in_memory.mean(kind)
        };
        codec.mean(kind) + api
    })?;

    // The report carries exactly the table's names, in the table's order.
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for row in &PER_LAYER {
        match session.metrics.iter().find(|(name, _)| *name == row.name) {
            Some(&(name, value)) if value.is_finite() => metrics.push((name, value)),
            Some(_) => {
                return Err(format!(
                    "{} is not a number: the stream held no op of its kind",
                    row.name
                ))
            }
            None => return Err(format!("the trace never measured {}", row.name)),
        }
    }
    let trace_file = out.join(format!("trace-{}.json", w.name));
    session.tracer.write(&trace_file)?;
    Ok(TraceReport {
        workload: w.name,
        seed,
        metrics,
        attempted: session.ledger.attempted,
        failed: session.ledger.failed,
        failures: session.ledger.examples,
        spans: session.tracer.spans.len(),
        trace_file,
    })
}
