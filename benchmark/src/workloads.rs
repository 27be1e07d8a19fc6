//! The four closed-loop workloads and the untraced run that produces the
//! end-to-end metrics.
//!
//! Every run has the same timeline — a round of set-ups, warm-up
//! (discarded), a throughput phase cut into `SLICES` slices, a window-1
//! latency phase, a second round of set-ups — so every workload reports
//! every metric.  A
//! workload chooses the deployment (wire or embedded, memory or durable),
//! the preload size and the throughput phase's traffic mix.

use std::cell::Cell;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::gen::{Answer, Generator, Kind, Op, Preload, Tallies, KINDS};
use crate::layers;
use crate::stats::{self, Estimate};
use crate::ScratchDir;

/// In-flight requests of the throughput phase: the server's default
/// per-connection queue depth, so a single shed is a failure.
pub const WINDOW: usize = 64;
/// Slices the throughput phase is cut into; the reported rate is their median.
pub const SLICES: usize = 24;
/// A phase also ends here, so memory stays bounded if the system gets 10× faster.
const MAX_PHASE_OPS: u64 = 4_000_000;
/// Set-ups per round: at least `MIN_SETUPS`, then more while the round has
/// taken under `SETUP_BUDGET` (a 30 ms set-up needs more repeats than a
/// 400 ms one to be read steadily), at most `MAX_SETUPS`.
const MIN_SETUPS: usize = 4;
const MAX_SETUPS: usize = 20;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    Write,
    Read,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub wire: bool,
    pub durable: bool,
    pub mix: Mix,
    /// Preloaded 100-row groups of `R0`.
    pub groups: u64,
    /// Listed in `BENCHMARK.json`, i.e. held to the metric bounds by the
    /// driver.  The durable workload is not: its wall-clock numbers follow
    /// the sandbox disk, whose `sync_data` cost swings by more than any
    /// bound the contract allows (README, "Calibration").
    pub gated: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wire-mem-write",
        why: "write mix over loopback into memory: per-request plumbing is the cost, fsync is bypassed",
        wire: true,
        durable: false,
        mix: Mix::Write,
        groups: 200,
        gated: true,
    },
    Workload {
        name: "wire-durable-write",
        why: "same traffic with the WAL and name log on: the only workload where fsync work shows",
        wire: true,
        durable: true,
        mix: Mix::Write,
        groups: 10,
        gated: false,
    },
    Workload {
        name: "wire-read-mix",
        why: "point, group, count and join reads over 200k rows with 14% writes: read plans and reply encoding",
        wire: true,
        durable: false,
        mix: Mix::Read,
        groups: 2000,
        gated: true,
    },
    Workload {
        name: "embedded-write",
        why: "write mix through SharedDatabase with no socket: wire batching must leave it flat",
        wire: false,
        durable: false,
        mix: Mix::Write,
        groups: 200,
        gated: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Phase lengths for a run that measures for `seconds` in total.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    pub warmup: Duration,
    pub throughput: Duration,
    pub window1: Duration,
}

impl Phases {
    pub fn for_seconds(seconds: f64) -> Self {
        Phases {
            warmup: Duration::from_secs_f64(seconds * 0.05),
            throughput: Duration::from_secs_f64(seconds * 0.60),
            window1: Duration::from_secs_f64(seconds * 0.35),
        }
    }
}

/// A running deployment of one workload.
struct Deployment {
    shared: Arc<ids_api::SharedDatabase>,
    server: Option<ids_server::Server>,
    dir: Option<ScratchDir>,
}

impl Deployment {
    /// Stops the server and the store's threads; hands back the durable
    /// directory, which is removed when the caller drops it.
    fn stop(self) -> Option<ScratchDir> {
        if let Some(server) = self.server {
            layers::shutdown_server(server);
        }
        drop(self.shared);
        self.dir
    }
}

struct Setup {
    deployment: Deployment,
    seconds: f64,
    heap_bytes: u64,
}

/// Schema build + analysis + open + preload + server bind, timed as one.
fn set_up(w: &Workload, preload: &Preload, scratch: &Path, nth: usize) -> Result<Setup, String> {
    let dir = w
        .durable
        .then(|| ScratchDir::new(scratch, &format!("{}-{nth}", w.name)));
    let heap_before = stats::live_bytes();
    let start = Instant::now();
    let db = layers::open_database(dir.as_ref().map(|d| d.0.as_path()), preload)?;
    let shared = layers::share(db)?;
    let server = if w.wire {
        Some(layers::serve(&shared)?)
    } else {
        None
    };
    let seconds = start.elapsed().as_secs_f64();
    Ok(Setup {
        deployment: Deployment {
            shared,
            server,
            dir,
        },
        seconds,
        heap_bytes: stats::live_bytes().saturating_sub(heap_before),
    })
}

/// How a phase reaches the product: one wire connection or direct calls.
enum Port<'a> {
    Wire(&'a mut ids_client::Client),
    Embedded(&'a ids_api::SharedDatabase),
}

/// Failure bookkeeping shared by all phases.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub shed: u64,
    /// The first few disagreements, for the report.
    pub examples: Vec<String>,
}

impl Ledger {
    pub fn check(&mut self, op: &Op, answer: &Answer) {
        self.attempted += 1;
        if op.accepts(answer) {
            return;
        }
        self.failed += 1;
        if matches!(answer, Answer::Shed) {
            self.shed += 1;
        }
        if self.examples.len() < 5 {
            let shown = match answer {
                Answer::Rows(rows) => format!("{} rows", rows.len()),
                other => format!("{other:?}"),
            };
            self.examples.push(format!("{op:?} answered {shown}"));
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.examples.len() < 5 {
            self.examples.push(what);
        }
    }

    fn absorb(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.shed += other.shed;
        self.examples.extend(other.examples);
        self.examples.truncate(5);
    }
}

/// What the throughput phase measured: acknowledgements per full slice
/// and the process CPU time at each slice boundary.
struct Throughput {
    acks: Vec<u64>,
    cpu_marks: Vec<u64>,
    slice_seconds: f64,
}

/// Acknowledgements per slice, plus process CPU marks at slice starts.
struct SliceCounter {
    start: Instant,
    slice: Duration,
    acks: Vec<u64>,
    /// `cpu_marks[i]` = process CPU when slice `i` was first entered
    /// (`SLICES` + 1 entries; only the sampling counter fills them).
    cpu_marks: Vec<u64>,
    sample_cpu: bool,
    /// Highest slice index seen so far (`SLICES` once the phase is over).
    entered: usize,
    total: u64,
}

impl SliceCounter {
    fn new(phase: Duration, sample_cpu: bool) -> Self {
        let mut cpu_marks = vec![0; SLICES + 1];
        if sample_cpu {
            cpu_marks[0] = stats::process_cpu_us();
        }
        SliceCounter {
            start: Instant::now(),
            slice: phase / SLICES as u32,
            acks: vec![0; SLICES],
            cpu_marks,
            sample_cpu,
            entered: 0,
            total: 0,
        }
    }

    /// Counts one acknowledgement; false once the phase is over.
    fn ack(&mut self) -> bool {
        let at = ((self.start.elapsed().as_nanos() / self.slice.as_nanos()) as usize).min(SLICES);
        if at > self.entered {
            if self.sample_cpu {
                let now = stats::process_cpu_us();
                self.cpu_marks[self.entered + 1..=at].fill(now);
            }
            self.entered = at;
        }
        if at == SLICES {
            return false;
        }
        self.acks[at] += 1;
        self.total += 1;
        self.total < MAX_PHASE_OPS
    }

    /// The slices that ran their full length (all of them, unless the
    /// phase hit `MAX_PHASE_OPS`), with the CPU marks around them.
    fn finish(mut self) -> Throughput {
        self.acks.truncate(self.entered);
        self.cpu_marks.truncate(self.entered + 1);
        Throughput {
            acks: self.acks,
            cpu_marks: self.cpu_marks,
            slice_seconds: self.slice.as_secs_f64(),
        }
    }
}

/// Drives `next` ops through `port` with up to `window` in flight until
/// `counter` says the phase is over.  With `counter` absent it runs for
/// `warmup` and discards the timing.
fn drive(
    port: &mut Port<'_>,
    window: usize,
    mut next: impl FnMut() -> Op,
    ledger: &mut Ledger,
    mut on_ack: impl FnMut(&Op) -> bool,
) {
    match port {
        Port::Embedded(shared) => loop {
            let op = next();
            let answer = layers::shared_call(shared, &op);
            // Acknowledge first: checking the answer is the oracle's time,
            // not the product's.
            let more = on_ack(&op);
            ledger.check(&op, &answer);
            if !more {
                return;
            }
        },
        Port::Wire(client) => {
            let mut inflight: VecDeque<(u64, Op)> = VecDeque::with_capacity(window);
            let mut open = true;
            while open || !inflight.is_empty() {
                while open && inflight.len() < window {
                    let op = next();
                    match layers::client_send(client, &op) {
                        Ok(id) => inflight.push_back((id, op)),
                        Err(answer) => {
                            ledger.check(&op, &answer);
                            return;
                        }
                    }
                }
                let Some((id, op)) = inflight.pop_front() else {
                    return;
                };
                let answer = layers::client_recv(client, id);
                // Replies drained after the phase closed still count as
                // attempted, but not towards any slice.
                if open {
                    open = on_ack(&op);
                }
                ledger.check(&op, &answer);
                if matches!(answer, Answer::Failed(_)) {
                    // The connection is gone; nothing more will answer.
                    return;
                }
            }
        }
    }
}

pub fn mix_op(generator: &mut Generator, mix: Mix) -> Op {
    match mix {
        Mix::Write => generator.write_mix(),
        Mix::Read => generator.read_mix(),
    }
}

/// Everything one untraced run measured.
pub struct RunReport {
    pub workload: &'static str,
    pub seed: u64,
    pub phases: Phases,
    pub metrics: Vec<(&'static str, Estimate)>,
    /// Ungated extras for the human report: `(name, value, unit, samples)`.
    pub extras: Vec<(String, f64, &'static str, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub load_threads: usize,
    /// Acknowledged ops per second of each throughput slice, in time order.
    pub slice_rates: Vec<f64>,
}

/// The oracle's books for one run, summed over every generator that fed it.
struct Books {
    ledger: Ledger,
    tallies: Tallies,
    /// Rows per relation the database must hold (preload included).
    rows: [u64; 4],
}

impl Books {
    fn close(&mut self, generator: &Generator) {
        self.tallies.add(generator.tallies);
        let live = generator.live_rows();
        self.rows[0] += live[0];
        self.rows[1] += live[1];
    }
}

/// What repeated set-ups measured: each one's seconds and heap bytes per
/// preloaded row.
#[derive(Default)]
struct SetupSamples {
    seconds: Vec<f64>,
    heap_per_row: Vec<f64>,
}

/// One round of set-ups; the last deployment is returned running.  A run
/// does one round before the traffic and one after it, 30 s apart, so
/// that a host disturbance covering one round does not cover the other.
fn set_up_round(
    w: &Workload,
    preload: &Preload,
    scratch: &Path,
    samples: &mut SetupSamples,
) -> Result<Deployment, String> {
    let mut round = Vec::new();
    let mut deployment: Option<Deployment> = None;
    loop {
        if let Some(previous) = deployment.take() {
            previous.stop();
        }
        let setup = set_up(w, preload, scratch, samples.seconds.len())?;
        round.push(setup.seconds);
        samples.seconds.push(setup.seconds);
        samples
            .heap_per_row
            .push(setup.heap_bytes as f64 / preload.total_rows() as f64);
        let spent = Duration::from_secs_f64(round.iter().sum());
        if round.len() >= MAX_SETUPS || (round.len() >= MIN_SETUPS && spent >= SETUP_BUDGET) {
            return Ok(setup.deployment);
        }
        deployment = Some(setup.deployment);
    }
}

/// The embedded throughput phase: one generator per load thread, each on
/// its own relations and its own key space, so per-relation order is
/// generation order.
fn embedded_throughput(
    shared: &ids_api::SharedDatabase,
    preload: &Preload,
    seed: u64,
    phase: Duration,
    load_threads: usize,
    books: &mut Books,
) -> Throughput {
    let outcomes: Vec<(SliceCounter, Ledger, Generator)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..load_threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut generator =
                        Generator::new(seed ^ (t as u64 + 1), preload, t as u64 + 1);
                    // Thread 0 also samples the process's CPU time.
                    let mut counter = SliceCounter::new(phase, t == 0);
                    let mut ledger = Ledger::default();
                    let mut turn = t;
                    drive(
                        &mut Port::Embedded(shared),
                        1,
                        || {
                            let rel = turn % 2;
                            turn += load_threads;
                            generator.write_on(rel)
                        },
                        &mut ledger,
                        |_| counter.ack(),
                    );
                    (counter, ledger, generator)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut total: Option<Throughput> = None;
    for (counter, ledger, generator) in outcomes {
        let part = counter.finish();
        match &mut total {
            None => total = Some(part),
            Some(total) => {
                total.acks.truncate(part.acks.len());
                total.cpu_marks.truncate(total.acks.len() + 1);
                for (sum, n) in total.acks.iter_mut().zip(&part.acks) {
                    *sum += n;
                }
            }
        }
        books.ledger.absorb(ledger);
        books.close(&generator);
    }
    total.expect("at least one load thread")
}

/// The window-1 phase: the cycle, one request at a time, each timed.
/// Returns latency samples in ns, by op kind.
fn window1(
    port: &mut Port<'_>,
    generator: &mut Generator,
    phase: Duration,
    ledger: &mut Ledger,
) -> [Vec<u64>; KINDS.len()] {
    let mut samples: [Vec<u64>; KINDS.len()] = Default::default();
    let until = Instant::now() + phase;
    let sent = Cell::new(Instant::now());
    let mut ops = 0u64;
    drive(
        port,
        1,
        || {
            let op = generator.cycle();
            sent.set(Instant::now());
            op
        },
        ledger,
        |op| {
            samples[op.kind().index()].push(sent.get().elapsed().as_nanos() as u64);
            ops += 1;
            Instant::now() < until && ops < MAX_PHASE_OPS
        },
    );
    samples
}

/// The product's own counters and row counts against the oracle's books.
fn self_check(deployment: &Deployment, books: &mut Books) {
    let counted = layers::tallies_of(&layers::shared_metrics(&deployment.shared));
    if counted != books.tallies {
        books.ledger.fail(format!(
            "shard counters {counted:?} differ from the oracle's {:?}",
            books.tallies
        ));
    }
    match layers::shared_row_counts(&deployment.shared) {
        Ok(found) if found == books.rows => {}
        Ok(found) => books.ledger.fail(format!(
            "row counts {found:?} differ from the oracle's {:?}",
            books.rows
        )),
        Err(e) => books.ledger.fail(format!("row counts unreadable: {e}")),
    }
    if let Some(server) = &deployment.server {
        let shed = layers::counter(&layers::server_metrics(server), "server.shed");
        if shed != books.ledger.shed {
            books.ledger.fail(format!(
                "server counted {shed} sheds, the client saw {}",
                books.ledger.shed
            ));
        }
    }
}

/// Runs `w` once with tracing off and returns every end-to-end metric.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    groups: u64,
    host_cpus: usize,
    scratch: &Path,
) -> Result<RunReport, String> {
    let phases = Phases::for_seconds(seconds);
    let preload = Preload { groups };
    let mut setups = SetupSamples::default();
    let deployment = set_up_round(w, &preload, scratch, &mut setups)?;

    let mut books = Books {
        ledger: Ledger::default(),
        // The shards counted the preload too.
        tallies: Tallies {
            accepted: preload.total_rows(),
            ..Tallies::default()
        },
        rows: preload.row_counts(),
    };
    let mut generator = Generator::new(seed, &preload, 0);
    let load_threads = if w.wire { 1 } else { host_cpus.min(2) };
    let (throughput, samples) = {
        let mut client = match &deployment.server {
            Some(server) => Some(layers::connect(layers::server_addr(server))?),
            None => None,
        };
        let mut port = match client.as_mut() {
            Some(client) => Port::Wire(client),
            None => Port::Embedded(&deployment.shared),
        };

        // Warm-up: the throughput phase's traffic, timing discarded.
        let warm_until = Instant::now() + phases.warmup;
        drive(
            &mut port,
            WINDOW,
            || mix_op(&mut generator, w.mix),
            &mut books.ledger,
            |_| Instant::now() < warm_until,
        );
        let throughput = if w.wire {
            let mut counter = SliceCounter::new(phases.throughput, true);
            drive(
                &mut port,
                WINDOW,
                || mix_op(&mut generator, w.mix),
                &mut books.ledger,
                |_| counter.ack(),
            );
            counter.finish()
        } else {
            embedded_throughput(
                &deployment.shared,
                &preload,
                seed,
                phases.throughput,
                load_threads,
                &mut books,
            )
        };
        if let (true, Port::Wire(client)) = (w.durable, &mut port) {
            if let Err(e) = layers::client_checkpoint(client) {
                books
                    .ledger
                    .fail(format!("checkpoint between phases failed: {e}"));
            }
        }
        let samples = window1(&mut port, &mut generator, phases.window1, &mut books.ledger);
        (throughput, samples)
    };
    books.close(&generator);
    self_check(&deployment, &mut books);
    if let Some(dir) = deployment.stop() {
        // Durability self-check: what a fresh process would come back to.
        match layers::recover_row_counts(&dir.0) {
            Ok(found) if found == books.rows => {}
            Ok(found) => books.ledger.fail(format!(
                "recovered {found:?}, the oracle holds {:?}",
                books.rows
            )),
            Err(e) => books.ledger.fail(format!("recovery failed: {e}")),
        }
    }
    set_up_round(w, &preload, scratch, &mut setups)?.stop();

    if throughput.acks.is_empty() {
        return Err("the throughput phase completed no slice".to_string());
    }
    let slice_rates: Vec<f64> = throughput
        .acks
        .iter()
        .map(|&n| n as f64 / throughput.slice_seconds)
        .collect();
    let phase_ops: u64 = throughput.acks.iter().sum();
    let slice_cpu: Vec<f64> = throughput
        .acks
        .iter()
        .zip(throughput.cpu_marks.windows(2))
        .filter(|(&n, _)| n > 0)
        .map(|(&n, marks)| (marks[1] - marks[0]) as f64 / n as f64)
        .collect();
    let phase_cpu = throughput.cpu_marks[throughput.acks.len()] - throughput.cpu_marks[0];
    let quiet = |kind: Kind| Estimate::quiet_latency_us(&samples[kind.index()]);
    let metrics = vec![
        (
            "setup_s",
            Estimate {
                value: stats::quantile_of(&setups.seconds, stats::QUIET_PERCENTILE / 100.0),
                samples: setups.seconds.len() as u64,
                spread: stats::iqr_share(&setups.seconds),
            },
        ),
        (
            "ops_per_s",
            Estimate {
                value: stats::median(&slice_rates),
                samples: phase_ops,
                spread: stats::trendless_iqr_share(&slice_rates),
            },
        ),
        (
            "cpu_us_per_op",
            Estimate {
                value: phase_cpu as f64 / phase_ops.max(1) as f64,
                samples: phase_ops,
                spread: stats::trendless_iqr_share(&slice_cpu),
            },
        ),
        ("write_p10_us", quiet(Kind::Insert)),
        ("read_p10_us", quiet(Kind::Point)),
        ("scan_p10_us", quiet(Kind::Group)),
        ("join_p10_us", quiet(Kind::Join)),
        (
            "mem_bytes_per_row",
            Estimate::of_slices(&setups.heap_per_row, preload.total_rows()),
        ),
    ];
    let mut extras = Vec::new();
    for kind in KINDS {
        let s = &samples[kind.index()];
        if s.is_empty() {
            continue;
        }
        extras.push((
            format!("w1_{}_p50_us", kind.name()),
            stats::percentile_us(s, 50.0),
            "us",
            s.len() as u64,
        ));
        // p99 needs ten samples beyond it to mean anything.
        if s.len() >= 1000 {
            extras.push((
                format!("w1_{}_p99_us", kind.name()),
                stats::percentile_us(s, 99.0),
                "us",
                s.len() as u64,
            ));
        }
    }
    Ok(RunReport {
        workload: w.name,
        seed,
        phases,
        metrics,
        extras,
        attempted: books.ledger.attempted,
        failed: books.ledger.failed,
        failures: books.ledger.examples,
        load_threads,
        slice_rates,
    })
}
