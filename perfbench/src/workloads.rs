//! The four workloads, their set-up, timed phases, gates and metrics.
//!
//! Every workload runs the default `RuntimeConfig` (4 shards, 2
//! dispatchers, plan cache 256, no overload control, no rebalancing, no
//! injected faults); `ingest-bulk` adds the default WAL. Load comes from
//! this process with at most two generator threads.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use stq_core::prelude::*;
use stq_core::tracker::Crossing;
use stq_durability::recover_shard;
use stq_forms::FormStore;
use stq_runtime::{DurabilityConfig, QuerySpec, Runtime, RuntimeConfig, SubscriptionHandle};

use crate::fixture::{self, Fixture, Request, Stream, SHARDS, T_LATE};
use crate::gate::{self, Served, Tally, Verdict};
use crate::openloop::{wait_until, Schedule};
use crate::replay::{self, BatchSample, BatchTag, QuerySample, Reference, WriteReplay};
use crate::stats::{mean, median, trimmed_mean, windowed, Summary, Windowed};
use crate::sys;
use crate::trace::{Span, Trace};

/// Share trimmed from each end before averaging per-call layer timings.
const TRIM: f64 = 0.05;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Closed-loop client threads of the read workloads.
const READ_CLIENTS: usize = 2;
/// Events per `ingest_batch` call in `ingest-bulk`.
const INGEST_BATCH: usize = 256;
/// `ingest-bulk` batches between `flush_ingest` barriers.
const ROUND_BATCHES: usize = 64;
/// Timed milliseconds per `ingest-bulk` leg; each leg runs on a fresh runtime
/// and WAL. A snapshot holds its shard's whole history, so one long leg
/// writes snapshot bytes quadratic in its length: 3.5 GB in a 20-s leg on
/// a 2-vCPU host, whose disk then slowed the runs that followed, and its
/// figures depended on the run's length.
const INGEST_LEG_MS: u64 = 2_000;
/// Standing subscriptions of `standing-mixed`.
const STANDING_SUBS: usize = 1000;
/// Events per scheduled batch in `standing-mixed`: small enough that a 1-s
/// window holds 1000 batches, so each window's p99 has ten samples beyond
/// it and a stall of the host spoils only the windows it falls in.
const STANDING_BATCH: usize = 16;
/// The `standing-mixed` writer's fixed rate, events/s: about a quarter of
/// the rate one writer sustains against 1000 subscriptions (~65k events/s
/// in 16-event batches beside the paced reader on a 2-core x86-64 host).
const STANDING_RATE: u64 = 16_000;
/// The `standing-mixed` reader's fixed rate, queries/s: a fixed share of
/// the box, so the writer's latency does not follow how fast an unpaced
/// reader happens to run (9k-18k queries/s beside the writer on a 2-core
/// x86-64 host).
const READER_RATE: u64 = 2_000;

/// The workloads, by their command-line names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop over 96 cached requests.
    ReadHot,
    /// Closed loop over 4096 regions, none repeating within the cache.
    ReadCold,
    /// Closed loop of durable `ingest_batch(256)` calls.
    IngestBulk,
    /// Open-loop writer against 1000 subscriptions beside a paced `read-hot` reader.
    StandingMixed,
}

impl Workload {
    /// All workloads in their canonical order.
    pub const ALL: [Workload; 4] =
        [Workload::ReadHot, Workload::ReadCold, Workload::IngestBulk, Workload::StandingMixed];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHot => "read-hot",
            Workload::ReadCold => "read-cold",
            Workload::IngestBulk => "ingest-bulk",
            Workload::StandingMixed => "standing-mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one run produced.
pub struct Outcome {
    /// Gate tally.
    pub tally: Tally,
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Sample summaries, as JSON object members.
    pub samples: Vec<String>,
    /// Workload parameters, as JSON object members.
    pub params: String,
    /// Recorded spans (traced runs only).
    pub trace: Trace,
    /// Human-readable gate findings.
    pub findings: Vec<String>,
}

/// Directories the run creates; removed when dropped, also on panic.
pub struct TempDirs {
    root: PathBuf,
    dirs: Vec<PathBuf>,
}

impl TempDirs {
    /// Uses `root` (created if missing) for the run's files.
    pub fn new(root: &Path) -> TempDirs {
        std::fs::create_dir_all(root).expect("create the benchmark's output directory");
        TempDirs { root: root.to_path_buf(), dirs: Vec::new() }
    }

    /// A fresh directory under the root that is removed with `self`.
    pub fn temp_dir(&mut self, tag: &str) -> PathBuf {
        let d = self.root.join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("create a temporary directory");
        self.dirs.push(d.clone());
        d
    }

    /// Removes one directory now.
    pub fn remove(&mut self, dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
        self.dirs.retain(|d| d != dir);
    }

    /// The output root.
    pub fn root(&self) -> &Path {
        &self.root
    }
}

impl Drop for TempDirs {
    fn drop(&mut self) {
        for d in &self.dirs {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

/// A started deployment.
struct Live {
    f: Fixture,
    rt: Runtime,
    subs: Vec<SubscriptionHandle>,
    wal: Option<PathBuf>,
}

/// Medians of the set-up repetitions, seconds.
struct SetupStats {
    total: f64,
    scenario: f64,
    sampled: f64,
    start: f64,
}

/// The region and approximation of standing subscription `i`: regions
/// cycle, and each region is watched under both approximations.
fn standing_of(i: usize, regions: &[QueryRegion]) -> (&QueryRegion, Approximation) {
    let approx = if (i / regions.len()).is_multiple_of(2) {
        Approximation::Lower
    } else {
        Approximation::Upper
    };
    (&regions[i % regions.len()], approx)
}

/// Standing subscriptions over `regions`: none without regions.
fn subscriptions(regions: &[QueryRegion]) -> usize {
    if regions.is_empty() {
        0
    } else {
        STANDING_SUBS
    }
}

/// Starts the default runtime over `f`'s base store, durable on `wal` when
/// given, with no subscriptions yet.
fn start_runtime(f: Fixture, wal: Option<PathBuf>) -> Live {
    let cfg = RuntimeConfig {
        durability: wal.as_ref().map(DurabilityConfig::new),
        ..RuntimeConfig::default()
    };
    let rt =
        Runtime::new(f.scenario.sensing.clone(), f.sampled.clone(), &f.scenario.tracked.store, cfg);
    Live { f, rt, subs: Vec::new(), wal }
}

/// Builds the fixture, starts the runtime and registers the standing
/// regions, [`SETUP_REPS`] times; keeps the last deployment.
fn setup(durable: bool, standing: &[QueryRegion], temp: &mut TempDirs) -> (Live, SetupStats) {
    let mut live: Option<Live> = None;
    let (mut total, mut scen, mut samp, mut start) = (vec![], vec![], vec![], vec![]);
    for rep in 0..SETUP_REPS {
        if let Some(old) = live.take() {
            old.rt.shutdown();
            if let Some(d) = old.wal {
                temp.remove(&d);
            }
        }
        let wal = durable.then(|| temp.temp_dir(&format!("wal-{rep}")));
        let t0 = Instant::now();
        let (f, bt) = fixture::build();
        let r0 = Instant::now();
        let mut l = start_runtime(f, wal);
        let r1 = Instant::now();
        l.subs = (0..subscriptions(standing))
            .map(|i| {
                let (region, approx) = standing_of(i, standing);
                l.rt.subscribe(region.clone(), approx).expect("standing region resolves")
            })
            .collect();
        let t1 = Instant::now();
        total.push((t1 - t0).as_secs_f64());
        scen.push(bt.scenario_s);
        samp.push(bt.sampled_s);
        start.push((r1 - r0).as_secs_f64());
        live = Some(l);
    }
    let stats = SetupStats {
        total: median(&total),
        scenario: median(&scen),
        sampled: median(&samp),
        start: median(&start),
    };
    (live.expect("at least one set-up"), stats)
}

/// Start line shared by the generator threads: the first to pass the
/// barrier fixes the timed window's start and the CPU clock reading.
struct StartGate {
    barrier: Barrier,
    start: OnceLock<(Instant, f64)>,
}

impl StartGate {
    fn new(parties: usize) -> Self {
        StartGate { barrier: Barrier::new(parties), start: OnceLock::new() }
    }

    fn wait(&self) -> (Instant, f64) {
        self.barrier.wait();
        *self.start.get_or_init(|| (Instant::now(), sys::cpu_seconds()))
    }
}

/// Sample slots reserved (and touched) per client before the run, so the
/// peak RSS does not grow with how many calls the run happened to make.
const SAMPLE_SLOTS_PER_S: usize = 30_000;

/// One client's log.
#[derive(Default)]
struct ClientLog {
    samples: Vec<QuerySample>,
    /// Leading entries of `samples` that were warm-up.
    warm: usize,
    /// Gap between one call's return and the next call, ns (timed only).
    gaps_ns: Vec<u64>,
    /// Spans recorded during the timed phase (traced runs, even ops).
    spans: Vec<Span>,
    /// When the previous call returned.
    last_end: Option<Instant>,
}

impl ClientLog {
    /// A log with `slots` sample and gap slots already resident.
    fn with_slots(slots: usize) -> Self {
        let blank = QuerySample {
            idx: 0,
            query_id: 0,
            start_ns: 0,
            end_ns: 0,
            traced: false,
            verdict: Verdict::Ok,
        };
        let mut samples = vec![blank; slots];
        samples.clear();
        let mut gaps_ns = vec![1u64; slots];
        gaps_ns.clear();
        ClientLog { samples, gaps_ns, ..ClientLog::default() }
    }

    /// Sends request `idx`, judges the answer against its reference, and
    /// logs the call (with an in-run span when `trace_this`).
    fn call(
        &mut self,
        rt: &Runtime,
        reqs: &[Request],
        idx: usize,
        timed: bool,
        trace_this: bool,
        epoch: Instant,
    ) -> Instant {
        let spec: QuerySpec = reqs[idx].spec.clone();
        let t0 = Instant::now();
        let answer = rt.query(spec);
        let t1 = Instant::now();
        let ns = |t: Instant| (t - epoch).as_nanos() as u64;
        if trace_this {
            self.spans.push(Span {
                name: "runtime.query",
                start_ns: ns(t0),
                end_ns: ns(t1),
                parent: None,
                request: answer.query_id,
            });
        }
        if let (true, Some(prev)) = (timed, self.last_end) {
            self.gaps_ns.push((t0 - prev).as_nanos() as u64);
        }
        self.last_end = Some(t1);
        self.samples.push(QuerySample {
            idx: idx as u32,
            query_id: answer.query_id,
            start_ns: ns(t0),
            end_ns: ns(t1),
            traced: trace_this,
            verdict: gate::judge(&Served::from(&answer), reqs[idx].reference),
        });
        t1
    }
}

/// How a client picks its next request.
#[derive(Clone, Copy)]
enum Pick<'a> {
    /// Cycle through the list from an offset.
    Cycle(usize),
    /// Take the next index of a shared counter: no two requests share a
    /// region until the list wraps.
    Fresh(&'a AtomicUsize),
}

/// Runs one client: `warmup` untimed calls, then the start gate, then calls
/// until `seconds` have passed since the window opened. Without `pace` the
/// loop is closed (the next call follows the previous answer); with it,
/// timed call `k` waits, sleeping, until `k × period` into the window.
#[allow(clippy::too_many_arguments)]
fn client(
    rt: &Runtime,
    reqs: &[Request],
    pick: Pick<'_>,
    warmup: usize,
    pace: Option<Schedule>,
    gate: &StartGate,
    seconds: u64,
    traced: bool,
    epoch: Instant,
) -> ClientLog {
    let mut log = ClientLog::with_slots(warmup + seconds as usize * SAMPLE_SLOTS_PER_S);
    let mut cursor = match pick {
        Pick::Cycle(off) => off % reqs.len(),
        Pick::Fresh(_) => 0,
    };
    let mut deadline: Option<Instant> = None;
    let mut opened = None;
    for op in 0usize.. {
        if deadline.is_none() && op == warmup {
            log.warm = log.samples.len();
            let (t, _) = gate.wait();
            deadline = Some(t + Duration::from_secs(seconds));
            opened = Some(t);
            log.last_end = None;
        }
        if let (Some(s), Some(t)) = (pace, opened) {
            let due = t + Duration::from_nanos(s.due_ns((op - warmup) as u64));
            if let Some(left) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(left);
            }
        }
        let idx = match pick {
            Pick::Cycle(_) => {
                let i = cursor;
                cursor = (cursor + 1) % reqs.len();
                i
            }
            Pick::Fresh(next) => next.fetch_add(1, Ordering::Relaxed) % reqs.len(),
        };
        let timed = deadline.is_some();
        let end = log.call(rt, reqs, idx, timed, traced && timed && op.is_multiple_of(2), epoch);
        if deadline.is_some_and(|d| end >= d) {
            break;
        }
    }
    log
}

/// Merged client logs with timed-phase figures.
struct ReadRun {
    samples: Vec<QuerySample>,
    traced_us: Vec<f64>,
    untraced_us: Vec<f64>,
    gaps_us: Vec<f64>,
    /// Timed calls as (start offset in the window, latency µs).
    points: Vec<(u64, f64)>,
    /// First timed start to last timed end, ns.
    span_ns: u64,
    spans: Vec<Span>,
}

impl ReadRun {
    /// Interquartile means over one-second windows of the timed calls.
    fn windowed(&self, seconds: u64) -> Windowed {
        windowed(&self.points, 1_000_000_000, seconds * 1_000_000_000)
    }

    /// Exact quantiles over every timed call.
    fn summary(&self) -> Summary {
        Summary::of(&self.points.iter().map(|&(_, us)| us).collect::<Vec<_>>())
    }

    /// Timed calls per second over the whole timed span.
    fn qps(&self) -> f64 {
        self.points.len() as f64 / (self.span_ns as f64 / 1e9).max(1e-9)
    }
}

/// Tallies every logged answer's verdict and merges the logs; the timed
/// window opened at `start`.
fn merge_reads(logs: Vec<ClientLog>, start: Instant, epoch: Instant, tally: &mut Tally) -> ReadRun {
    let mut run = ReadRun {
        samples: vec![],
        traced_us: vec![],
        untraced_us: vec![],
        gaps_us: vec![],
        points: vec![],
        span_ns: 0,
        spans: vec![],
    };
    let start_ns = (start - epoch).as_nanos() as u64;
    let (mut first, mut last) = (u64::MAX, 0u64);
    for log in logs {
        for (i, s) in log.samples.iter().enumerate() {
            tally.add(s.verdict);
            if i >= log.warm {
                let us = (s.end_ns - s.start_ns) as f64 / 1e3;
                run.points.push((s.start_ns.saturating_sub(start_ns), us));
                first = first.min(s.start_ns);
                last = last.max(s.end_ns);
                if s.traced { &mut run.traced_us } else { &mut run.untraced_us }.push(us);
            }
        }
        run.samples.extend_from_slice(&log.samples);
        run.gaps_us.extend(log.gaps_ns.iter().map(|&g| g as f64 / 1e3));
        run.spans.extend(log.spans);
    }
    run.span_ns = last.saturating_sub(first);
    run
}

/// Queries answered one at a time (the `ingest-bulk` verification pass).
fn serial_queries(
    rt: &Runtime,
    reqs: &[Request],
    traced: bool,
    epoch: Instant,
    tally: &mut Tally,
) -> ReadRun {
    let mut log = ClientLog::default();
    let begin = Instant::now();
    for idx in 0..reqs.len() {
        log.call(rt, reqs, idx, true, traced && idx.is_multiple_of(2), epoch);
    }
    merge_reads(vec![log], begin, epoch, tally)
}

/// Spans recorded in-run go first; replayed children attach to them by
/// request id.
fn adopt_spans(trace: &mut Trace, spans: Vec<Span>) -> HashMap<u64, usize> {
    let mut by_req = HashMap::new();
    for s in spans {
        by_req.insert(s.request, trace.spans.len());
        trace.spans.push(s);
    }
    by_req
}

/// Figures every workload reports on the read path.
struct ReadFigures {
    plan_hit_us: f64,
    plan_miss_us: f64,
    execute_us: f64,
    boundary_edges: f64,
    server_self_us: f64,
    query_qps: f64,
    query: Summary,
}

/// Replays the read path for `run` and derives its per-layer figures.
fn read_layers(
    f: &Fixture,
    reqs: &[Request],
    mut run: ReadRun,
    store: &FormStore,
    trace: &mut Trace,
) -> ReadFigures {
    let by_req = adopt_spans(trace, std::mem::take(&mut run.spans));
    let layers = replay::replay_reads(f, reqs, &run.samples, store, trace, &by_req);
    ReadFigures {
        plan_hit_us: trimmed_mean(&layers.plan_probe_us, TRIM),
        plan_miss_us: trimmed_mean(&layers.plan_miss_us, TRIM),
        execute_us: trimmed_mean(&layers.execute_us, TRIM),
        boundary_edges: mean(&layers.boundary_edges),
        server_self_us: trimmed_mean(&trace.self_us_of("runtime.query"), TRIM),
        query_qps: run.qps(),
        query: run.summary(),
    }
}

/// Figures every workload reports on the write path.
#[derive(Default)]
struct WriteFigures {
    on_ingest_batch_us: f64,
    register_ms: f64,
    append_batch_us: f64,
    sync_us: f64,
    bytes_per_event: f64,
    group_commits: f64,
    apply_ns: f64,
}

/// The traced write-path replay of `batches`, after registering `standing`
/// (subscription `i` as [`standing_of`]) — or, when the workload has no
/// standing queries, registering `probe` regions after the batches, so the
/// registry replays each batch with the runtime's subscriptions.
#[allow(clippy::too_many_arguments)]
fn write_layers(
    f: &Fixture,
    initial: &FormStore,
    reference: &mut Reference,
    batches: impl IntoIterator<Item = ReplayBatch>,
    standing: &[QueryRegion],
    probe: &[QueryRegion],
    trace: &mut Trace,
    temp: &mut TempDirs,
) -> WriteFigures {
    let root = temp.temp_dir("replay-wal");
    let mut w = WriteReplay::new(initial, &reference.parts, &root).expect("replay WAL");
    let mut register_us = 0.0;
    for i in 0..subscriptions(standing) {
        let (region, approx) = standing_of(i, standing);
        register_us += w.subscribe(f, region, approx);
    }
    for (events, flush, tag) in batches {
        w.batch(reference, &events, flush, trace, tag).expect("replay WAL append");
    }
    if standing.is_empty() {
        for region in probe {
            register_us += w.subscribe(f, region, Approximation::Lower);
        }
    }
    let l = &w.layers;
    let figures = WriteFigures {
        on_ingest_batch_us: trimmed_mean(&l.on_ingest_batch_us, TRIM),
        register_ms: register_us / 1e3,
        append_batch_us: trimmed_mean(&l.append_batch_us, TRIM),
        sync_us: trimmed_mean(&l.sync_us, TRIM),
        bytes_per_event: l.wal_bytes as f64 / (l.wal_events as f64).max(1.0),
        group_commits: l.group_commits as f64,
        apply_ns: l.apply_ns / (l.events as f64).max(1.0),
    };
    drop(w);
    temp.remove(&root);
    figures
}

/// The distinct regions of a request list, in first-seen order.
fn distinct_regions(reqs: &[Request]) -> Vec<QueryRegion> {
    let mut seen = std::collections::HashSet::new();
    reqs.iter()
        .filter(|r| {
            let mut k: Vec<usize> = r.spec.region.junctions.iter().copied().collect();
            k.sort_unstable();
            seen.insert(k)
        })
        .map(|r| r.spec.region.clone())
        .collect()
}

/// `max / mean − 1` over per-shard routed loads (0 when nothing routed).
fn imbalance(loads: &[u64]) -> f64 {
    let max = loads.iter().copied().max().unwrap_or(0) as f64;
    let mean = loads.iter().sum::<u64>() as f64 / loads.len().max(1) as f64;
    if mean > 0.0 {
        max / mean - 1.0
    } else {
        0.0
    }
}

/// One batch for the write-path replay: its events, whether a flush
/// barrier followed it, and how to record it.
type ReplayBatch = (Vec<Crossing>, bool, BatchTag);

/// The base store's crossings as `ingest-bulk`-shaped batches, for the
/// write-path replay of workloads that send none.
fn base_batches(store: &FormStore) -> Vec<ReplayBatch> {
    let events = fixture::base_crossings(store);
    let n = events.chunks(INGEST_BATCH).len();
    events
        .chunks(INGEST_BATCH)
        .enumerate()
        .map(|(b, c)| {
            let flush = (b + 1) % ROUND_BATCHES == 0 || b + 1 == n;
            (c.to_vec(), flush, BatchTag { request: b as u64, parent: None, record: true })
        })
        .collect()
}

/// Inputs shared by the metric assembly.
struct Common {
    setup: SetupStats,
    cpu_util: f64,
    peak_rss_mb: f64,
    flush_ms: f64,
    lag_p99_us: f64,
    overhead_us: f64,
    lanes_per_batch: f64,
}

fn e2e(common: &Common, ops_per_s: f64, op: &Windowed) -> Vec<Metric> {
    vec![
        Metric { name: "setup_s", value: common.setup.total, unit: "s" },
        Metric { name: "ops_per_s", value: ops_per_s, unit: "1/s" },
        Metric { name: "op_p50_us", value: op.p50, unit: "us" },
        Metric { name: "op_p99_us", value: op.p99, unit: "us" },
        Metric { name: "peak_rss_mb", value: common.peak_rss_mb, unit: "MB" },
    ]
}

fn layer_metrics(
    live: &Live,
    common: &Common,
    reads: &ReadFigures,
    writes: &WriteFigures,
) -> Vec<Metric> {
    let es = live.rt.engine_stats();
    let report = live.rt.metrics().report();
    let sub = live.rt.subscription_stats();
    let q = &reads.query;
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("engine.plan_hit_us", reads.plan_hit_us, "us"),
        m("engine.plan_miss_us", reads.plan_miss_us, "us"),
        m("engine.execute_us", reads.execute_us, "us"),
        m("engine.plan_hit_ratio", es.hits as f64 / (es.hits + es.misses).max(1) as f64, "ratio"),
        m("engine.boundary_edges", reads.boundary_edges, "count"),
        m("server.self_us", reads.server_self_us, "us"),
        m(
            "server.shard_requests_per_query",
            report.shard_requests as f64 / report.queries.max(1) as f64,
            "count",
        ),
        m("server.retries", report.retries as f64, "count"),
        m("server.degraded", report.degraded as f64, "count"),
        m("query.qps", reads.query_qps, "1/s"),
        m("query.p50_us", q.p50, "us"),
        m("query.p99_us", q.p99, "us"),
        m("shard.flush_ms", common.flush_ms, "ms"),
        m("shardmap.imbalance", imbalance(&live.rt.shard_loads()), "ratio"),
        m("shard.lanes_per_batch", common.lanes_per_batch, "count"),
        m("subscribe.on_ingest_batch_us", writes.on_ingest_batch_us, "us"),
        m(
            "subscribe.deltas_per_event",
            sub.deltas_applied as f64 / (report.ingested as f64).max(1.0),
            "count",
        ),
        m("subscribe.register_ms", writes.register_ms, "ms"),
        m("wal.append_batch_us", writes.append_batch_us, "us"),
        m("wal.sync_us", writes.sync_us, "us"),
        m("wal.bytes_per_event", writes.bytes_per_event, "bytes"),
        m("wal.group_commits", writes.group_commits, "count"),
        m("forms.apply_ns", writes.apply_ns, "ns"),
        m("setup.scenario_s", common.setup.scenario, "s"),
        m("setup.sampled_graph_s", common.setup.sampled, "s"),
        m("setup.runtime_start_s", common.setup.start, "s"),
        m("proc.cpu_util", common.cpu_util, "ratio"),
        m("gen.lag_p99_us", common.lag_p99_us, "us"),
        m("trace.overhead_us", common.overhead_us, "us"),
    ]
}

/// The windowed figures as a JSON object member.
fn window_json(w: &Windowed) -> String {
    format!(
        "\"windows\": {{\"n\": {}, \"rate\": {}, \"p50\": {}, \"p99\": {}}}",
        w.windows, w.rate, w.p50, w.p99
    )
}

/// Tracing overhead: median of the traced half minus the untraced half.
fn overhead(traced: &[f64], untraced: &[f64]) -> f64 {
    if traced.is_empty() || untraced.is_empty() {
        0.0
    } else {
        median(traced) - median(untraced)
    }
}

/// `read-hot` and `read-cold`.
fn run_reads(w: Workload, seed: u64, seconds: u64, traced: bool, temp: &mut TempDirs) -> Outcome {
    let (gen, _) = fixture::build();
    let reqs = match w {
        Workload::ReadHot => fixture::hot_requests(&gen, seed),
        _ => fixture::cold_requests(&gen, seed),
    };
    drop(gen);
    let (live, setup) = setup(false, &[], temp);
    let epoch = Instant::now();
    let mut trace = Trace::new(epoch);
    let gate_start = StartGate::new(READ_CLIENTS);
    let fresh = AtomicUsize::new(0);
    let warmup = match w {
        Workload::ReadHot => reqs.len(),
        _ => 256,
    };
    let logs: Vec<ClientLog> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..READ_CLIENTS)
            .map(|c| {
                let pick = match w {
                    Workload::ReadHot => Pick::Cycle(c * reqs.len() / READ_CLIENTS),
                    _ => Pick::Fresh(&fresh),
                };
                let (rt, reqs, g) = (&live.rt, &reqs, &gate_start);
                sc.spawn(move || client(rt, reqs, pick, warmup, None, g, seconds, traced, epoch))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let end = Instant::now();
    let cpu1 = sys::cpu_seconds();
    let peak_rss_mb = sys::peak_rss_mb();
    let (t_start, cpu0) = *gate_start.start.get().expect("window opened");
    let mut tally = Tally::default();
    let run = merge_reads(logs, t_start, epoch, &mut tally);
    let win = run.windowed(seconds);
    let whole = run.summary();
    let f0 = Instant::now();
    live.rt.flush_ingest();
    let flush_ms = f0.elapsed().as_secs_f64() * 1e3;
    let wall = (end - t_start).as_secs_f64();
    let common = Common {
        setup,
        cpu_util: (cpu1 - cpu0) / (wall * sys::nproc() as f64),
        peak_rss_mb,
        flush_ms,
        lag_p99_us: Summary::of(&run.gaps_us).p99,
        overhead_us: overhead(&run.traced_us, &run.untraced_us),
        lanes_per_batch: 0.0,
    };
    let samples = vec![whole.json("op_latency_us"), window_json(&win)];
    let mut layers = vec![];
    if traced {
        let store = &live.f.scenario.tracked.store;
        let reads = read_layers(&live.f, &reqs, run, store, &mut trace);
        let empty = FormStore::new(live.f.num_edges());
        let mut reference = Reference::new(fixture::modulo_parts(&empty));
        let probe = distinct_regions(&reqs);
        let writes = write_layers(
            &live.f,
            &empty,
            &mut reference,
            base_batches(store),
            &[],
            &probe,
            &mut trace,
            temp,
        );
        layers = layer_metrics(&live, &common, &reads, &writes);
    }
    let findings = vec![format!(
        "{} answers judged, {} failed, {} wrong",
        tally.attempted, tally.failed, tally.mismatches
    )];
    let params = format!(
        "\"clients\": {READ_CLIENTS}, \"requests\": {}, \"warmup_per_client\": {warmup}, \
         \"pick\": \"{}\", \"setup_reps\": {SETUP_REPS}",
        reqs.len(),
        if w == Workload::ReadHot { "cycle" } else { "fresh" }
    );
    live.rt.shutdown();
    Outcome { tally, e2e: e2e(&common, win.rate, &win), layers, samples, params, trace, findings }
}

/// Checks one `ingest-bulk` leg from outside and shuts its runtime down:
/// the live shard digests against a reference replay of `batches`, the
/// `verify` answers over the replayed store, and recovery from the WAL
/// after shutdown. Given `layers`, it also replays each layer on the leg's
/// inputs and returns the per-layer metrics. Returns the fixture for the
/// next leg, the per-layer metrics, and the live and recovered shard
/// digests that differed.
#[allow(clippy::too_many_arguments)]
fn check_leg(
    live: Live,
    batches: &[BatchSample],
    stream: &Stream,
    verify: &[QuerySpec],
    layers: Option<&Common>,
    trace: &mut Trace,
    epoch: Instant,
    tally: &mut Tally,
    temp: &mut TempDirs,
) -> (Fixture, Vec<Metric>, u64, u64) {
    let base = &live.f.scenario.tracked.store;
    let mut reference = Reference::new(fixture::modulo_parts(base));
    let mut writes = WriteFigures::default();
    if layers.is_some() {
        let replay_batches = batches.iter().map(|b| {
            let mut ev = Vec::new();
            stream.fill(b.first, b.len, &mut ev);
            (
                ev,
                b.flush_after,
                BatchTag { request: b.id, parent: b.span, record: b.span.is_some() },
            )
        });
        let probe: Vec<QueryRegion> = verify.iter().step_by(3).map(|s| s.region.clone()).collect();
        writes =
            write_layers(&live.f, base, &mut reference, replay_batches, &[], &probe, trace, temp);
    } else {
        let mut buf = Vec::new();
        for b in batches {
            stream.fill(b.first, b.len, &mut buf);
            reference.apply(&buf);
        }
    }
    let want = reference.digests();
    let live_bad = gate::digest_mismatches(&live.rt.shard_digests(), &want).len() as u64;
    tally.mismatch(live_bad);
    let ref_store = fixture::store_of(&reference.parts, live.f.num_edges());
    let vreqs: Vec<Request> = verify
        .iter()
        .map(|spec| Request { reference: live.f.reference(&ref_store, spec), spec: spec.clone() })
        .collect();
    let vrun = serial_queries(&live.rt, &vreqs, layers.is_some(), epoch, tally);
    let mut metrics = vec![];
    if let Some(common) = layers {
        let reads = read_layers(&live.f, &vreqs, vrun, &ref_store, trace);
        metrics = layer_metrics(&live, common, &reads, &writes);
    }
    let Live { f, rt, wal, .. } = live;
    rt.shutdown();
    let wal = wal.expect("durable run has a WAL");
    let mut recovered_bad = 0;
    for (s, want_s) in want.iter().enumerate() {
        let ok = recover_shard(&wal, s, replay::SNAPSHOT_EVERY, replay::SYNC_EVERY)
            .map(|r| r.digest() == *want_s)
            .unwrap_or(false);
        recovered_bad += u64::from(!ok);
    }
    tally.mismatch(recovered_bad);
    temp.remove(&wal);
    (f, metrics, live_bad, recovered_bad)
}

/// `ingest-bulk`, in legs of [`INGEST_LEG_MS`] timed milliseconds, each on a
/// fresh runtime and WAL and each checked before the next starts.
fn run_ingest(seed: u64, seconds: u64, traced: bool, temp: &mut TempDirs) -> Outcome {
    let (gen, _) = fixture::build();
    let stream = Stream::hotspot(gen.num_edges(), seed);
    let verify = fixture::verify_specs(&gen, seed);
    drop(gen);
    let (mut live, setup) = setup(true, &[], temp);
    let epoch = Instant::now();
    let mut trace = Trace::new(epoch);
    let mut tally = Tally::default();
    let mut buf: Vec<Crossing> = Vec::with_capacity(INGEST_BATCH);
    let (mut call_us, mut traced_us, mut untraced_us, mut gaps_us) =
        (vec![], vec![], vec![], vec![]);
    let (mut flush_ms, mut lanes, mut rejected) = (vec![], 0usize, 0usize);
    let mut points = vec![];
    let (mut next, mut sent) = (0usize, 0u64);
    // Over every leg's timed phase: events, seconds to the last flush
    // barrier, and process CPU seconds.
    let (mut timed_events, mut wall, mut cpu) = (0usize, 0.0, 0.0);
    // The peak resident set of the first leg's timed phase: later legs
    // also hold whatever the allocator kept from the checks before them,
    // which varied from run to run by a quarter.
    let mut peak_rss_mb = 0.0;
    let (mut live_bad, mut recovered_bad) = (0u64, 0u64);
    let legs = (seconds * 1000).div_ceil(INGEST_LEG_MS);
    for leg in 0..legs {
        let leg_ms = INGEST_LEG_MS.min(seconds * 1000 - leg * INGEST_LEG_MS);
        let offset_ns = (wall * 1e9) as u64;
        let mut batches: Vec<BatchSample> = Vec::new();
        if leg == 0 {
            sys::reset_peak_rss();
        }
        // Round 0 is untimed: it lets lazy set-up (first WAL frames, lane
        // buffers) finish before the clock starts.
        let (mut warm_events, mut cpu0, mut t_start) = (next, 0.0, Instant::now());
        let mut end = t_start;
        for round in 0.. {
            let timed = round > 0;
            if round == 1 {
                warm_events = next;
                cpu0 = sys::cpu_seconds();
                t_start = Instant::now();
            } else if timed && end - t_start >= Duration::from_millis(leg_ms) {
                break;
            }
            let mut prev_end: Option<Instant> = None;
            for b in 0..ROUND_BATCHES {
                stream.fill(next, INGEST_BATCH, &mut buf);
                let t0 = Instant::now();
                let rep = live.rt.ingest_batch(&buf);
                let t1 = Instant::now();
                rejected += rep.rejected;
                let id = sent;
                sent += 1;
                let trace_this = traced && timed && id.is_multiple_of(2);
                let span = trace_this.then(|| trace.push("runtime.ingest_batch", t0, t1, None, id));
                if timed {
                    let us = (t1 - t0).as_secs_f64() * 1e6;
                    call_us.push(us);
                    points.push((offset_ns + (t0 - t_start).as_nanos() as u64, us));
                    if trace_this { &mut traced_us } else { &mut untraced_us }.push(us);
                    lanes += rep.lanes;
                    if let Some(p) = prev_end {
                        gaps_us.push((t0 - p).as_secs_f64() * 1e6);
                    }
                }
                prev_end = Some(t1);
                let flush_after = b + 1 == ROUND_BATCHES;
                batches.push(BatchSample { id, first: next, len: INGEST_BATCH, span, flush_after });
                next += INGEST_BATCH;
            }
            let f0 = Instant::now();
            live.rt.flush_ingest();
            end = Instant::now();
            if timed {
                flush_ms.push((end - f0).as_secs_f64() * 1e3);
                if traced {
                    trace.push("runtime.flush_ingest", f0, end, None, sent);
                }
            }
        }
        cpu += sys::cpu_seconds() - cpu0;
        if leg == 0 {
            peak_rss_mb = sys::peak_rss_mb();
        }
        timed_events += next - warm_events;
        wall += (end - t_start).as_secs_f64();
        if leg + 1 == legs {
            // The last leg is checked, and in traced runs replayed layer by
            // layer, after the figures every leg contributes are final.
            let common = Common {
                setup,
                cpu_util: cpu / (wall * sys::nproc() as f64),
                peak_rss_mb,
                flush_ms: median(&flush_ms),
                lag_p99_us: Summary::of(&gaps_us).p99,
                overhead_us: overhead(&traced_us, &untraced_us),
                lanes_per_batch: lanes as f64 / call_us.len().max(1) as f64,
            };
            let (_, layers, l, r) = check_leg(
                live,
                &batches,
                &stream,
                &verify,
                traced.then_some(&common),
                &mut trace,
                epoch,
                &mut tally,
                temp,
            );
            (live_bad, recovered_bad) = (live_bad + l, recovered_bad + r);
            tally.add_ops(sent, rejected as u64);
            // Throughput counts every timed event over the time to each
            // leg's last flush barrier, snapshot rollovers included; call
            // latency is the interquartile mean over 1-s windows.
            let eps = timed_events as f64 / wall;
            let win = windowed(&points, 1_000_000_000, seconds * 1_000_000_000);
            let findings = vec![
                format!("live shard digests: {live_bad} of {} differ", SHARDS as u64 * legs),
                format!(
                    "recovered shard digests: {recovered_bad} of {} differ",
                    SHARDS as u64 * legs
                ),
            ];
            let samples = vec![
                Summary::of(&call_us).json("op_latency_us"),
                window_json(&win),
                Summary::of(&flush_ms).json("flush_ms"),
            ];
            let params = format!(
                "\"batch\": {INGEST_BATCH}, \"round_batches\": {ROUND_BATCHES}, \
                 \"events\": {timed_events}, \"legs\": {legs}, \"leg_ms\": {INGEST_LEG_MS}, \
                 \"hot_edges\": {}, \"snapshot_every\": {}, \"sync_every\": {}, \
                 \"setup_reps\": {SETUP_REPS}",
                fixture::HOT_EDGES,
                replay::SNAPSHOT_EVERY,
                replay::SYNC_EVERY
            );
            return Outcome {
                tally,
                e2e: e2e(&common, eps, &win),
                layers,
                samples,
                params,
                trace,
                findings,
            };
        }
        let (f, _, l, r) =
            check_leg(live, &batches, &stream, &verify, None, &mut trace, epoch, &mut tally, temp);
        (live_bad, recovered_bad) = (live_bad + l, recovered_bad + r);
        live = start_runtime(f, Some(temp.temp_dir(&format!("wal-leg{}", leg + 1))));
    }
    unreachable!("a run has at least one leg")
}

/// What the open-loop writer of `standing-mixed` observed.
#[derive(Default)]
struct WriterLog {
    batches: Vec<BatchSample>,
    from_due_us: Vec<f64>,
    /// (due offset, latency from due µs) per batch.
    points: Vec<(u64, f64)>,
    traced_us: Vec<f64>,
    untraced_us: Vec<f64>,
    lag_us: Vec<f64>,
    lanes: usize,
    rejected: usize,
    spans: Vec<Span>,
    events: usize,
    last_done: Option<Instant>,
}

/// `standing-mixed`.
fn run_standing(seed: u64, seconds: u64, traced: bool, temp: &mut TempDirs) -> Outcome {
    let (gen, _) = fixture::build();
    let stream = Stream::hotspot(gen.num_edges(), seed);
    let reqs = fixture::hot_requests(&gen, seed);
    let regions = fixture::standing_regions(&gen);
    drop(gen);
    let (mut live, setup) = setup(false, &regions, temp);
    let subs = std::mem::take(&mut live.subs);
    let ids: Vec<_> = subs.iter().map(|h| h.id).collect();
    let epoch = Instant::now();
    let mut trace = Trace::new(epoch);
    let gate_start = StartGate::new(2);
    let sched = Schedule { period_ns: STANDING_BATCH as u64 * 1_000_000_000 / STANDING_RATE };
    let span_ns = seconds * 1_000_000_000;
    let (reader, (mut writer, subs)) = std::thread::scope(|sc| {
        let (rt, reqs, g) = (&live.rt, &reqs, &gate_start);
        let pace = Some(Schedule { period_ns: 1_000_000_000 / READER_RATE });
        let reader = sc.spawn(move || {
            client(rt, reqs, Pick::Cycle(0), reqs.len(), pace, g, seconds, traced, epoch)
        });
        let stream = &stream;
        let writer = sc.spawn(move || {
            let ns = |t: Instant| (t - epoch).as_nanos() as u64;
            let mut log = WriterLog::default();
            let mut buf = Vec::with_capacity(STANDING_BATCH);
            let (t_start, _) = g.wait();
            let base = ns(t_start);
            let mut k = 0u64;
            while sched.due_ns(k) < span_ns {
                stream.fill(log.events, STANDING_BATCH, &mut buf);
                wait_until(t_start, sched.due_ns(k));
                let t0 = Instant::now();
                let rep = rt.ingest_batch(&buf);
                let t1 = Instant::now();
                let timing = sched.account(k, ns(t0) - base, ns(t1) - base);
                let us = timing.from_due_ns as f64 / 1e3;
                log.from_due_us.push(us);
                log.points.push((sched.due_ns(k), us));
                log.lag_us.push(timing.lag_ns as f64 / 1e3);
                let trace_this = traced && k.is_multiple_of(2);
                if trace_this { &mut log.traced_us } else { &mut log.untraced_us }.push(us);
                let span = trace_this.then(|| {
                    log.spans.push(Span {
                        name: "runtime.ingest_batch",
                        start_ns: ns(t0),
                        end_ns: ns(t1),
                        parent: None,
                        request: k,
                    });
                    log.spans.len() - 1
                });
                log.batches.push(BatchSample {
                    id: k,
                    first: log.events,
                    len: STANDING_BATCH,
                    span,
                    flush_after: false,
                });
                log.events += STANDING_BATCH;
                log.lanes += rep.lanes;
                log.rejected += rep.rejected;
                log.last_done = Some(t1);
                // Pushed bracket updates are drained outside the timed call.
                for h in &subs {
                    while h.updates.try_recv().is_ok() {}
                }
                k += 1;
            }
            (log, subs)
        });
        (reader.join().expect("reader thread"), writer.join().expect("writer thread"))
    });
    let cpu1 = sys::cpu_seconds();
    let peak_rss_mb = sys::peak_rss_mb();
    let (t_start, cpu0) = *gate_start.start.get().expect("window opened");
    let end = Instant::now();
    let f0 = Instant::now();
    live.rt.flush_ingest();
    let flush_ms = f0.elapsed().as_secs_f64() * 1e3;
    if let Some(last) = writer.batches.last_mut() {
        last.flush_after = true;
    }
    for h in &subs {
        while h.updates.try_recv().is_ok() {}
    }
    let wall = (end - t_start).as_secs_f64();
    let delivered =
        writer.events as f64 / (writer.last_done.unwrap_or(end) - t_start).as_secs_f64();
    let win = windowed(&writer.points, 1_000_000_000, span_ns);
    let whole = Summary::of(&writer.from_due_us);

    let mut tally = Tally::default();
    tally.add_ops(writer.batches.len() as u64, writer.rejected as u64);
    let run = merge_reads(vec![reader], t_start, epoch, &mut tally);
    let base = &live.f.scenario.tracked.store;
    let mut reference = Reference::new(fixture::modulo_parts(base));
    let mut buf = Vec::new();
    let mut writes = WriteFigures::default();
    if traced {
        // Writer spans first so batch parents index them.
        let offset = trace.spans.len();
        trace.spans.append(&mut writer.spans);
        let replay_batches = writer.batches.iter().map(|b| {
            let mut ev = Vec::new();
            stream.fill(b.first, b.len, &mut ev);
            let parent = b.span.map(|s| s + offset);
            (ev, b.flush_after, BatchTag { request: b.id, parent, record: parent.is_some() })
        });
        writes = write_layers(
            &live.f,
            base,
            &mut reference,
            replay_batches,
            &regions,
            &[],
            &mut trace,
            temp,
        );
    } else {
        for b in &writer.batches {
            stream.fill(b.first, b.len, &mut buf);
            reference.apply(&buf);
        }
    }
    let mut findings = vec![];
    let bad = gate::digest_mismatches(&live.rt.shard_digests(), &reference.digests());
    tally.mismatch(bad.len() as u64);
    findings.push(format!("live shard digests: {} of {SHARDS} differ", bad.len()));
    let ref_store = fixture::store_of(&reference.parts, live.f.num_edges());
    let mut expect: HashMap<(usize, bool), f64> = HashMap::new();
    let mut wrong = 0u64;
    for (i, id) in ids.iter().enumerate() {
        let (region, approx) = standing_of(i, &regions);
        let key = (i % regions.len(), approx == Approximation::Lower);
        let reference = *expect.entry(key).or_insert_with(|| {
            live.f.plan(region, approx).execute(&ref_store, QueryKind::Snapshot(T_LATE)).value
        });
        let ok =
            live.rt.standing_bracket(*id).is_some_and(|b| gate::bracket_matches(&b, reference));
        wrong += u64::from(!ok);
    }
    tally.mismatch(wrong);
    findings.push(format!("standing brackets: {wrong} of {} differ from re-execution", ids.len()));
    let common = Common {
        setup,
        cpu_util: (cpu1 - cpu0) / (wall * sys::nproc() as f64),
        peak_rss_mb,
        flush_ms,
        lag_p99_us: Summary::of(&writer.lag_us).p99,
        overhead_us: overhead(&writer.traced_us, &writer.untraced_us),
        lanes_per_batch: writer.lanes as f64 / writer.batches.len().max(1) as f64,
    };
    let query = run.summary();
    let samples = vec![
        whole.json("op_latency_from_due_us"),
        window_json(&win),
        Summary::of(&writer.lag_us).json("generator_lag_us"),
        query.json("reader_query_us"),
    ];
    let mut layers = vec![];
    if traced {
        let reads = read_layers(&live.f, &reqs, run, base, &mut trace);
        layers = layer_metrics(&live, &common, &reads, &writes);
    }
    let params = format!(
        "\"subscriptions\": {STANDING_SUBS}, \"standing_regions\": {}, \"batch\": {STANDING_BATCH}, \
         \"rate_events_per_s\": {STANDING_RATE}, \"reader_requests\": {}, \"setup_reps\": {SETUP_REPS}",
        regions.len(),
        reqs.len()
    );
    drop(subs);
    live.rt.shutdown();
    Outcome { tally, e2e: e2e(&common, delivered, &win), layers, samples, params, trace, findings }
}

/// Runs one workload.
pub fn run(w: Workload, seed: u64, seconds: u64, traced: bool, temp: &mut TempDirs) -> Outcome {
    match w {
        Workload::ReadHot | Workload::ReadCold => run_reads(w, seed, seconds, traced, temp),
        Workload::IngestBulk => run_ingest(seed, seconds, traced, temp),
        Workload::StandingMixed => run_standing(seed, seconds, traced, temp),
    }
}
