//! Layer replays: after the timed phase, the benchmark repeats the work of
//! each layer through that layer's public functions, on the same inputs in
//! the same order, and times each call. The untraced run needs only the
//! reference replay of the shard forms (the correctness gate); the traced
//! run also replays the plan engine, the subscription registry and the WAL.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver};
use stq_core::engine::QueryEngine;
use stq_core::prelude::*;
use stq_core::tracker::Crossing;
use stq_durability::{apply_crossing, ShardDurability};
use stq_forms::{FormStore, TrackingForm};
use stq_runtime::{BracketUpdate, SubscriptionRegistry};

use crate::fixture::{Fixture, Request, SHARDS};
use crate::gate::Verdict;
use crate::trace::Trace;

/// Plan-cache capacity of the default runtime, mirrored by the replay.
pub const PLAN_CACHE: usize = 256;
/// WAL rollover and sync intervals of the default durability config.
pub const SNAPSHOT_EVERY: u64 = 65_536;
/// See [`SNAPSHOT_EVERY`].
pub const SYNC_EVERY: u64 = 32;

/// One client query as observed in the timed phase.
#[derive(Clone, Copy, Debug)]
pub struct QuerySample {
    /// Index into the workload's request list.
    pub idx: u32,
    /// The runtime's query id.
    pub query_id: u64,
    /// Call start, ns since the run epoch.
    pub start_ns: u64,
    /// Call end, ns since the run epoch.
    pub end_ns: u64,
    /// A span was recorded for it during the run (traced runs, even ops).
    pub traced: bool,
    /// The gate's judgement of the answer.
    pub verdict: Verdict,
}

/// Per-call timings of the read-path replay, microseconds.
#[derive(Default)]
pub struct ReadLayers {
    /// In-order `QueryEngine::plan` calls that compiled.
    pub plan_miss_us: Vec<f64>,
    /// A second `plan` of the same region right after: always a hit.
    pub plan_probe_us: Vec<f64>,
    /// `QueryPlan::execute` over the store.
    pub execute_us: Vec<f64>,
    /// Boundary edges of each replayed plan.
    pub boundary_edges: Vec<f64>,
}

/// Replays every sampled query through a fresh engine of the runtime's
/// cache capacity, in start order (so its hits and misses follow the
/// runtime's), then executes the plan over `store`. A traced sample's
/// replayed `engine.plan` and `engine.execute` become children of the
/// `runtime.query` span recorded for it in the run.
pub fn replay_reads(
    f: &Fixture,
    requests: &[Request],
    samples: &[QuerySample],
    store: &FormStore,
    trace: &mut Trace,
    spans_by_request: &HashMap<u64, usize>,
) -> ReadLayers {
    let engine = QueryEngine::new(PLAN_CACHE);
    let sensing = &f.scenario.sensing;
    let mut order: Vec<&QuerySample> = samples.iter().collect();
    order.sort_by_key(|s| s.start_ns);
    let mut out = ReadLayers::default();
    for s in order {
        let spec = &requests[s.idx as usize].spec;
        let t0 = Instant::now();
        let (plan, hit) = engine.plan(sensing, &f.sampled, &spec.region, spec.approx);
        let t1 = Instant::now();
        let outcome = plan.execute(store, spec.kind);
        let t2 = Instant::now();
        std::hint::black_box(outcome.value);
        let _probe = engine.plan(sensing, &f.sampled, &spec.region, spec.approx);
        let t3 = Instant::now();
        let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
        if !hit {
            out.plan_miss_us.push(us(t0, t1));
        }
        out.plan_probe_us.push(us(t2, t3));
        out.execute_us.push(us(t1, t2));
        out.boundary_edges.push(plan.boundary.len() as f64);
        if let Some(&q) = spans_by_request.get(&s.query_id).filter(|_| s.traced) {
            let name = if hit { "engine.plan.hit" } else { "engine.plan.miss" };
            trace.push(name, t0, t1, Some(q), s.query_id);
            trace.push("engine.execute", t1, t2, Some(q), s.query_id);
        }
    }
    out
}

/// One ingest call as observed in the timed phase.
#[derive(Clone, Copy, Debug)]
pub struct BatchSample {
    /// Request id of the batch.
    pub id: u64,
    /// First stream index of the batch.
    pub first: usize,
    /// Events in the batch.
    pub len: usize,
    /// Span index of the batch's client call, when traced.
    pub span: Option<usize>,
    /// A flush barrier followed this batch.
    pub flush_after: bool,
}

/// The reference state: the base forms split by the modulo map, with every
/// ingested event applied by `apply_crossing` in send order.
pub struct Reference {
    /// Shard → edge → form.
    pub parts: Vec<HashMap<usize, TrackingForm>>,
}

impl Reference {
    /// Starts from `parts` (the shards' initial forms).
    pub fn new(parts: Vec<HashMap<usize, TrackingForm>>) -> Self {
        Reference { parts }
    }

    /// Applies events in order to their modulo shard.
    pub fn apply(&mut self, events: &[Crossing]) {
        for c in events {
            apply_crossing(&mut self.parts[c.edge % SHARDS], c);
        }
    }

    /// `state_digest` of every shard.
    pub fn digests(&self) -> Vec<u64> {
        self.parts.iter().map(stq_durability::state_digest).collect()
    }
}

/// Per-call timings of the write-path replay.
#[derive(Default)]
pub struct WriteLayers {
    /// `SubscriptionRegistry::on_ingest_batch` per batch, µs.
    pub on_ingest_batch_us: Vec<f64>,
    /// Deltas the replay registry applied.
    pub deltas: u64,
    /// `apply_crossing`, summed ns.
    pub apply_ns: f64,
    /// Events replayed.
    pub events: u64,
    /// `ShardDurability::append_batch` per lane, µs.
    pub append_batch_us: Vec<f64>,
    /// `ShardDurability::sync` per shard per flush, µs.
    pub sync_us: Vec<f64>,
    /// WAL growth over appends that did not roll into a snapshot, bytes.
    pub wal_bytes: u64,
    /// Events of those appends.
    pub wal_events: u64,
    /// Group commits (one per lane per batch).
    pub group_commits: u64,
}

/// The traced write-path replay: each batch goes through a registry with
/// the workload's subscriptions, then lane by lane through
/// `apply_crossing` into the reference forms and `append_batch` into a
/// per-shard WAL under `wal_root`; flush points sync every shard's WAL.
pub struct WriteReplay {
    root: PathBuf,
    registry: SubscriptionRegistry,
    updates: Vec<Receiver<BracketUpdate>>,
    wal: Vec<ShardDurability>,
    seqs: Vec<u64>,
    /// Timings so far.
    pub layers: WriteLayers,
}

impl WriteReplay {
    /// A registry whose mirror starts at `initial` (no subscriptions yet)
    /// and WALs initialized with `parts` under `wal_root`.
    pub fn new(
        initial: &FormStore,
        parts: &[HashMap<usize, TrackingForm>],
        wal_root: &Path,
    ) -> std::io::Result<Self> {
        let registry =
            SubscriptionRegistry::new(Arc::new(QueryEngine::new(PLAN_CACHE)), initial, []);
        let wal = (0..SHARDS)
            .map(|s| {
                ShardDurability::initialize(wal_root, s, &parts[s], 0, SNAPSHOT_EVERY, SYNC_EVERY)
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(WriteReplay {
            root: wal_root.to_path_buf(),
            registry,
            updates: Vec::new(),
            wal,
            seqs: vec![0; SHARDS],
            layers: WriteLayers::default(),
        })
    }

    /// Registers one standing region with a push channel, as the runtime
    /// does, returning the call's duration in µs.
    pub fn subscribe(&mut self, f: &Fixture, region: &QueryRegion, approx: Approximation) -> f64 {
        let (tx, rx) = unbounded();
        let t0 = Instant::now();
        self.registry
            .subscribe(&f.scenario.sensing, &f.sampled, region, approx, Some(tx))
            .expect("standing region resolves");
        let us = t0.elapsed().as_secs_f64() * 1e6;
        self.updates.push(rx);
        us
    }

    /// Replays one batch (and a WAL sync of every shard after it when
    /// `flush`). The registry call is what `ingest_batch` does in the
    /// caller's thread, so its span is a child of the batch's client span;
    /// form apply and WAL append run on shard workers after the call
    /// returns, so their spans stand alone under the batch's request id.
    pub fn batch(
        &mut self,
        reference: &mut Reference,
        events: &[Crossing],
        flush: bool,
        trace: &mut Trace,
        tag: BatchTag,
    ) -> std::io::Result<()> {
        let t0 = Instant::now();
        let obs = self.registry.on_ingest_batch(events);
        let t1 = Instant::now();
        for rx in &self.updates {
            while rx.try_recv().is_ok() {}
        }
        self.layers.on_ingest_batch_us.push((t1 - t0).as_secs_f64() * 1e6);
        self.layers.deltas += obs.deltas as u64;
        if tag.record {
            trace.push("subscribe.on_ingest_batch", t0, t1, tag.parent, tag.request);
        }
        let mut lanes: Vec<Vec<(u64, Crossing)>> = vec![Vec::new(); SHARDS];
        for &c in events {
            let s = c.edge % SHARDS;
            self.seqs[s] += 1;
            lanes[s].push((self.seqs[s], c));
        }
        for (s, lane) in lanes.iter().enumerate().filter(|(_, l)| !l.is_empty()) {
            let a0 = Instant::now();
            for (_, c) in lane {
                apply_crossing(&mut reference.parts[s], c);
            }
            let a1 = Instant::now();
            let log = ShardDurability::shard_dir(&self.root, s).join("wal.log");
            let before = std::fs::metadata(&log).map_or(0, |m| m.len());
            let w0 = Instant::now();
            let mark = self.wal[s].append_batch(lane, &reference.parts[s])?;
            let w1 = Instant::now();
            if !mark.snapshotted {
                let after = std::fs::metadata(&log).map_or(0, |m| m.len());
                self.layers.wal_bytes += after.saturating_sub(before);
                self.layers.wal_events += lane.len() as u64;
            }
            self.layers.apply_ns += (a1 - a0).as_secs_f64() * 1e9;
            self.layers.events += lane.len() as u64;
            self.layers.append_batch_us.push((w1 - w0).as_secs_f64() * 1e6);
            self.layers.group_commits += 1;
            if tag.record {
                trace.push("forms.apply_crossing", a0, a1, None, tag.request);
                trace.push("wal.append_batch", w0, w1, None, tag.request);
            }
        }
        if flush {
            for s in 0..SHARDS {
                let s0 = Instant::now();
                self.wal[s].sync()?;
                let s1 = Instant::now();
                self.layers.sync_us.push((s1 - s0).as_secs_f64() * 1e6);
                trace.push("wal.sync", s0, s1, None, tag.request);
            }
        }
        Ok(())
    }
}

/// How one replayed batch is recorded in the trace.
#[derive(Clone, Copy, Debug)]
pub struct BatchTag {
    /// Request id shared with the batch's client span.
    pub request: u64,
    /// The client span of the `ingest_batch` call, when one was recorded.
    pub parent: Option<usize>,
    /// Record spans for this batch (the traced half of the calls).
    pub record: bool,
}
