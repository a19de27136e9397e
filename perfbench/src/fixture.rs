//! The benchmark's fixture and seeded inputs.
//!
//! The city is fixed (400 junctions, 150 objects, city seed 11, QuadTree
//! sensors at ¼ of the candidates, triangulated — the `runtime_sweep`
//! scenario), so every seed measures the same deployment; so are the
//! stream's hot edges and the standing regions. The `--seed` argument draws
//! what is sent to it: query regions and time windows, and the crossing
//! stream. All inputs and their reference answers are built before any
//! clock starts.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stq_core::prelude::*;
use stq_core::tracker::Crossing;
use stq_forms::{FormStore, TrackingForm};
use stq_runtime::QuerySpec;

/// Junctions of the city.
pub const JUNCTIONS: usize = 400;
/// Moving objects simulated to fill the base store.
pub const OBJECTS: usize = 150;
/// Seed of the city and its trajectories (fixed across workload seeds).
pub const CITY_SEED: u64 = 11;
/// Shards of the default runtime configuration (the modulo partition).
pub const SHARDS: usize = 4;
/// An instant past every streamed event: a snapshot there is the live
/// occupancy a standing bracket tracks.
pub const T_LATE: f64 = 1.0e12;
/// Length of a query's time window, seconds of simulated time.
const WINDOW: f64 = 2_000.0;
/// First timestamp of the ingested stream (the base store ends at 10 000).
const STREAM_T0: f64 = 10_000.0;
/// Simulated seconds between consecutive streamed events.
const STREAM_DT: f64 = 1e-3;
/// Hot edges of the hotspot stream, all owned by shard 0.
pub const HOT_EDGES: usize = 64;
/// Share of streamed events on the hot edges.
const HOT_SHARE: f64 = 0.8;
/// Events in the pre-generated stream ring.
pub const RING: usize = 1 << 20;

/// The deployment every workload runs on.
pub struct Fixture {
    /// City, sensing graph and base store.
    pub scenario: Scenario,
    /// The sampled serving graph.
    pub sampled: SampledGraph,
}

/// Set-up phases of one fixture build, seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildTimes {
    /// Scenario generation (city, trajectories, base store).
    pub scenario_s: f64,
    /// Sensor sampling and sampled-graph construction.
    pub sampled_s: f64,
}

/// Builds the fixture, timing its two phases.
pub fn build() -> (Fixture, BuildTimes) {
    let t0 = Instant::now();
    let scenario = Scenario::build(ScenarioConfig {
        junctions: JUNCTIONS,
        mix: WorkloadMix {
            random_waypoint: OBJECTS / 3,
            commuter: OBJECTS / 3,
            transit: OBJECTS - 2 * (OBJECTS / 3),
        },
        seed: CITY_SEED,
        ..Default::default()
    });
    let t1 = Instant::now();
    let cands = scenario.sensing.sensor_candidates();
    let ids = stq_sampling::sample(
        stq_sampling::SamplingMethod::QuadTree,
        &cands,
        cands.len() / 4,
        CITY_SEED ^ 0x51,
    );
    let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
    let sampled =
        SampledGraph::from_sensors(&scenario.sensing, &faces, Connectivity::Triangulation);
    let t2 = Instant::now();
    let times =
        BuildTimes { scenario_s: (t1 - t0).as_secs_f64(), sampled_s: (t2 - t1).as_secs_f64() };
    (Fixture { scenario, sampled }, times)
}

impl Fixture {
    /// Compiles `region` on the sampled graph.
    pub fn plan(&self, region: &QueryRegion, approx: Approximation) -> QueryPlan {
        QueryPlan::compile(&self.scenario.sensing, &self.sampled, region, approx)
    }

    /// The reference answer: compile, then execute over `store`.
    pub fn reference(&self, store: &FormStore, spec: &QuerySpec) -> f64 {
        self.plan(&spec.region, spec.approx).execute(store, spec.kind).value
    }

    /// Edges of the deployment.
    pub fn num_edges(&self) -> usize {
        self.scenario.sensing.num_edges()
    }

    /// `n` distinct regions of `area` (share of the city) that resolve to a
    /// non-empty boundary under every approximation in `approxes`, each
    /// with a time window inside the base store's horizon.
    pub fn regions(
        &self,
        n: usize,
        area: f64,
        approxes: &[Approximation],
        seed: u64,
    ) -> Vec<(QueryRegion, f64, f64)> {
        let mut seen: HashSet<Vec<usize>> = HashSet::new();
        let mut out = Vec::with_capacity(n);
        for salt in 0..64u64 {
            let draw =
                self.scenario.make_queries(n, area, WINDOW, seed ^ salt.wrapping_mul(0x9e37));
            for (region, t0, t1) in draw {
                let mut key: Vec<usize> = region.junctions.iter().copied().collect();
                key.sort_unstable();
                if seen.contains(&key) {
                    continue;
                }
                let ok = approxes.iter().all(|&a| {
                    let p = self.plan(&region, a);
                    !p.miss && !p.boundary.is_empty()
                });
                if ok {
                    seen.insert(key);
                    out.push((region, t0, t1));
                    if out.len() == n {
                        return out;
                    }
                }
            }
        }
        panic!("only {} of {n} resolvable regions at area {area}", out.len());
    }
}

/// One query the benchmark sends, with the answer it must get back.
#[derive(Clone)]
pub struct Request {
    /// What is sent.
    pub spec: QuerySpec,
    /// Compile + execute over the same store, computed up front.
    pub reference: f64,
}

/// The three query kinds over one region's window.
fn kinds(t0: f64, t1: f64) -> [QueryKind; 3] {
    [QueryKind::Snapshot(t0), QueryKind::Transient(t0, t1), QueryKind::Static(t0, t1)]
}

/// `read-hot` (and the `standing-mixed` reader): 32 regions of 2% area,
/// each under all three kinds — 96 requests, a working set the 256-entry
/// plan cache holds entirely.
pub fn hot_requests(f: &Fixture, seed: u64) -> Vec<Request> {
    let store = &f.scenario.tracked.store;
    f.regions(32, 0.02, &[Approximation::Lower], seed ^ 0x4807)
        .into_iter()
        .flat_map(|(region, t0, t1)| {
            kinds(t0, t1).map(|k| QuerySpec::new(region.clone(), k, Approximation::Lower))
        })
        .map(|spec| Request { reference: f.reference(store, &spec), spec })
        .collect()
}

/// Regions in `read-cold`'s cycle: sixteen times the plan cache.
pub const COLD_REGIONS: usize = 4096;

/// `read-cold`: 4096 distinct regions of 10% area, one kind each, so no
/// region repeats within the plan cache's reach.
pub fn cold_requests(f: &Fixture, seed: u64) -> Vec<Request> {
    let store = &f.scenario.tracked.store;
    f.regions(COLD_REGIONS, 0.10, &[Approximation::Lower], seed ^ 0xc01d)
        .into_iter()
        .enumerate()
        .map(|(i, (region, t0, t1))| {
            let spec = QuerySpec::new(region, kinds(t0, t1)[i % 3], Approximation::Lower);
            Request { reference: f.reference(store, &spec), spec }
        })
        .collect()
}

/// Post-ingest verification queries: 32 regions of 2% area under all three
/// kinds, with windows reaching past the streamed events. References are
/// filled in later against the replayed store.
pub fn verify_specs(f: &Fixture, seed: u64) -> Vec<QuerySpec> {
    f.regions(32, 0.02, &[Approximation::Lower], seed ^ 0x5e1f)
        .into_iter()
        .flat_map(|(region, t0, _)| {
            kinds(t0, T_LATE).map(|k| QuerySpec::new(region.clone(), k, Approximation::Lower))
        })
        .collect()
}

/// Seed of the standing regions. Like the city, they are part of the
/// deployment rather than of the traffic: how many subscriptions an event
/// moves depends on where they sit, and redrawing them per seed would make
/// the registry's work per event vary by ±20% between seeds.
const STANDING_SEED: u64 = 0x57a4;

/// `standing-mixed`: 48 regions of 2% area resolvable under both
/// approximations (each is watched under both).
pub fn standing_regions(f: &Fixture) -> Vec<QueryRegion> {
    let both = [Approximation::Lower, Approximation::Upper];
    f.regions(48, 0.02, &both, STANDING_SEED).into_iter().map(|(r, _, _)| r).collect()
}

/// The hotspot crossing stream: 80% of events on 64 hot edges that all sit
/// on shard 0 under the modulo map, the rest spread uniformly; the seed
/// draws which edge and direction each event takes. Timestamps increase
/// strictly, so every event is accepted.
///
/// A ring of [`RING`] events is drawn up front; event `i` is ring entry
/// `i % RING` shifted by whole laps of the ring's time span, so a run of
/// any length replays the same drawn events in strictly increasing time.
pub struct Stream {
    ring: Vec<Crossing>,
}

impl Stream {
    /// Draws the ring for a deployment with `num_edges` edges. The hot
    /// edges are `ingest_sweep`'s: the first [`HOT_EDGES`] edges of shard 0.
    pub fn hotspot(num_edges: usize, seed: u64) -> Stream {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1e57);
        let hot: Vec<usize> = (0..num_edges).step_by(SHARDS).take(HOT_EDGES).collect();
        assert_eq!(hot.len(), HOT_EDGES, "graph too small for the hotspot stream");
        let ring = (0..RING)
            .map(|i| {
                let edge = if rng.gen_bool(HOT_SHARE) {
                    hot[rng.gen_range(0..HOT_EDGES)]
                } else {
                    rng.gen_range(0..num_edges)
                };
                Crossing {
                    time: STREAM_T0 + i as f64 * STREAM_DT,
                    edge,
                    forward: rng.gen_bool(2.0 / 3.0),
                }
            })
            .collect();
        Stream { ring }
    }

    /// Writes events `start .. start + len` into `out` (cleared first).
    pub fn fill(&self, start: usize, len: usize, out: &mut Vec<Crossing>) {
        out.clear();
        let span = RING as f64 * STREAM_DT;
        out.extend((start..start + len).map(|i| {
            let c = self.ring[i % RING];
            Crossing { time: c.time + (i / RING) as f64 * span, ..c }
        }));
    }
}

/// The base store's forms split by the modulo shard map — what each shard
/// starts with.
pub fn modulo_parts(store: &FormStore) -> Vec<HashMap<usize, TrackingForm>> {
    let mut parts: Vec<HashMap<usize, TrackingForm>> =
        (0..SHARDS).map(|_| HashMap::new()).collect();
    for e in 0..store.num_edges() {
        parts[e % SHARDS].insert(e, store.form(e).clone());
    }
    parts
}

/// Reassembles shard parts into one store.
pub fn store_of(parts: &[HashMap<usize, TrackingForm>], num_edges: usize) -> FormStore {
    let mut store = FormStore::new(num_edges);
    for part in parts {
        for (&e, form) in part {
            store.set_form(e, form.clone());
        }
    }
    store
}

/// The base store's own crossings in time order (ties by edge, forward
/// first) — the write stream replayed through the write-path layers on
/// workloads whose timed phase sends none.
pub fn base_crossings(store: &FormStore) -> Vec<Crossing> {
    let mut out = Vec::with_capacity(store.total_events());
    for e in 0..store.num_edges() {
        for forward in [true, false] {
            out.extend(store.form(e).timestamps(forward).iter().map(|&time| Crossing {
                time,
                edge: e,
                forward,
            }));
        }
    }
    out.sort_by(|a, b| {
        a.time.total_cmp(&b.time).then(a.edge.cmp(&b.edge)).then(b.forward.cmp(&a.forward))
    });
    out
}
