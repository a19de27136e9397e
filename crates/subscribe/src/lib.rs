//! # stq-subscribe
//!
//! Standing spatiotemporal range subscriptions with incremental delta
//! maintenance — the continuous-query layer over the paper's boundary-chain
//! machinery (ROADMAP item 2, after "Distributed processing of continuous
//! range queries over moving objects").
//!
//! A monitoring workload asks the *same* region every tick. Re-executing the
//! prefix-sum fold per tick costs O(boundary) per query per tick; this crate
//! instead compiles each registered region into a reusable
//! [`QueryPlan`] **once** (through the shared
//! [`QueryEngine`] and its LRU cache), indexes the plan's boundary edges in a
//! routing table, and updates each subscription's running
//! `[lower, upper]` bracket by ±1 **count deltas** as crossings arrive —
//! O(affected subscriptions) per event, O(1) per tick per subscription.
//!
//! ## Exactness contract
//!
//! The maintained bracket is **bit-identical** to re-executing the plan
//! against the live store at every instant between epochs:
//!
//! - The registry mirrors the shard-side accept rule exactly: an event is
//!   counted iff its timestamp is not behind that edge-direction's watermark
//!   (the same predicate as `stq_durability::apply_crossing`, which both the
//!   live ingest path and recovery replay use). A late event changes neither
//!   the forms nor the bracket value.
//! - A **trusted** boundary edge contributes its net inward count; an
//!   accepted crossing moves `value`, `lower` and `upper` together by ±1.
//! - A **quarantined** boundary edge is refused by its shard, so the
//!   re-execute path widens by the edge's lifetime totals (which grow even
//!   for late-dropped events). The registry applies the same rule as a
//!   delta: an inward event adds 1 to `upper`, an outward event subtracts 1
//!   from `lower`, and `value` stays put.
//! - A quarantined edge that carries a **certified interval** (installed by
//!   [`SubscriptionRegistry::certify_quarantined`] from the degraded-mode
//!   imputer) contributes the intersection of that interval — widened by
//!   the events since certification — with the lifetime worst case. Both
//!   intersection endpoints move in lockstep with the worst case under new
//!   events, so the same ±1 delta rule keeps delta-maintained and
//!   re-snapshot brackets bit-identical.
//!
//! All counts are integers, every intermediate is far below 2⁵³, and the
//! baseline fold visits boundary edges in plan order — so float addition is
//! exact and the delta-maintained bracket equals the re-executed fold bit
//! for bit, not merely approximately.
//!
//! ## Epochs and re-snapshots
//!
//! Quarantine extensions and supervisor crash-recovery change the serving
//! topology out from under a running bracket. [`SubscriptionRegistry::advance_epoch`]
//! makes that sound: it bumps the registry epoch, sets any extra
//! [`Quarantine`] flags, recomputes every subscription's bracket from the mirror
//! (a re-snapshot through the compiled plan), and only then lets deltas
//! resume — a delta stamped with an old epoch can never survive into a new
//! one because re-snapshot overwrites the bracket wholesale. The serving
//! runtime calls this under its ingest-lane lock, atomically with the
//! shard-health flip.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::Sender;
use parking_lot::Mutex;
use stq_core::engine::{PlanId, QueryEngine, QueryPlan};
use stq_core::query::{Approximation, QueryRegion};
use stq_core::sampled::SampledGraph;
use stq_core::sensing::SensingGraph;
use stq_core::tracker::Crossing;
use stq_forms::{BoundaryEdge, FormStore};

/// Stable handle of one standing subscription.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(pub u64);

impl fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub-{}", self.0)
    }
}

/// A subscription's live answer: the running count estimate and its sound
/// `[lower, upper]` bracket, maintained by deltas between re-snapshots.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StandingBracket {
    /// The count estimate. On a fully trusted boundary this equals the
    /// re-executed plan exactly; quarantined edges contribute 0 here and
    /// widen the bounds instead (mirroring the runtime's refusal handling).
    pub value: f64,
    /// Sound lower bound on the re-executed value.
    pub lower: f64,
    /// Sound upper bound on the re-executed value.
    pub upper: f64,
    /// The registry epoch this bracket was last re-snapshot under.
    pub epoch: u64,
    /// Deltas folded in since that re-snapshot.
    pub deltas: u64,
}

impl StandingBracket {
    /// True when the bracket pins the value exactly (no quarantined
    /// widening has touched it since the last re-snapshot).
    pub fn is_exact(&self) -> bool {
        self.lower == self.upper
    }
}

/// Why a [`BracketUpdate`] was pushed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateCause {
    /// The subscription was just registered; this is its baseline.
    Registered,
    /// One ingested crossing moved the bracket.
    Delta,
    /// An epoch advance recomputed the bracket from the mirror.
    Resnapshot,
    /// Delta pushes were shed for a while (runtime brownout); this is the
    /// catch-up push carrying the current bracket, which absorbed every
    /// suppressed delta in between.
    Coalesced,
}

/// One pushed bracket change, delivered on the subscriber's channel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BracketUpdate {
    /// Which subscription moved.
    pub subscription: SubscriptionId,
    /// The registry epoch the new bracket belongs to.
    pub epoch: u64,
    /// The bracket after the change.
    pub bracket: StandingBracket,
    /// What triggered the push.
    pub cause: UpdateCause,
}

/// Why a subscription could not be registered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubscribeError {
    /// The sampled graph cannot cover the region at all (a query miss,
    /// §5.5): there is no boundary to maintain.
    Unresolvable,
}

impl fmt::Display for SubscribeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubscribeError::Unresolvable => {
                write!(f, "the sampled graph cannot resolve the region (query miss)")
            }
        }
    }
}

impl std::error::Error for SubscribeError {}

/// What [`SubscriptionRegistry::subscribe`] hands back.
#[derive(Clone, Copy, Debug)]
pub struct Registered {
    /// The new subscription's handle.
    pub id: SubscriptionId,
    /// Its baseline bracket (also pushed as the first update).
    pub bracket: StandingBracket,
    /// The compiled plan's cache identity (the subscription pins its own
    /// `Arc` of the plan, so eviction never affects a live subscription).
    pub plan_id: PlanId,
    /// Whether the region's plan came from the engine's cache.
    pub plan_cache_hit: bool,
    /// Boundary edges the subscription listens on.
    pub boundary_edges: usize,
}

/// What one ingested crossing did to the registry (the runtime folds this
/// into its metrics).
#[derive(Clone, Copy, Debug, Default)]
pub struct IngestObservation {
    /// Subscriptions whose bracket moved on this event.
    pub deltas: usize,
    /// The event arrived behind the watermark and left trusted counts
    /// untouched (quarantined widenings still apply — totals grow anyway).
    pub late: bool,
}

/// Point-in-time registry accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Live subscriptions.
    pub subscriptions: usize,
    /// Current epoch (bumped by every [`SubscriptionRegistry::advance_epoch`]).
    pub epoch: u64,
    /// Bracket deltas applied since construction.
    pub deltas_applied: u64,
    /// Per-subscription re-snapshots performed at epoch advances.
    pub resnapshots: u64,
    /// Events that arrived behind an edge watermark (counted toward totals
    /// but not toward trusted brackets — exactly like the shard dedup).
    pub late_ignored: u64,
    /// Delta pushes suppressed while push shedding was on (the brackets
    /// still moved; subscribers caught up via a `Coalesced` push).
    pub pushes_shed: u64,
}

struct Subscription {
    plan: Arc<QueryPlan>,
    bracket: StandingBracket,
    push: Option<Sender<BracketUpdate>>,
}

/// A certified net-flow interval for one quarantined edge, installed by the
/// degraded-mode imputation machinery (`stq_core::impute`): at certify time
/// the edge's net forward flow provably lay in `[lo, hi]`. `base` snapshots
/// the lifetime totals at that moment so later events widen the certificate
/// soundly (each forward event can raise the net by at most 1, each
/// backward event lower it by at most 1).
struct Certificate {
    lo: f64,
    hi: f64,
    base: [u64; 2],
}

/// The registry's replica of shard count state: what the shards have
/// *applied*, not merely what was sent to them.
struct Mirror {
    /// Per-edge applied crossings `[forward, backward]`, post accept rule.
    counts: Vec<[u64; 2]>,
    /// Highest accepted timestamp per edge direction (`-inf` when empty) —
    /// the accept predicate is `time >= watermark`, the same comparison
    /// `apply_crossing` makes against the form's last timestamp.
    watermark: Vec<[f64; 2]>,
    /// Certified intervals for quarantined edges: the fold intersects each
    /// with the lifetime worst case, so certificates only ever *tighten*
    /// the widening. Both intersection endpoints move in lockstep with the
    /// worst case under new events, which keeps the ±1 delta rule bitwise
    /// exact.
    certs: HashMap<usize, Certificate>,
}

/// The per-edge quarantine verdicts — "this edge's data cannot be trusted"
/// — as lock-free flags. The registry is their only writer (at construction
/// and in [`SubscriptionRegistry::advance_epoch`], under its lock); clones
/// are read-only views, so shard workers check the same flags the registry
/// folds by. A flag is never cleared: a migration moves an edge's form but
/// not its verdict.
#[derive(Clone, Debug)]
pub struct Quarantine(Arc<[AtomicBool]>);

impl Quarantine {
    /// Whether `edge` is quarantined (false for edges outside the store).
    pub fn contains(&self, edge: usize) -> bool {
        self.0.get(edge).is_some_and(|q| q.load(Ordering::Relaxed))
    }

    fn insert(&self, edges: impl IntoIterator<Item = usize>) {
        for e in edges {
            if let Some(q) = self.0.get(e) {
                q.store(true, Ordering::Relaxed);
            }
        }
    }
}

struct Inner {
    epoch: u64,
    next_id: u64,
    mirror: Mirror,
    /// Boundary edge → the subscriptions it affects, with the edge's inward
    /// orientation baked into each route (so delta application needs no
    /// plan lookup).
    routes: HashMap<usize, Vec<(u64, bool)>>,
    subs: HashMap<u64, Subscription>,
}

/// The standing-query registry: compiled plans, the edge→subscription
/// routing table, and the delta-maintained brackets.
///
/// All mutation happens under one internal mutex, so a subscriber's baseline
/// can never observe a half-applied event and concurrent ingest interleaves
/// with epoch advances atomically.
pub struct SubscriptionRegistry {
    engine: Arc<QueryEngine>,
    /// Per-edge lifetime crossing totals `[forward, backward]` — grown on
    /// every ingested event (late or not) *inside* the registry lock, and
    /// shared with the serving runtime, whose degradation bounds read them.
    totals: Arc<Vec<[AtomicU64; 2]>>,
    /// Quarantined edges: their shards refuse to serve them, so brackets
    /// widen by totals.
    quarantine: Quarantine,
    inner: Mutex<Inner>,
    deltas_applied: AtomicU64,
    resnapshots: AtomicU64,
    late_ignored: AtomicU64,
    /// While set, per-event delta pushes are suppressed (brackets still
    /// move under the lock, so correctness is untouched — only the push
    /// fan-out cost is shed). Flipped by the runtime's brownout controller.
    shed: AtomicBool,
    pushes_shed: AtomicU64,
}

impl SubscriptionRegistry {
    /// Builds a registry whose mirror starts at `store`'s current state
    /// (counts, watermarks and lifetime totals all derived from the forms),
    /// with the given initial quarantine set.
    pub fn new(
        engine: Arc<QueryEngine>,
        store: &FormStore,
        quarantined: impl IntoIterator<Item = usize>,
    ) -> Self {
        let n = store.num_edges();
        let mut totals = Vec::with_capacity(n);
        let mut counts = Vec::with_capacity(n);
        let mut watermark = Vec::with_capacity(n);
        for e in 0..n {
            let form = store.form(e);
            let (f, b) = (form.total(true) as u64, form.total(false) as u64);
            totals.push([AtomicU64::new(f), AtomicU64::new(b)]);
            counts.push([f, b]);
            watermark.push([
                form.timestamps(true).last().copied().unwrap_or(f64::NEG_INFINITY),
                form.timestamps(false).last().copied().unwrap_or(f64::NEG_INFINITY),
            ]);
        }
        let quarantine = Quarantine((0..n).map(|_| AtomicBool::new(false)).collect());
        quarantine.insert(quarantined);
        SubscriptionRegistry {
            engine,
            totals: Arc::new(totals),
            quarantine,
            inner: Mutex::new(Inner {
                epoch: 0,
                next_id: 0,
                mirror: Mirror { counts, watermark, certs: HashMap::new() },
                routes: HashMap::new(),
                subs: HashMap::new(),
            }),
            deltas_applied: AtomicU64::new(0),
            resnapshots: AtomicU64::new(0),
            late_ignored: AtomicU64::new(0),
            shed: AtomicBool::new(false),
            pushes_shed: AtomicU64::new(0),
        }
    }

    /// The shared lifetime totals (the runtime reads these for its
    /// worst-case degradation bounds). Bumped only by [`Self::on_ingest`].
    pub fn totals(&self) -> &Arc<Vec<[AtomicU64; 2]>> {
        &self.totals
    }

    /// The shared quarantine flags (shard workers refuse the edges set
    /// here). Extended only by [`Self::advance_epoch`].
    pub fn quarantine(&self) -> &Quarantine {
        &self.quarantine
    }

    /// Registers a standing region: compiles (or cache-loads) its plan,
    /// indexes its boundary in the routing table, snapshots a baseline
    /// bracket from the mirror, and optionally attaches a push channel.
    ///
    /// The baseline is pushed as the first [`BracketUpdate`]
    /// (`cause == Registered`). A subscriber that drops its receiver is
    /// auto-unsubscribed the next time a push fails.
    pub fn subscribe(
        &self,
        sensing: &SensingGraph,
        sampled: &SampledGraph,
        region: &QueryRegion,
        approx: Approximation,
        push: Option<Sender<BracketUpdate>>,
    ) -> Result<Registered, SubscribeError> {
        let (plan, plan_cache_hit) = self.engine.plan(sensing, sampled, region, approx);
        if plan.miss {
            return Err(SubscribeError::Unresolvable);
        }
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let id = inner.next_id;
        inner.next_id += 1;
        let bracket =
            fold_bracket(&plan, &inner.mirror, &self.totals, &self.quarantine, inner.epoch);
        for be in &plan.boundary {
            inner.routes.entry(be.edge).or_default().push((id, be.inward_forward));
        }
        let boundary_edges = plan.boundary.len();
        let update = BracketUpdate {
            subscription: SubscriptionId(id),
            epoch: inner.epoch,
            bracket,
            cause: UpdateCause::Registered,
        };
        if let Some(tx) = &push {
            let _ = tx.send(update);
        }
        let plan_id = plan.id;
        inner.subs.insert(id, Subscription { plan, bracket, push });
        Ok(Registered { id: SubscriptionId(id), bracket, plan_id, plan_cache_hit, boundary_edges })
    }

    /// Removes a subscription and its routing entries. Returns whether it
    /// existed.
    pub fn unsubscribe(&self, id: SubscriptionId) -> bool {
        remove_sub(&mut self.inner.lock(), id.0)
    }

    /// Routes one ingested crossing: grows the lifetime totals, applies the
    /// shard accept rule to the mirror, and moves every affected bracket by
    /// its delta (pushing updates as it goes).
    ///
    /// The serving runtime calls this for every event *before* handing it
    /// to the owning shard's ingest lane, so totals (and therefore
    /// degradation bounds) stay ahead of shard state at every instant.
    pub fn on_ingest(&self, c: &Crossing) -> IngestObservation {
        let mut inner = self.inner.lock();
        self.on_ingest_locked(&mut inner, c)
    }

    /// Routes a whole ingest batch under **one** lock acquisition, applying
    /// each event with semantics identical to [`on_ingest`](Self::on_ingest)
    /// in input order. Returns the aggregate observation (summed deltas;
    /// `late` set when any event was late). This is the registry half of the
    /// batched-ingest path: totals, watermarks, and bracket deltas for the
    /// batch land atomically with respect to epoch advances.
    pub fn on_ingest_batch(&self, batch: &[Crossing]) -> IngestObservation {
        if batch.is_empty() {
            return IngestObservation::default();
        }
        let mut inner = self.inner.lock();
        let mut agg = IngestObservation::default();
        for c in batch {
            let obs = self.on_ingest_locked(&mut inner, c);
            agg.deltas += obs.deltas;
            agg.late |= obs.late;
        }
        agg
    }

    fn on_ingest_locked(&self, inner: &mut Inner, c: &Crossing) -> IngestObservation {
        let dir = usize::from(!c.forward);
        self.totals[c.edge][dir].fetch_add(1, Ordering::Relaxed);
        // Same predicate as `apply_crossing`: reject iff strictly behind the
        // last accepted timestamp in this direction.
        let accepted = c.time >= inner.mirror.watermark[c.edge][dir];
        if accepted {
            inner.mirror.watermark[c.edge][dir] = c.time;
            inner.mirror.counts[c.edge][dir] += 1;
        } else {
            self.late_ignored.fetch_add(1, Ordering::Relaxed);
        }
        let quarantined = self.quarantine.contains(c.edge);
        // A late event on a trusted edge changes nothing a re-execution
        // would see; on a quarantined edge the totals still grew, so the
        // widening below must happen regardless.
        if !accepted && !quarantined {
            return IngestObservation { deltas: 0, late: true };
        }
        let Some(routes) = inner.routes.get(&c.edge) else {
            return IngestObservation { deltas: 0, late: !accepted };
        };
        let epoch = inner.epoch;
        let shedding = self.shed.load(Ordering::Relaxed);
        let mut deltas = 0usize;
        let mut shed_now = 0u64;
        let mut dead: Vec<u64> = Vec::new();
        // `routes` and `subs` are disjoint fields, so the hot path walks the
        // route list in place — no per-event allocation.
        for &(id, inward_forward) in routes {
            let Some(sub) = inner.subs.get_mut(&id) else { continue };
            let entered = c.forward == inward_forward;
            if quarantined {
                // Delta form of `worst_case`: its endpoints are ±(lifetime
                // total), so each event widens the matching one by exactly 1.
                if entered {
                    sub.bracket.upper += 1.0;
                } else {
                    sub.bracket.lower -= 1.0;
                }
            } else {
                let d = if entered { 1.0 } else { -1.0 };
                sub.bracket.value += d;
                sub.bracket.lower += d;
                sub.bracket.upper += d;
            }
            sub.bracket.deltas += 1;
            deltas += 1;
            if let Some(tx) = &sub.push {
                if shedding {
                    // Brownout: the bracket moved (so correctness holds) but
                    // the per-event push is shed; a Coalesced push catches
                    // the subscriber up when shedding lifts.
                    shed_now += 1;
                    continue;
                }
                let pushed = tx.send(BracketUpdate {
                    subscription: SubscriptionId(id),
                    epoch,
                    bracket: sub.bracket,
                    cause: UpdateCause::Delta,
                });
                if pushed.is_err() {
                    dead.push(id);
                }
            }
        }
        if shed_now > 0 {
            self.pushes_shed.fetch_add(shed_now, Ordering::Relaxed);
        }
        for id in dead {
            remove_sub(inner, id);
        }
        self.deltas_applied.fetch_add(deltas as u64, Ordering::Relaxed);
        IngestObservation { deltas, late: !accepted }
    }

    /// Starts a new epoch: sets the flags of `extra_quarantine`, then
    /// re-snapshots **every** subscription's bracket from the mirror through
    /// its compiled plan, stamping it with the new epoch. Returns the pushed
    /// re-snapshot updates (also delivered on each push channel).
    ///
    /// This is the sound hand-off around any event that invalidates running
    /// brackets — quarantine extension, repair, supervisor crash-recovery.
    /// Because the bracket is overwritten wholesale under the same lock that
    /// applies deltas, a delta from before the epoch advance can never leak
    /// into the new epoch's bracket.
    pub fn advance_epoch(
        &self,
        extra_quarantine: impl IntoIterator<Item = usize>,
    ) -> Vec<BracketUpdate> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        inner.epoch += 1;
        self.quarantine.insert(extra_quarantine);
        let epoch = inner.epoch;
        let mut out = Vec::with_capacity(inner.subs.len());
        let mut dead: Vec<u64> = Vec::new();
        let mut ids: Vec<u64> = inner.subs.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let sub = inner.subs.get_mut(&id).expect("subscription present");
            let bracket =
                fold_bracket(&sub.plan, &inner.mirror, &self.totals, &self.quarantine, epoch);
            sub.bracket = bracket;
            let update = BracketUpdate {
                subscription: SubscriptionId(id),
                epoch,
                bracket,
                cause: UpdateCause::Resnapshot,
            };
            if let Some(tx) = &sub.push {
                if tx.send(update).is_err() {
                    dead.push(id);
                }
            }
            out.push(update);
        }
        for id in dead {
            remove_sub(inner, id);
        }
        self.resnapshots.fetch_add(out.len() as u64, Ordering::Relaxed);
        out
    }

    /// Turns per-event delta-push shedding on or off (the runtime's
    /// brownout controller drives this). While shedding, brackets keep
    /// moving under the lock but nothing is pushed. Turning shedding *off*
    /// pushes every push-attached subscription's current bracket once
    /// (`cause == Coalesced`) so subscribers catch up on everything they
    /// missed in one update; those updates are also returned. Turning it on
    /// (or re-asserting the current state) returns nothing.
    pub fn set_shed_pushes(&self, on: bool) -> Vec<BracketUpdate> {
        // Under the inner lock so the flag flip is atomic with respect to
        // in-flight `on_ingest` calls: no delta can race between the flag
        // going false and the coalesced catch-up pushes below.
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let was = self.shed.swap(on, Ordering::Relaxed);
        if on || !was {
            return Vec::new();
        }
        let epoch = inner.epoch;
        let mut out = Vec::new();
        let mut dead: Vec<u64> = Vec::new();
        let mut ids: Vec<u64> = inner.subs.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let sub = inner.subs.get(&id).expect("subscription present");
            let Some(tx) = &sub.push else { continue };
            let update = BracketUpdate {
                subscription: SubscriptionId(id),
                epoch,
                bracket: sub.bracket,
                cause: UpdateCause::Coalesced,
            };
            if tx.send(update).is_err() {
                dead.push(id);
            } else {
                out.push(update);
            }
        }
        for id in dead {
            remove_sub(inner, id);
        }
        out
    }

    /// Whether per-event delta pushes are currently shed.
    pub fn shedding_pushes(&self) -> bool {
        self.shed.load(Ordering::Relaxed)
    }

    /// Installs a certified net-forward-flow interval `[lo, hi]` for a
    /// quarantined edge (from the degraded-mode conservation-interval
    /// imputer). The current lifetime totals are captured as the
    /// certificate's base, so later events widen it soundly. Folds
    /// intersect the certificate with the lifetime worst case — running
    /// brackets pick it up at the next [`Self::advance_epoch`].
    ///
    /// Returns `false` (and installs nothing) when the edge is not
    /// quarantined or the interval is not finite — certificates only make
    /// sense where the worst-case widening applies.
    pub fn certify_quarantined(&self, edge: usize, lo: f64, hi: f64) -> bool {
        if !(lo.is_finite() && hi.is_finite() && lo <= hi) || edge >= self.totals.len() {
            return false;
        }
        let mut inner = self.inner.lock();
        if !self.quarantine.contains(edge) {
            return false;
        }
        let base = [
            self.totals[edge][0].load(Ordering::Relaxed),
            self.totals[edge][1].load(Ordering::Relaxed),
        ];
        inner.mirror.certs.insert(edge, Certificate { lo, hi, base });
        true
    }

    /// How many quarantined edges currently carry a certified interval.
    pub fn certified_edges(&self) -> usize {
        self.inner.lock().mirror.certs.len()
    }

    /// The current bracket of one subscription.
    pub fn bracket(&self, id: SubscriptionId) -> Option<StandingBracket> {
        self.inner.lock().subs.get(&id.0).map(|s| s.bracket)
    }

    /// All live `(id, bracket)` pairs, sorted by id.
    pub fn brackets(&self) -> Vec<(SubscriptionId, StandingBracket)> {
        let inner = self.inner.lock();
        let mut v: Vec<(SubscriptionId, StandingBracket)> =
            inner.subs.iter().map(|(&id, s)| (SubscriptionId(id), s.bracket)).collect();
        v.sort_unstable_by_key(|&(id, _)| id);
        v
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().epoch
    }

    /// Live subscription count.
    pub fn len(&self) -> usize {
        self.inner.lock().subs.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time accounting.
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            subscriptions: self.len(),
            epoch: self.epoch(),
            deltas_applied: self.deltas_applied.load(Ordering::Relaxed),
            resnapshots: self.resnapshots.load(Ordering::Relaxed),
            late_ignored: self.late_ignored.load(Ordering::Relaxed),
            pushes_shed: self.pushes_shed.load(Ordering::Relaxed),
        }
    }
}

fn remove_sub(inner: &mut Inner, id: u64) -> bool {
    let Some(sub) = inner.subs.remove(&id) else { return false };
    for be in &sub.plan.boundary {
        if let Some(routes) = inner.routes.get_mut(&be.edge) {
            routes.retain(|&(sid, _)| sid != id);
            if routes.is_empty() {
                inner.routes.remove(&be.edge);
            }
        }
    }
    true
}

/// The worst case of one boundary edge nobody can read: its lifetime totals
/// oriented inward, `[−total_out, +total_in]`. Every net inward count the
/// edge ever reported lies inside, so substituting it for a missing term
/// keeps any boundary fold sound — the serving runtime's aggregator uses it
/// for every unread edge, this registry for quarantined ones.
pub fn worst_case(totals: &[[AtomicU64; 2]], be: BoundaryEdge) -> (f64, f64) {
    let fwd = totals[be.edge][0].load(Ordering::Relaxed) as f64;
    let bwd = totals[be.edge][1].load(Ordering::Relaxed) as f64;
    let (total_in, total_out) = if be.inward_forward { (fwd, bwd) } else { (bwd, fwd) };
    (-total_out, total_in)
}

/// The baseline fold: net live occupancy along the plan's boundary, in plan
/// order — term-for-term the fold the serving runtime's aggregator performs
/// for a snapshot query at a time past every ingested event. Trusted edges
/// contribute their net inward count to all three components; quarantined
/// edges contribute their [`worst_case`] to the bounds only.
fn fold_bracket(
    plan: &QueryPlan,
    mirror: &Mirror,
    totals: &[[AtomicU64; 2]],
    quarantine: &Quarantine,
    epoch: u64,
) -> StandingBracket {
    let (mut value, mut lower, mut upper) = (0.0f64, 0.0f64, 0.0f64);
    for be in &plan.boundary {
        if quarantine.contains(be.edge) {
            let (mut edge_lo, mut edge_hi) = worst_case(totals, *be);
            if let Some(cert) = mirror.certs.get(&be.edge) {
                // Certified net forward flow at certify time, widened by the
                // events since (forward raises the net by ≤ 1 each, backward
                // lowers it by ≤ 1 each), oriented inward, intersected with
                // the lifetime worst case. Both endpoints then move in
                // lockstep with the worst case, so the ±1 delta rule in
                // `on_ingest` stays bitwise exact for certified edges too.
                let fwd = totals[be.edge][0].load(Ordering::Relaxed) as f64;
                let bwd = totals[be.edge][1].load(Ordering::Relaxed) as f64;
                let fwd_since = fwd - cert.base[0] as f64;
                let bwd_since = bwd - cert.base[1] as f64;
                let (c_lo, c_hi) = if be.inward_forward {
                    (cert.lo - bwd_since, cert.hi + fwd_since)
                } else {
                    (-cert.hi - fwd_since, -cert.lo + bwd_since)
                };
                edge_lo = edge_lo.max(c_lo);
                edge_hi = edge_hi.min(c_hi);
            }
            lower += edge_lo;
            upper += edge_hi;
        } else {
            let fwd = mirror.counts[be.edge][0] as f64;
            let bwd = mirror.counts[be.edge][1] as f64;
            let net = if be.inward_forward { fwd - bwd } else { bwd - fwd };
            value += net;
            lower += net;
            upper += net;
        }
    }
    StandingBracket { value, lower, upper, epoch, deltas: 0 }
}
