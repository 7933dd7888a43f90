//! The web tier's serving path: multi-get, miss handling, response times.

use elmem_hash::HashRing;
use elmem_store::Fill;
use elmem_util::{DetRng, ExpDraws, KeyId, NodeId, NodeMap, SimTime};
use elmem_workload::{Keyspace, WebRequest};

use crate::breaker::{BreakerState, CircuitBreaker};
use crate::config::ClusterConfig;
use crate::db::DbModel;
use crate::telemetry::{ClusterTelemetry, LookupClass};
use crate::tier::CacheTier;
use elmem_util::TelemetryConfig;

/// Key count from which [`Cluster::prefill`] fans out (two blocks). Fanned
/// fills won 1.36–1.39× from 40 k keys up on two free vCPUs, but lose 7–10 %
/// whenever the box time-slices them onto one core (EXPERIMENTS.md E24); the
/// benchmark's 40 k-key `serve_hot` build stays on one thread (E39).
pub const PREFILL_FANOUT_MIN: usize = 2 * PREFILL_BLOCK;

/// Keys a prefill pulls per fork-join (256 KiB; a fanned one holds two): the
/// thread a join spawns per extra worker (≈ 60 µs) is under 2 % of its sets.
const PREFILL_BLOCK: usize = 1 << 15;
const _: () = assert!(PREFILL_BLOCK <= 1 << 16, "a block position is a u16");

/// Result of serving one web request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestOutcome {
    /// The request's response time (weighted average of per-item latencies
    /// plus web-tier overhead, per §V-A).
    pub rt: SimTime,
    /// When the last item fetch completed (used for timeline bucketing).
    pub completion: SimTime,
    /// Cache lookups that hit.
    pub hits: u64,
    /// Total cache lookups.
    pub lookups: u64,
}

impl RequestOutcome {
    /// Response time in fractional milliseconds.
    pub fn rt_ms(&self) -> f64 {
        self.rt.as_millis_f64()
    }
}

/// The full serving stack: cache tier + database + web-tier behaviour.
///
/// A `get` that hits is answered in cache latency; a miss goes to the
/// database (absorbing its queueing delay) and the fetched pair is inserted
/// into the responsible cache node, "possibly leading to evictions" (§V-A).
///
/// A `get` routed to a node that cannot answer — crashed, powered off, or
/// inside a NIC partition window — costs the client its configured
/// `client_timeout` before falling back to the database. A per-node
/// [`CircuitBreaker`] bounds that price: after a streak of timeouts the
/// breaker opens and subsequent lookups fail over immediately, re-probing
/// the node once per cooldown.
///
/// For the CacheScale comparator (§V-B4), a *secondary ring* can be armed:
/// misses on the primary retry on the secondary's node; secondary hits are
/// *promoted* (migrated) to the primary node.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// The cache tier.
    pub tier: CacheTier,
    /// The database model.
    pub db: DbModel,
    keyspace: Keyspace,
    /// Exponential get latencies around `mc_latency`, one per lookup.
    mc_latency: ExpDraws,
    secondary: Option<HashRing>,
    promoted: u64,
    // Id-indexed: walked once per lookup (hot path).
    breakers: NodeMap<CircuitBreaker>,
    client_timeouts: u64,
    fast_failovers: u64,
    telemetry: ClusterTelemetry,
}

impl Cluster {
    /// Builds the stack from a config, a keyspace and an RNG.
    pub fn new(config: ClusterConfig, keyspace: Keyspace, rng: DetRng) -> Self {
        let db = DbModel::new(
            config.db_servers,
            config.db_service,
            config.db_shed_delay,
            rng.split("db"),
        );
        let mc_latency = ExpDraws::new(
            rng.split("mc-latency"),
            1.0 / config.mc_latency.as_secs_f64(),
        );
        Cluster {
            tier: CacheTier::new(config),
            db,
            keyspace,
            mc_latency,
            secondary: None,
            promoted: 0,
            breakers: NodeMap::new(),
            client_timeouts: 0,
            fast_failovers: 0,
            telemetry: ClusterTelemetry::default(),
        }
    }

    /// The keyspace driving value sizes.
    pub fn keyspace(&self) -> &Keyspace {
        &self.keyspace
    }

    /// Arms event tracing per the given config. Histograms and per-node
    /// counters are always recorded; only the trace needs arming.
    pub fn set_telemetry_config(&mut self, config: &TelemetryConfig) {
        self.telemetry.configure(config);
    }

    /// The serving path's telemetry (histograms, counters, event trace).
    pub fn telemetry(&self) -> &ClusterTelemetry {
        &self.telemetry
    }

    /// Mutable telemetry access — the control plane records its events
    /// (probe outcomes, migration phases, scaling decisions) into the same
    /// trace so one dump holds the whole story in one clock.
    pub fn telemetry_mut(&mut self) -> &mut ClusterTelemetry {
        &mut self.telemetry
    }

    /// Serves one web request at its arrival time.
    pub fn handle(&mut self, req: &WebRequest) -> RequestOutcome {
        let now = req.arrival;
        let mut hits = 0u64;
        let mut sum = SimTime::ZERO;
        let mut worst = SimTime::ZERO;
        for &key in &req.keys {
            let (latency, hit) = self.lookup_and_fill(key, now);
            if hit {
                hits += 1;
            }
            sum += latency;
            worst = worst.max(latency);
        }
        let overhead = self.tier.config().web_overhead;
        let mean = if req.keys.is_empty() {
            SimTime::ZERO
        } else {
            sum / req.keys.len() as u64
        };
        let outcome = RequestOutcome {
            rt: overhead + mean,
            completion: now + overhead + worst,
            hits,
            lookups: req.keys.len() as u64,
        };
        self.telemetry.on_request(outcome.rt);
        outcome
    }

    /// One cache lookup with fill-on-miss; returns (latency, hit).
    ///
    /// An unreachable owner (crashed, powered off, partitioned) or one so
    /// slow-linked that a get would outlast `client_timeout` goes through
    /// [`Self::failover`]: the client pays the timeout (unless the node's
    /// breaker is already open) and fetches from the database instead.
    pub fn lookup_and_fill(&mut self, key: KeyId, now: SimTime) -> (SimTime, bool) {
        let Some(node_id) = self.tier.node_for_key(key) else {
            // No cache tier at all: straight to the database.
            let latency = self.db.fetch(now).completion() - now;
            self.telemetry.on_lookup(None, LookupClass::Miss, latency);
            return (latency, false);
        };
        // One jitter draw per lookup, taken before the reachability
        // decision: the jitter stream's order is part of every pinned run.
        let jittered = self.mc_latency.draw();
        let config = self.tier.config();
        let (timeout, breaker_config) = (config.client_timeout, config.breaker);
        // Invariant: every ring member resolves. The tier never drops a
        // `CacheNode` (power-off and crash keep the slot) and `commit_add`
        // refuses an id it holds no node for. Resolved once per lookup;
        // everything below touches the other fields of `self` directly so
        // this borrow can live through the hit path.
        let node = self.tier.node_mut(node_id).expect("ring member has a node");
        // A degraded NIC stretches the get by the link's slowdown factor;
        // past the client timeout the node is as good as dead. A healthy
        // link's factor is exactly 1.0, and `mul_f64(1.0)` is the identity
        // below 2^53 ns — a jitter draw is at most 37 mean latencies.
        let slowdown = node.link.slowdown_factor();
        let cache_latency = if slowdown == 1.0 {
            jittered
        } else {
            jittered.mul_f64(slowdown)
        };
        if !node.is_reachable(now) || cache_latency >= timeout {
            let latency = self.failover(node_id, now);
            self.telemetry
                .on_lookup(Some(node_id), LookupClass::Failover, latency);
            return (latency, false);
        }
        // Enforce the breaker even when the node is reachable again: an
        // open breaker fails over fast until its cooldown elapses, and the
        // first allowed request is the half-open probe. Without this gate
        // a heal inside the cooldown would jump the breaker open → closed
        // without ever probing. The breaker is created on first touch
        // either way (`breaker_state` reports it), but a settled one —
        // every healthy node's, on every lookup — is left alone: `allows`
        // would return true, `record_success` would change nothing, and
        // both `on_breaker` calls would see closed → closed and emit
        // nothing.
        let breaker = self
            .breakers
            .get_or_insert_with(node_id, || CircuitBreaker::new(breaker_config));
        if !breaker.is_settled() {
            let before = breaker.state();
            let allowed = breaker.allows(now);
            let probing = breaker.state();
            if !allowed {
                self.telemetry.on_breaker(now, node_id, before, probing);
                self.fast_failovers += 1;
                self.telemetry.on_fast_failover(now, node_id);
                let fetch = self.db.fetch(now);
                let latency = fetch.completion() - now;
                self.telemetry
                    .on_lookup(Some(node_id), LookupClass::Failover, latency);
                return (latency, false);
            }
            breaker.record_success(now);
            let after = breaker.state();
            self.telemetry.on_breaker(now, node_id, before, probing);
            self.telemetry.on_breaker(now, node_id, probing, after);
        }
        if node.store.get(key, now).is_some() {
            self.telemetry
                .on_lookup(Some(node_id), LookupClass::Hit, cache_latency);
            return (cache_latency, true);
        }
        // CacheScale path: retry on the secondary (retiring) nodes.
        if let Some(promoted) = self.try_secondary(key, node_id, now) {
            self.telemetry
                .on_lookup(Some(node_id), LookupClass::Hit, promoted);
            return (promoted, true);
        }
        let latency = self.fetch_and_fill(key, node_id, now) + cache_latency;
        self.telemetry
            .on_lookup(Some(node_id), LookupClass::Miss, latency);
        (latency, false)
    }

    /// The miss path's tail: fetch `key` from the database and insert it
    /// on its owner; returns the fetch's latency. A shed fetch (database
    /// overloaded) returns no data: the client eats the timeout and
    /// nothing is cached.
    fn fetch_and_fill(&mut self, key: KeyId, owner: NodeId, now: SimTime) -> SimTime {
        let fetch = self.db.fetch(now);
        if fetch.is_served() {
            let size = self.keyspace.value_size(key);
            // The owner is resolved a second time on a miss only:
            // `try_secondary` needed the whole tier in between.
            let node = self.tier.node_mut(owner).expect("ring member has a node");
            let _ = node.store.set(key, size, now);
        }
        fetch.completion() - now
    }

    /// A lookup whose owner cannot answer. With the breaker closed the
    /// client blocks for its full `client_timeout` before going to the
    /// database (the fetch starts only once it gives up); with the breaker
    /// open it fails over immediately.
    fn failover(&mut self, node_id: NodeId, now: SimTime) -> SimTime {
        let timeout = self.tier.config().client_timeout;
        // Capture breaker state around each step so the trace sees every
        // edge (an open → half-open → open probe cycle is two events).
        // All breaker steps run on one map walk; the trace events are
        // emitted afterwards in the same order as before.
        let breaker = self.breaker(node_id);
        let before = breaker.state();
        let allowed = breaker.allows(now);
        let probing = breaker.state();
        let after = if allowed {
            breaker.record_failure(now);
            Some(breaker.state())
        } else {
            None
        };
        self.telemetry.on_breaker(now, node_id, before, probing);
        let charged = if let Some(after) = after {
            self.telemetry.on_breaker(now, node_id, probing, after);
            self.client_timeouts += 1;
            self.telemetry.on_client_timeout(now, node_id);
            timeout
        } else {
            self.fast_failovers += 1;
            self.telemetry.on_fast_failover(now, node_id);
            SimTime::ZERO
        };
        let fetch = self.db.fetch(now + charged);
        fetch.completion() - now
    }

    #[inline]
    fn breaker(&mut self, node_id: NodeId) -> &mut CircuitBreaker {
        let config = self.tier.config().breaker;
        self.breakers
            .get_or_insert_with(node_id, || CircuitBreaker::new(config))
    }

    fn try_secondary(&mut self, key: KeyId, primary: NodeId, now: SimTime) -> Option<SimTime> {
        let ring = self.secondary.as_ref()?;
        let sec_node = ring.node_for(key)?;
        if sec_node == primary {
            return None;
        }
        let item = {
            let node = self.tier.node_mut(sec_node).ok()?;
            if !node.is_reachable(now) {
                return None;
            }
            node.store.get(key, now)?
        };
        // Promote: move the pair to the primary node (CacheScale migration).
        let moved = {
            let node = self.tier.node_mut(sec_node).expect("checked above");
            node.store.delete(key)
        };
        if moved {
            let node = self.tier.node_mut(primary).expect("member node exists");
            if node.is_online() && node.store.set(key, item.value_size, now).is_ok() {
                self.promoted += 1;
            }
        }
        // Two cache hops: primary miss + secondary hit.
        Some(self.mc_latency.draw() + self.mc_latency.draw())
    }

    /// Arms the CacheScale secondary ring (the pre-scaling membership whose
    /// retiring nodes act as a secondary cache).
    pub fn arm_secondary(&mut self, ring: HashRing) {
        self.secondary = Some(ring);
    }

    /// Disarms the secondary ring (CacheScale's discard step).
    pub fn disarm_secondary(&mut self) {
        self.secondary = None;
    }

    /// Whether a secondary ring is armed.
    pub fn secondary_armed(&self) -> bool {
        self.secondary.is_some()
    }

    /// Items promoted from secondary to primary (CacheScale metric).
    pub fn promoted(&self) -> u64 {
        self.promoted
    }

    /// Lookups that paid the full `client_timeout` against an unreachable
    /// node.
    pub fn client_timeouts(&self) -> u64 {
        self.client_timeouts
    }

    /// Lookups that failed over to the database immediately because the
    /// node's breaker was open.
    pub fn fast_failovers(&self) -> u64 {
        self.fast_failovers
    }

    /// Total breaker state transitions across all nodes (flap metric).
    pub fn breaker_transitions(&self) -> u64 {
        self.breakers.values().map(|b| b.transitions()).sum()
    }

    /// The breaker state for one node, if any request ever touched it.
    pub fn breaker_state(&self, node_id: NodeId) -> Option<BreakerState> {
        self.breakers.get(node_id).map(|b| b.state())
    }

    /// Pre-fills caches by setting keys directly on their current owners,
    /// the `i`-th at `start + i ns` (later keys end up hotter), to start an
    /// experiment warm like the paper's steady state. Keys are streamed 32 Ki
    /// at a time; from [`PREFILL_FANOUT_MIN`] promised keys on, up to
    /// `par_jobs()` workers route and set them. Every store ends
    /// byte-identical to setting the keys one by one (DESIGN.md §10).
    pub fn prefill(&mut self, keys: impl Iterator<Item = KeyId>, start: SimTime) {
        // Every caller passes a rank range, whose lower bound is exact; an
        // iterator that cannot say how long it is fills on one thread.
        let jobs = if keys.size_hint().0 >= PREFILL_FANOUT_MIN {
            elmem_util::par::par_jobs()
        } else {
            1
        };
        self.prefill_blocks(keys, start, jobs);
    }

    /// [`Self::prefill`] over `jobs` workers (DESIGN.md §10): the join that
    /// pulls block `b` sets each worker's stores from block `b − 1`'s routed
    /// positions, in stream order, then routes a share of block `b`; one
    /// worker routes block `b`, then sets it. The empty last block finishes
    /// every [`Fill`]; a repeated key, or one past the bits, its owner's first.
    fn prefill_blocks(
        &mut self,
        mut keys: impl Iterator<Item = KeyId>,
        start: SimTime,
        jobs: usize,
    ) {
        /// Stream positions `base..` routed per share, per store, into
        /// `keys`; and the stores to finish before they take them.
        struct Block {
            base: u64,
            keys: Vec<KeyId>,
            routed: Vec<Vec<Vec<u16>>>,
            finish_first: Vec<bool>,
        }
        let keyspace = &self.keyspace;
        let (membership, nodes) = self.tier.membership_and_nodes_mut();
        let ring = membership.ring();
        let mut store_of = NodeMap::new();
        let mut fills = Vec::new();
        for node in nodes.filter(|n| n.is_online() && membership.members().contains(&n.id())) {
            store_of.insert(node.id(), fills.len());
            fills.push(node.store.fill());
        }
        let stores = fills.len();
        if stores == 0 {
            return; // no member can take a set
        }
        let jobs = jobs.clamp(1, stores);
        // Worker `s % jobs` holds store `s`, as `(s, its fill)`.
        let mut hands: Vec<Vec<(usize, Fill)>> = (0..jobs).map(|_| Vec::new()).collect();
        for (s, fill) in fills.into_iter().enumerate() {
            hands[s % jobs].push((s, fill));
        }
        let store = |key| store_of.get(ring.node_for(key)?).copied();

        // A worker's two halves of a join: set its stores from a routed
        // block, finishing them if it is the `last`; route share `w` of a
        // block's keys.
        let set = |hand: &mut Vec<(usize, Fill)>, block: &Block, last: bool| {
            for (s, fill) in hand.iter_mut() {
                if block.finish_first[*s] {
                    fill.finish();
                }
                for &i in block.routed.iter().flat_map(|share| &share[*s]) {
                    let key = block.keys[usize::from(i)];
                    let at = start + SimTime::from_nanos(block.base + u64::from(i));
                    let _ = fill.set(key, keyspace.value_size(key), at);
                }
                if last {
                    fill.finish();
                }
            }
        };
        let route = |w: usize, keys: &[KeyId], routed: &mut Vec<Vec<u16>>| {
            routed.iter_mut().for_each(Vec::clear);
            let share = keys.len().div_ceil(jobs);
            for (&key, i) in keys.iter().zip(0..).skip(w * share).take(share) {
                if let Some(s) = store(key) {
                    routed[s].push(i);
                }
            }
        };
        let block = || Block {
            base: 0,
            keys: Vec::new(),
            routed: vec![vec![Vec::new(); stores]; jobs],
            finish_first: vec![false; stores],
        };
        let (mut prev, mut cur) = (block(), block());
        let (mut seen, mut pulled) = (vec![0u64; keyspace.n_keys().div_ceil(64) as usize], 0);
        loop {
            cur.base = pulled;
            cur.keys.clear();
            cur.finish_first.fill(false);
            for key in keys.by_ref().take(PREFILL_BLOCK) {
                let bit = 1u64 << (key.0 % 64);
                match seen.get_mut((key.0 / 64) as usize) {
                    Some(word) if *word & bit == 0 => *word |= bit,
                    _ => store(key)
                        .into_iter()
                        .for_each(|s| cur.finish_first[s] = true),
                }
                cur.keys.push(key);
            }
            pulled += cur.keys.len() as u64;
            let last = cur.keys.is_empty();
            if jobs == 1 {
                // Nothing to overlap: route a block, then set it.
                route(0, &cur.keys, &mut cur.routed[0]);
                set(&mut hands[0], &cur, last);
            } else {
                // Each worker sets `prev`, then routes its share of `cur`;
                // this thread is the first, and the scope re-raises a panic.
                let (ready, next) = (&prev, &cur.keys[..]);
                let mut work = (0..).zip(hands.iter_mut().zip(&mut cur.routed));
                let (_, (mine, my_routed)) = work.next().expect("one worker");
                std::thread::scope(|s| {
                    for (w, (hand, routed)) in work {
                        s.spawn(move || {
                            set(hand, ready, last);
                            route(w, next, routed);
                        });
                    }
                    set(mine, ready, last);
                    route(0, next, my_routed);
                });
                std::mem::swap(&mut prev, &mut cur);
            }
            if last {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use proptest::prelude::*;

    fn cluster() -> Cluster {
        Cluster::new(
            ClusterConfig::small_test(),
            Keyspace::new(10_000, 0),
            DetRng::seed(1),
        )
    }

    fn req(arrival_ms: u64, keys: &[u64]) -> WebRequest {
        WebRequest {
            arrival: SimTime::from_millis(arrival_ms),
            keys: keys.iter().map(|&k| KeyId(k)).collect(),
        }
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = cluster();
        let first = c.handle(&req(0, &[1]));
        assert_eq!(first.hits, 0);
        assert_eq!(first.lookups, 1);
        let second = c.handle(&req(100, &[1]));
        assert_eq!(second.hits, 1);
        // Hits are much faster than DB misses.
        assert!(second.rt < first.rt);
    }

    #[test]
    fn rt_includes_web_overhead() {
        let mut c = cluster();
        c.prefill((0..10).map(KeyId), SimTime::ZERO);
        let out = c.handle(&req(10, &[1, 2, 3]));
        assert!(out.rt >= c.tier.config().web_overhead);
        assert_eq!(out.hits, 3);
    }

    #[test]
    fn miss_fills_cache_on_owner() {
        let mut c = cluster();
        let key = KeyId(77);
        let owner = c.tier.node_for_key(key).unwrap();
        c.handle(&req(0, &[77]));
        assert!(c.tier.node(owner).unwrap().store.contains(key));
    }

    #[test]
    fn prefill_makes_requests_hit() {
        let mut c = cluster();
        c.prefill((0..1000).map(KeyId), SimTime::ZERO);
        let out = c.handle(&req(1, &[5, 500, 999]));
        assert_eq!(out.hits, 3);
    }

    /// What a prefill means — one loop, one key after another — kept here
    /// as the reference [`Cluster::prefill_blocks`] is compared against.
    fn prefill_reference(c: &mut Cluster, keys: impl Iterator<Item = KeyId>, start: SimTime) {
        let mut t = start;
        for key in keys {
            if let Some(node_id) = c.tier.node_for_key(key) {
                let size = c.keyspace.value_size(key);
                let node = c.tier.node_mut(node_id).unwrap();
                if node.is_online() {
                    let _ = node.store.set(key, size, t);
                }
                t += SimTime::from_nanos(1);
            }
        }
    }

    fn assert_same_stores(a: &Cluster, b: &Cluster, what: &str) {
        for (x, y) in a.tier.iter_nodes().zip(b.tier.iter_nodes()) {
            let id = x.id();
            assert_eq!(id, y.id(), "{what}");
            assert_eq!(x.is_online(), y.is_online(), "{what}: node {id}");
            assert_eq!(
                x.store.dump_metadata(),
                y.store.dump_metadata(),
                "{what}: node {id} dump"
            );
            assert_eq!(x.store.stats(), y.store.stats(), "{what}: node {id} stats");
            assert_eq!(y.store.audit(), Ok(()), "{what}: node {id} audit");
        }
    }

    #[test]
    fn prefill_fanout_is_byte_identical_to_serial() {
        // The same key stream through the reference loop, the block fill
        // (worker count forced) and the public entry, in three regimes on
        // the 4 x 4 MiB tier: the fill itself evicts none of its keys,
        // about 30 % and about 65 % (three blocks, a ragged tail, a fanned
        // public fill). Streams: plain; a key set twice, in the next block
        // at 80 k keys (its store finishes its fill early and takes the
        // rest one key at a time); the same key again in another routing
        // share than its first set at every job count above 1; a key past
        // the keyspace and the bits, twice (release builds only:
        // `value_size` debug-asserts the range); plain with node 1 offline
        // (its keys' timestamps consumed, their sets skipped), with nodes
        // 1 and 2 offline (4 jobs, 2 stores), and on 5 members. 3 jobs
        // deal 4 stores unevenly, 2 and 3 jobs 5 stores.
        let start = SimTime::from_millis(3);
        for (count, evicted) in [
            (4_000, 0.0..0.001),
            (25_000, 0.25..0.35),
            (80_000, 0.6..0.7),
        ] {
            let plain: Vec<KeyId> = (0..count).rev().map(KeyId).collect();
            // `key` once more at each position of `at`, latest first.
            let with = |key: u64, at: &[u64]| {
                let mut keys = plain.clone();
                at.iter().for_each(|&i| keys.insert(i as usize, KeyId(key)));
                keys
            };
            // (name, stream, members, offline members)
            let mut streams = vec![
                ("plain", plain.clone(), 4, &[][..]),
                ("repeat", with(count - 1, &[count / 2]), 4, &[]),
                ("other share", with(count - 1, &[5 * count / 8]), 4, &[]),
                ("offline", plain.clone(), 4, &[1]),
                ("two online", plain.clone(), 4, &[1, 2]),
                ("five members", plain.clone(), 5, &[]),
            ];
            if !cfg!(debug_assertions) {
                let beyond = with(count + 1_000, &[2 * count / 3, count / 3]);
                streams.push(("beyond", beyond, 4, &[]));
            }
            for (name, stream, members, offline) in streams {
                let build = || {
                    let config = ClusterConfig {
                        initial_nodes: members,
                        ..ClusterConfig::small_test()
                    };
                    let mut c = Cluster::new(config, Keyspace::new(count, 0), DetRng::seed(1));
                    c.tier
                        .power_off(&offline.iter().map(|&n| NodeId(n)).collect::<Vec<_>>());
                    c
                };
                let keys = || stream.iter().copied();
                let mut serial = build();
                prefill_reference(&mut serial, keys(), start);
                if name == "plain" {
                    let stores = serial.tier.iter_nodes().map(|n| n.store.stats());
                    let share = stores.map(|s| s.evictions).sum::<u64>() as f64 / count as f64;
                    assert!(evicted.contains(&share), "{count} keys evict {share}");
                }
                for jobs in [1, 2, 3, 4] {
                    let what = format!("{count} keys, {name} stream, {jobs} jobs");
                    let mut fanout = build();
                    fanout.prefill_blocks(keys(), start, jobs);
                    assert_same_stores(&serial, &fanout, &what);
                    // The public entry picks a side by key count and worker
                    // count; whichever it picks, nothing differs.
                    let mut public = build();
                    elmem_util::par::with_par_jobs(jobs, || public.prefill(keys(), start));
                    assert_same_stores(&serial, &public, &format!("{what} (public)"));
                }
            }
        }
    }

    #[test]
    fn prefill_without_a_fillable_member_is_a_noop() {
        let mut c = cluster();
        let members = c.tier.membership().members().to_vec();
        c.tier.power_off(&members);
        c.prefill_blocks((0..100).map(KeyId), SimTime::ZERO, 2);
        assert_eq!(c.tier.total_items(), 0);
    }

    #[test]
    fn scale_in_without_migration_causes_misses() {
        let mut c = cluster();
        c.prefill((0..1000).map(KeyId), SimTime::ZERO);
        // Find keys owned by node 0.
        let owned: Vec<u64> = (0..1000)
            .filter(|&k| c.tier.node_for_key(KeyId(k)) == Some(NodeId(0)))
            .collect();
        assert!(!owned.is_empty());
        c.tier.commit_remove(&[NodeId(0)]).unwrap();
        let out = c.handle(&req(1, &owned[..3.min(owned.len())]));
        assert_eq!(out.hits, 0, "keys formerly on node0 must now miss");
    }

    #[test]
    fn secondary_ring_promotes() {
        let mut c = cluster();
        c.prefill((0..2000).map(KeyId), SimTime::ZERO);
        let old_ring = c.tier.membership().ring().clone();
        // Retire node 0 from membership but keep it online (CacheScale).
        let victims: Vec<u64> = (0..2000)
            .filter(|&k| old_ring.node_for(KeyId(k)) == Some(NodeId(0)))
            .collect();
        c.tier.membership_remove_keep_online(&[NodeId(0)]).unwrap();
        c.arm_secondary(old_ring);
        let k = victims[0];
        let out = c.handle(&req(1, &[k]));
        assert_eq!(out.hits, 1, "secondary hit should count as hit");
        assert_eq!(c.promoted(), 1);
        // The item now lives on the primary owner.
        let new_owner = c.tier.node_for_key(KeyId(k)).unwrap();
        assert!(c.tier.node(new_owner).unwrap().store.contains(KeyId(k)));
        assert!(!c.tier.node(NodeId(0)).unwrap().store.contains(KeyId(k)));
    }

    #[test]
    fn disarm_secondary_stops_promotion() {
        let mut c = cluster();
        c.arm_secondary(c.tier.membership().ring().clone());
        assert!(c.secondary_armed());
        c.disarm_secondary();
        assert!(!c.secondary_armed());
    }

    #[test]
    fn empty_request_is_overhead_only() {
        let mut c = cluster();
        let out = c.handle(&req(0, &[]));
        assert_eq!(out.lookups, 0);
        assert_eq!(out.rt, c.tier.config().web_overhead);
    }

    /// A key owned by the given node, found by scanning key ids.
    fn key_on(c: &Cluster, node: NodeId) -> u64 {
        (0..10_000)
            .find(|&k| c.tier.node_for_key(KeyId(k)) == Some(node))
            .expect("some key hashes to the node")
    }

    #[test]
    fn crashed_node_lookup_pays_the_client_timeout() {
        let mut c = cluster();
        let k = key_on(&c, NodeId(0));
        c.tier.crash(NodeId(0)).unwrap();
        let (latency, hit) = c.lookup_and_fill(KeyId(k), SimTime::from_secs(1));
        assert!(!hit);
        assert!(
            latency >= c.tier.config().client_timeout,
            "dead-node lookup must cost at least the timeout, got {latency:?}"
        );
        assert_eq!(c.client_timeouts(), 1);
    }

    #[test]
    fn breaker_opens_and_failover_becomes_fast() {
        let mut c = cluster();
        let k = key_on(&c, NodeId(0));
        c.tier.crash(NodeId(0)).unwrap();
        let timeout = c.tier.config().client_timeout;
        let threshold = c.tier.config().breaker.threshold as u64;
        for i in 0..threshold {
            c.lookup_and_fill(KeyId(k), SimTime::from_secs(i));
        }
        assert_eq!(c.breaker_state(NodeId(0)), Some(BreakerState::Open));
        // Next lookup inside the cooldown: no timeout paid.
        let (latency, _) = c.lookup_and_fill(KeyId(k), SimTime::from_secs(threshold));
        assert!(latency < timeout, "open breaker must fail over fast");
        assert_eq!(c.fast_failovers(), 1);
        assert_eq!(c.client_timeouts(), threshold);
    }

    #[test]
    fn half_open_probe_closes_breaker_after_heal() {
        let mut c = cluster();
        let k = key_on(&c, NodeId(0));
        let cooldown = c.tier.config().breaker.cooldown;
        c.tier
            .node_mut(NodeId(0))
            .unwrap()
            .link
            .partition_until(SimTime::from_secs(2));
        for i in 0..3 {
            c.lookup_and_fill(KeyId(k), SimTime::from_millis(i));
        }
        assert_eq!(c.breaker_state(NodeId(0)), Some(BreakerState::Open));
        // Partition healed and cooldown elapsed: the probe succeeds.
        let probe_at = SimTime::from_secs(2) + cooldown;
        let (_, _) = c.lookup_and_fill(KeyId(k), probe_at);
        assert_eq!(c.breaker_state(NodeId(0)), Some(BreakerState::Closed));
        // Back to normal service afterwards.
        let (latency, _) = c.lookup_and_fill(KeyId(k), probe_at + SimTime::from_secs(1));
        assert!(latency < c.tier.config().client_timeout);
    }

    impl Cluster {
        /// `lookup_and_fill` as it was before the healthy-node lane, kept
        /// as the oracle: the owner re-resolved at each use, `mul_f64` on
        /// every lookup, and the full breaker sequence (`allows` →
        /// `record_success` → three state reads → two `on_breaker`s)
        /// whether or not the breaker is settled.
        fn lookup_and_fill_full_sequence(&mut self, key: KeyId, now: SimTime) -> (SimTime, bool) {
            let Some(node_id) = self.tier.node_for_key(key) else {
                let latency = self.db.fetch(now).completion() - now;
                self.telemetry.on_lookup(None, LookupClass::Miss, latency);
                return (latency, false);
            };
            let timeout = self.tier.config().client_timeout;
            let (reachable, slowdown) = {
                let node = self.tier.node(node_id).expect("member node exists");
                (node.is_reachable(now), node.link.slowdown_factor())
            };
            let cache_latency = self.mc_latency.draw().mul_f64(slowdown);
            if !reachable || cache_latency >= timeout {
                let latency = self.failover(node_id, now);
                self.telemetry
                    .on_lookup(Some(node_id), LookupClass::Failover, latency);
                return (latency, false);
            }
            let breaker = self.breaker(node_id);
            let before = breaker.state();
            let allowed = breaker.allows(now);
            let probing = breaker.state();
            if !allowed {
                self.telemetry.on_breaker(now, node_id, before, probing);
                self.fast_failovers += 1;
                self.telemetry.on_fast_failover(now, node_id);
                let fetch = self.db.fetch(now);
                let latency = fetch.completion() - now;
                self.telemetry
                    .on_lookup(Some(node_id), LookupClass::Failover, latency);
                return (latency, false);
            }
            breaker.record_success(now);
            let after = breaker.state();
            self.telemetry.on_breaker(now, node_id, before, probing);
            self.telemetry.on_breaker(now, node_id, probing, after);
            let hit = {
                let node = self.tier.node_mut(node_id).expect("member node exists");
                node.store.get(key, now).is_some()
            };
            if hit {
                self.telemetry
                    .on_lookup(Some(node_id), LookupClass::Hit, cache_latency);
                return (cache_latency, true);
            }
            if let Some(promoted) = self.try_secondary(key, node_id, now) {
                self.telemetry
                    .on_lookup(Some(node_id), LookupClass::Hit, promoted);
                return (promoted, true);
            }
            let fetch = self.db.fetch(now);
            if fetch.is_served() {
                let size = self.keyspace.value_size(key);
                let node = self.tier.node_mut(node_id).expect("member node exists");
                let _ = node.store.set(key, size, now);
            }
            let latency = fetch.completion() - now + cache_latency;
            self.telemetry
                .on_lookup(Some(node_id), LookupClass::Miss, latency);
            (latency, false)
        }
    }

    /// One step of a fault history against the 4-node test tier.
    #[derive(Debug, Clone)]
    enum Step {
        /// `count` lookups of `key`, 1 ms apart.
        Lookups {
            key: u64,
            count: u64,
        },
        Advance {
            ms: u64,
        },
        Partition {
            node: u32,
            ms: u64,
        },
        /// 40x degrades; 4 000x pushes a get past the client timeout.
        Slow {
            node: u32,
            factor: f64,
        },
        Restore {
            node: u32,
        },
        Crash {
            node: u32,
        },
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        // Lookups and clock jumps weighted up (the shim's `prop_oneof!`
        // takes no weights, so by repetition); cooldown is 5 s, so jumps
        // land on both sides of it.
        let lookups = || (0u64..40, 1u64..8).prop_map(|(key, count)| Step::Lookups { key, count });
        let advance = || (0u64..7_000).prop_map(|ms| Step::Advance { ms });
        prop_oneof![
            lookups(),
            lookups(),
            lookups(),
            advance(),
            advance(),
            (0u32..4, 1u64..9_000).prop_map(|(node, ms)| Step::Partition { node, ms }),
            (0u32..4, prop_oneof![Just(1.0), Just(40.0), Just(4_000.0)])
                .prop_map(|(node, factor)| Step::Slow { node, factor }),
            (0u32..4).prop_map(|node| Step::Restore { node }),
            (0u32..4).prop_map(|node| Step::Crash { node }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn healthy_lane_matches_the_full_breaker_sequence(
            steps in prop::collection::vec(step_strategy(), 1..60),
            seed in 0u64..1_000,
        ) {
            let mk = || {
                let mut c = Cluster::new(
                    ClusterConfig::small_test(),
                    Keyspace::new(10_000, seed),
                    DetRng::seed(seed),
                );
                c.set_telemetry_config(&TelemetryConfig::default());
                c.prefill((0..20).map(KeyId), SimTime::ZERO);
                c
            };
            let (mut lane, mut full) = (mk(), mk());
            let mut now = SimTime::from_secs(1);
            for step in steps {
                match step {
                    Step::Lookups { key, count } => {
                        for _ in 0..count {
                            prop_assert_eq!(
                                lane.lookup_and_fill(KeyId(key), now),
                                full.lookup_and_fill_full_sequence(KeyId(key), now)
                            );
                            now += SimTime::from_millis(1);
                        }
                    }
                    Step::Advance { ms } => now += SimTime::from_millis(ms),
                    Step::Partition { node, ms } => {
                        for c in [&mut lane, &mut full] {
                            let link = &mut c.tier.node_mut(NodeId(node)).unwrap().link;
                            link.partition_until(now + SimTime::from_millis(ms));
                        }
                    }
                    Step::Slow { node, factor } => {
                        for c in [&mut lane, &mut full] {
                            c.tier.node_mut(NodeId(node)).unwrap().link.apply_slowdown(factor);
                        }
                    }
                    Step::Restore { node } => {
                        for c in [&mut lane, &mut full] {
                            c.tier.node_mut(NodeId(node)).unwrap().link.restore_bandwidth();
                        }
                    }
                    Step::Crash { node } => {
                        for c in [&mut lane, &mut full] {
                            c.tier.crash(NodeId(node)).unwrap();
                        }
                    }
                }
                for node in (0..4).map(NodeId) {
                    prop_assert_eq!(lane.breaker_state(node), full.breaker_state(node));
                }
                prop_assert_eq!(lane.breaker_transitions(), full.breaker_transitions());
                prop_assert_eq!(lane.client_timeouts(), full.client_timeouts());
                prop_assert_eq!(lane.fast_failovers(), full.fast_failovers());
            }
            // Every traced event (breaker transitions, timeouts, fast
            // failovers), every histogram and counter, the database's
            // load and each store's contents.
            let (a, b) = (lane.telemetry(), full.telemetry());
            prop_assert_eq!(a.trace.to_vec(), b.trace.to_vec());
            prop_assert_eq!(a.trace.recorded(), b.trace.recorded());
            prop_assert_eq!(&a.get_hit, &b.get_hit);
            prop_assert_eq!(&a.get_miss, &b.get_miss);
            prop_assert_eq!(&a.timeout_path, &b.timeout_path);
            for node in (0..4).map(NodeId) {
                prop_assert_eq!(a.node_counters(node), b.node_counters(node));
                prop_assert_eq!(
                    lane.tier.node(node).unwrap().store.dump_metadata(),
                    full.tier.node(node).unwrap().store.dump_metadata()
                );
            }
            prop_assert_eq!(lane.db.fetches(), full.db.fetches());
        }
    }

    #[test]
    fn slow_link_stretches_hit_latency() {
        let mut c = cluster();
        c.prefill((0..1000).map(KeyId), SimTime::ZERO);
        let k = key_on(&c, NodeId(0));
        let (fast, hit) = c.lookup_and_fill(KeyId(k), SimTime::from_secs(1));
        assert!(hit);
        // Degrade the owner's NIC 50x: hits still land but cost more.
        c.tier
            .node_mut(NodeId(0))
            .unwrap()
            .link
            .apply_slowdown(50.0);
        let (slow, hit) = c.lookup_and_fill(KeyId(k), SimTime::from_secs(2));
        assert!(hit, "a slow link degrades, it does not kill");
        assert!(
            slow > fast * 5,
            "50x slowdown must be visible in hit latency ({fast:?} -> {slow:?})"
        );
    }

    #[test]
    fn new_draws_nothing() {
        // Both exponential streams fill their buffers at the first draw.
        let c = cluster();
        let debug = format!("{:?} {:?}", c.mc_latency, c.db);
        assert_eq!(debug.matches("pos: 64 }").count(), 2, "{debug}");
    }

    #[test]
    fn clone_mid_batch_serves_the_same_lookups() {
        // The benchmark clones its deployment for every repetition; a copy
        // taken 37 lookups in (mid-batch for both streams) must continue
        // exactly as the original, hits, misses and latencies alike.
        let mut c = cluster();
        c.prefill((0..3_000).map(KeyId), SimTime::ZERO);
        let key = |i: u64| KeyId(i * 7_919 % 10_000);
        for i in 0..37 {
            c.lookup_and_fill(key(i), SimTime::from_millis(i));
        }
        let mut copy = c.clone();
        for i in 37..10_037 {
            let now = SimTime::from_millis(i);
            assert_eq!(
                copy.lookup_and_fill(key(i), now),
                c.lookup_and_fill(key(i), now),
                "lookup {i}"
            );
        }
        assert_eq!(copy.db.fetches(), c.db.fetches());
    }
}
