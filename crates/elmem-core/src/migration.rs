//! The 3-phase migration (§III-D): metadata transfer, hotness comparison
//! (FuseCache), and data migration, with the per-phase cost model that
//! reproduces the paper's ~2-minute overhead breakdown (§V-B2).
//!
//! One engine — [`migrate`] — runs every direction through the same two
//! stages, **plan → price/ship**; the [`MigrateJob`] says which nodes move
//! data where and which rule selects what ships:
//!
//! * Scale-in: every retiring Agent hashes its keys against the *retained*
//!   membership and ships `(key, timestamp)` metadata to the target nodes;
//!   each retained Agent runs FuseCache per slab class over its own MRU
//!   dump plus the incoming lists; the Master then directs the retiring
//!   nodes to ship exactly the chosen KV pairs, which the retained nodes
//!   batch-import (prepending/merging at the MRU head, evicting strictly
//!   colder items).
//! * Scale-out (§III-D4): the same steps with the roles reversed — each
//!   existing node ships the keys that hash to the new nodes (≈ `1/(k+1)`
//!   of its keys); FuseCache is only needed if the shipped set exceeds the
//!   new node's capacity, so the comparison phases are zero-length.
//! * The Naive comparator (§V-B4): each retiring node ships a fixed share
//!   of its hottest items, no comparison.
//!
//! Every job runs supervised (retries, crash aborts) and journaled
//! (Master crash resume, DESIGN.md §13): both are arguments of the one
//! engine, and every import goes through the destination's ledger.

use std::collections::{BTreeSet, HashMap};

use elmem_cluster::{CacheNode, CacheTier};
use elmem_hash::HashRing;
use elmem_sim::fault::FaultInjector;
use elmem_sim::Link;
use elmem_store::{ClassId, Hotness, ImportMode, ItemMeta, SlabStore, KEY_BYTES, TIMESTAMP_BYTES};
use elmem_util::nodemap::NodeMap;
use elmem_util::par::{par_jobs, par_map_indexed};
pub use elmem_util::telemetry::MigrationPhase;
use elmem_util::{ByteSize, ElmemError, NodeId, SimTime};

use crate::fusecache::fusecache_instrumented;
use crate::journal::{
    JournalRecord, MasterPlan, MasterRecovery, MigrationJournal, MigrationKind, ReplayState,
    ShipmentManifest, ACK_DURABILITY_LAG, MASTER_RESTART_DELAY,
};

/// Per-(target, class) inbound metadata lists, keyed by source node.
type InboundMap = HashMap<(NodeId, ClassId), Vec<(NodeId, Vec<ItemMeta>)>>;

/// CPU-side cost constants of the migration pipeline, calibrated so the
/// paper-scale deployment (≈4 M items migrated) lands on the §V-B2
/// breakdown: score ≈20 s, hash+dump ≈50 s, metadata transfer ≈70 s,
/// FuseCache <2 s, data transfer ≈45 s, import ≈80 s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationCosts {
    /// Nanoseconds to score one slab (median probe + message), per node.
    pub score_ns_per_slab: u64,
    /// Nanoseconds to hash + dump one item's metadata on a retiring node.
    pub dump_ns_per_item: u64,
    /// Nanoseconds of serialization pipeline (tar + ssh) per item during
    /// the metadata transfer, on top of the wire time.
    pub metadata_ns_per_item: u64,
    /// Nanoseconds per hotness comparison inside FuseCache.
    pub fusecache_ns_per_comparison: u64,
    /// Nanoseconds of serialization pipeline per item during the data
    /// transfer, on top of the wire time.
    pub data_ns_per_item: u64,
    /// Nanoseconds to set one migrated item into Memcached on the target.
    pub import_ns_per_item: u64,
}

impl Default for MigrationCosts {
    fn default() -> Self {
        // Calibrated against the §V-B2 breakdown at ≈4 M items migrated:
        // dump 50 s → 12.5 µs/item; metadata transfer 70 s → ~17 µs/item
        // (tar/ssh pipeline dominates the 21 B/item wire cost); data
        // migration 45 s → ~8 µs/item + wire; import 80 s → 20 µs/item;
        // scoring 20 s across ~40 slabs.
        MigrationCosts {
            score_ns_per_slab: 50_000_000, // 50 ms per slab (crawler pass)
            dump_ns_per_item: 12_500,
            metadata_ns_per_item: 17_000,
            fusecache_ns_per_comparison: 100,
            data_ns_per_item: 8_000,
            import_ns_per_item: 20_000,
        }
    }
}

/// Wall-clock breakdown of one migration, mirroring §V-B2.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Scoring the nodes from their slab medians (§III-C).
    pub scoring: SimTime,
    /// Hashing keys + dumping timestamps on the sources (§III-D1).
    pub dump: SimTime,
    /// Shipping `(key, timestamp)` metadata over the network (§III-D1).
    pub metadata_transfer: SimTime,
    /// Running FuseCache on the destinations (§III-D2).
    pub fusecache: SimTime,
    /// Shipping the chosen KV pairs (§III-D3).
    pub data_transfer: SimTime,
    /// Batch-importing them into Memcached (§III-D3).
    pub import: SimTime,
}

impl PhaseBreakdown {
    /// Total migration wall-clock (phases are sequential, per §III-D).
    pub fn total(&self) -> SimTime {
        self.scoring
            + self.dump
            + self.metadata_transfer
            + self.fusecache
            + self.data_transfer
            + self.import
    }
}

/// Outcome of a migration.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationReport {
    /// When the migration started.
    pub started: SimTime,
    /// When the last phase finished (= when the Master may flip membership).
    pub completed: SimTime,
    /// Per-phase wall-clock.
    pub phases: PhaseBreakdown,
    /// Items moved to retained/new nodes.
    pub items_migrated: u64,
    /// Bytes of KV data moved in phase 3.
    pub bytes_migrated: ByteSize,
    /// Bytes of metadata moved in phase 1.
    pub metadata_bytes: ByteSize,
    /// Items considered (dumped) on the sources.
    pub items_considered: u64,
    /// How the migration ended: ran to completion, or aborted by the
    /// supervisor on a fault.
    pub outcome: MigrationOutcome,
    /// Shipment attempts beyond the first (metadata + data phases),
    /// consumed by injected drops from a fixed budget of four per shipment.
    ///
    /// Database sheds during the post-commit refill storm do **not**
    /// count here — see `elmem_cluster::DbFetch::Shed`.
    pub transfer_retries: u32,
    /// Master crash/resume cycles the migration survived, in order
    /// (empty without Master faults). When non-empty, `completed` is
    /// **not** `started + phases.total()`: `phases` describes the final
    /// attempt only and the timeline includes restart downtime.
    pub resumes: Vec<ResumePoint>,
}

/// One Master crash the migration survived: when the Master died, when its
/// replacement took over, and the phase the crash interrupted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResumePoint {
    /// When the Master crashed.
    pub crashed_at: SimTime,
    /// When the restarted Master finished replaying the journal and
    /// resumed the migration.
    pub resumed_at: SimTime,
    /// The phase the crash landed in.
    pub phase: MigrationPhase,
}

/// Why the supervisor aborted a migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortCause {
    /// A retiring source died mid-flight.
    SourceCrashed(NodeId),
    /// A retained (or newly provisioned) destination died mid-flight.
    DestinationCrashed(NodeId),
    /// A shipment kept dropping until the retry budget ran out.
    TransferRetriesExhausted {
        /// The source whose shipment would not go through.
        source: NodeId,
        /// Attempts beyond the first that were made.
        attempts: u32,
    },
    /// The Master crashed mid-migration and its restart policy was
    /// [`MasterRecovery::Abort`] — the journal was abandoned instead of
    /// replayed.
    MasterCrashed,
}

impl AbortCause {
    /// The node whose crash caused the abort, if any.
    pub fn crashed_node(&self) -> Option<NodeId> {
        match self {
            AbortCause::SourceCrashed(n) | AbortCause::DestinationCrashed(n) => Some(*n),
            _ => None,
        }
    }
}

/// How a migration ended.
///
/// Aborting is a *handled* outcome, not an error: the report's `completed`
/// instant is when the Master gave up, partial phase-3 imports are kept
/// (they are strictly-hotter data already in place on healthy nodes), and
/// the Master falls back to committing the scaling without further
/// migration — excluding any crashed node from the retained membership.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MigrationOutcome {
    /// All three phases ran to the end.
    Completed,
    /// The supervisor aborted in `phase` because of `cause`.
    Aborted {
        /// The phase the fault landed in.
        phase: MigrationPhase,
        /// What went wrong.
        cause: AbortCause,
    },
}

impl MigrationOutcome {
    /// Whether the migration ran to completion.
    pub fn is_completed(&self) -> bool {
        matches!(self, MigrationOutcome::Completed)
    }

    /// The crashed node behind an abort, if that was the cause.
    pub fn crashed_node(&self) -> Option<NodeId> {
        match self {
            MigrationOutcome::Completed => None,
            MigrationOutcome::Aborted { cause, .. } => cause.crashed_node(),
        }
    }
}

/// Retries allowed per dropped shipment before the supervisor aborts
/// (beyond the first attempt).
const MAX_SEND_RETRIES: u32 = 4;

/// Backoff before retry number `attempt` (1-based): 500 ms · 2^(a−1),
/// capped at 8 s.
fn backoff(attempt: u32) -> SimTime {
    let ms = 500u64.saturating_mul(1 << attempt.saturating_sub(1).min(32));
    SimTime::from_millis(ms.min(8_000))
}

/// Supervision context for a migration: (optionally) the fault injector
/// whose scheduled crashes and sampled drops the supervisor consults, and
/// the Master's crash plan. The retry budget for dropped shipments is a
/// constant. Every job runs under one — ElMem and Naive drains, scale-out
/// and recovery fills alike. [`Supervision::none`] is the fault-free form:
/// nothing crashes and nothing drops.
#[derive(Debug)]
pub struct Supervision<'a> {
    /// The experiment's fault injector, when faults are being injected.
    pub faults: Option<&'a mut FaultInjector>,
    /// Scheduled Master crashes and the restart/recovery policy; the
    /// default plan never crashes.
    pub master: MasterPlan,
}

impl Supervision<'static> {
    /// No faults, no Master crashes.
    pub fn none() -> Self {
        Supervision {
            faults: None,
            master: MasterPlan::default(),
        }
    }
}

impl<'a> Supervision<'a> {
    /// Supervision against `injector`.
    pub fn with_faults(injector: &'a mut FaultInjector) -> Self {
        Supervision {
            faults: Some(injector),
            ..Supervision::none()
        }
    }

    /// When `node` crashes strictly before `end`, if ever.
    pub(crate) fn crash_before(&self, node: NodeId, end: SimTime) -> Option<SimTime> {
        self.faults
            .as_ref()
            .and_then(|f| f.crash_time(node))
            .filter(|&t| t < end)
    }

    /// The first of `nodes`, in order, to crash strictly before `end`.
    fn first_crash_before(&self, nodes: &[NodeId], end: SimTime) -> Option<(NodeId, SimTime)> {
        nodes
            .iter()
            .find_map(|&n| self.crash_before(n, end).map(|t| (n, t)))
    }

    fn sample_metadata_drop(&mut self) -> bool {
        self.faults
            .as_mut()
            .is_some_and(|f| f.sample_metadata_drop())
    }

    fn sample_transfer_drop(&mut self) -> bool {
        self.faults
            .as_mut()
            .is_some_and(|f| f.sample_transfer_drop())
    }
}

// ---------------------------------------------------------------------------
// The job: direction and selection rule, as data
// ---------------------------------------------------------------------------

/// What a migration moves: the direction — a §III-D scale-in, or the
/// §III-D4 scale-out that runs the same steps with the roles of the nodes
/// reversed — and the rule that selects what ships. [`migrate`] runs every
/// job through the same plan → price/ship engine.
#[derive(Debug, Clone, Copy)]
pub enum MigrateJob<'a> {
    /// Drains the `retiring` members into the retained membership: each
    /// retained node runs FuseCache per slab class over its own MRU list
    /// plus the incoming metadata and accepts the globally hottest prefix
    /// of every source's list.
    ScaleIn {
        /// The members to retire.
        retiring: &'a [NodeId],
        /// How the destinations merge the accepted items.
        import_mode: ImportMode,
    },
    /// Fills `new_nodes` — provisioned (online) but not yet members: each
    /// member ships whatever hashes to a new node under the expanded
    /// membership, ≈ `1/(k+1)` of its keys, which typically fits the new
    /// node outright. In the rare case it does not, the import evicts the
    /// coldest overflow — equivalent to the paper's "run FuseCache to
    /// determine the top pairs". The sources keep their copies until the
    /// membership flips; afterwards those keys hash to the new node and
    /// the stale copies age out of the sources' LRU naturally.
    ScaleOut {
        /// The nodes to fill.
        new_nodes: &'a [NodeId],
    },
    /// The *Naive* comparator's drain (§V-B4): each retiring node ships the
    /// hottest `fraction` of every slab class (assuming hotness
    /// distributions are similar across nodes — no cross-node comparison),
    /// and the targets import through the ordinary `set` path.
    ///
    /// Two deliberate differences from ElMem's migration, mirroring the
    /// paper:
    ///
    /// * no FuseCache: the shipped amount ignores what actually fits
    ///   hotter than the residents;
    /// * **recency corruption**: plain `set`s stamp every migrated item
    ///   with a fresh access time, so cold imports land *above* genuinely
    ///   warm residents in the MRU order. Until the LRU dynamics wash that
    ///   out, evictions keep hitting warm residents — which is why the
    ///   paper's Naive "continues to degrade well after the scaling
    ///   event". (ElMem's custom batch import preserves original
    ///   timestamps, §III-D3.)
    NaiveScaleIn {
        /// The members to retire.
        retiring: &'a [NodeId],
        /// The share of each class's MRU list shipped, in `[0, 1]`.
        fraction: f64,
    },
}

/// A validated job resolved against the tier: the per-direction constants
/// the engine's stages read, so that no stage asks which direction it is
/// serving (DESIGN.md §13 tabulates them).
struct Recipe<'a> {
    /// The nodes whose dumps are routed: the retiring ones, or — filling
    /// new nodes — every member.
    sources: Vec<NodeId>,
    /// The membership the scaling will commit; every item is routed to its
    /// owner under it.
    ring: HashRing,
    /// The only targets worth shipping to (a fill: the new nodes — what
    /// hashes elsewhere stays where it is); `None` ships to every owner.
    keep: Option<&'a [NodeId]>,
    /// Naive's source-side rule: offer only the hottest fraction of each
    /// class, stamped as freshly `set` from the given instant on.
    hottest: Option<(f64, SimTime)>,
    /// Whether the comparison protocol of §III-D1–2 runs: the sources ship
    /// metadata and the destinations choose with FuseCache. Without it
    /// those phases are zero-length and log nothing — the plan is
    /// everything routed, and the seal closes phase 1 the instant the dump
    /// ends.
    compares: bool,
    /// How the destinations merge what arrives.
    import_mode: ImportMode,
    /// The cost model, with the phases this direction lacks priced at zero.
    costs: MigrationCosts,
}

impl<'a> MigrateJob<'a> {
    /// How the journal labels the job, and its own nodes (retiring or
    /// joining), as journaled in `Started`.
    pub(crate) fn identity(&self) -> (MigrationKind, &'a [NodeId]) {
        match *self {
            MigrateJob::ScaleIn { retiring, .. } | MigrateJob::NaiveScaleIn { retiring, .. } => {
                (MigrationKind::ScaleIn, retiring)
            }
            MigrateJob::ScaleOut { new_nodes } => (MigrationKind::ScaleOut, new_nodes),
        }
    }

    /// Validates the job against the tier and resolves its constants.
    fn resolve(
        &self,
        tier: &CacheTier,
        now: SimTime,
        costs: &MigrationCosts,
    ) -> Result<Recipe<'a>, ElmemError> {
        let membership = tier.membership();
        // §III-D4 and Naive skip scoring and the metadata exchange, and
        // stream items without the tar+ssh pipeline.
        let shortcut = MigrationCosts {
            score_ns_per_slab: 0,
            metadata_ns_per_item: 0,
            data_ns_per_item: 0,
            ..*costs
        };
        match *self {
            MigrateJob::ScaleIn {
                retiring,
                import_mode,
            } => {
                validate_retiring(membership.members(), retiring)?;
                Ok(Recipe {
                    sources: retiring.to_vec(),
                    ring: membership.ring().without(retiring),
                    keep: None,
                    hottest: None,
                    compares: true,
                    import_mode,
                    costs: *costs,
                })
            }
            MigrateJob::ScaleOut { new_nodes } => {
                validate_scale_out(tier, new_nodes)?;
                Ok(Recipe {
                    sources: membership.members().to_vec(),
                    ring: membership.ring().with(new_nodes),
                    keep: Some(new_nodes),
                    hottest: None,
                    compares: false,
                    import_mode: ImportMode::Merge,
                    costs: shortcut,
                })
            }
            MigrateJob::NaiveScaleIn { retiring, fraction } => {
                if !(0.0..=1.0).contains(&fraction) {
                    return Err(ElmemError::InvalidConfig(format!(
                        "naive fraction {fraction} outside [0, 1]"
                    )));
                }
                validate_retiring(membership.members(), retiring)?;
                Ok(Recipe {
                    sources: retiring.to_vec(),
                    ring: membership.ring().without(retiring),
                    keep: None,
                    hottest: Some((fraction, now)),
                    compares: false,
                    import_mode: ImportMode::Prepend,
                    costs: shortcut,
                })
            }
        }
    }
}

fn validate_retiring(members: &[NodeId], retiring: &[NodeId]) -> Result<(), ElmemError> {
    if retiring.is_empty() {
        return Err(ElmemError::InvalidScaling("no retiring nodes".to_string()));
    }
    for id in retiring {
        if !members.contains(id) {
            return Err(ElmemError::UnknownNode(id.0));
        }
    }
    if retiring.len() >= members.len() {
        return Err(ElmemError::InvalidScaling(
            "cannot retire the whole tier".to_string(),
        ));
    }
    Ok(())
}

/// Validates a scale-out request: the new nodes must be non-empty,
/// provisioned, and outside the current membership.
fn validate_scale_out(tier: &CacheTier, new_nodes: &[NodeId]) -> Result<(), ElmemError> {
    if new_nodes.is_empty() {
        return Err(ElmemError::InvalidScaling("no new nodes".to_string()));
    }
    let members = tier.membership().members();
    for id in new_nodes {
        if members.contains(id) {
            return Err(ElmemError::InvalidScaling(format!(
                "{id} is already a member"
            )));
        }
        tier.node(*id)?; // must be provisioned
    }
    Ok(())
}

/// Typed node access during migration: a member that cannot be reached
/// mid-flight surfaces as [`ElmemError::NodeUnavailable`] instead of a
/// panic.
fn live_node(tier: &CacheTier, id: NodeId) -> Result<&CacheNode, ElmemError> {
    tier.node(id).map_err(|_| ElmemError::NodeUnavailable(id.0))
}

fn live_node_mut(tier: &mut CacheTier, id: NodeId) -> Result<&mut CacheNode, ElmemError> {
    tier.node_mut(id)
        .map_err(|_| ElmemError::NodeUnavailable(id.0))
}

// ---------------------------------------------------------------------------
// Stage 1 — plan
//
// The migration *plan* — which items each source ships to which
// (destination, class) cell — is a pure function of the tier: dump + route
// per source, then one selection per cell. Both steps fan out over
// `elmem_util::par::par_map_indexed` and reassemble in input order, so the
// plan is byte-identical to a serial pass whatever the worker count. The
// serial per-source link scheduling / fault sampling stays in stage 2,
// price/ship: link state and drop sampling are order-sensitive.
// ---------------------------------------------------------------------------

/// With no source this large, an automatically-parallelized migration
/// stays on the no-thread serial path: the tiers in unit tests and small
/// sweep cells migrate faster than worker threads spawn.
const PAR_MIN_ITEMS: u64 = 32_768;

/// Worker threads for the routing and FuseCache steps of a `plan` that
/// dumps `sources` — resolved inside `plan`, so what
/// [`plan_scale_in_shipments`] times is what a migration runs. An explicit
/// `requested` count is honoured as is; `0` resolves to [`par_jobs`],
/// staying serial unless some source holds at least [`PAR_MIN_ITEMS`]
/// items: sources are routed one at a time, each over its own classes, so
/// one large source saturates every job and many small ones would only pay
/// for the threads.
fn fanout_jobs(tier: &CacheTier, sources: &[NodeId], requested: usize) -> usize {
    if requested != 0 {
        return requested;
    }
    let largest = sources
        .iter()
        .filter_map(|&id| tier.node(id).ok())
        .map(|n| n.store.len())
        .max()
        .unwrap_or(0);
    if largest < PAR_MIN_ITEMS {
        1
    } else {
        par_jobs()
    }
}

/// Dumps every source and hashes each item against the ring the scaling
/// will commit — the pure part of phase 1 (§III-D1) — keeping only the
/// lists bound for a `keep` target when the recipe names one. The unit of
/// work is one (source, class) cell: a worker dumps that class through the
/// store's ordered walk, applies Naive's trim, routes the items into one
/// bucket per target node and drops the dump before it takes the next
/// cell. Peak memory is `jobs` class dumps beside the routed lists, the
/// fan-out is as wide as sources × classes, and the cells reassemble in
/// (source, class) order, so each (target, class) cell lists its sources
/// in recipe order whatever the job count.
///
/// Returns the items each source dumped (before any trimming), in recipe
/// order, beside the routed lists.
fn route_sources(
    tier: &CacheTier,
    recipe: &Recipe<'_>,
    jobs: usize,
) -> Result<(Vec<u64>, InboundMap), ElmemError> {
    let mut cells: Vec<(usize, &SlabStore, ClassId)> = Vec::new();
    for (si, &src) in recipe.sources.iter().enumerate() {
        let store = &live_node(tier, src)?.store;
        let occupied = store.classes().ids().filter(|&c| store.len_of_class(c) > 0);
        cells.extend(occupied.map(|c| (si, store, c)));
    }
    let by_cell = par_map_indexed(jobs, &cells, |_, &(_, store, class)| {
        let mut items = store.dump_class(class).items;
        let n_items = items.len() as u64;
        if let Some((fraction, now)) = recipe.hottest {
            let take = (items.len() as f64 * fraction).ceil() as usize;
            items.truncate(take);
            // Plain-`set` semantics: the import gets a fresh access time
            // (preserving only the shipment's internal order).
            for (i, item) in items.iter_mut().enumerate() {
                item.last_access = now + SimTime::from_nanos((take - i) as u64);
            }
        }
        let mut buckets: NodeMap<Vec<ItemMeta>> = NodeMap::new();
        for item in &items {
            let target = recipe.ring.node_for(item.key).ok_or_else(|| {
                ElmemError::InconsistentMigration("target ring is empty".to_string())
            })?;
            if recipe.keep.is_none_or(|kept| kept.contains(&target)) {
                buckets.get_or_insert_with(target, Vec::new).push(*item);
            }
        }
        Ok((n_items, buckets))
    });
    let mut dumped = vec![0u64; recipe.sources.len()];
    let mut inbound: InboundMap = HashMap::new();
    for (&(si, _, class), cell) in cells.iter().zip(by_cell) {
        let (n_items, mut buckets): (u64, NodeMap<Vec<ItemMeta>>) = cell?;
        dumped[si] += n_items;
        let src = recipe.sources[si];
        for target in buckets.keys().collect::<Vec<_>>() {
            if let Some(items) = buckets.remove(target) {
                inbound
                    .entry((target, class))
                    .or_default()
                    .push((src, items));
            }
        }
    }
    Ok((dumped, inbound))
}

// ---------------------------------------------------------------------------
// Stage 1, continued — select and seal
// ---------------------------------------------------------------------------

/// One planned phase-3 shipment: the `take` hottest of the items a source
/// routed to one (target, class) cell.
///
/// The items vector is *moved* out of the phase-1 routing result and the
/// chosen subset exposed as a prefix borrow — the plan holds index ranges
/// into the dump rather than cloned sub-vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct Shipment {
    /// Monotone sequence number within the migration's sealed plan — the
    /// identity the journal acks and the destination's import ledger
    /// dedups on.
    pub seq: u64,
    /// The node shipping the items.
    pub source: NodeId,
    /// The node importing them.
    pub target: NodeId,
    /// The slab class they belong to.
    pub class: ClassId,
    items: Vec<ItemMeta>,
    take: usize,
    /// Content checksum over the chosen items, sealed at plan time.
    checksum: u64,
}

impl Shipment {
    /// The journal's durable description of this shipment: enough to
    /// reconstruct and verify it from a fresh source dump on resume.
    pub fn manifest(&self) -> ShipmentManifest {
        ShipmentManifest {
            seq: self.seq,
            source: self.source,
            target: self.target,
            class: self.class,
            take: self.take,
            checksum: self.checksum,
        }
    }

    /// The chosen items (hottest-first prefix of the routed list).
    pub fn items(&self) -> &[ItemMeta] {
        &self.items[..self.take]
    }

    /// Number of chosen items.
    pub fn len(&self) -> usize {
        self.take
    }

    /// Whether nothing was chosen.
    pub fn is_empty(&self) -> bool {
        self.take == 0
    }

    /// The content checksum sealed when the shipment was planned.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Recomputes the checksum over the current contents and compares it
    /// against the sealed one — the end-to-end integrity check every
    /// shipment passes right before its import (DESIGN.md §12). Any
    /// mutation of the item prefix between planning and import is caught
    /// here.
    ///
    /// # Errors
    ///
    /// [`ElmemError::InvariantViolation`] on mismatch.
    pub fn verify_content(&self) -> Result<(), ElmemError> {
        let fresh = shipment_checksum(self.items());
        if fresh != self.checksum {
            return Err(ElmemError::InvariantViolation(format!(
                "shipment {}→{} {}: content checksum {fresh:#018x} != sealed {:#018x}",
                self.source, self.target, self.class, self.checksum
            )));
        }
        Ok(())
    }
}

/// The FNV-1a step applied once per 64-bit word: from the FNV offset
/// basis, `h = (h ^ w) * 0x100000001b3` (wrapping) for each word `w` of
/// `[key, value_size, last_access ns, u64::MAX]` of each item, in shipment
/// order. The last word is a constant: it stands where an item once carried
/// a never-reached deadline, so sealed checksums and journals keep their
/// values. For a fixed `w` each step is a bijection of `h` (the prime is
/// odd), so changing any one field of any one item always changes the
/// checksum. Pure content hash: two shipments with the same items in the
/// same order collide by construction.
pub fn shipment_checksum(items: &[ItemMeta]) -> u64 {
    items.iter().fold(0xcbf29ce484222325, |h, item| {
        [
            item.key.0,
            u64::from(item.value_size),
            item.last_access.as_nanos(),
            u64::MAX,
        ]
        .into_iter()
        .fold(h, |h, w| (h ^ w).wrapping_mul(0x100000001b3))
    })
}

/// Statistics from a [`plan_scale_in_shipments`] planning pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanStats {
    /// Items dumped on the retiring sources (phase-1 metadata volume).
    pub items_considered: u64,
    /// (destination, class) FuseCache cells compared.
    pub cells: usize,
    /// Hotness comparisons FuseCache performed across all cells.
    pub comparisons: u64,
}

/// One FuseCache work unit: the inbound source lists one (target, class)
/// destination cell compares against its own MRU list.
struct PlanCell {
    target: NodeId,
    class: ClassId,
    sources: Vec<(NodeId, Vec<ItemMeta>)>,
}

/// Runs one cell's FuseCache selection (§III-D2): how many items the
/// destination accepts from each source. Pure: reads the tier only.
fn fuse_cell(tier: &CacheTier, cell: &PlanCell) -> Result<(Vec<usize>, u64), ElmemError> {
    let dest_store = &live_node(tier, cell.target)?.store;
    // FuseCache reads only the hotness of each resident, in canonical
    // (descending) order: the destination's own timestamp dump.
    let own: Vec<Hotness> = dest_store
        .dump_class(cell.class)
        .items
        .iter()
        .map(ItemMeta::hotness)
        .collect();
    // Capacity for this class on the destination, in items: the retained
    // node's own list length n (FuseCache picks the top n across its own
    // list + incoming, per §IV-A).
    let n = own.len().max(
        // An empty class on the destination can still grow: allow as
        // many items as one page of chunks as a floor.
        dest_store.classes().chunks_per_page(cell.class) as usize,
    );
    let mut lists: Vec<Vec<Hotness>> = Vec::with_capacity(cell.sources.len() + 1);
    lists.push(own);
    for (_, items) in &cell.sources {
        lists.push(items.iter().map(|i| i.hotness()).collect());
    }
    let refs: Vec<&[Hotness]> = lists.iter().map(|l| l.as_slice()).collect();
    let (picks, stats) = fusecache_instrumented(&refs, n);
    Ok((picks, stats.comparisons))
}

/// Converts routed inbound lists into the phase-3 shipments: one FuseCache
/// selection per (target, class) cell, fanned out over `jobs` workers,
/// results reassembled in sorted cell order so the shipments are
/// byte-identical to a serial pass. Each cell's chosen items are moved —
/// not cloned — into them. Also returns the comparisons per destination,
/// which the cost model charges.
fn build_shipments(
    tier: &CacheTier,
    inbound: InboundMap,
    jobs: usize,
) -> Result<(Vec<Shipment>, HashMap<NodeId, u64>), ElmemError> {
    let mut cells: Vec<PlanCell> = inbound
        .into_iter()
        .map(|((target, class), sources)| PlanCell {
            target,
            class,
            sources,
        })
        .collect();
    cells.sort_unstable_by_key(|cell| (cell.target, cell.class));
    let picks = par_map_indexed(jobs, &cells, |_, cell| fuse_cell(tier, cell));
    let mut shipments: Vec<Shipment> = Vec::new();
    let mut comparisons_at: HashMap<NodeId, u64> = HashMap::new();
    // Reassembly: cells in sorted (target, class) order, sources within a
    // cell in recipe order — the exact order the serial code produced.
    for (cell, result) in cells.into_iter().zip(picks) {
        let (picks, comparisons) = result?;
        *comparisons_at.entry(cell.target).or_default() += comparisons;
        // picks[0] is the destination's own list; picks[1..] map to sources.
        for (si, (source, items)) in cell.sources.into_iter().enumerate() {
            let pick = picks.get(si + 1).copied().ok_or_else(|| {
                ElmemError::InconsistentMigration(format!(
                    "FuseCache returned {} picks for {} source lists on ({}, {})",
                    picks.len(),
                    si + 1,
                    cell.target,
                    cell.class
                ))
            })?;
            let take = pick.min(items.len());
            if take > 0 {
                let checksum = shipment_checksum(&items[..take]);
                shipments.push(Shipment {
                    seq: shipments.len() as u64,
                    source,
                    target: cell.target,
                    class: cell.class,
                    items,
                    take,
                    checksum,
                });
            }
        }
    }
    Ok((shipments, comparisons_at))
}

/// The selection of a job that does not compare: every routed list ships
/// whole, in (source, target, class) order.
fn seal_everything(inbound: InboundMap) -> Vec<Shipment> {
    let mut moves: Vec<(NodeId, NodeId, ClassId, Vec<ItemMeta>)> = inbound
        .into_iter()
        .flat_map(|((target, class), lists)| {
            lists
                .into_iter()
                .map(move |(source, items)| (source, target, class, items))
        })
        .collect();
    moves.sort_unstable_by_key(|&(source, target, class, _)| (source, target, class));
    moves
        .into_iter()
        .enumerate()
        .map(|(seq, (source, target, class, items))| Shipment {
            seq: seq as u64,
            source,
            target,
            class,
            take: items.len(),
            checksum: shipment_checksum(&items),
            items,
        })
        .collect()
}

/// Rebuilds a sealed shipment plan from freshly routed source dumps.
///
/// Sources are never mutated before the scaling commits (a drain imports
/// onto the retained nodes, a fill onto nodes that are not members yet),
/// so re-routing their dumps reproduces the exact item lists the plan
/// chose prefixes from; each sealed `take` prefix must then hash to the
/// sealed checksum. Any divergence means the world changed under the
/// journal — an [`ElmemError::InconsistentMigration`], never a silent
/// re-plan.
fn reconstruct_shipments(
    mut inbound: InboundMap,
    manifest: &[ShipmentManifest],
) -> Result<Vec<Shipment>, ElmemError> {
    // Index the routed lists by the manifest's identity triple.
    let mut routed: HashMap<(NodeId, NodeId, ClassId), Vec<ItemMeta>> = HashMap::new();
    for ((target, class), lists) in inbound.drain() {
        for (source, items) in lists {
            routed.insert((source, target, class), items);
        }
    }
    let mut plan = Vec::with_capacity(manifest.len());
    for m in manifest {
        let items = routed
            .remove(&(m.source, m.target, m.class))
            .ok_or_else(|| {
                ElmemError::InconsistentMigration(format!(
                    "resume: no routed items for sealed shipment seq {} ({}→{} {})",
                    m.seq, m.source, m.target, m.class
                ))
            })?;
        if m.take > items.len() {
            return Err(ElmemError::InconsistentMigration(format!(
                "resume: sealed shipment seq {} takes {} of only {} routed items",
                m.seq,
                m.take,
                items.len()
            )));
        }
        let shipment = Shipment {
            seq: m.seq,
            source: m.source,
            target: m.target,
            class: m.class,
            items,
            take: m.take,
            checksum: m.checksum,
        };
        shipment.verify_content()?;
        plan.push(shipment);
    }
    Ok(plan)
}

/// A migration's one decision: what each source dumped, where its items
/// route, and what ships.
struct Plan {
    /// Items each source dumped, in recipe order.
    dumped: Vec<u64>,
    /// Every routed target, ascending — including those FuseCache sends
    /// nothing: each receives metadata, so its crash breaks phase 1.
    dests: Vec<NodeId>,
    /// The sealed shipments, in `seq` order.
    shipments: Vec<Shipment>,
    /// FuseCache comparisons per destination (empty when nothing compared).
    comparisons: HashMap<NodeId, u64>,
    /// The totals [`plan_scale_in_shipments`] reports.
    stats: PlanStats,
}

/// Routes and selects for `recipe` — the only code that decides what a
/// migration moves. Pure: reads the tier only, touches no link and draws
/// no fault, so the engine may run it before the metadata it prices is
/// sent. A `sealed` manifest rebuilds and verifies its shipments; otherwise
/// a comparing job runs FuseCache and any other seals everything routed.
/// `jobs` resolves through [`fanout_jobs`]; the plan is byte-identical
/// whatever it is.
fn plan(
    tier: &CacheTier,
    recipe: &Recipe<'_>,
    sealed: Option<&[ShipmentManifest]>,
    jobs: usize,
) -> Result<Plan, ElmemError> {
    let jobs = fanout_jobs(tier, &recipe.sources, jobs);
    let (dumped, inbound) = route_sources(tier, recipe, jobs)?;
    let cells = inbound.len();
    let mut dests: Vec<NodeId> = inbound.keys().map(|&(target, _)| target).collect();
    dests.sort_unstable();
    dests.dedup();
    let (shipments, comparisons) = match sealed {
        Some(manifest) => (reconstruct_shipments(inbound, manifest)?, HashMap::new()),
        None if recipe.compares => build_shipments(tier, inbound, jobs)?,
        None => (seal_everything(inbound), HashMap::new()),
    };
    let stats = PlanStats {
        items_considered: dumped.iter().sum(),
        cells,
        comparisons: comparisons.values().sum(),
    };
    Ok(Plan {
        dumped,
        dests,
        shipments,
        comparisons,
        stats,
    })
}

/// A benchmark shim: the scale-in `plan` alone — §III-D1's dump + routing
/// and §III-D2's FuseCache selection — without mutating the tier, charging
/// simulated time, or shipping anything. `benchmark/src/layers.rs:617`
/// times it (`core.plan_ns_per_item`).
///
/// `jobs` is the worker-thread count; `0` resolves to [`par_jobs`] and
/// applies a work-size threshold so tiny migrations stay on the no-thread
/// serial path. The returned plan is byte-identical whatever `jobs` is.
///
/// # Errors
///
/// Same validation as a [`MigrateJob::ScaleIn`].
pub fn plan_scale_in_shipments(
    tier: &CacheTier,
    retiring: &[NodeId],
    jobs: usize,
) -> Result<(Vec<Shipment>, PlanStats), ElmemError> {
    let job = MigrateJob::ScaleIn {
        retiring,
        import_mode: ImportMode::Merge,
    };
    let recipe = job.resolve(tier, SimTime::ZERO, &MigrationCosts::default())?;
    let plan = plan(tier, &recipe, None, jobs)?;
    Ok((plan.shipments, plan.stats))
}

// ---------------------------------------------------------------------------
// The engine (DESIGN.md §13)
//
// `attempt` runs one pass of a job through both stages. Under a
// scheduled Master crash it stops at the first boundary the crash precedes
// and reports `Attempt::Interrupted`; `migrate` then truncates the journal
// to what was durable at the crash instant, replays it, and launches the
// next attempt — resuming from the sealed manifest when the crash landed
// after the seal, or replanning from scratch when it landed earlier
// (nothing before the seal mutates any store, so a replan reproduces the
// identical plan from the unmutated sources).
// ---------------------------------------------------------------------------

/// The journal a migration writes to and the Master crash that may cut the
/// current attempt short.
struct Ctl<'j> {
    /// The journal every record goes to.
    journal: &'j mut MigrationJournal,
    /// This migration's job id: the journal's and the import ledgers' key.
    id: u64,
    /// Next Master crash strictly after the attempt's start, if any.
    master_crash: Option<SimTime>,
}

impl Ctl<'_> {
    /// The Master crash preempting work that completes at `boundary`, if
    /// one is scheduled strictly before it.
    fn interrupted(&self, boundary: SimTime) -> Option<SimTime> {
        self.master_crash.filter(|&c| c < boundary)
    }

    /// Appends a record (built from the job id) that becomes durable at
    /// `durable_at`.
    fn log(&mut self, durable_at: SimTime, record: impl FnOnce(u64) -> JournalRecord) {
        self.journal.append(durable_at, record(self.id));
    }
}

/// How one migration attempt ended.
enum Attempt {
    /// The attempt ran to a terminal report (completed or fault-aborted).
    Done(MigrationReport),
    /// A Master crash at `at` interrupted the attempt inside `phase`.
    Interrupted { at: SimTime, phase: MigrationPhase },
}

/// One attempt's report as it accrues, and the timeline behind it. Every
/// way out of the engine — completion or abort, in any stage — finishes
/// this one report.
struct Progress {
    /// The totals so far; `completed` and `outcome` are set on the way out.
    report: MigrationReport,
    /// When the dump and metadata landed (= `started` until then).
    phase1_end: SimTime,
    /// When the plan sealed and data started to move.
    phase2_end: SimTime,
}

impl Progress {
    fn new(started: SimTime) -> Self {
        Progress {
            report: MigrationReport {
                started,
                completed: started,
                phases: PhaseBreakdown::default(),
                items_migrated: 0,
                bytes_migrated: ByteSize::ZERO,
                metadata_bytes: ByteSize::ZERO,
                items_considered: 0,
                outcome: MigrationOutcome::Completed,
                transfer_retries: 0,
                resumes: Vec::new(),
            },
            phase1_end: started,
            phase2_end: started,
        }
    }

    /// Which phase a fault time falls in, given the boundaries passed.
    fn phase_at(&self, t: SimTime) -> MigrationPhase {
        if t < self.phase1_end {
            MigrationPhase::MetadataTransfer
        } else if t < self.phase2_end {
            MigrationPhase::HotnessComparison
        } else {
            MigrationPhase::DataMigration
        }
    }

    fn finish(mut self, completed: SimTime, outcome: MigrationOutcome) -> MigrationReport {
        self.report.completed = completed;
        self.report.outcome = outcome;
        self.report
    }

    /// The terminal outcome of an aborted attempt: the Master gave up at
    /// `at` (never before the start), keeping whatever already moved.
    fn abort(self, at: SimTime, phase: MigrationPhase, cause: AbortCause) -> Attempt {
        let at = at.max(self.report.started);
        Attempt::Done(self.finish(at, MigrationOutcome::Aborted { phase, cause }))
    }
}

/// Sends `bytes` over a source's NIC starting at `submit_at`; the
/// shipment arrives `pipeline` (the per-item serialization cost) after the
/// wire is done. While `dropped` reports the attempt lost it is re-sent
/// after a bounded exponential [`backoff`], each try burning link time and
/// counting into `retries` (the [`MAX_SEND_RETRIES`] budget covers only
/// these injected drops, not database sheds).
///
/// Returns the arrival instant, or — the budget exhausted — the instant
/// the last attempt failed and how many retries were made.
fn send_with_retries(
    link: &mut Link,
    submit_at: SimTime,
    bytes: ByteSize,
    pipeline: SimTime,
    mut dropped: impl FnMut() -> bool,
    retries: &mut u32,
) -> Result<SimTime, (SimTime, u32)> {
    let mut attempt = 0u32;
    let mut submit_at = submit_at;
    loop {
        let completion = link.schedule_transfer(submit_at, bytes) + pipeline;
        if !dropped() {
            return Ok(completion);
        }
        attempt += 1;
        *retries += 1;
        if attempt >= MAX_SEND_RETRIES {
            return Err((completion, attempt));
        }
        submit_at = completion + backoff(attempt);
    }
}

/// One pass of `recipe` through both stages, from `now`: interruptible
/// by the Master crash in `ctl`, and — given the replayed journal state of
/// an interrupted predecessor — a resume of it.
///
/// Faults land on the report, not in the `Err`: a source or destination
/// crash or an exhausted retry budget ends the attempt with
/// [`MigrationOutcome::Aborted`].
fn attempt(
    tier: &mut CacheTier,
    recipe: &Recipe<'_>,
    now: SimTime,
    supervision: &mut Supervision<'_>,
    ctl: &mut Ctl<'_>,
    resume: Option<ReplayState>,
) -> Result<Attempt, ElmemError> {
    // A resume after the plan sealed is manifest-driven: partial imports
    // have already mutated the destinations, so the selection must not
    // re-run. The shipments are instead reconstructed from a fresh source
    // dump (sources are never mutated before the commit) and verified
    // against the sealed checksums. A resume *before* the seal replans
    // from scratch — nothing was imported yet, so the replan is identical.
    // A post-seal attempt also skips drop sampling in phase 1: the retry
    // RNG draws belong to shipping, and a resumed pull re-reads the dump
    // rather than re-racing the injector.
    let (sealed, acked) = resume.map_or((None, BTreeSet::new()), |st| (st.manifest, st.acked));
    let costs = &recipe.costs;
    let mut progress = Progress::new(now);

    // §III-C scoring cost: every member node crawls its slabs for medians
    // (done in parallel across nodes; take the max = any node's cost).
    let mut max_slabs = 0u64;
    for &id in tier.membership().members() {
        let store = &live_node(tier, id)?.store;
        let slabs = store
            .classes()
            .ids()
            .filter(|&c| store.len_of_class(c) > 0)
            .count() as u64;
        max_slabs = max_slabs.max(slabs);
    }
    progress.report.phases.scoring = SimTime::from_nanos(max_slabs * costs.score_ns_per_slab);

    // The plan first: it reads only the stores, which nothing mutates
    // before the seal, and touches no link or fault draw — so deciding
    // up front changes no output, and an abort in phase 1 only wastes the
    // selection's CPU.
    let Plan {
        dumped,
        dests,
        shipments,
        comparisons,
        ..
    } = plan(tier, recipe, sealed.as_deref(), 0)?;

    // Phase 1 — dump + hash on each source (§III-D1 runs the sources in
    // parallel), then — when the job compares — ship metadata to the
    // targets (per-source link, serialized, in source order: link
    // scheduling and drop sampling are order-sensitive). Dump totals
    // accumulate source-by-source so an abort's partial report covers
    // exactly the sources reached.
    let mut transfer_done = now;
    for (&src, &n_items) in recipe.sources.iter().zip(&dumped) {
        progress.report.items_considered += n_items;
        let dump = SimTime::from_nanos(n_items * costs.dump_ns_per_item);
        progress.report.phases.dump = progress.report.phases.dump.max(dump);
        if recipe.compares {
            // Tarball over ssh: one serialized stream per source; the
            // pipeline's per-item CPU cost dominates the 21 B/item wire
            // cost.
            let bytes = ByteSize((KEY_BYTES + TIMESTAMP_BYTES) * n_items);
            progress.report.metadata_bytes += bytes;
            let sent = send_with_retries(
                &mut live_node_mut(tier, src)?.link,
                now,
                bytes,
                SimTime::from_nanos(n_items * costs.metadata_ns_per_item),
                || sealed.is_none() && supervision.sample_metadata_drop(),
                &mut progress.report.transfer_retries,
            );
            match sent {
                Ok(done) => transfer_done = transfer_done.max(done),
                Err((at, attempts)) => {
                    progress.report.phases.metadata_transfer = at.saturating_sub(now);
                    return Ok(progress.abort(
                        at,
                        MigrationPhase::MetadataTransfer,
                        AbortCause::TransferRetriesExhausted {
                            source: src,
                            attempts,
                        },
                    ));
                }
            }
        }
    }
    progress.report.phases.metadata_transfer = transfer_done.saturating_sub(now);
    let metadata_start = now + progress.report.phases.scoring + progress.report.phases.dump;
    let phase1_end = metadata_start + progress.report.phases.metadata_transfer;
    progress.phase1_end = phase1_end;
    progress.phase2_end = phase1_end;

    // Master-crash gate: a crash inside phase 1 interrupts the attempt
    // before this boundary's journal record ever becomes durable.
    if let Some(at) = ctl.interrupted(phase1_end) {
        return Ok(Attempt::Interrupted {
            at,
            phase: MigrationPhase::MetadataTransfer,
        });
    }
    if recipe.compares {
        ctl.log(phase1_end, |id| JournalRecord::PhaseDone {
            id,
            phase: MigrationPhase::MetadataTransfer,
            at: phase1_end,
        });
    }

    // A source or destination that dies before the metadata lands aborts
    // the migration in phase 1: its stream breaks and the Master gives up
    // at the crash instant. Every routed target received metadata, so the
    // check covers those FuseCache sends nothing too.
    if let Some((src, at)) = supervision.first_crash_before(&recipe.sources, phase1_end) {
        let cause = AbortCause::SourceCrashed(src);
        return Ok(progress.abort(at, MigrationPhase::MetadataTransfer, cause));
    }
    if let Some((dest, at)) = supervision.first_crash_before(&dests, phase1_end) {
        let cause = AbortCause::DestinationCrashed(dest);
        return Ok(progress.abort(at, MigrationPhase::MetadataTransfer, cause));
    }

    // Phase 2 — the comparison, priced: FuseCache runs on each
    // destination in parallel, so it costs the busiest one. Nothing
    // compared (a job that ships everything, or a rebuild from the sealed
    // manifest) costs nothing.
    progress.report.phases.fusecache = SimTime::from_nanos(
        comparisons
            .values()
            .map(|&c| c * costs.fusecache_ns_per_comparison)
            .max()
            .unwrap_or(0),
    );
    let phase2_end = phase1_end + progress.report.phases.fusecache;
    progress.phase2_end = phase2_end;

    // Master-crash gate at the seal: a crash here loses the plan (it only
    // seals at the boundary), so the resumed attempt replans from scratch.
    if let Some(at) = ctl.interrupted(phase2_end) {
        return Ok(Attempt::Interrupted {
            at,
            phase: MigrationPhase::HotnessComparison,
        });
    }
    if sealed.is_none() {
        // The seal closes the last phase before data moves.
        let phase = if recipe.compares {
            MigrationPhase::HotnessComparison
        } else {
            MigrationPhase::MetadataTransfer
        };
        ctl.log(phase2_end, |id| JournalRecord::PlanSealed {
            id,
            at: phase2_end,
            manifest: shipments.iter().map(Shipment::manifest).collect(),
        });
        ctl.log(phase2_end, |id| JournalRecord::PhaseDone {
            id,
            phase,
            at: phase2_end,
        });
    }

    // A destination dying during the comparison aborts in phase 2
    // (crashes before phase 1's end already returned above).
    if let Some((dest, at)) = supervision.first_crash_before(&dests, phase2_end) {
        let cause = AbortCause::DestinationCrashed(dest);
        return Ok(progress.abort(at, MigrationPhase::HotnessComparison, cause));
    }

    ship(tier, recipe, shipments, &acked, supervision, ctl, progress)
}

/// Stage 2's last step — ship: sends every shipment of the sealed `plan`
/// that is not durably acked over its source's link (serialized per
/// source) and imports it on its destination. Imports applied before an abort are
/// kept: they are strictly-hotter data already in place.
fn ship(
    tier: &mut CacheTier,
    recipe: &Recipe<'_>,
    plan: Vec<Shipment>,
    acked: &BTreeSet<u64>,
    supervision: &mut Supervision<'_>,
    ctl: &mut Ctl<'_>,
    mut progress: Progress,
) -> Result<Attempt, ElmemError> {
    let costs = &recipe.costs;
    let data_start = progress.phase2_end;
    let mut data_done = data_start;
    let mut import_ns: HashMap<NodeId, u64> = HashMap::new();
    // Destinations import in parallel: the phase costs the busiest one.
    let busiest = |import_ns: &HashMap<NodeId, u64>| {
        SimTime::from_nanos(import_ns.values().copied().max().unwrap_or(0))
    };
    for shipment in plan {
        let bytes = ByteSize(shipment.items().iter().map(|i| i.footprint()).sum());
        if acked.contains(&shipment.seq) {
            // Durably acked before the crash: the import already applied
            // on its destination. Count it toward the totals (so a
            // resumed report matches the uninterrupted one) but ship
            // nothing and charge no transfer or import time.
            progress.report.bytes_migrated += bytes;
            progress.report.items_migrated += shipment.len() as u64;
            continue;
        }
        let (src, target) = (shipment.source, shipment.target);
        let sent = send_with_retries(
            &mut live_node_mut(tier, src)?.link,
            data_start,
            bytes,
            SimTime::from_nanos(shipment.len() as u64 * costs.data_ns_per_item),
            || supervision.sample_transfer_drop(),
            &mut progress.report.transfer_retries,
        );
        let done = match sent {
            Ok(done) => done,
            Err((at, attempts)) => {
                progress.report.phases.data_transfer = at.saturating_sub(data_start);
                progress.report.phases.import = busiest(&import_ns);
                return Ok(progress.abort(
                    at,
                    MigrationPhase::DataMigration,
                    AbortCause::TransferRetriesExhausted {
                        source: src,
                        attempts,
                    },
                ));
            }
        };
        // Master-crash gate: the Master dies before this shipment lands,
        // so it never ships. Everything already imported stays, and the
        // next attempt resumes from the journal.
        if let Some(at) = ctl.interrupted(done) {
            return Ok(Attempt::Interrupted {
                at,
                phase: progress.phase_at(at),
            });
        }
        // A source or destination dying before this shipment lands aborts
        // here, keeping everything already imported. The phase is the one
        // the crash time falls in (a node may die while idle in an
        // earlier window and only be detected at its next shipment).
        if let Some((node, at)) = supervision.first_crash_before(&[src, target], done) {
            let cause = if node == src {
                AbortCause::SourceCrashed(node)
            } else {
                AbortCause::DestinationCrashed(node)
            };
            progress.report.phases.data_transfer = at.max(data_start).saturating_sub(data_start);
            progress.report.phases.import = busiest(&import_ns);
            let phase = progress.phase_at(at);
            return Ok(progress.abort(at, phase, cause));
        }
        data_done = data_done.max(done);
        // Apply the import (items are hottest-first within each source's
        // class list; the store re-sorts/merges as configured). The sealed
        // checksum proves the shipment arrives exactly as planned. The
        // destination's import ledger suppresses a re-delivered shipment
        // whose import already applied before a Master crash ate its ack.
        shipment.verify_content()?;
        let applied = live_node_mut(tier, target)?.import_shipment(
            ctl.id,
            shipment.seq,
            shipment.checksum(),
            shipment.class,
            shipment.items(),
            recipe.import_mode,
        )?;
        if applied {
            *import_ns.entry(target).or_default() +=
                shipment.len() as u64 * costs.import_ns_per_item;
        }
        // The ack becomes durable only after the WAL flush lag: a Master
        // crash inside the window re-delivers this shipment on resume and
        // the ledger suppresses the duplicate import.
        ctl.log(done + ACK_DURABILITY_LAG, |id| {
            JournalRecord::ShipmentAcked {
                id,
                seq: shipment.seq,
                at: done,
            }
        });
        progress.report.bytes_migrated += bytes;
        progress.report.items_migrated += shipment.len() as u64;
    }
    progress.report.phases.data_transfer = data_done.saturating_sub(data_start);
    progress.report.phases.import = busiest(&import_ns);

    // Master-crash gate at the final boundary: all data landed, but the
    // Master dies before recording completion — the resumed attempt
    // re-delivers only what the journal never durably acked.
    let completed = progress.report.started + progress.report.phases.total();
    if let Some(at) = ctl.interrupted(completed) {
        return Ok(Attempt::Interrupted {
            at,
            phase: MigrationPhase::DataMigration,
        });
    }
    ctl.log(completed, |id| JournalRecord::PhaseDone {
        id,
        phase: MigrationPhase::DataMigration,
        at: completed,
    });
    Ok(Attempt::Done(
        progress.finish(completed, MigrationOutcome::Completed),
    ))
}

/// Executes a migration: moves what `job` selects to the nodes that will
/// own it once the scaling commits.
///
/// Does **not** flip the membership — the caller commits the scaling at
/// `report.completed` (requests keep being served by the old membership
/// during the migration, exactly as in the paper).
///
/// `supervision` carries the fault injector whose crashes abort the
/// migration cleanly and whose drops are retried against a fixed,
/// exponentially backed-off budget, and the Master's crash plan;
/// [`Supervision::none`] injects no fault. On an abort the function
/// still returns `Ok`: the report's `outcome` is
/// [`MigrationOutcome::Aborted`] with the phase the fault landed in and
/// its cause, `completed` is the abort instant, and any imports already
/// applied are **kept** (they are strictly-hotter data already on healthy
/// nodes). The caller — the Master — decides the fallback: commit the
/// scaling without further migration, excluding crashed nodes from the
/// membership. Every job — drain, fill or Naive — is supervised alike.
///
/// The migration records its progress in `journal` under the job id beside
/// it, which also keys every destination's import ledger: an id must not
/// repeat on a tier. A Master crash scheduled in `supervision.master`
/// interrupts the running attempt; per the recovery policy the Master then
/// replays the journal and resumes from the last durable point, or aborts.
///
/// # Errors
///
/// * [`ElmemError::InvalidScaling`] if the job names no node, would retire
///   the whole membership, or would add a node that is already a member;
/// * [`ElmemError::UnknownNode`] if a retiring id is not a member or a new
///   node is not provisioned;
/// * [`ElmemError::InvalidConfig`] if a Naive `fraction` is outside
///   `[0, 1]`;
/// * [`ElmemError::NodeUnavailable`] if a node vanishes from the tier
///   mid-computation;
/// * [`ElmemError::InvariantViolation`] if a shipment's contents no longer
///   match its sealed checksum at import time.
pub fn migrate(
    tier: &mut CacheTier,
    job: &MigrateJob<'_>,
    now: SimTime,
    costs: &MigrationCosts,
    supervision: &mut Supervision<'_>,
    (journal, id): (&mut MigrationJournal, u64),
) -> Result<MigrationReport, ElmemError> {
    // Validate before journaling Started: a rejected request never
    // existed as far as the journal is concerned.
    let recipe = job.resolve(tier, now, costs)?;
    let (kind, nodes) = job.identity();
    let mut ctl = Ctl {
        journal,
        id,
        master_crash: None,
    };
    ctl.log(now, |id| JournalRecord::Started {
        id,
        kind,
        nodes: nodes.to_vec(),
        at: now,
    });
    let mut resumes: Vec<ResumePoint> = Vec::new();
    let mut resume: Option<ReplayState> = None;
    let mut attempt_start = now;
    loop {
        ctl.master_crash = supervision.master.next_crash_after(attempt_start);
        let (at, phase) = match attempt(
            tier,
            &recipe,
            attempt_start,
            supervision,
            &mut ctl,
            resume.take(),
        )? {
            Attempt::Done(mut report) => {
                // The report spans the whole journey: `started` is the
                // original trigger, `phases` the final attempt.
                report.started = now;
                report.resumes = resumes;
                let at = report.completed;
                ctl.log(at, |id| match report.outcome {
                    MigrationOutcome::Completed => JournalRecord::Committed { id, at },
                    MigrationOutcome::Aborted { .. } => JournalRecord::Aborted { id, at },
                });
                return Ok(report);
            }
            Attempt::Interrupted { at, phase } => (at, phase),
        };
        // The crash eats every record of this job not yet durable at `at`.
        ctl.journal.discard_after(id, at);
        let resumed_at = at + MASTER_RESTART_DELAY;
        resumes.push(ResumePoint {
            crashed_at: at,
            resumed_at,
            phase,
        });
        if supervision.master.recovery == MasterRecovery::Abort {
            ctl.log(resumed_at, |id| JournalRecord::Aborted {
                id,
                at: resumed_at,
            });
            let outcome = MigrationOutcome::Aborted {
                phase,
                cause: AbortCause::MasterCrashed,
            };
            let mut report = Progress::new(now).finish(resumed_at, outcome);
            report.resumes = resumes;
            return Ok(report);
        }
        resume = Some(ctl.journal.replay(id));
        ctl.log(resumed_at, |id| JournalRecord::Resumed {
            id,
            at: resumed_at,
            phase,
        });
        attempt_start = resumed_at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmem_cluster::ClusterConfig;
    use elmem_sim::fault::FaultPlan;
    use elmem_util::{DetRng, KeyId};
    use proptest::prelude::*;

    const NOW: SimTime = SimTime::from_secs(200_000);

    /// The scale-in every test below runs unless it says otherwise.
    const DRAIN: MigrateJob<'static> = MigrateJob::ScaleIn {
        retiring: &[NodeId(0)],
        import_mode: ImportMode::Merge,
    };

    /// Tier with node 0 coldest: keys 0..2000 spread by ring, all touched;
    /// node 0's items get old timestamps.
    fn warmed_tier() -> (CacheTier, Vec<u64>) {
        let mut tier = CacheTier::new(ClusterConfig::small_test());
        let mut keys_on_0 = Vec::new();
        for k in 0..2000u64 {
            let owner = tier.node_for_key(KeyId(k)).unwrap();
            let t = if owner == NodeId(0) {
                keys_on_0.push(k);
                SimTime::from_secs(100 + k)
            } else {
                SimTime::from_secs(100_000 + k)
            };
            tier.node_mut(owner)
                .unwrap()
                .store
                .set(KeyId(k), 64, t)
                .unwrap();
        }
        (tier, keys_on_0)
    }

    /// Runs `job` at [`NOW`] with empty supervision, as job 0 of a fresh
    /// journal.
    fn run(tier: &mut CacheTier, job: MigrateJob<'_>) -> Result<MigrationReport, ElmemError> {
        run_with(tier, job, &MigrationCosts::default())
    }

    fn run_with(
        tier: &mut CacheTier,
        job: MigrateJob<'_>,
        costs: &MigrationCosts,
    ) -> Result<MigrationReport, ElmemError> {
        let journal = &mut MigrationJournal::new();
        migrate(
            tier,
            &job,
            NOW,
            costs,
            &mut Supervision::none(),
            (journal, 0),
        )
    }

    /// Every node's per-class item vectors, in deterministic order — the
    /// byte-level store state the invariants below compare.
    fn fingerprint(tier: &CacheTier) -> Vec<(NodeId, ClassId, Vec<ItemMeta>)> {
        let mut nodes: Vec<NodeId> = tier.iter_nodes().map(|n| n.id()).collect();
        nodes.sort_unstable();
        let mut out = Vec::new();
        for id in nodes {
            let store = &tier.node(id).unwrap().store;
            for class in store.classes().ids() {
                out.push((id, class, store.dump_class(class).items));
            }
        }
        out
    }

    // ---- what every direction shares ---------------------------------------

    #[test]
    fn every_direction_keeps_the_engine_invariants() {
        let (mut provisioned, _) = warmed_tier();
        let new = provisioned.provision_nodes(1);
        let (plain, _) = warmed_tier();
        let jobs = [
            ("scale-in", &plain, DRAIN),
            (
                "scale-out",
                &provisioned,
                MigrateJob::ScaleOut { new_nodes: &new },
            ),
            (
                "naive",
                &plain,
                MigrateJob::NaiveScaleIn {
                    retiring: &[NodeId(0)],
                    fraction: 0.75,
                },
            ),
        ];
        for (name, before, job) in jobs {
            let mut tier = before.clone();
            let members = tier.membership().members().to_vec();
            let recipe = job.resolve(&tier, NOW, &MigrationCosts::default()).unwrap();
            let mut journal = MigrationJournal::new();
            let report = journaled(&mut tier, job, MasterPlan::default(), &mut journal);

            // The journal tells the full story and replays to a committed
            // job whose every sealed shipment is acked — and applied once,
            // through its destination's import ledger.
            let st = journal.replay(0);
            assert!(st.committed, "{name}");
            assert_eq!(st.resumes, 0, "{name}");
            let manifest = st.manifest.expect("plan sealed");
            assert_eq!(st.acked.len(), manifest.len(), "{name}");
            let ledgers = tier.iter_nodes().map(|n| n.import_ledger().len());
            assert_eq!(ledgers.sum::<usize>(), manifest.len(), "{name}");

            // An empty supervision never aborts, retries or resumes.
            assert!(report.outcome.is_completed(), "{name}");
            assert_eq!(report.outcome.crashed_node(), None, "{name}");
            assert_eq!(report.transfer_retries, 0, "{name}");
            assert!(report.resumes.is_empty(), "{name}");

            // The timeline is the sum of its phases.
            assert_eq!(report.started, NOW, "{name}");
            assert!(report.phases.total() > SimTime::ZERO, "{name}");
            assert_eq!(report.completed, NOW + report.phases.total(), "{name}");

            // The report's totals are the sealed plan's totals.
            let planned: u64 = manifest.iter().map(|m| m.take as u64).sum();
            assert!(planned > 0, "{name}: nothing shipped");
            assert_eq!(report.items_migrated, planned, "{name}");
            assert!(report.items_considered >= report.items_migrated, "{name}");
            assert!(report.bytes_migrated > ByteSize::ZERO, "{name}");

            // Nothing commits: the membership is untouched, every source
            // still holds exactly what it held, and nobody went offline.
            assert_eq!(tier.membership().members(), &members[..], "{name}");
            // Only destinations named by the plan changed at all.
            for (old, new) in fingerprint(before).iter().zip(&fingerprint(&tier)) {
                let source = recipe.sources.contains(&old.0);
                let dest = manifest.iter().any(|m| m.target == old.0);
                assert!(!source || old == new, "{name}: source {} modified", old.0);
                assert!(dest || old == new, "{name}: bystander {} changed", old.0);
            }
            for &src in &recipe.sources {
                assert!(tier.node(src).unwrap().is_online(), "{name}");
            }

            // Every destination passes the store audit.
            for m in &manifest {
                tier.node(m.target).unwrap().store.audit().unwrap();
            }
        }
    }

    // ---- scale-in ----------------------------------------------------------

    #[test]
    fn scale_in_moves_items_to_correct_targets() {
        let (mut tier, keys_on_0) = warmed_tier();
        let report = run(&mut tier, DRAIN).unwrap();
        assert!(report.items_migrated > 0);
        assert!(report.metadata_bytes > ByteSize::ZERO);
        // Migrated keys must sit on their retained-ring owner.
        let retained = tier.membership().ring().without(&[NodeId(0)]);
        let mut found = 0;
        for &k in &keys_on_0 {
            let target = retained.node_for(KeyId(k)).unwrap();
            if tier.node(target).unwrap().store.contains(KeyId(k)) {
                found += 1;
            }
        }
        assert!(found > 0, "no migrated key reached its target");
        assert_eq!(found, report.items_migrated);
    }

    #[test]
    fn migrated_items_are_hotter_than_evicted() {
        let (mut tier, _) = warmed_tier();
        run(&mut tier, DRAIN).unwrap();
        // Every class list on every retained node must still be sorted.
        for &id in tier.membership().members() {
            let store = &tier.node(id).unwrap().store;
            for class in store.classes().ids() {
                let dump = store.dump_class(class);
                for w in dump.items.windows(2) {
                    assert!(w[0].hotness() >= w[1].hotness());
                }
            }
        }
    }

    #[test]
    fn retiring_unknown_node_fails() {
        let (mut tier, _) = warmed_tier();
        let job = MigrateJob::ScaleIn {
            retiring: &[NodeId(77)],
            import_mode: ImportMode::Merge,
        };
        assert!(run(&mut tier, job).is_err());
    }

    #[test]
    fn retiring_everything_fails() {
        let (mut tier, _) = warmed_tier();
        let all: Vec<NodeId> = tier.membership().members().to_vec();
        let job = MigrateJob::ScaleIn {
            retiring: &all,
            import_mode: ImportMode::Merge,
        };
        assert!(run(&mut tier, job).is_err());
    }

    #[test]
    fn costs_scale_phase_times() {
        let (mut t1, _) = warmed_tier();
        let (mut t2, _) = warmed_tier();
        let cheap = MigrationCosts::default();
        let costly = MigrationCosts {
            dump_ns_per_item: cheap.dump_ns_per_item * 10,
            ..cheap
        };
        let r1 = run_with(&mut t1, DRAIN, &cheap).unwrap();
        let r2 = run_with(&mut t2, DRAIN, &costly).unwrap();
        assert!(r2.phases.dump > r1.phases.dump);
    }

    // ---- scale-out and Naive -----------------------------------------------

    #[test]
    fn scale_out_ships_remapped_keys() {
        let (mut tier, _) = warmed_tier();
        let new = tier.provision_nodes(1);
        let expanded = tier.membership().ring().with(&new);
        let report = run(&mut tier, MigrateJob::ScaleOut { new_nodes: &new }).unwrap();
        assert!(report.items_migrated > 0);
        assert_eq!(report.metadata_bytes, ByteSize::ZERO);
        // Every key that remaps to the new node and was cached must now be
        // on the new node.
        let new_store = &tier.node(new[0]).unwrap().store;
        assert_eq!(new_store.len(), report.items_migrated);
        for item in new_store.iter() {
            assert_eq!(expanded.node_for(item.key), Some(new[0]));
        }
        // Roughly 1/(k+1) = 1/5 of the 2000 cached keys.
        let frac = report.items_migrated as f64 / 2000.0;
        assert!((0.1..0.35).contains(&frac), "moved fraction {frac}");
    }

    #[test]
    fn scale_out_rejects_existing_member() {
        let (mut tier, _) = warmed_tier();
        let job = MigrateJob::ScaleOut {
            new_nodes: &[NodeId(0)],
        };
        assert!(run(&mut tier, job).is_err());
    }

    #[test]
    fn scale_out_rejects_unprovisioned() {
        let (mut tier, _) = warmed_tier();
        let job = MigrateJob::ScaleOut {
            new_nodes: &[NodeId(50)],
        };
        assert!(run(&mut tier, job).is_err());
    }

    #[test]
    fn naive_ships_the_hottest_fraction_with_fresh_stamps() {
        let (mut tier, keys_on_0) = warmed_tier();
        let job = MigrateJob::NaiveScaleIn {
            retiring: &[NodeId(0)],
            fraction: 0.5,
        };
        let report = run(&mut tier, job).unwrap();
        // One slab class on node 0: half of it ships, rounded up.
        assert_eq!(report.items_considered, keys_on_0.len() as u64);
        assert_eq!(report.items_migrated, keys_on_0.len().div_ceil(2) as u64);
        // Plain-`set` semantics: every import is stamped after `NOW`, far
        // above the residents' genuine access times.
        let retained = tier.membership().ring().without(&[NodeId(0)]);
        let mut fresh = 0;
        for &k in &keys_on_0 {
            let target = retained.node_for(KeyId(k)).unwrap();
            let store = &tier.node(target).unwrap().store;
            if let Some(item) = store.iter().find(|i| i.key == KeyId(k)) {
                assert!(item.last_access > NOW);
                fresh += 1;
            }
        }
        assert_eq!(fresh, report.items_migrated);

        let out_of_range = MigrateJob::NaiveScaleIn {
            retiring: &[NodeId(0)],
            fraction: 1.5,
        };
        assert!(matches!(
            run(&mut tier, out_of_range),
            Err(ElmemError::InvalidConfig(_))
        ));
    }

    #[test]
    fn ship_stage_rejects_a_shipment_mutated_after_sealing() {
        let (mut tier, _) = warmed_tier();
        let new = tier.provision_nodes(1);
        let job = MigrateJob::ScaleOut { new_nodes: &new };
        let recipe = job.resolve(&tier, NOW, &MigrationCosts::default()).unwrap();
        // One sealed shipment: a member's hottest class, bound for the new node.
        let dump = tier.node(NodeId(1)).unwrap().store.dump_metadata();
        let cell = (new[0], dump.classes[0].class);
        let items = dump.classes[0].items.clone();
        let mut plan = seal_everything(HashMap::from([(cell, vec![(NodeId(1), items)])]));
        plan[0].verify_content().unwrap();
        // Corrupt the sealed prefix in flight.
        plan[0].items[0].value_size += 1;

        let mut ctl = Ctl {
            journal: &mut MigrationJournal::new(),
            id: 0,
            master_crash: None,
        };
        let result = ship(
            &mut tier,
            &recipe,
            plan,
            &BTreeSet::new(),
            &mut Supervision::none(),
            &mut ctl,
            Progress::new(NOW),
        );
        assert!(matches!(result, Err(ElmemError::InvariantViolation(_))));
        assert!(
            tier.node(new[0]).unwrap().store.is_empty(),
            "a corrupt shipment must not reach the destination store"
        );
    }

    // ---- the plan ----------------------------------------------------------

    #[test]
    fn a_manifest_rebuilds_each_jobs_fresh_plan() {
        let (mut provisioned, _) = warmed_tier();
        let new = provisioned.provision_nodes(1);
        let (plain, _) = warmed_tier();
        let naive = MigrateJob::NaiveScaleIn {
            retiring: &[NodeId(0)],
            fraction: 0.75,
        };
        let fill = MigrateJob::ScaleOut { new_nodes: &new };
        for (tier, job) in [(&plain, DRAIN), (&provisioned, fill), (&plain, naive)] {
            let recipe = job.resolve(tier, NOW, &MigrationCosts::default()).unwrap();
            let fresh = plan(tier, &recipe, None, 1).unwrap();
            assert!(!fresh.shipments.is_empty(), "{job:?}");
            let manifest: Vec<ShipmentManifest> =
                fresh.shipments.iter().map(Shipment::manifest).collect();
            let rebuilt = plan(tier, &recipe, Some(&manifest), 1).unwrap();
            assert_eq!(rebuilt.shipments, fresh.shipments, "{job:?}");
            assert_eq!(rebuilt.dests, fresh.dests, "{job:?}");
            assert_eq!(rebuilt.dumped, fresh.dumped, "{job:?}");
            // A rebuild compares nothing, so its FuseCache phase is free.
            assert!(rebuilt.comparisons.is_empty(), "{job:?}");
        }
    }

    #[test]
    fn a_manifest_the_routed_lists_do_not_match_is_refused() {
        let (tier, _) = warmed_tier();
        let recipe = DRAIN
            .resolve(&tier, NOW, &MigrationCosts::default())
            .unwrap();
        let fresh = plan(&tier, &recipe, None, 1).unwrap();
        let sealed: Vec<ShipmentManifest> =
            fresh.shipments.iter().map(Shipment::manifest).collect();
        let routed = fresh.shipments[0].items.len();
        let bad = |edit: &dyn Fn(&mut ShipmentManifest)| {
            let mut manifest = sealed.clone();
            edit(&mut manifest[0]);
            plan(&tier, &recipe, Some(&manifest), 1).map(|p| p.shipments)
        };
        // Nothing is routed to the retiring node itself.
        let unrouted = bad(&|m| m.target = NodeId(0));
        assert!(matches!(
            unrouted,
            Err(ElmemError::InconsistentMigration(_))
        ));
        let too_long = bad(&|m| m.take = routed + 1);
        assert!(matches!(
            too_long,
            Err(ElmemError::InconsistentMigration(_))
        ));
        let forged = bad(&|m| m.checksum ^= 1);
        assert!(matches!(forged, Err(ElmemError::InvariantViolation(_))));
    }

    #[test]
    fn a_routed_target_with_no_shipment_aborts_phase_one_on_its_crash() {
        // Node 1 holds a full page of hot 40 KiB items; node 0's cold ones
        // route partly to node 1, where FuseCache keeps the residents, and
        // partly to nodes whose class is empty.
        let mut tier = CacheTier::new(ClusterConfig::small_test());
        let full = NodeId(1);
        let retained = tier.membership().ring().without(&[NodeId(0)]);
        let footprint = ItemMeta::new(KeyId(0), 40 << 10, NOW).footprint();
        let classes = tier.node(full).unwrap().store.classes();
        let per_page = classes.chunks_per_page(classes.class_for(footprint).unwrap());
        let (mut hot, mut cold) = (0, 0);
        for k in 0..10_000u64 {
            let key = KeyId(k);
            let owner = tier.node_for_key(key).unwrap();
            let (at, count) = match owner {
                NodeId(0) if cold < 2 * per_page => (100 + k, &mut cold),
                o if o == full && hot < per_page => (100_000 + k, &mut hot),
                _ => continue,
            };
            *count += 1;
            let node = tier.node_mut(owner).unwrap();
            node.store
                .set(key, 40 << 10, SimTime::from_secs(at))
                .unwrap();
        }
        let recipe = DRAIN
            .resolve(&tier, NOW, &MigrationCosts::default())
            .unwrap();
        let planned = plan(&tier, &recipe, None, 1).unwrap();
        let drained = &tier.node(NodeId(0)).unwrap().store;
        assert!(drained
            .iter()
            .any(|i| retained.node_for(i.key) == Some(full)));
        assert!(planned.dests.contains(&full));
        assert!(!planned.shipments.iter().any(|s| s.target == full));
        assert!(!planned.shipments.is_empty());

        // Node 1 still received node 0's metadata: its crash breaks phase 1.
        let crash_at = NOW + SimTime::from_millis(1);
        let mut inj = injector(FaultPlan::new().crash(crash_at, full));
        let report = supervised_run(&mut tier, &mut inj);
        assert_eq!(
            report.outcome,
            MigrationOutcome::Aborted {
                phase: MigrationPhase::MetadataTransfer,
                cause: AbortCause::DestinationCrashed(full),
            }
        );
    }

    // ---- the shipment checksum ----------------------------------------------

    fn item_of((key, value_size, last_access): (u64, u32, u64)) -> ItemMeta {
        ItemMeta::new(KeyId(key), value_size, SimTime::from_nanos(last_access))
    }

    proptest! {
        #[test]
        fn shipment_checksum_sees_any_one_field_change_and_any_swap(
            raw in prop::collection::vec(
                (any::<u64>(), any::<u32>(), any::<u64>()),
                1..=64,
            ),
            pick in any::<u64>(),
            field in 0usize..3,
            delta in 1u64..=u64::MAX,
        ) {
            let items: Vec<ItemMeta> = raw.into_iter().map(item_of).collect();
            let sealed = shipment_checksum(&items);
            let len = items.len();
            let i = (pick % len as u64) as usize;

            // Xor a nonzero value into one field of one item.
            let mut changed = items.clone();
            let item = &mut changed[i];
            match field {
                0 => item.key.0 ^= delta,
                // Fold the high half in so the 32-bit delta stays nonzero.
                1 => item.value_size ^= (delta | delta >> 32) as u32,
                _ => item.last_access = SimTime::from_nanos(item.last_access.as_nanos() ^ delta),
            }
            prop_assert_ne!(shipment_checksum(&changed), sealed);

            // Swap two distinct items: the order is part of the content.
            if len > 1 {
                let j = (i + 1 + (pick >> 32) as usize % (len - 1)) % len;
                prop_assume!(items[i] != items[j]);
                let mut swapped = items.clone();
                swapped.swap(i, j);
                prop_assert_ne!(shipment_checksum(&swapped), sealed);
            }
        }
    }

    #[test]
    fn shipment_checksum_known_answers() {
        // The journal records this value: a change here is a format change.
        assert_eq!(shipment_checksum(&[]), 0xcbf29ce484222325);
        // The value the four-field format gave these items when each also
        // carried the never-reached deadline `u64::MAX`.
        let items = [
            (7, 64, 1_000),
            (42, 1_024, 2_000_000),
            (u64::MAX, 10_000, 3),
        ]
        .map(item_of);
        assert_eq!(shipment_checksum(&items), 0xd5c2_6f36_5932_ea3d);
    }

    // ---- supervision -----------------------------------------------------

    fn injector(plan: FaultPlan) -> FaultInjector {
        FaultInjector::new(plan, DetRng::seed(42).split("faults"))
    }

    fn supervised_run(tier: &mut CacheTier, faults: &mut FaultInjector) -> MigrationReport {
        let mut sup = Supervision::with_faults(faults);
        let journal = &mut MigrationJournal::new();
        migrate(
            tier,
            &DRAIN,
            NOW,
            &MigrationCosts::default(),
            &mut sup,
            (journal, 0),
        )
        .unwrap()
    }

    #[test]
    fn source_crash_in_phase1_aborts_without_imports() {
        let (mut tier, _) = warmed_tier();
        let crash_at = NOW + SimTime::from_millis(1);
        let mut inj = injector(FaultPlan::new().crash(crash_at, NodeId(0)));
        let report = supervised_run(&mut tier, &mut inj);
        assert_eq!(
            report.outcome,
            MigrationOutcome::Aborted {
                phase: MigrationPhase::MetadataTransfer,
                cause: AbortCause::SourceCrashed(NodeId(0)),
            }
        );
        assert_eq!(report.items_migrated, 0);
        assert_eq!(report.completed, crash_at);
        // The migration mutated no destination store.
        for id in [1u32, 2, 3] {
            let (fresh, _) = warmed_tier();
            assert_eq!(
                tier.node(NodeId(id)).unwrap().store.len(),
                fresh.node(NodeId(id)).unwrap().store.len()
            );
        }
    }

    #[test]
    fn destination_crash_in_phase3_keeps_partial_imports() {
        // Learn the fault-free phase boundaries first.
        let (mut probe, _) = warmed_tier();
        let clean = run(&mut probe, DRAIN).unwrap();
        assert!(clean.phases.data_transfer > SimTime::ZERO);
        let data_start = NOW
            + clean.phases.scoring
            + clean.phases.dump
            + clean.phases.metadata_transfer
            + clean.phases.fusecache;
        // Crash the highest-numbered destination just inside the data
        // window: moves to lower-numbered destinations land first.
        let crash_at = data_start + SimTime::from_nanos(1);
        let (mut tier, _) = warmed_tier();
        let mut inj = injector(FaultPlan::new().crash(crash_at, NodeId(3)));
        let report = supervised_run(&mut tier, &mut inj);
        match report.outcome {
            MigrationOutcome::Aborted { phase, cause } => {
                assert_eq!(phase, MigrationPhase::DataMigration);
                assert_eq!(cause, AbortCause::DestinationCrashed(NodeId(3)));
            }
            other => panic!("expected abort, got {other:?}"),
        }
        assert!(
            report.items_migrated > 0,
            "imports to healthy destinations are kept"
        );
        assert!(report.items_migrated < clean.items_migrated);
        assert_eq!(report.completed, crash_at);
    }

    #[test]
    fn certain_drops_exhaust_retry_budget() {
        let (mut tier, _) = warmed_tier();
        let mut inj = injector(FaultPlan::new().drop_metadata_with_prob(1.0));
        let report = supervised_run(&mut tier, &mut inj);
        match report.outcome {
            MigrationOutcome::Aborted { phase, cause } => {
                assert_eq!(phase, MigrationPhase::MetadataTransfer);
                assert_eq!(
                    cause,
                    AbortCause::TransferRetriesExhausted {
                        source: NodeId(0),
                        attempts: MAX_SEND_RETRIES,
                    }
                );
            }
            other => panic!("expected abort, got {other:?}"),
        }
        assert_eq!(report.transfer_retries, MAX_SEND_RETRIES);
        assert_eq!(report.items_migrated, 0);
        // Each failed attempt still burned link time.
        assert!(report.completed > NOW);
    }

    #[test]
    fn occasional_drops_retry_and_complete() {
        let (mut tier, _) = warmed_tier();
        let mut inj = injector(
            FaultPlan::new()
                .drop_metadata_with_prob(0.3)
                .drop_transfers_with_prob(0.15),
        );
        let report = supervised_run(&mut tier, &mut inj);
        // With these probabilities and a budget of 4 per shipment, the
        // seeded run completes after some retries.
        assert!(report.outcome.is_completed(), "{:?}", report.outcome);
        assert!(report.transfer_retries > 0);
        // Retries push the timeline out past the fault-free run.
        let (mut clean_tier, _) = warmed_tier();
        let clean = run(&mut clean_tier, DRAIN).unwrap();
        assert!(report.completed > clean.completed);
    }

    #[test]
    fn supervised_runs_are_deterministic() {
        let run = || {
            let (mut tier, _) = warmed_tier();
            let mut inj = injector(
                FaultPlan::new()
                    .crash(NOW + SimTime::from_secs(3), NodeId(2))
                    .drop_metadata_with_prob(0.4),
            );
            supervised_run(&mut tier, &mut inj)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff(1), SimTime::from_millis(500));
        assert_eq!(backoff(2), SimTime::from_secs(1));
        assert_eq!(backoff(3), SimTime::from_secs(2));
        assert_eq!(backoff(10), SimTime::from_secs(8));
        assert_eq!(backoff(60), SimTime::from_secs(8));
    }

    // ---- crash-recoverable control plane (DESIGN.md §13) -----------------

    /// Runs `job` journaled as job 0 under the Master-crash plan `master`.
    fn journaled(
        tier: &mut CacheTier,
        job: MigrateJob<'_>,
        master: MasterPlan,
        journal: &mut MigrationJournal,
    ) -> MigrationReport {
        let mut sup = Supervision::none();
        sup.master = master;
        migrate(
            tier,
            &job,
            NOW,
            &MigrationCosts::default(),
            &mut sup,
            (journal, 0),
        )
        .unwrap()
    }

    fn crash_at(crashes: Vec<SimTime>) -> MasterPlan {
        MasterPlan {
            crashes,
            ..MasterPlan::default()
        }
    }

    #[test]
    fn scale_in_resumes_byte_identically_at_any_crash_point() {
        let (mut clean, _) = warmed_tier();
        let mut clean_journal = MigrationJournal::new();
        let clean_report = journaled(&mut clean, DRAIN, MasterPlan::default(), &mut clean_journal);
        let want = fingerprint(&clean);
        let span = clean_report.completed.saturating_sub(NOW).as_nanos();
        assert!(span > 0);

        let mut saw_suppressed_duplicate = false;
        for num in [1u64, 3, 5, 7, 9, 995, 999] {
            let crash = NOW + SimTime::from_nanos(span * num / 1000);
            let (mut tier, _) = warmed_tier();
            let mut journal = MigrationJournal::new();
            let report = journaled(&mut tier, DRAIN, crash_at(vec![crash]), &mut journal);
            assert_eq!(report.outcome, MigrationOutcome::Completed);
            assert_eq!(report.resumes.len(), 1, "crash at {num}/1000");
            assert_eq!(report.resumes[0].crashed_at, crash);
            assert_eq!(report.started, NOW);
            assert_eq!(
                fingerprint(&tier),
                want,
                "resumed store state diverged (crash at {num}/1000)"
            );
            assert_eq!(report.items_migrated, clean_report.items_migrated);
            assert_eq!(report.bytes_migrated, clean_report.bytes_migrated);
            let st = journal.replay(0);
            assert!(st.committed);
            assert_eq!(st.resumes, 1);
            for id in tier.membership().members() {
                if tier
                    .node(*id)
                    .unwrap()
                    .import_ledger()
                    .duplicates_suppressed()
                    > 0
                {
                    saw_suppressed_duplicate = true;
                }
            }
        }
        assert!(
            saw_suppressed_duplicate,
            "no crash point exercised the ack-durability-lag re-delivery"
        );
    }

    #[test]
    fn resume_twice_equals_resume_once() {
        let (mut clean, _) = warmed_tier();
        let clean_report = journaled(
            &mut clean,
            DRAIN,
            MasterPlan::default(),
            &mut MigrationJournal::new(),
        );
        let span = clean_report.completed.saturating_sub(NOW).as_nanos();
        // First crash mid-flight; the second lands inside the *resumed*
        // attempt (which replays the tail after the 500 ms restart).
        let first = NOW + SimTime::from_nanos(span / 2);
        let second = first + SimTime::from_millis(500) + SimTime::from_nanos(span / 4);
        let (mut tier, _) = warmed_tier();
        let mut journal = MigrationJournal::new();
        let report = journaled(
            &mut tier,
            DRAIN,
            crash_at(vec![first, second]),
            &mut journal,
        );
        assert_eq!(report.outcome, MigrationOutcome::Completed);
        assert_eq!(report.resumes.len(), 2);
        assert_eq!(fingerprint(&tier), fingerprint(&clean));
        assert_eq!(report.items_migrated, clean_report.items_migrated);
        assert_eq!(journal.replay(0).resumes, 2);
    }

    #[test]
    fn abort_recovery_gives_up_with_master_crashed() {
        let (mut clean, _) = warmed_tier();
        let clean_report = journaled(
            &mut clean,
            DRAIN,
            MasterPlan::default(),
            &mut MigrationJournal::new(),
        );
        let span = clean_report.completed.saturating_sub(NOW).as_nanos();
        let crash = NOW + SimTime::from_nanos(span * 9 / 10);
        let (mut tier, _) = warmed_tier();
        let mut journal = MigrationJournal::new();
        let report = journaled(
            &mut tier,
            DRAIN,
            MasterPlan {
                crashes: vec![crash],
                recovery: MasterRecovery::Abort,
            },
            &mut journal,
        );
        assert_eq!(
            report.outcome,
            MigrationOutcome::Aborted {
                phase: MigrationPhase::DataMigration,
                cause: AbortCause::MasterCrashed,
            }
        );
        assert_eq!(report.completed, crash + SimTime::from_millis(500));
        assert_eq!(report.resumes.len(), 1);
        let st = journal.replay(0);
        assert!(st.aborted && !st.committed);
    }

    #[test]
    fn scale_out_resumes_byte_identically() {
        let (mut clean, _) = warmed_tier();
        let new = clean.provision_nodes(1);
        let fill = MigrateJob::ScaleOut { new_nodes: &new };
        let clean_report = journaled(
            &mut clean,
            fill,
            MasterPlan::default(),
            &mut MigrationJournal::new(),
        );
        let span = clean_report.completed.saturating_sub(NOW).as_nanos();
        for num in [1u64, 500, 999] {
            let crash = NOW + SimTime::from_nanos(span * num / 1000);
            let (mut tier, _) = warmed_tier();
            assert_eq!(tier.provision_nodes(1), new);
            let mut journal = MigrationJournal::new();
            let report = journaled(&mut tier, fill, crash_at(vec![crash]), &mut journal);
            assert_eq!(report.outcome, MigrationOutcome::Completed);
            assert_eq!(report.resumes.len(), 1);
            assert_eq!(
                fingerprint(&tier),
                fingerprint(&clean),
                "store contents diverged (crash at {num}/1000)"
            );
            assert_eq!(report.items_migrated, clean_report.items_migrated);
        }
    }

    #[test]
    fn each_direction_journals_its_own_record_sequence() {
        let labels = |job: MigrateJob<'_>, tier: &mut CacheTier| {
            let mut journal = MigrationJournal::new();
            journaled(tier, job, MasterPlan::default(), &mut journal);
            let mut labels: Vec<String> = Vec::new();
            for e in journal.entries() {
                let label = match e.record {
                    JournalRecord::PhaseDone { phase, .. } => {
                        format!("done:{}", phase.label())
                    }
                    ref other => other.label().to_string(),
                };
                // One line per run of acks: how many there are is the
                // plan's business, not the sequence's.
                if labels.last() != Some(&label) {
                    labels.push(label);
                }
            }
            labels
        };
        let (mut tier, _) = warmed_tier();
        assert_eq!(
            labels(DRAIN, &mut tier),
            [
                "started",
                "done:metadata_transfer",
                "plan_sealed",
                "done:hotness_comparison",
                "shipment_acked",
                "done:data_migration",
                "committed",
            ]
        );
        let (mut tier, _) = warmed_tier();
        let new = tier.provision_nodes(1);
        assert_eq!(
            labels(MigrateJob::ScaleOut { new_nodes: &new }, &mut tier),
            [
                "started",
                "plan_sealed",
                "done:metadata_transfer",
                "shipment_acked",
                "done:data_migration",
                "committed",
            ]
        );
    }
}
