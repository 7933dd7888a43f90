//! The 3-phase migration (§III-D): metadata transfer, hotness comparison
//! (FuseCache), and data migration, with the per-phase cost model that
//! reproduces the paper's ~2-minute overhead breakdown (§V-B2).
//!
//! Scale-in: every retiring Agent hashes its keys against the *retained*
//! membership and ships `(key, timestamp)` metadata to the target nodes;
//! each retained Agent runs FuseCache per slab class over its own MRU dump
//! plus the incoming lists; the Master then directs the retiring nodes to
//! ship exactly the chosen KV pairs, which the retained nodes batch-import
//! (prepending/merging at the MRU head, evicting strictly colder items).
//!
//! Scale-out (§III-D4): each existing node ships the keys that hash to the
//! new nodes (≈ `1/(k+1)` of its keys); FuseCache is only needed if the
//! shipped set exceeds the new node's capacity.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};

use elmem_cluster::{CacheNode, CacheTier};
use elmem_hash::HashRing;
use elmem_sim::fault::FaultInjector;
use elmem_store::{
    ClassDump, ClassId, Hotness, ImportMode, ItemMeta, MetadataDump, KEY_BYTES, TIMESTAMP_BYTES,
};
use elmem_util::par::par_map_indexed;
use elmem_util::{ByteSize, ElmemError, NodeId, SimTime};
use serde::{Deserialize, Serialize};

use crate::fusecache::fusecache_instrumented;
use crate::journal::{
    JournalRecord, MasterPlan, MasterRecovery, MigrationJournal, MigrationKind, ReplayState,
    ShipmentManifest, ACK_DURABILITY_LAG,
};

/// Per-(target, class) inbound metadata lists, keyed by source node.
type InboundMap = HashMap<(NodeId, ClassId), Vec<(NodeId, Vec<ItemMeta>)>>;

/// CPU-side cost constants of the migration pipeline, calibrated so the
/// paper-scale deployment (≈4 M items migrated) lands on the §V-B2
/// breakdown: score ≈20 s, hash+dump ≈50 s, metadata transfer ≈70 s,
/// FuseCache <2 s, data transfer ≈45 s, import ≈80 s.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// supervisor on a fault or deadline.
    pub outcome: MigrationOutcome,
    /// Shipment attempts beyond the first (metadata + data phases),
    /// consumed from the [`RetryPolicy`] budget by injected drops.
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResumePoint {
    /// When the Master crashed.
    pub crashed_at: SimTime,
    /// When the restarted Master finished replaying the journal and
    /// resumed the migration.
    pub resumed_at: SimTime,
    /// The phase the crash landed in.
    pub phase: MigrationPhase,
}

/// The three migration phases of §III-D, as the supervisor attributes
/// faults to them. The preliminary scoring + dump work is folded into
/// [`MigrationPhase::MetadataTransfer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MigrationPhase {
    /// §III-D1: dumping `(key, timestamp)` metadata and shipping it.
    MetadataTransfer,
    /// §III-D2: FuseCache on the destinations.
    HotnessComparison,
    /// §III-D3: shipping and importing the chosen KV pairs.
    DataMigration,
}

/// Why the supervisor aborted a migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AbortCause {
    /// A retiring source died mid-flight.
    SourceCrashed(NodeId),
    /// A retained (or newly provisioned) destination died mid-flight.
    DestinationCrashed(NodeId),
    /// A phase overran its [`PhaseDeadlines`] budget.
    DeadlineExceeded,
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

/// Per-phase wall-clock budgets. `None` disables the check for that
/// phase; [`PhaseDeadlines::none`] (the default) supervises nothing, so
/// unsupervised migrations behave exactly as before.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseDeadlines {
    /// Budget for the metadata-transfer duration (excluding scoring+dump).
    pub metadata: Option<SimTime>,
    /// Budget for the FuseCache duration.
    pub hotness: Option<SimTime>,
    /// Budget for data transfer + import combined.
    pub data: Option<SimTime>,
}

impl PhaseDeadlines {
    /// No deadlines.
    pub fn none() -> Self {
        PhaseDeadlines::default()
    }
}

/// Bounded-exponential-backoff retry budget for dropped shipments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Retries allowed per shipment before aborting (beyond the first
    /// attempt).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each retry.
    pub backoff_base: SimTime,
    /// Backoff ceiling.
    pub backoff_cap: SimTime,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff_base: SimTime::from_millis(500),
            backoff_cap: SimTime::from_secs(8),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based): `base · 2^(a-1)`,
    /// capped.
    pub fn backoff(&self, attempt: u32) -> SimTime {
        let exp = attempt.saturating_sub(1).min(32);
        let ns = self
            .backoff_base
            .as_nanos()
            .saturating_mul(1u64 << exp)
            .min(self.backoff_cap.as_nanos());
        SimTime::from_nanos(ns)
    }
}

/// Supervision context for a migration: deadlines, the retry budget, and
/// (optionally) the fault injector whose scheduled crashes and sampled
/// drops the supervisor consults. [`Supervision::none`] supervises
/// nothing — the unsupervised entry points use it.
#[derive(Debug)]
pub struct Supervision<'a> {
    /// Per-phase wall-clock budgets.
    pub deadlines: PhaseDeadlines,
    /// Retry budget for dropped shipments.
    pub retry: RetryPolicy,
    /// The experiment's fault injector, when faults are being injected.
    pub faults: Option<&'a mut FaultInjector>,
    /// Scheduled Master crashes and the restart/recovery policy. Only the
    /// journaled entry points consult it; the default plan never crashes.
    pub master: MasterPlan,
}

impl Supervision<'static> {
    /// No deadlines, default retries, no faults.
    pub fn none() -> Self {
        Supervision {
            deadlines: PhaseDeadlines::none(),
            retry: RetryPolicy::default(),
            faults: None,
            master: MasterPlan::default(),
        }
    }
}

impl<'a> Supervision<'a> {
    /// Supervision against `injector` with default deadlines/retries.
    pub fn with_faults(injector: &'a mut FaultInjector) -> Self {
        Supervision {
            deadlines: PhaseDeadlines::none(),
            retry: RetryPolicy::default(),
            faults: Some(injector),
            master: MasterPlan::default(),
        }
    }

    /// When `node` crashes strictly before `end`, if ever.
    pub(crate) fn crash_before(&self, node: NodeId, end: SimTime) -> Option<SimTime> {
        self.faults
            .as_ref()
            .and_then(|f| f.crash_time(node))
            .filter(|&t| t < end)
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

/// How the destination merges migrated items (ElMem uses `Merge`; the
/// Naive comparator uses `Prepend` — see `policies`).
pub use elmem_store::ImportMode as MigrationImportMode;

// ---------------------------------------------------------------------------
// Planning fast path
//
// The migration *plan* — which items each retiring source ships to which
// (destination, class) cell — is a pure function of the tier: dump + route
// per source, then one FuseCache selection per cell. Both stages fan out
// over `elmem_util::par::par_map_indexed` and reassemble in input order
// (sources in retiring order, cells in sorted (target, class) order), so
// the plan is byte-identical to a serial pass whatever the worker count.
// The serial per-source link scheduling / fault sampling stays in the
// supervised executor: link state and drop sampling are order-sensitive.
// ---------------------------------------------------------------------------

/// Worker threads used by the migration planner; 0 = resolve automatically.
static PLANNING_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Environment variable overriding the automatic planner worker count.
pub const MIGRATION_JOBS_ENV: &str = "ELMEM_MIGRATION_JOBS";

/// Sets the planner's worker-thread count process-wide (0 = automatic:
/// [`MIGRATION_JOBS_ENV`], else all cores). The plan is byte-identical
/// whatever the count — this knob trades threads for wall-clock only.
pub fn set_planning_jobs(jobs: usize) {
    PLANNING_JOBS.store(jobs, Ordering::Relaxed);
}

fn auto_planning_jobs() -> usize {
    match PLANNING_JOBS.load(Ordering::Relaxed) {
        0 => std::env::var(MIGRATION_JOBS_ENV)
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&j: &usize| j >= 1)
            .unwrap_or_else(rayon::current_num_threads),
        n => n,
    }
}

/// Below this many items an automatically-parallelized stage stays on the
/// no-thread serial path: the tiers in unit tests and small sweep cells
/// migrate faster than worker threads spawn.
const PAR_MIN_ITEMS: u64 = 32_768;

/// Worker threads for the routing and FuseCache stages of a migration
/// that dumps `sources` — the one decision the planner and both executors
/// share, so what [`plan_scale_in_shipments`] times is what a migration
/// runs. An explicit `requested` count is honoured as is; `0` resolves
/// automatically, staying serial below [`PAR_MIN_ITEMS`] dumped items.
/// The fan-out unit is (source, shard), so the number of sources does not
/// enter: one large source saturates every job.
fn fanout_jobs(tier: &CacheTier, sources: &[NodeId], requested: usize) -> usize {
    if requested != 0 {
        return requested;
    }
    let items: u64 = sources
        .iter()
        .filter_map(|&id| tier.node(id).ok())
        .map(|n| n.store.len())
        .sum();
    if items < PAR_MIN_ITEMS {
        1
    } else {
        auto_planning_jobs()
    }
}

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
    /// The retiring node shipping the items.
    pub source: NodeId,
    /// The retained node importing them.
    pub target: NodeId,
    /// The slab class they belong to.
    pub class: ClassId,
    items: Vec<ItemMeta>,
    take: usize,
    /// Content checksum over the chosen items, sealed at plan time.
    checksum: u64,
}

impl Shipment {
    /// Seals a whole item list as one shipment (`take` = everything) —
    /// the scale-out path, where no FuseCache prefix is chosen.
    pub(crate) fn sealed(
        seq: u64,
        source: NodeId,
        target: NodeId,
        class: ClassId,
        items: Vec<ItemMeta>,
    ) -> Self {
        let take = items.len();
        let checksum = shipment_checksum(&items);
        Shipment {
            seq,
            source,
            target,
            class,
            items,
            take,
            checksum,
        }
    }

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
    /// against the sealed one — the end-to-end integrity check the chaos
    /// engine runs at import time (DESIGN.md §12). Any mutation of the
    /// item prefix between planning and import is caught here.
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

/// FNV-1a over every field of every item, in shipment order. Pure content
/// hash: two shipments with the same items in the same order collide by
/// construction.
pub fn shipment_checksum(items: &[ItemMeta]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for item in items {
        mix(item.key.0);
        mix(u64::from(item.value_size));
        mix(item.last_access.as_nanos());
        mix(item.expires.as_nanos());
    }
    h
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

/// Phase-1 routing result for one retiring source: its metadata dump
/// hashed against the retained ring.
struct RoutedSource {
    n_items: u64,
    per_target: HashMap<(NodeId, ClassId), Vec<ItemMeta>>,
}

/// Dumps every retiring source and hashes each item against the retained
/// ring — the pure part of phase 1 (§III-D1). The dump fan-out is
/// per-(source, **shard**), not per-source: a handful of large retiring
/// nodes still saturate every job, and the per-shard dumps are merged
/// back into each source's canonical dump (byte-identical to an unsharded
/// `dump_metadata`, DESIGN.md §14) before routing, so the plan is
/// invariant in both the shard count and the job count.
fn route_sources(
    tier: &CacheTier,
    retiring: &[NodeId],
    retained_ring: &HashRing,
    jobs: usize,
) -> Result<Vec<RoutedSource>, ElmemError> {
    // Phase 1a: one dump job per (retiring source, shard).
    let mut shard_jobs: Vec<(NodeId, usize)> = Vec::new();
    for &src in retiring {
        for si in 0..live_node(tier, src)?.store.shard_count() {
            shard_jobs.push((src, si));
        }
    }
    let parts: Vec<Vec<ClassDump>> = par_map_indexed(jobs, &shard_jobs, |_, &(src, si)| {
        Ok(live_node(tier, src)?.store.dump_shard_classes(si))
    })
    .into_iter()
    .collect::<Result<_, ElmemError>>()?;
    // Phase 1b: reassemble each source's canonical dump from its shard
    // slices, then hash it against the retained ring, parallel over
    // sources.
    let mut dumps: Vec<MetadataDump> = Vec::with_capacity(retiring.len());
    let mut cursor = 0;
    for &src in retiring {
        let store = &live_node(tier, src)?.store;
        let n = store.shard_count();
        dumps.push(store.merge_shard_dumps(&parts[cursor..cursor + n]));
        cursor += n;
    }
    par_map_indexed(jobs, &dumps, |_, dump| {
        let n_items = dump.total_items();
        let mut per_target: HashMap<(NodeId, ClassId), Vec<ItemMeta>> = HashMap::new();
        for class_dump in &dump.classes {
            for item in &class_dump.items {
                let target = retained_ring.node_for(item.key).ok_or_else(|| {
                    ElmemError::InconsistentMigration("retained ring is empty".to_string())
                })?;
                per_target
                    .entry((target, class_dump.class))
                    .or_default()
                    .push(*item);
            }
        }
        Ok(RoutedSource {
            n_items,
            per_target,
        })
    })
    .into_iter()
    .collect()
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
    // (descending) order — which the MRU walk already has unless
    // same-instant accesses landed out of tie-break order.
    let mut own: Vec<Hotness> = dest_store
        .iter_class_mru(cell.class)
        .map(|i| i.hotness())
        .collect();
    if !own.is_sorted_by(|a, b| a >= b) {
        own.sort_unstable_by(|a, b| b.cmp(a));
    }
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

/// The phase-2 output: the shipment plan plus the comparison counts the
/// cost model charges per destination.
struct CellOutcome {
    plan: Vec<Shipment>,
    per_dest_comparisons: HashMap<NodeId, u64>,
    comparisons: u64,
}

/// Converts routed inbound lists into the phase-3 shipment plan: one
/// FuseCache selection per (target, class) cell, fanned out over `jobs`
/// workers, results reassembled in `dest_keys` (sorted) order so the plan
/// is byte-identical to a serial pass. Each cell's chosen items are moved
/// — not cloned — into the plan.
fn build_shipments(
    tier: &CacheTier,
    dest_keys: &[(NodeId, ClassId)],
    mut inbound: InboundMap,
    jobs: usize,
) -> Result<CellOutcome, ElmemError> {
    let cells: Vec<PlanCell> = dest_keys
        .iter()
        .map(|&(target, class)| {
            let sources = inbound.remove(&(target, class)).ok_or_else(|| {
                ElmemError::InconsistentMigration(format!(
                    "no inbound lists for destination cell ({target}, {class})"
                ))
            })?;
            Ok(PlanCell {
                target,
                class,
                sources,
            })
        })
        .collect::<Result<_, ElmemError>>()?;
    let picks = par_map_indexed(jobs, &cells, |_, cell| fuse_cell(tier, cell));
    let mut outcome = CellOutcome {
        plan: Vec::new(),
        per_dest_comparisons: HashMap::new(),
        comparisons: 0,
    };
    // Reassembly: cells in sorted (target, class) order, sources within a
    // cell in retiring order — the exact order the serial code produced.
    for (cell, result) in cells.into_iter().zip(picks) {
        let (picks, comparisons) = result?;
        *outcome.per_dest_comparisons.entry(cell.target).or_default() += comparisons;
        outcome.comparisons += comparisons;
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
                outcome.plan.push(Shipment {
                    seq: outcome.plan.len() as u64,
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
    Ok(outcome)
}

/// The migration *planning* pipeline alone — §III-D1's dump + routing and
/// §III-D2's FuseCache selection — without mutating the tier, charging
/// simulated time, or shipping anything: the pure function the data-plane
/// benchmark times and whose parallel/serial byte-identity the tests pin.
///
/// `jobs` is the worker-thread count for both stages; `0` resolves
/// automatically ([`set_planning_jobs`], else [`MIGRATION_JOBS_ENV`], else
/// all cores) and applies a work-size threshold so tiny migrations stay on
/// the no-thread serial path. The returned plan is byte-identical
/// whatever `jobs` is.
///
/// # Errors
///
/// Same validation as [`migrate_scale_in`].
pub fn plan_scale_in_shipments(
    tier: &CacheTier,
    retiring: &[NodeId],
    jobs: usize,
) -> Result<(Vec<Shipment>, PlanStats), ElmemError> {
    validate_retiring(tier.membership().members(), retiring)?;
    let retained_ring = tier.membership().ring().without(retiring);
    let jobs = fanout_jobs(tier, retiring, jobs);
    let routed = route_sources(tier, retiring, &retained_ring, jobs)?;
    let mut items_considered = 0u64;
    let mut inbound: InboundMap = HashMap::new();
    for (&src, routed_src) in retiring.iter().zip(routed) {
        items_considered += routed_src.n_items;
        for ((target, class), items) in routed_src.per_target {
            inbound
                .entry((target, class))
                .or_default()
                .push((src, items));
        }
    }
    let mut dest_keys: Vec<(NodeId, ClassId)> = inbound.keys().copied().collect();
    dest_keys.sort_unstable();
    let outcome = build_shipments(tier, &dest_keys, inbound, jobs)?;
    Ok((
        outcome.plan,
        PlanStats {
            items_considered,
            cells: dest_keys.len(),
            comparisons: outcome.comparisons,
        },
    ))
}

/// Executes the 3-phase scale-in migration: moves the globally hottest
/// subset of each retiring node's data to the retained nodes.
///
/// Does **not** flip the membership — the caller commits the scaling at
/// `report.completed` (requests keep being served by the old membership
/// during the migration, exactly as in the paper).
///
/// # Errors
///
/// * [`ElmemError::InvalidScaling`] if `retiring` is empty or would empty
///   the membership;
/// * [`ElmemError::UnknownNode`] if a retiring id is not a member.
pub fn migrate_scale_in(
    tier: &mut CacheTier,
    retiring: &[NodeId],
    now: SimTime,
    costs: &MigrationCosts,
    import_mode: ImportMode,
) -> Result<MigrationReport, ElmemError> {
    migrate_scale_in_supervised(
        tier,
        retiring,
        now,
        costs,
        import_mode,
        &mut Supervision::none(),
    )
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

/// Builds the terminal outcome for an aborted migration attempt:
/// `completed` is the abort instant (never before `started`).
#[allow(clippy::too_many_arguments)]
fn aborted(
    started: SimTime,
    at: SimTime,
    phases: PhaseBreakdown,
    phase: MigrationPhase,
    cause: AbortCause,
    items_migrated: u64,
    bytes_migrated: ByteSize,
    metadata_bytes: ByteSize,
    items_considered: u64,
    transfer_retries: u32,
) -> ExecOutcome {
    ExecOutcome::Done(MigrationReport {
        started,
        completed: at.max(started),
        phases,
        items_migrated,
        bytes_migrated,
        metadata_bytes,
        items_considered,
        outcome: MigrationOutcome::Aborted { phase, cause },
        transfer_retries,
        resumes: Vec::new(),
    })
}

// ---------------------------------------------------------------------------
// Crash-recoverable execution (DESIGN.md §13)
//
// The executors below run one *attempt* of a migration. Under an [`ExecCtl`]
// with a scheduled Master crash they stop at the first boundary the crash
// precedes and return [`ExecOutcome::Interrupted`]; the journaled runner
// ([`run_journaled`]) then truncates the journal to what was durable at the
// crash instant, replays it, and launches the next attempt — resuming from
// the sealed manifest when the crash landed after phase 2, or replanning
// from scratch when it landed earlier (phases 1–2 never mutate any store,
// so a pre-seal replan reproduces the identical plan from the unmutated
// sources).
// ---------------------------------------------------------------------------

/// Per-attempt execution control for the journaled runner: the next
/// scheduled Master crash, the journal to append durable records to, and
/// the replayed state when this attempt is a resume.
struct ExecCtl<'j> {
    /// Next Master crash strictly after the attempt's start, if any.
    master_crash: Option<SimTime>,
    /// The journal and this migration's job id, when journaling.
    journal: Option<(&'j mut MigrationJournal, u64)>,
    /// Replayed journal state when resuming an interrupted migration.
    resume: Option<ReplayState>,
}

impl ExecCtl<'static> {
    /// No Master crashes, no journal: the legacy single-attempt path.
    fn none() -> Self {
        ExecCtl {
            master_crash: None,
            journal: None,
            resume: None,
        }
    }
}

impl ExecCtl<'_> {
    /// The Master crash preempting work that completes at `boundary`, if
    /// one is scheduled strictly before it.
    fn interrupted(&self, boundary: SimTime) -> Option<SimTime> {
        self.master_crash.filter(|&c| c < boundary)
    }

    /// The journaled job id, when journaling.
    fn id(&self) -> Option<u64> {
        self.journal.as_ref().map(|(_, id)| *id)
    }

    /// Appends a record (built from the job id) that becomes durable at
    /// `durable_at`. No-op without a journal.
    fn log(&mut self, durable_at: SimTime, record: impl FnOnce(u64) -> JournalRecord) {
        if let Some((journal, id)) = self.journal.as_mut() {
            journal.append(durable_at, record(*id));
        }
    }
}

/// How one migration attempt ended.
enum ExecOutcome {
    /// The attempt ran to a terminal report (completed or fault-aborted).
    Done(MigrationReport),
    /// A Master crash at `at` interrupted the attempt inside `phase`.
    Interrupted { at: SimTime, phase: MigrationPhase },
}

/// Which phase a fault time falls in, given the phase boundaries.
fn phase_of(t: SimTime, phase1_end: SimTime, phase2_end: SimTime) -> MigrationPhase {
    if t < phase1_end {
        MigrationPhase::MetadataTransfer
    } else if t < phase2_end {
        MigrationPhase::HotnessComparison
    } else {
        MigrationPhase::DataMigration
    }
}

/// Rebuilds a sealed shipment plan from freshly routed source dumps.
///
/// Sources are never mutated before the scale-in commits, so re-routing
/// their dumps reproduces the exact item lists FuseCache chose prefixes
/// from; each sealed `take` prefix must then hash to the sealed checksum.
/// Any divergence means the world changed under the journal — an
/// [`ElmemError::InconsistentMigration`], never a silent re-plan.
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

/// [`migrate_scale_in`] under supervision: per-phase deadlines, bounded
/// exponential-backoff retries for dropped shipments, and clean aborts
/// when a source or destination crashes mid-flight.
///
/// On an abort the function still returns `Ok`: the report's `outcome` is
/// [`MigrationOutcome::Aborted`] with the phase the fault landed in and
/// its cause, `completed` is the abort instant, and any phase-3 imports
/// already applied are **kept** (they are strictly-hotter data already on
/// healthy retained nodes). The caller — the Master — decides the
/// fallback: commit the scaling without further migration, excluding
/// crashed nodes from the retained membership.
///
/// # Errors
///
/// Same validation as [`migrate_scale_in`];
/// [`ElmemError::NodeUnavailable`] if a node vanishes from the tier
/// mid-computation.
pub fn migrate_scale_in_supervised(
    tier: &mut CacheTier,
    retiring: &[NodeId],
    now: SimTime,
    costs: &MigrationCosts,
    import_mode: ImportMode,
    supervision: &mut Supervision<'_>,
) -> Result<MigrationReport, ElmemError> {
    match exec_scale_in(
        tier,
        retiring,
        now,
        costs,
        import_mode,
        supervision,
        ExecCtl::none(),
    )? {
        ExecOutcome::Done(report) => Ok(report),
        ExecOutcome::Interrupted { .. } => Err(ElmemError::InconsistentMigration(
            "unjournaled migration cannot be interrupted by a Master crash".to_string(),
        )),
    }
}

/// One attempt of the supervised scale-in migration, interruptible by a
/// scheduled Master crash and resumable from replayed journal state (see
/// [`migrate_scale_in_supervised`] for the fault semantics of a single
/// uninterrupted attempt).
fn exec_scale_in(
    tier: &mut CacheTier,
    retiring: &[NodeId],
    now: SimTime,
    costs: &MigrationCosts,
    import_mode: ImportMode,
    supervision: &mut Supervision<'_>,
    mut ctl: ExecCtl<'_>,
) -> Result<ExecOutcome, ElmemError> {
    validate_retiring(tier.membership().members(), retiring)?;
    let retained_ring = tier.membership().ring().without(retiring);

    // A resume after the plan sealed is manifest-driven: partial imports
    // have already mutated the destinations, so FuseCache must not re-run.
    // The shipments are instead reconstructed from a fresh source dump
    // (sources are never mutated before the commit) and verified against
    // the sealed checksums. A resume *before* the seal replans from
    // scratch — nothing was imported yet, so the replan is identical. A
    // post-seal attempt also skips drop sampling in phase 1: the retry
    // RNG draws belong to shipping, and a resumed pull re-reads the dump
    // rather than re-racing the injector.
    let resume = ctl.resume.take();
    let sealed: Option<Vec<ShipmentManifest>> = resume.as_ref().and_then(|st| st.manifest.clone());
    let acked: BTreeSet<u64> = resume.map(|st| st.acked).unwrap_or_default();

    let mut phases = PhaseBreakdown::default();
    let mut transfer_retries = 0u32;

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
    phases.scoring = SimTime::from_nanos(max_slabs * costs.score_ns_per_slab);

    // Phase 1 — dump + hash on each retiring node (§III-D1 already runs
    // the sources in parallel; here worker threads fan the routing out
    // when the volume warrants it, reassembled in retiring order so the
    // result is byte-identical to a serial pass), then ship metadata to
    // targets (per-source link, serialized, in retiring order — link
    // scheduling and drop sampling are order-sensitive, so shipping stays
    // serial). A dropped shipment is retried after a backoff; the retry
    // budget covers only these injected drops (not database sheds).
    let jobs = fanout_jobs(tier, retiring, 0);
    let routed = route_sources(tier, retiring, &retained_ring, jobs)?;
    let mut items_considered = 0u64;
    let mut metadata_bytes = ByteSize::ZERO;
    let mut dump_max = SimTime::ZERO;
    // (target, class) → (source, items) lists.
    let mut inbound: InboundMap = HashMap::new();
    let mut transfer_done = now;
    for (&src, routed_src) in retiring.iter().zip(routed) {
        let n_items = routed_src.n_items;
        items_considered += n_items;
        dump_max = dump_max.max(SimTime::from_nanos(n_items * costs.dump_ns_per_item));
        // Ship metadata over the source's NIC (tarball over ssh: one
        // serialized stream per source; the pipeline's per-item CPU cost
        // dominates the 21 B/item wire cost). Dump totals accumulate
        // source-by-source in this loop so an abort's partial report is
        // the same as when routing ran inline here.
        let bytes = ByteSize((KEY_BYTES + TIMESTAMP_BYTES) * n_items);
        metadata_bytes += bytes;
        let pipeline = SimTime::from_nanos(n_items * costs.metadata_ns_per_item);
        let mut attempt = 0u32;
        let mut submit_at = now;
        let done = loop {
            let completion = live_node_mut(tier, src)?
                .link
                .schedule_transfer(submit_at, bytes)
                + pipeline;
            if sealed.is_some() || !supervision.sample_metadata_drop() {
                break completion;
            }
            attempt += 1;
            transfer_retries += 1;
            if attempt >= supervision.retry.max_attempts {
                phases.dump = dump_max;
                phases.metadata_transfer = completion.saturating_sub(now);
                return Ok(aborted(
                    now,
                    completion,
                    phases,
                    MigrationPhase::MetadataTransfer,
                    AbortCause::TransferRetriesExhausted {
                        source: src,
                        attempts: attempt,
                    },
                    0,
                    ByteSize::ZERO,
                    metadata_bytes,
                    items_considered,
                    transfer_retries,
                ));
            }
            submit_at = completion + supervision.retry.backoff(attempt);
        };
        transfer_done = transfer_done.max(done);
        for ((target, class), items) in routed_src.per_target {
            inbound
                .entry((target, class))
                .or_default()
                .push((src, items));
        }
    }
    phases.dump = dump_max;
    phases.metadata_transfer = transfer_done.saturating_sub(now);
    let phase1_end = now + phases.scoring + phases.dump + phases.metadata_transfer;

    // Master-crash gate: a crash inside phase 1 interrupts the attempt
    // before this boundary's journal record ever becomes durable.
    if let Some(t) = ctl.interrupted(phase1_end) {
        return Ok(ExecOutcome::Interrupted {
            at: t,
            phase: MigrationPhase::MetadataTransfer,
        });
    }
    ctl.log(phase1_end, |id| JournalRecord::PhaseDone {
        id,
        phase: MigrationPhase::MetadataTransfer,
        at: phase1_end,
    });

    // Destinations, deterministic order (needed for crash checks below
    // and the FuseCache pass).
    let mut dest_keys: Vec<(NodeId, ClassId)> = inbound.keys().copied().collect();
    dest_keys.sort_unstable();
    let mut dests: Vec<NodeId> = dest_keys.iter().map(|&(t, _)| t).collect();
    dests.dedup();

    // A source or destination that dies before the metadata lands aborts
    // the migration in phase 1: its stream breaks and the Master gives up
    // at the crash instant.
    for &src in retiring {
        if let Some(t) = supervision.crash_before(src, phase1_end) {
            return Ok(aborted(
                now,
                t,
                phases,
                MigrationPhase::MetadataTransfer,
                AbortCause::SourceCrashed(src),
                0,
                ByteSize::ZERO,
                metadata_bytes,
                items_considered,
                transfer_retries,
            ));
        }
    }
    for &dest in &dests {
        if let Some(t) = supervision.crash_before(dest, phase1_end) {
            return Ok(aborted(
                now,
                t,
                phases,
                MigrationPhase::MetadataTransfer,
                AbortCause::DestinationCrashed(dest),
                0,
                ByteSize::ZERO,
                metadata_bytes,
                items_considered,
                transfer_retries,
            ));
        }
    }
    if let Some(budget) = supervision.deadlines.metadata {
        if phases.metadata_transfer > budget {
            return Ok(aborted(
                now,
                now + phases.scoring + phases.dump + budget,
                phases,
                MigrationPhase::MetadataTransfer,
                AbortCause::DeadlineExceeded,
                0,
                ByteSize::ZERO,
                metadata_bytes,
                items_considered,
                transfer_retries,
            ));
        }
    }

    // Phase 2 — FuseCache on each retained node, per class: how many items
    // to accept from each source. Runs in parallel across destinations
    // (worker threads too, when the volume warrants it); cost = max per
    // destination. The chosen items are moved out of the routed lists into
    // the plan — no cloning. On a manifest-driven resume FuseCache is
    // skipped entirely (the destinations already absorbed partial imports,
    // so re-comparing would pick a different plan): the sealed plan is
    // reconstructed from the freshly routed lists and checksum-verified.
    let (plan, phase2_end) = match &sealed {
        Some(manifest) => (reconstruct_shipments(inbound, manifest)?, phase1_end),
        None => {
            let outcome = build_shipments(tier, &dest_keys, inbound, jobs)?;
            phases.fusecache = SimTime::from_nanos(
                outcome
                    .per_dest_comparisons
                    .values()
                    .map(|&c| c * costs.fusecache_ns_per_comparison)
                    .max()
                    .unwrap_or(0),
            );
            (outcome.plan, phase1_end + phases.fusecache)
        }
    };

    // Master-crash gate at the phase-2 boundary: a crash here loses the
    // plan (it only seals at the boundary), so the resumed attempt
    // replans from scratch.
    if let Some(t) = ctl.interrupted(phase2_end) {
        return Ok(ExecOutcome::Interrupted {
            at: t,
            phase: MigrationPhase::HotnessComparison,
        });
    }
    if sealed.is_none() {
        ctl.log(phase2_end, |id| JournalRecord::PlanSealed {
            id,
            at: phase2_end,
            manifest: plan.iter().map(Shipment::manifest).collect(),
        });
        ctl.log(phase2_end, |id| JournalRecord::PhaseDone {
            id,
            phase: MigrationPhase::HotnessComparison,
            at: phase2_end,
        });
    }

    // A destination dying during the comparison aborts in phase 2
    // (crashes before phase 1's end already returned above).
    for &dest in &dests {
        if let Some(t) = supervision.crash_before(dest, phase2_end) {
            return Ok(aborted(
                now,
                t,
                phases,
                MigrationPhase::HotnessComparison,
                AbortCause::DestinationCrashed(dest),
                0,
                ByteSize::ZERO,
                metadata_bytes,
                items_considered,
                transfer_retries,
            ));
        }
    }
    if let Some(budget) = supervision.deadlines.hotness {
        if phases.fusecache > budget {
            return Ok(aborted(
                now,
                phase1_end + budget,
                phases,
                MigrationPhase::HotnessComparison,
                AbortCause::DeadlineExceeded,
                0,
                ByteSize::ZERO,
                metadata_bytes,
                items_considered,
                transfer_retries,
            ));
        }
    }

    // Phase 3 — ship the chosen KV pairs (source links, serialized) and
    // batch-import on the destinations. Imports applied before an abort
    // are kept: they are strictly-hotter data already in place.
    let data_start = phase2_end;
    let mut items_migrated = 0u64;
    let mut bytes_migrated = ByteSize::ZERO;
    let mut data_done = data_start;
    let mut import_ns: HashMap<NodeId, u64> = HashMap::new();
    for shipment in plan {
        let bytes = ByteSize(shipment.items().iter().map(|i| i.footprint()).sum());
        if acked.contains(&shipment.seq) {
            // Durably acked before the crash: the import already applied
            // on its destination. Count it toward the totals (so a
            // resumed report matches the uninterrupted one) but ship
            // nothing and charge no transfer or import time.
            bytes_migrated += bytes;
            items_migrated += shipment.len() as u64;
            continue;
        }
        let (src, target) = (shipment.source, shipment.target);
        let pipeline = SimTime::from_nanos(shipment.len() as u64 * costs.data_ns_per_item);
        let mut attempt = 0u32;
        let mut submit_at = data_start;
        let done = loop {
            let completion = live_node_mut(tier, src)?
                .link
                .schedule_transfer(submit_at, bytes)
                + pipeline;
            if !supervision.sample_transfer_drop() {
                break completion;
            }
            attempt += 1;
            transfer_retries += 1;
            if attempt >= supervision.retry.max_attempts {
                phases.data_transfer = completion.saturating_sub(data_start);
                phases.import = SimTime::from_nanos(import_ns.values().copied().max().unwrap_or(0));
                return Ok(aborted(
                    now,
                    completion,
                    phases,
                    MigrationPhase::DataMigration,
                    AbortCause::TransferRetriesExhausted {
                        source: src,
                        attempts: attempt,
                    },
                    items_migrated,
                    bytes_migrated,
                    metadata_bytes,
                    items_considered,
                    transfer_retries,
                ));
            }
            submit_at = completion + supervision.retry.backoff(attempt);
        };
        // Master-crash gate: the Master dies before this shipment lands,
        // so it never ships. Everything already imported stays (the
        // journaled runner resumes; the unjournaled path never sees a
        // Master crash).
        if let Some(t) = ctl.interrupted(done) {
            return Ok(ExecOutcome::Interrupted {
                at: t,
                phase: phase_of(t, phase1_end, phase2_end),
            });
        }
        // A source or destination dying before this shipment lands aborts
        // here, keeping everything already imported. The phase is the one
        // the crash time falls in (a node may die while idle in an
        // earlier window and only be detected at its next shipment).
        let crashed = supervision
            .crash_before(src, done)
            .map(|t| (t, AbortCause::SourceCrashed(src)))
            .or_else(|| {
                supervision
                    .crash_before(target, done)
                    .map(|t| (t, AbortCause::DestinationCrashed(target)))
            });
        if let Some((t, cause)) = crashed {
            phases.data_transfer = t.max(data_start).saturating_sub(data_start);
            phases.import = SimTime::from_nanos(import_ns.values().copied().max().unwrap_or(0));
            return Ok(aborted(
                now,
                t,
                phases,
                phase_of(t, phase1_end, phase2_end),
                cause,
                items_migrated,
                bytes_migrated,
                metadata_bytes,
                items_considered,
                transfer_retries,
            ));
        }
        data_done = data_done.max(done);
        // Apply the import (items are hottest-first within each source's
        // class list; the store re-sorts/merges as configured). The sealed
        // checksum proves the shipment arrives exactly as planned. The
        // journaled path goes through the destination's import ledger,
        // which suppresses a re-delivered shipment whose import already
        // applied before a Master crash ate its ack.
        shipment.verify_content()?;
        let node = live_node_mut(tier, target)?;
        let applied = match ctl.id() {
            Some(id) => node.import_shipment(
                id,
                shipment.seq,
                shipment.checksum(),
                shipment.class,
                shipment.items(),
                import_mode,
            )?,
            None => {
                node.store
                    .batch_import(shipment.class, shipment.items(), import_mode)?;
                true
            }
        };
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
        bytes_migrated += bytes;
        items_migrated += shipment.len() as u64;
    }
    phases.data_transfer = data_done.saturating_sub(data_start);
    phases.import = SimTime::from_nanos(import_ns.values().copied().max().unwrap_or(0));

    // Master-crash gate at the final boundary: all data landed, but the
    // Master dies before recording completion — the resumed attempt
    // re-delivers only what the journal never durably acked.
    let completed = now + phases.total();
    if let Some(t) = ctl.interrupted(completed) {
        return Ok(ExecOutcome::Interrupted {
            at: t,
            phase: MigrationPhase::DataMigration,
        });
    }

    if let Some(budget) = supervision.deadlines.data {
        if phases.data_transfer + phases.import > budget {
            return Ok(aborted(
                now,
                data_start + budget,
                phases,
                MigrationPhase::DataMigration,
                AbortCause::DeadlineExceeded,
                items_migrated,
                bytes_migrated,
                metadata_bytes,
                items_considered,
                transfer_retries,
            ));
        }
    }

    ctl.log(completed, |id| JournalRecord::PhaseDone {
        id,
        phase: MigrationPhase::DataMigration,
        at: completed,
    });
    Ok(ExecOutcome::Done(MigrationReport {
        started: now,
        completed,
        phases,
        items_migrated,
        bytes_migrated,
        metadata_bytes,
        items_considered,
        outcome: MigrationOutcome::Completed,
        transfer_retries,
        resumes: Vec::new(),
    }))
}

/// Executes the scale-out migration (§III-D4): each existing member ships
/// the keys that hash to the `new_nodes` under the expanded membership.
///
/// Does **not** flip the membership; the caller commits at
/// `report.completed`. The new nodes must already be provisioned (online,
/// outside the membership).
///
/// # Errors
///
/// [`ElmemError::InvalidScaling`] if `new_nodes` is empty or contains a
/// current member.
pub fn migrate_scale_out(
    tier: &mut CacheTier,
    new_nodes: &[NodeId],
    now: SimTime,
    costs: &MigrationCosts,
) -> Result<MigrationReport, ElmemError> {
    match exec_scale_out(tier, new_nodes, now, costs, ExecCtl::none())? {
        ExecOutcome::Done(report) => Ok(report),
        ExecOutcome::Interrupted { .. } => Err(ElmemError::InconsistentMigration(
            "unjournaled migration cannot be interrupted by a Master crash".to_string(),
        )),
    }
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

/// One attempt of the scale-out migration, interruptible by a scheduled
/// Master crash and resumable from replayed journal state (see
/// [`migrate_scale_out`]).
fn exec_scale_out(
    tier: &mut CacheTier,
    new_nodes: &[NodeId],
    now: SimTime,
    costs: &MigrationCosts,
    mut ctl: ExecCtl<'_>,
) -> Result<ExecOutcome, ElmemError> {
    validate_scale_out(tier, new_nodes)?;
    let expanded_ring = tier.membership().ring().with(new_nodes);

    // Re-dumping on resume is safe for scale-out too: imports land only
    // on the provisioned-but-not-yet-member new nodes, so the members'
    // dumps are untouched by a partially-executed plan. The re-derived
    // plan must still match the sealed manifest exactly.
    let resume = ctl.resume.take();
    let sealed: Option<Vec<ShipmentManifest>> = resume.as_ref().and_then(|st| st.manifest.clone());
    let acked: BTreeSet<u64> = resume.map(|st| st.acked).unwrap_or_default();

    let mut phases = PhaseBreakdown::default();
    let mut items_considered = 0u64;
    let mut items_migrated = 0u64;
    let mut bytes_migrated = ByteSize::ZERO;
    let mut dump_max = SimTime::ZERO;
    let mut transfer_done = now;
    let mut import_ns: HashMap<NodeId, u64> = HashMap::new();

    // Each existing member hashes its keys against the expanded membership
    // and ships whatever lands on a new node. Under consistent hashing this
    // is ~1/(k+1) of its keys, which typically fits the new node outright.
    let mut moves: Vec<(NodeId, NodeId, ClassId, Vec<ItemMeta>)> = Vec::new();
    for &src in tier.membership().members() {
        let dump = live_node(tier, src)?.store.dump_metadata();
        items_considered += dump.total_items();
        dump_max = dump_max.max(SimTime::from_nanos(
            dump.total_items() * costs.dump_ns_per_item,
        ));
        for class_dump in &dump.classes {
            let mut per_new: HashMap<NodeId, Vec<ItemMeta>> = HashMap::new();
            for item in &class_dump.items {
                let owner = expanded_ring.node_for(item.key).ok_or_else(|| {
                    ElmemError::InconsistentMigration("expanded ring is empty".to_string())
                })?;
                if new_nodes.contains(&owner) {
                    per_new.entry(owner).or_default().push(*item);
                }
            }
            for (target, items) in per_new {
                moves.push((src, target, class_dump.class, items));
            }
        }
    }
    phases.dump = dump_max;
    let seal_at = now + phases.dump;

    // Master-crash gate before the plan seals: the resumed attempt
    // re-dumps and re-derives the identical plan.
    if let Some(t) = ctl.interrupted(seal_at) {
        return Ok(ExecOutcome::Interrupted {
            at: t,
            phase: MigrationPhase::MetadataTransfer,
        });
    }

    moves.sort_by_key(|(s, t, c, _)| (*s, *t, *c)); // deterministic
    let plan: Vec<Shipment> = moves
        .into_iter()
        .enumerate()
        .map(|(i, (s, t, c, items))| Shipment::sealed(i as u64, s, t, c, items))
        .collect();
    match &sealed {
        Some(manifest) => {
            // The re-derived plan must reproduce the sealed one exactly
            // (same shipments, same contents — checksums included).
            if plan.len() != manifest.len()
                || plan
                    .iter()
                    .zip(manifest.iter())
                    .any(|(s, m)| s.manifest() != *m)
            {
                return Err(ElmemError::InconsistentMigration(
                    "resume: scale-out re-dump diverged from the sealed manifest".to_string(),
                ));
            }
        }
        None => {
            ctl.log(seal_at, |id| JournalRecord::PlanSealed {
                id,
                at: seal_at,
                manifest: plan.iter().map(Shipment::manifest).collect(),
            });
            ctl.log(seal_at, |id| JournalRecord::PhaseDone {
                id,
                phase: MigrationPhase::MetadataTransfer,
                at: seal_at,
            });
        }
    }

    // Ship + import. (In the rare case the shipped set exceeds the new
    // node's capacity, the store's import evicts the coldest overflow —
    // equivalent to the paper's "run FuseCache to determine the top pairs".)
    for shipment in plan {
        let bytes = ByteSize(shipment.items().iter().map(|i| i.footprint()).sum());
        bytes_migrated += bytes;
        items_migrated += shipment.len() as u64;
        if acked.contains(&shipment.seq) {
            // Durably acked before the crash: already imported on the new
            // node; counted above, nothing ships.
            continue;
        }
        let done = live_node_mut(tier, shipment.source)?
            .link
            .schedule_transfer(seal_at, bytes);
        transfer_done = transfer_done.max(done);
        // Master-crash gate: the Master dies before this shipment lands.
        if let Some(t) = ctl.interrupted(done) {
            return Ok(ExecOutcome::Interrupted {
                at: t,
                phase: MigrationPhase::DataMigration,
            });
        }
        let target = shipment.target;
        let node = live_node_mut(tier, target)?;
        let applied = match ctl.id() {
            Some(id) => node.import_shipment(
                id,
                shipment.seq,
                shipment.checksum(),
                shipment.class,
                shipment.items(),
                ImportMode::Merge,
            )?,
            None => {
                node.store
                    .batch_import(shipment.class, shipment.items(), ImportMode::Merge)?;
                true
            }
        };
        if applied {
            *import_ns.entry(target).or_default() +=
                shipment.len() as u64 * costs.import_ns_per_item;
        }
        ctl.log(done + ACK_DURABILITY_LAG, |id| {
            JournalRecord::ShipmentAcked {
                id,
                seq: shipment.seq,
                at: done,
            }
        });
        // The source keeps its copy until the membership flips; after the
        // flip those keys hash to the new node and the stale copies age out
        // of the source's LRU naturally (as in the real system).
    }
    phases.data_transfer = transfer_done.saturating_sub(seal_at);
    phases.import = SimTime::from_nanos(import_ns.values().copied().max().unwrap_or(0));

    let completed = now + phases.total();
    if let Some(t) = ctl.interrupted(completed) {
        return Ok(ExecOutcome::Interrupted {
            at: t,
            phase: MigrationPhase::DataMigration,
        });
    }
    ctl.log(completed, |id| JournalRecord::PhaseDone {
        id,
        phase: MigrationPhase::DataMigration,
        at: completed,
    });
    Ok(ExecOutcome::Done(MigrationReport {
        started: now,
        completed,
        phases,
        items_migrated,
        bytes_migrated,
        metadata_bytes: ByteSize::ZERO,
        items_considered,
        outcome: MigrationOutcome::Completed,
        transfer_retries: 0,
        resumes: Vec::new(),
    }))
}

/// The *Naive* comparator's migration (§V-B4): ships the hottest
/// `fraction` of each retiring node's items (assuming hotness distributions
/// are similar across nodes — no cross-node comparison), and the targets
/// import them through the ordinary `set` path.
///
/// Two deliberate differences from ElMem's migration, mirroring the paper:
///
/// * no FuseCache: the shipped amount ignores what actually fits hotter
///   than the residents;
/// * **recency corruption**: plain `set`s stamp every migrated item with a
///   fresh access time, so cold imports land *above* genuinely warm
///   residents in the MRU order. Until the LRU dynamics wash that out,
///   evictions keep hitting warm residents — which is why the paper's
///   Naive "continues to degrade well after the scaling event". (ElMem's
///   custom batch import preserves original timestamps, §III-D3.)
///
/// # Errors
///
/// Same validation as [`migrate_scale_in`]; also rejects `fraction`
/// outside `[0, 1]`.
pub fn migrate_naive_scale_in(
    tier: &mut CacheTier,
    retiring: &[NodeId],
    fraction: f64,
    now: SimTime,
    costs: &MigrationCosts,
) -> Result<MigrationReport, ElmemError> {
    if !(0.0..=1.0).contains(&fraction) {
        return Err(ElmemError::InvalidConfig(format!(
            "naive fraction {fraction} outside [0, 1]"
        )));
    }
    validate_retiring(tier.membership().members(), retiring)?;
    let retained_ring = tier.membership().ring().without(retiring);

    let mut phases = PhaseBreakdown::default();
    let mut items_considered = 0u64;
    let mut items_migrated = 0u64;
    let mut bytes_migrated = ByteSize::ZERO;
    let mut dump_max = SimTime::ZERO;
    let mut transfer_done = now;
    let mut import_ns: HashMap<NodeId, u64> = HashMap::new();

    let mut moves: Vec<(NodeId, NodeId, ClassId, Vec<ItemMeta>)> = Vec::new();
    for &src in retiring {
        let dump = live_node(tier, src)?.store.dump_metadata();
        items_considered += dump.total_items();
        dump_max = dump_max.max(SimTime::from_nanos(
            dump.total_items() * costs.dump_ns_per_item,
        ));
        for class_dump in &dump.classes {
            let take = (class_dump.items.len() as f64 * fraction).ceil() as usize;
            let mut per_target: HashMap<NodeId, Vec<ItemMeta>> = HashMap::new();
            for (i, item) in class_dump.items.iter().take(take).enumerate() {
                let target = retained_ring.node_for(item.key).ok_or_else(|| {
                    ElmemError::InconsistentMigration("retained ring is empty".to_string())
                })?;
                // Plain-`set` semantics: the import gets a fresh access
                // time (preserving only the shipment's internal order).
                let corrupted = ItemMeta {
                    last_access: now + SimTime::from_nanos((take - i) as u64),
                    ..*item
                };
                per_target.entry(target).or_default().push(corrupted);
            }
            for (target, items) in per_target {
                moves.push((src, target, class_dump.class, items));
            }
        }
    }
    phases.dump = dump_max;

    moves.sort_by_key(|(s, t, c, _)| (*s, *t, *c));
    for (src, target, class, items) in moves {
        let bytes = ByteSize(items.iter().map(|i| i.footprint()).sum());
        bytes_migrated += bytes;
        items_migrated += items.len() as u64;
        let done = live_node_mut(tier, src)?
            .link
            .schedule_transfer(now + phases.dump, bytes);
        transfer_done = transfer_done.max(done);
        *import_ns.entry(target).or_default() += items.len() as u64 * costs.import_ns_per_item;
        let node = live_node_mut(tier, target)?;
        node.store
            .batch_import(class, &items, ImportMode::Prepend)?;
    }
    phases.data_transfer = transfer_done.saturating_sub(now + phases.dump);
    phases.import = SimTime::from_nanos(import_ns.values().copied().max().unwrap_or(0));

    Ok(MigrationReport {
        started: now,
        completed: now + phases.total(),
        phases,
        items_migrated,
        bytes_migrated,
        metadata_bytes: ByteSize::ZERO,
        items_considered,
        outcome: MigrationOutcome::Completed,
        transfer_retries: 0,
        resumes: Vec::new(),
    })
}

/// Drives [`exec_scale_in`]/[`exec_scale_out`] attempts under a
/// [`MasterPlan`]: journals `Started`, and on each Master-crash
/// interruption truncates the journal to what was durable at the crash
/// instant, replays it, and (per the recovery policy) either resumes a
/// fresh attempt after the restart delay or gives up with a
/// Master-crashed abort.
#[allow(clippy::too_many_arguments)]
fn run_journaled(
    tier: &mut CacheTier,
    nodes: &[NodeId],
    kind: MigrationKind,
    now: SimTime,
    master: &MasterPlan,
    journal: &mut MigrationJournal,
    id: u64,
    mut exec: impl FnMut(&mut CacheTier, SimTime, ExecCtl<'_>) -> Result<ExecOutcome, ElmemError>,
) -> Result<MigrationReport, ElmemError> {
    journal.append(
        now,
        JournalRecord::Started {
            id,
            kind,
            nodes: nodes.to_vec(),
            at: now,
        },
    );
    let mut resumes: Vec<ResumePoint> = Vec::new();
    let mut resume: Option<ReplayState> = None;
    let mut attempt_start = now;
    loop {
        let ctl = ExecCtl {
            master_crash: master.next_crash_after(attempt_start),
            journal: Some((&mut *journal, id)),
            resume: resume.take(),
        };
        match exec(tier, attempt_start, ctl)? {
            ExecOutcome::Done(mut report) => {
                // The report spans the whole journey: `started` is the
                // original trigger, `phases` the final attempt.
                report.started = now;
                report.resumes = resumes;
                let terminal = match report.outcome {
                    MigrationOutcome::Completed => JournalRecord::Committed {
                        id,
                        at: report.completed,
                    },
                    MigrationOutcome::Aborted { .. } => JournalRecord::Aborted {
                        id,
                        at: report.completed,
                    },
                };
                journal.append(report.completed, terminal);
                return Ok(report);
            }
            ExecOutcome::Interrupted { at, phase } => {
                // The crash eats every record not yet durable at `at`.
                journal.discard_after(at);
                let resumed_at = at + master.restart_delay;
                if master.recovery == MasterRecovery::Abort {
                    journal.append(resumed_at, JournalRecord::Aborted { id, at: resumed_at });
                    resumes.push(ResumePoint {
                        crashed_at: at,
                        resumed_at,
                        phase,
                    });
                    return Ok(MigrationReport {
                        started: now,
                        completed: resumed_at,
                        phases: PhaseBreakdown::default(),
                        items_migrated: 0,
                        bytes_migrated: ByteSize::ZERO,
                        metadata_bytes: ByteSize::ZERO,
                        items_considered: 0,
                        outcome: MigrationOutcome::Aborted {
                            phase,
                            cause: AbortCause::MasterCrashed,
                        },
                        transfer_retries: 0,
                        resumes,
                    });
                }
                let st = journal.replay(id);
                journal.append(
                    resumed_at,
                    JournalRecord::Resumed {
                        id,
                        at: resumed_at,
                        phase,
                    },
                );
                resumes.push(ResumePoint {
                    crashed_at: at,
                    resumed_at,
                    phase,
                });
                resume = Some(st);
                attempt_start = resumed_at;
            }
        }
    }
}

/// [`migrate_scale_in_supervised`] under a crash-recoverable Master: the
/// migration journals its progress into `journal` under job `id`, and a
/// Master crash scheduled in `supervision.master` interrupts the attempt;
/// per the recovery policy the Master then replays the journal and
/// resumes from the last durable point (or aborts). With no scheduled
/// crashes this is byte-for-byte [`migrate_scale_in_supervised`] plus the
/// journal records.
#[allow(clippy::too_many_arguments)]
pub fn migrate_scale_in_journaled(
    tier: &mut CacheTier,
    retiring: &[NodeId],
    now: SimTime,
    costs: &MigrationCosts,
    import_mode: ImportMode,
    supervision: &mut Supervision<'_>,
    journal: &mut MigrationJournal,
    id: u64,
) -> Result<MigrationReport, ElmemError> {
    // Validate before journaling Started: a rejected request never
    // existed as far as the journal is concerned.
    validate_retiring(tier.membership().members(), retiring)?;
    let master = supervision.master.clone();
    run_journaled(
        tier,
        retiring,
        MigrationKind::ScaleIn,
        now,
        &master,
        journal,
        id,
        |tier, at, ctl| exec_scale_in(tier, retiring, at, costs, import_mode, supervision, ctl),
    )
}

/// [`migrate_scale_out`] under a crash-recoverable Master; see
/// [`migrate_scale_in_journaled`] for the journey semantics.
pub fn migrate_scale_out_journaled(
    tier: &mut CacheTier,
    new_nodes: &[NodeId],
    now: SimTime,
    costs: &MigrationCosts,
    master: &MasterPlan,
    journal: &mut MigrationJournal,
    id: u64,
) -> Result<MigrationReport, ElmemError> {
    validate_scale_out(tier, new_nodes)?;
    run_journaled(
        tier,
        new_nodes,
        MigrationKind::ScaleOut,
        now,
        master,
        journal,
        id,
        |tier, at, ctl| exec_scale_out(tier, new_nodes, at, costs, ctl),
    )
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

#[cfg(test)]
mod tests {
    use super::*;
    use elmem_cluster::ClusterConfig;
    use elmem_util::KeyId;

    /// Tier with node 0 coldest: keys 0..400 spread by ring, all touched;
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

    #[test]
    fn scale_in_moves_items_to_correct_targets() {
        let (mut tier, keys_on_0) = warmed_tier();
        let report = migrate_scale_in(
            &mut tier,
            &[NodeId(0)],
            SimTime::from_secs(200_000),
            &MigrationCosts::default(),
            ImportMode::Merge,
        )
        .unwrap();
        assert!(report.items_migrated > 0);
        assert!(report.completed > report.started);
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
    fn migration_does_not_flip_membership() {
        let (mut tier, _) = warmed_tier();
        migrate_scale_in(
            &mut tier,
            &[NodeId(0)],
            SimTime::from_secs(200_000),
            &MigrationCosts::default(),
            ImportMode::Merge,
        )
        .unwrap();
        assert_eq!(tier.membership().len(), 4);
        assert!(tier.node(NodeId(0)).unwrap().is_online());
    }

    #[test]
    fn migrated_items_are_hotter_than_evicted() {
        let (mut tier, _) = warmed_tier();
        // Record pre-migration tail hotness on a retained node.
        let report = migrate_scale_in(
            &mut tier,
            &[NodeId(0)],
            SimTime::from_secs(200_000),
            &MigrationCosts::default(),
            ImportMode::Merge,
        )
        .unwrap();
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
        assert!(report.phases.total() > SimTime::ZERO);
    }

    #[test]
    fn phase_breakdown_sums_to_completion() {
        let (mut tier, _) = warmed_tier();
        let start = SimTime::from_secs(200_000);
        let report = migrate_scale_in(
            &mut tier,
            &[NodeId(0)],
            start,
            &MigrationCosts::default(),
            ImportMode::Merge,
        )
        .unwrap();
        assert_eq!(report.completed, start + report.phases.total());
        assert!(report.metadata_bytes > ByteSize::ZERO);
        assert!(report.bytes_migrated > ByteSize::ZERO);
        assert!(report.items_considered >= report.items_migrated);
    }

    #[test]
    fn retiring_unknown_node_fails() {
        let (mut tier, _) = warmed_tier();
        assert!(migrate_scale_in(
            &mut tier,
            &[NodeId(77)],
            SimTime::ZERO,
            &MigrationCosts::default(),
            ImportMode::Merge,
        )
        .is_err());
    }

    #[test]
    fn retiring_everything_fails() {
        let (mut tier, _) = warmed_tier();
        let all: Vec<NodeId> = tier.membership().members().to_vec();
        assert!(migrate_scale_in(
            &mut tier,
            &all,
            SimTime::ZERO,
            &MigrationCosts::default(),
            ImportMode::Merge,
        )
        .is_err());
    }

    #[test]
    fn scale_out_ships_remapped_keys() {
        let (mut tier, _) = warmed_tier();
        let new = tier.provision_nodes(1);
        let expanded = tier.membership().ring().with(&new);
        let report = migrate_scale_out(
            &mut tier,
            &new,
            SimTime::from_secs(200_000),
            &MigrationCosts::default(),
        )
        .unwrap();
        assert!(report.items_migrated > 0);
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
        assert!(migrate_scale_out(
            &mut tier,
            &[NodeId(0)],
            SimTime::ZERO,
            &MigrationCosts::default(),
        )
        .is_err());
    }

    #[test]
    fn scale_out_rejects_unprovisioned() {
        let (mut tier, _) = warmed_tier();
        assert!(migrate_scale_out(
            &mut tier,
            &[NodeId(50)],
            SimTime::ZERO,
            &MigrationCosts::default(),
        )
        .is_err());
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
        let r1 = migrate_scale_in(
            &mut t1,
            &[NodeId(0)],
            SimTime::from_secs(200_000),
            &cheap,
            ImportMode::Merge,
        )
        .unwrap();
        let r2 = migrate_scale_in(
            &mut t2,
            &[NodeId(0)],
            SimTime::from_secs(200_000),
            &costly,
            ImportMode::Merge,
        )
        .unwrap();
        assert!(r2.phases.dump > r1.phases.dump);
    }

    // ---- supervision -----------------------------------------------------

    use elmem_sim::fault::FaultPlan;
    use elmem_util::DetRng;

    const NOW: SimTime = SimTime::from_secs(200_000);

    fn injector(plan: FaultPlan) -> FaultInjector {
        FaultInjector::new(plan, DetRng::seed(42).split("faults"))
    }

    fn supervised_run(
        tier: &mut CacheTier,
        faults: &mut FaultInjector,
        deadlines: PhaseDeadlines,
    ) -> MigrationReport {
        let mut sup = Supervision::with_faults(faults);
        sup.deadlines = deadlines;
        migrate_scale_in_supervised(
            tier,
            &[NodeId(0)],
            NOW,
            &MigrationCosts::default(),
            ImportMode::Merge,
            &mut sup,
        )
        .unwrap()
    }

    #[test]
    fn unsupervised_outcome_is_completed() {
        let (mut tier, _) = warmed_tier();
        let report = migrate_scale_in(
            &mut tier,
            &[NodeId(0)],
            NOW,
            &MigrationCosts::default(),
            ImportMode::Merge,
        )
        .unwrap();
        assert!(report.outcome.is_completed());
        assert_eq!(report.transfer_retries, 0);
        assert_eq!(report.outcome.crashed_node(), None);
    }

    #[test]
    fn source_crash_in_phase1_aborts_without_imports() {
        let (mut tier, _) = warmed_tier();
        let crash_at = NOW + SimTime::from_millis(1);
        let mut inj = injector(FaultPlan::new().crash(crash_at, NodeId(0)));
        let report = supervised_run(&mut tier, &mut inj, PhaseDeadlines::none());
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
        let clean = migrate_scale_in(
            &mut probe,
            &[NodeId(0)],
            NOW,
            &MigrationCosts::default(),
            ImportMode::Merge,
        )
        .unwrap();
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
        let report = supervised_run(&mut tier, &mut inj, PhaseDeadlines::none());
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
        let report = supervised_run(&mut tier, &mut inj, PhaseDeadlines::none());
        match report.outcome {
            MigrationOutcome::Aborted { phase, cause } => {
                assert_eq!(phase, MigrationPhase::MetadataTransfer);
                assert_eq!(
                    cause,
                    AbortCause::TransferRetriesExhausted {
                        source: NodeId(0),
                        attempts: RetryPolicy::default().max_attempts,
                    }
                );
            }
            other => panic!("expected abort, got {other:?}"),
        }
        assert_eq!(report.transfer_retries, RetryPolicy::default().max_attempts);
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
        let report = supervised_run(&mut tier, &mut inj, PhaseDeadlines::none());
        // With these probabilities and a budget of 4 per shipment, the
        // seeded run completes after some retries.
        assert!(report.outcome.is_completed(), "{:?}", report.outcome);
        assert!(report.transfer_retries > 0);
        // Retries push the timeline out past the fault-free run.
        let (mut clean_tier, _) = warmed_tier();
        let clean = migrate_scale_in(
            &mut clean_tier,
            &[NodeId(0)],
            NOW,
            &MigrationCosts::default(),
            ImportMode::Merge,
        )
        .unwrap();
        assert!(report.completed > clean.completed);
    }

    #[test]
    fn metadata_deadline_aborts() {
        let (mut tier, _) = warmed_tier();
        let mut inj = injector(FaultPlan::new());
        let deadlines = PhaseDeadlines {
            metadata: Some(SimTime::from_nanos(1)),
            ..PhaseDeadlines::none()
        };
        let report = supervised_run(&mut tier, &mut inj, deadlines);
        assert_eq!(
            report.outcome,
            MigrationOutcome::Aborted {
                phase: MigrationPhase::MetadataTransfer,
                cause: AbortCause::DeadlineExceeded,
            }
        );
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
            supervised_run(&mut tier, &mut inj, PhaseDeadlines::none())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let retry = RetryPolicy::default();
        assert_eq!(retry.backoff(1), SimTime::from_millis(500));
        assert_eq!(retry.backoff(2), SimTime::from_secs(1));
        assert_eq!(retry.backoff(3), SimTime::from_secs(2));
        assert_eq!(retry.backoff(10), SimTime::from_secs(8));
        assert_eq!(retry.backoff(60), SimTime::from_secs(8));
    }

    // ---- crash-recoverable control plane (DESIGN.md §13) -----------------

    /// Every member's per-class item vectors, in deterministic order — the
    /// byte-level store state the resume invariants compare.
    fn fingerprint(tier: &CacheTier) -> Vec<(NodeId, ClassId, Vec<ItemMeta>)> {
        let mut members: Vec<NodeId> = tier.membership().members().to_vec();
        members.sort_unstable();
        let mut out = Vec::new();
        for id in members {
            let store = &tier.node(id).unwrap().store;
            for class in store.classes().ids() {
                out.push((id, class, store.dump_class(class).items));
            }
        }
        out
    }

    fn journaled_scale_in(
        tier: &mut CacheTier,
        master: MasterPlan,
        journal: &mut MigrationJournal,
    ) -> MigrationReport {
        let mut sup = Supervision::none();
        sup.master = master;
        migrate_scale_in_journaled(
            tier,
            &[NodeId(0)],
            NOW,
            &MigrationCosts::default(),
            ImportMode::Merge,
            &mut sup,
            journal,
            0,
        )
        .unwrap()
    }

    #[test]
    fn journaled_run_without_crashes_matches_supervised() {
        let (mut a, _) = warmed_tier();
        let (mut b, _) = warmed_tier();
        let ra = migrate_scale_in_supervised(
            &mut a,
            &[NodeId(0)],
            NOW,
            &MigrationCosts::default(),
            ImportMode::Merge,
            &mut Supervision::none(),
        )
        .unwrap();
        let mut journal = MigrationJournal::new();
        let rb = journaled_scale_in(&mut b, MasterPlan::default(), &mut journal);
        assert_eq!(ra, rb, "journaling must not perturb the migration");
        assert_eq!(fingerprint(&a), fingerprint(&b));
        // The journal tells the full story and replays to a committed job.
        let st = journal.replay(0);
        assert!(st.committed);
        assert_eq!(st.resumes, 0);
        assert_eq!(
            st.acked.len(),
            st.manifest.as_ref().unwrap().len(),
            "every sealed shipment acked"
        );
    }

    #[test]
    fn scale_in_resumes_byte_identically_at_any_crash_point() {
        let (mut clean, _) = warmed_tier();
        let mut clean_journal = MigrationJournal::new();
        let clean_report =
            journaled_scale_in(&mut clean, MasterPlan::default(), &mut clean_journal);
        let want = fingerprint(&clean);
        let span = clean_report.completed.saturating_sub(NOW).as_nanos();
        assert!(span > 0);

        let mut saw_suppressed_duplicate = false;
        for num in [1u64, 3, 5, 7, 9, 995, 999] {
            let crash = NOW + SimTime::from_nanos(span * num / 1000);
            let (mut tier, _) = warmed_tier();
            let mut journal = MigrationJournal::new();
            let report = journaled_scale_in(
                &mut tier,
                MasterPlan {
                    crashes: vec![crash],
                    ..MasterPlan::default()
                },
                &mut journal,
            );
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
        let clean_report = journaled_scale_in(
            &mut clean,
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
        let report = journaled_scale_in(
            &mut tier,
            MasterPlan {
                crashes: vec![first, second],
                ..MasterPlan::default()
            },
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
        let clean_report = journaled_scale_in(
            &mut clean,
            MasterPlan::default(),
            &mut MigrationJournal::new(),
        );
        let span = clean_report.completed.saturating_sub(NOW).as_nanos();
        let crash = NOW + SimTime::from_nanos(span * 9 / 10);
        let (mut tier, _) = warmed_tier();
        let mut journal = MigrationJournal::new();
        let report = journaled_scale_in(
            &mut tier,
            MasterPlan {
                crashes: vec![crash],
                recovery: MasterRecovery::Abort,
                ..MasterPlan::default()
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
        let new_clean = clean.provision_nodes(1);
        let mut clean_journal = MigrationJournal::new();
        let clean_report = migrate_scale_out_journaled(
            &mut clean,
            &new_clean,
            NOW,
            &MigrationCosts::default(),
            &MasterPlan::default(),
            &mut clean_journal,
            0,
        )
        .unwrap();
        let span = clean_report.completed.saturating_sub(NOW).as_nanos();
        for num in [1u64, 500, 999] {
            let crash = NOW + SimTime::from_nanos(span * num / 1000);
            let (mut tier, _) = warmed_tier();
            let new = tier.provision_nodes(1);
            let mut journal = MigrationJournal::new();
            let report = migrate_scale_out_journaled(
                &mut tier,
                &new,
                NOW,
                &MigrationCosts::default(),
                &MasterPlan {
                    crashes: vec![crash],
                    ..MasterPlan::default()
                },
                &mut journal,
                0,
            )
            .unwrap();
            assert_eq!(report.outcome, MigrationOutcome::Completed);
            assert_eq!(report.resumes.len(), 1);
            assert_eq!(
                tier.node(new[0]).unwrap().store.dump_metadata().classes,
                clean
                    .node(new_clean[0])
                    .unwrap()
                    .store
                    .dump_metadata()
                    .classes,
                "new node contents diverged (crash at {num}/1000)"
            );
            assert_eq!(report.items_migrated, clean_report.items_migrated);
        }
    }

    #[test]
    fn journal_records_tell_a_coherent_story() {
        let (mut tier, _) = warmed_tier();
        let mut journal = MigrationJournal::new();
        let report = journaled_scale_in(&mut tier, MasterPlan::default(), &mut journal);
        let labels: Vec<&str> = journal.entries().iter().map(|e| e.record.label()).collect();
        assert_eq!(labels.first(), Some(&"started"));
        assert_eq!(labels.last(), Some(&"committed"));
        assert!(labels.contains(&"plan_sealed"));
        assert!(labels.contains(&"shipment_acked"));
        // Round-trips through the JSON WAL format byte-identically.
        let json = journal.to_json();
        let back = MigrationJournal::parse_json(&json).unwrap();
        assert_eq!(back.to_json(), json);
        assert_eq!(back.replay(0), journal.replay(0));
        assert!(report.resumes.is_empty());
    }
}
