//! Property test for journal replay idempotence (DESIGN.md §13): a
//! migration — any of the three jobs — interrupted by a Master crash at
//! *any* point and resumed from the durable journal must leave every store
//! identical to the same migration run uninterrupted — across warm states,
//! seeds, and crash points, including a second crash during the resume —
//! and every sealed shipment must be applied exactly once (re-deliveries
//! suppressed by the Agents' import ledgers, never imported twice). One
//! `Master`-level case does the same for a warm-recovery fill.

use elmem::cluster::{Cluster, ClusterConfig};
use elmem::core::journal::MASTER_RESTART_DELAY;
use elmem::core::migration::{migrate, MigrateJob, MigrationCosts, Supervision};
use elmem::core::{DeferredKind, HealingConfig, Master, MasterPlan, MigrationJournal};
use elmem::core::{MigrationPolicy, MigrationReport};
use elmem::store::ImportMode;
use elmem::util::{DetRng, KeyId, NodeId, SimTime};
use elmem::workload::{GeneralizedPareto, Keyspace};
use proptest::prelude::*;

const NOW: SimTime = SimTime::from_secs(200_000);
const VICTIM: NodeId = NodeId(0);

fn warmed_cluster(accesses: &[u64], seed: u64) -> Cluster {
    let mut cluster = Cluster::new(
        ClusterConfig::small_test(),
        Keyspace::with_distribution(10_000, seed, GeneralizedPareto::facebook_etc(), 4_000),
        DetRng::seed(seed),
    );
    // Uniform item size → one slab class; strictly increasing access
    // times → a total MRU order, so equality below is exact.
    let mut now = SimTime::from_secs(1);
    for &k in accesses {
        let key = KeyId(k);
        let owner = cluster.tier.node_for_key(key).unwrap();
        cluster
            .tier
            .node_mut(owner)
            .unwrap()
            .store
            .set(key, 64, now)
            .unwrap();
        now += SimTime::from_secs(1);
    }
    cluster
}

/// Per-node resident items as `(key, value_size, last_access)`, sorted.
type Fingerprint = Vec<(NodeId, Vec<(KeyId, u32, SimTime)>)>;

/// Every node's resident items (members and provisioned fill targets
/// alike) — the store-content equality the resume protocol must preserve.
fn fingerprint(cluster: &Cluster) -> Fingerprint {
    let mut nodes: Vec<&elmem::cluster::CacheNode> = cluster.tier.iter_nodes().collect();
    nodes.sort_by_key(|n| n.id());
    nodes
        .into_iter()
        .map(|node| {
            let (id, store) = (node.id(), &node.store);
            let mut items: Vec<(KeyId, u32, SimTime)> = store
                .iter()
                .map(|i| (i.key, i.value_size, i.last_access))
                .collect();
            items.sort();
            (id, items)
        })
        .collect()
}

/// Runs one journaled migration under `master` — by `job`, the ElMem
/// scale-in of [`VICTIM`] (0), its Naive drain (1), or the scale-out onto
/// one freshly provisioned node (2) — returning the report and the journal.
fn run_journaled(
    cluster: &mut Cluster,
    job: u8,
    master: MasterPlan,
) -> (MigrationReport, MigrationJournal) {
    let new = match job {
        2 => cluster.tier.provision_nodes(1),
        _ => Vec::new(),
    };
    let job = match job {
        0 => MigrateJob::ScaleIn {
            retiring: &[VICTIM],
            import_mode: ImportMode::Merge,
        },
        1 => MigrateJob::NaiveScaleIn {
            retiring: &[VICTIM],
            fraction: 0.75,
        },
        _ => MigrateJob::ScaleOut { new_nodes: &new },
    };
    let mut supervision = Supervision::none();
    supervision.master = master;
    let mut journal = MigrationJournal::new();
    let report = migrate(
        &mut cluster.tier,
        &job,
        NOW,
        &MigrationCosts::default(),
        &mut supervision,
        (&mut journal, 0),
    )
    .expect("journaled migration runs");
    (report, journal)
}

/// Total sealed shipments vs. total ledger applications across all nodes:
/// exactly-once delivery, no shipment lost, none applied twice.
fn assert_exactly_once(cluster: &Cluster, journal: &MigrationJournal) {
    let replay = journal.replay(0);
    assert!(replay.committed, "interrupted migration must still commit");
    let manifest = replay.manifest.expect("plan sealed");
    assert_eq!(
        replay.acked.len(),
        manifest.len(),
        "every sealed shipment must be durably acked"
    );
    let applied: usize = cluster
        .tier
        .iter_nodes()
        .map(|node| node.import_ledger().len())
        .sum();
    assert_eq!(
        applied,
        manifest.len(),
        "each sealed shipment must be applied exactly once"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn resume_is_byte_identical_to_uninterrupted(
        accesses in prop::collection::vec(0u64..3000, 50..600),
        crash_frac in 1u64..1000,
        seed in 0u64..100,
        job in 0u8..3,
    ) {
        // Uninterrupted reference run.
        let mut clean = warmed_cluster(&accesses, seed);
        let (clean_report, _) = run_journaled(&mut clean, job, MasterPlan::default());
        prop_assert!(clean_report.outcome.is_completed());
        let span = clean_report.completed.saturating_sub(NOW);

        // Same warm state, crashed part-way and resumed from the journal.
        let crash = NOW + SimTime::from_nanos(span.as_nanos() * crash_frac / 1000);
        let mut crashed = warmed_cluster(&accesses, seed);
        let (report, journal) = run_journaled(
            &mut crashed,
            job,
            MasterPlan {
                crashes: vec![crash],
                ..MasterPlan::default()
            },
        );
        prop_assert!(report.outcome.is_completed());
        prop_assert_eq!(report.resumes.len(), 1, "the crash must interrupt the run");
        prop_assert_eq!(report.items_migrated, clean_report.items_migrated);
        prop_assert_eq!(report.bytes_migrated, clean_report.bytes_migrated);
        prop_assert_eq!(fingerprint(&crashed), fingerprint(&clean));
        assert_exactly_once(&crashed, &journal);
    }

    #[test]
    fn resume_twice_equals_resume_once(
        accesses in prop::collection::vec(0u64..3000, 50..600),
        crash_frac in 1u64..900,
        seed in 0u64..100,
        job in 0u8..3,
    ) {
        let mut clean = warmed_cluster(&accesses, seed);
        let (clean_report, _) = run_journaled(&mut clean, job, MasterPlan::default());
        let span = clean_report.completed.saturating_sub(NOW);

        // A second crash lands shortly after the first resume; whether it
        // interrupts again depends on how much work was left, and the
        // final state must be identical either way.
        let first = NOW + SimTime::from_nanos(span.as_nanos() * crash_frac / 1000);
        let second = first
            + MASTER_RESTART_DELAY
            + SimTime::from_nanos(span.as_nanos() / 20);
        let mut crashed = warmed_cluster(&accesses, seed);
        let (report, journal) = run_journaled(
            &mut crashed,
            job,
            MasterPlan {
                crashes: vec![first, second],
                ..MasterPlan::default()
            },
        );
        prop_assert!(report.outcome.is_completed());
        prop_assert!(!report.resumes.is_empty());
        prop_assert_eq!(report.items_migrated, clean_report.items_migrated);
        prop_assert_eq!(fingerprint(&crashed), fingerprint(&clean));
        assert_exactly_once(&crashed, &journal);
    }
}

/// A pinned double-interruption: both crashes land inside the migration,
/// so the journal provably resumes twice — and the outcome still matches
/// the uninterrupted run exactly.
#[test]
fn pinned_double_crash_resumes_twice() {
    let accesses: Vec<u64> = (0..400).map(|i| (i * 7) % 3000).collect();
    let mut clean = warmed_cluster(&accesses, 13);
    let (clean_report, _) = run_journaled(&mut clean, 0, MasterPlan::default());
    let span = clean_report.completed.saturating_sub(NOW);

    let first = NOW + SimTime::from_nanos(span.as_nanos() / 2);
    let second = first + MASTER_RESTART_DELAY + SimTime::from_nanos(span.as_nanos() / 4);
    let mut crashed = warmed_cluster(&accesses, 13);
    let (report, journal) = run_journaled(
        &mut crashed,
        0,
        MasterPlan {
            crashes: vec![first, second],
            ..MasterPlan::default()
        },
    );
    assert!(report.outcome.is_completed());
    assert_eq!(report.resumes.len(), 2, "both crashes interrupt");
    assert_eq!(fingerprint(&crashed), fingerprint(&clean));
    assert_exactly_once(&crashed, &journal);
}

/// A warm-recovery fill runs the same journaled lifecycle through the
/// Master: a Master crash mid-fill resumes from the journal, the
/// replacement ends byte-identical to an uninterrupted recovery's, and it
/// still commits.
#[test]
fn a_recovery_fill_resumes_from_the_journal_and_commits_its_replacement() {
    let accesses: Vec<u64> = (0..600).map(|i| (i * 11) % 3000).collect();
    let dead = NodeId(2);
    let recover = |master: MasterPlan| {
        let mut cluster = warmed_cluster(&accesses, 5);
        cluster.tier.crash(dead).unwrap();
        let mut m = Master::new(MigrationPolicy::elmem(), MigrationCosts::default(), 1);
        let mut supervision = Supervision::none();
        supervision.master = master;
        let healing = HealingConfig::warm_replacement();
        let orch = m
            .recover_supervised(&mut cluster, &[dead], NOW, &healing, &mut supervision)
            .expect("recovery runs");
        (cluster, m, orch)
    };
    let (clean, _, clean_orch) = recover(MasterPlan::default());
    let clean_report = clean_orch.report.expect("a warm replacement migrates");
    let span = clean_report.completed.saturating_sub(NOW);
    assert!(clean_report.items_migrated > 0);

    let crash = NOW + SimTime::from_nanos(span.as_nanos() / 2);
    let (mut cluster, m, orch) = recover(MasterPlan {
        crashes: vec![crash],
        ..MasterPlan::default()
    });
    let report = orch.report.as_ref().expect("a warm replacement migrates");
    assert!(report.outcome.is_completed());
    assert_eq!(report.resumes.len(), 1, "the crash must interrupt the fill");
    assert_eq!(report.items_migrated, clean_report.items_migrated);
    assert_eq!(fingerprint(&cluster), fingerprint(&clean));
    assert_exactly_once(&cluster, m.journal());

    let replacement = orch.nodes[0];
    assert_eq!(
        orch.deferred.iter().map(|d| &d.kind).collect::<Vec<_>>(),
        [&DeferredKind::CommitAdd(vec![replacement])]
    );
    for d in &orch.deferred {
        Master::apply(&mut cluster, &d.kind);
    }
    assert!(cluster.tier.membership().members().contains(&replacement));
}
