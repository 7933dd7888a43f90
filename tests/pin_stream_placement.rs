//! Stream-and-placement pin: FNV-1a digests of the generated request
//! stream and of ring placement, committed as constants.
//!
//! The serving-loop kernels (`ZipfPopularity::key_for_rank`,
//! `HashRing::node_for_hash`, `SimTime::from_secs_f64`) are optimised
//! under a "same bits" contract. The goldens and the chaos fixture would
//! catch a drift too, but minutes later and far from the cause; these
//! digests fail in about a second and say which kernel moved. Every
//! constant was computed at the commit *before* the kernels changed
//! (PR 15, `7ab1128`), so a mismatch means today's code no longer
//! produces that commit's stream or placement.
//!
//! A stream that changes on purpose copies the rows the failure message
//! prints, in the same reviewed diff that re-blesses the goldens. That has
//! happened once, to the three stream rows: ROADMAP item 6(a)'s one-sampler
//! PR (PR 22) replaced the Zipf sampler and the rank→key coin. The
//! placement rows are still `7ab1128`'s.
//!
//! The stream is checked on both of the generator's transports in the
//! same run: called directly (`par_jobs() == 1`) and as a stage on its own
//! thread (`par_jobs() == 2`).

use elmem::hash::HashRing;
use elmem::util::hashutil::fnv1a64;
use elmem::util::par::with_par_jobs;
use elmem::util::{DetRng, KeyId, NodeId, SimTime};
use elmem::workload::{DemandTrace, Keyspace, RequestGenerator, WebRequest, WorkloadConfig};

/// 64-bit FNV-1a over the words' little-endian bytes.
fn digest(words: &[u64]) -> u64 {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

const SEED: u64 = 7;
const REQUESTS: usize = 20_000;

/// Digest of the first [`REQUESTS`] requests (arrival, then each key).
fn stream_digest(n: u64, s: f64) -> u64 {
    let config = WorkloadConfig {
        keyspace: Keyspace::new(n, SEED),
        zipf_exponent: s,
        items_per_request: 5,
        peak_rate: 833.0,
        // A dip, so the thinning loop rejects candidates too.
        trace: DemandTrace::new(vec![1.0, 0.5, 1.0], SimTime::from_secs(30)),
    };
    let mut gen = RequestGenerator::new(config, DetRng::seed(SEED));
    let mut req = WebRequest {
        arrival: SimTime::ZERO,
        keys: Vec::new(),
    };
    let mut words = Vec::with_capacity(REQUESTS * 6);
    for i in 0..REQUESTS {
        assert!(
            gen.next_request_into(&mut req),
            "trace ended at request {i}"
        );
        words.push(req.arrival.as_nanos());
        words.extend(req.keys.iter().map(|key| key.0));
    }
    digest(&words)
}

/// Digest of `node_for` over keys `0..100 000`.
fn placement_digest(nodes: u32, vnodes: u32) -> u64 {
    let ring = HashRing::new((0..nodes).map(NodeId), vnodes);
    let owners: Vec<u64> = (0..100_000)
        .map(|k| u64::from(ring.node_for(KeyId(k)).expect("non-empty ring").0))
        .collect();
    digest(&owners)
}

#[test]
fn request_streams_match_their_pinned_digests() {
    // (keys, zipf exponent, digest at PR 22)
    const PINS: [(u64, f64, u64); 3] = [
        (40_000, 1.0, 0x475f_5643_c378_8c53),
        (200_000, 0.8, 0x9c56_03e9_5efa_73f4),
        (100_000, 1.2, 0x23bf_6327_f13e_9d58),
    ];
    let moved: Vec<String> = [1, 2]
        .into_iter()
        .flat_map(|jobs| PINS.into_iter().map(move |pin| (jobs, pin)))
        .filter_map(|(jobs, (n, s, want))| {
            let got = with_par_jobs(jobs, || stream_digest(n, s));
            (got != want).then(|| format!("({n}, {s:?}, {got:#018x}), // par_jobs {jobs}"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "request stream moved: if only one par_jobs count moved, suspect the \
         generator's stage (reqgen's transports test); else suspect ZipfPopularity::sample_rank's draw \
         pattern (zipf's draw_pattern_* test), then key_for_rank's coin, then \
         SimTime::from_secs_f64 (arrivals). Rows now:\n{}",
        moved.join("\n")
    );
}

#[test]
fn ring_placement_matches_its_pinned_digests() {
    // (nodes, points per node, digest at 7ab1128)
    const PINS: [(u32, u32, u64); 3] = [
        (4, 128, 0x03b6_fd22_e6b4_66e7),
        (5, 1_024, 0xefa8_15e6_f508_0626),
        (100, 128, 0x6409_8a0d_6ac0_0b1a),
    ];
    let moved: Vec<String> = PINS
        .into_iter()
        .filter_map(|(nodes, vnodes, want)| {
            let got = placement_digest(nodes, vnodes);
            (got != want).then(|| format!("({nodes}, {vnodes}, {got:#018x}),"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "ring placement moved: suspect HashRing::node_for_hash's bucket index \
         (ring's index_lookup_matches_partition_point test), then the point \
         hashing. Rows now:\n{}",
        moved.join("\n")
    );
}
