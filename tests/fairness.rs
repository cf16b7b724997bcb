//! Fairness tests for the multi-tenant admission path: the deficit
//! round-robin dequeue honours configured weights exactly, a flooding
//! tenant cannot starve a light one, per-tenant quotas shed with a
//! typed error, and the tenant counters on `ServiceStats` add up.

use proptest::prelude::*;
use qca_service::chaos::{self, Scenario};
use qca_service::{DrrQueue, JobSpec, Service, ServiceConfig, ServiceError, TenantConfig};
use std::cmp::Reverse;
use std::time::Duration;

const BELL: &str = "qubits 2\nh q[0]\ncnot q[0], q[1]\nmeasure_all\n";

/// When every lane stays backlogged, DRR is exact: over any window of
/// `sum(weights)` consecutive pops, each lane is served precisely its
/// weight. Checked here over `laps` full rounds.
fn assert_exact_shares(weights: &[u32], laps: u32) {
    let mut queue: DrrQueue<Reverse<u64>> = DrrQueue::new(weights);
    // Backlog every lane past what `laps` rounds can drain, plus slack
    // so the queue never runs dry mid-window.
    for (lane, &w) in weights.iter().enumerate() {
        for i in 0..(w * laps + 5) {
            queue.push(lane, Reverse(((lane as u64) << 32) | u64::from(i)));
        }
    }
    let round: u32 = weights.iter().sum();
    let mut served = vec![0u32; weights.len()];
    for _ in 0..round * laps {
        let Reverse(item) = queue.pop().expect("backlogged queue ran dry");
        served[(item >> 32) as usize] += 1;
    }
    for (lane, &w) in weights.iter().enumerate() {
        assert_eq!(
            served[lane],
            w * laps,
            "lane {lane} (weight {w}) served {} of {} pops; weights {weights:?}",
            served[lane],
            round * laps
        );
    }
}

#[test]
fn drr_serves_each_backlogged_lane_its_exact_weight() {
    assert_exact_shares(&[1, 4], 10);
    assert_exact_shares(&[1, 1, 1], 7);
    assert_exact_shares(&[5, 2, 1], 4);
}

#[test]
fn drr_idle_lanes_forfeit_credit_instead_of_banking_it() {
    // Lane 0 (weight 9) is empty the whole time: it must not accumulate
    // nine rounds of credit and then monopolise the queue once filled.
    let mut queue: DrrQueue<Reverse<u64>> = DrrQueue::new(&[9, 1]);
    for i in 0..20u64 {
        queue.push(1, Reverse(i));
    }
    for i in 0..10u64 {
        assert_eq!(queue.pop(), Some(Reverse(i)));
    }
    // Lane 0 fills late; from here the 9:1 ratio applies forward only.
    for i in 0..9u64 {
        queue.push(0, Reverse(100 + i));
    }
    let mut lane0 = 0;
    for _ in 0..10 {
        let Reverse(item) = queue.pop().unwrap();
        if item >= 100 {
            lane0 += 1;
        }
    }
    assert_eq!(
        lane0, 9,
        "a late-filling lane gets its weight, not its arrears"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The exact-share property holds for arbitrary weight vectors and
    /// lap counts, not just the hand-picked ones.
    #[test]
    fn drr_exact_shares_hold_for_arbitrary_weights(
        weights in proptest::collection::vec(1u32..6, 1..5),
        laps in 1u32..5,
    ) {
        assert_exact_shares(&weights, laps);
    }

    /// Interleaving pushes between pops never loses or duplicates items
    /// and never serves an empty lane.
    #[test]
    fn drr_drains_exactly_what_was_pushed(
        pushes in proptest::collection::vec((0usize..3, 0u64..1000), 0..120),
    ) {
        let mut queue: DrrQueue<Reverse<(u64, usize)>> = DrrQueue::new(&[2, 1, 3]);
        let mut expected = Vec::new();
        for (i, &(lane, v)) in pushes.iter().enumerate() {
            queue.push(lane, Reverse((v, i)));
            expected.push((v, i));
        }
        let mut drained = Vec::new();
        while let Some(Reverse(item)) = queue.pop() {
            drained.push(item);
        }
        prop_assert!(queue.is_empty());
        prop_assert_eq!(queue.pop(), None);
        drained.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(drained, expected);
    }
}

/// Two-tenant adversarial mix: a flooding tenant saturates the queue
/// while a light "vip" tenant submits a handful of jobs. Every vip job
/// must complete — the flood can slow them, never starve them.
#[test]
fn a_flooding_tenant_cannot_starve_a_light_one() {
    let service = Service::with_config(ServiceConfig {
        workers: 1,
        queue_capacity: 256,
        tenants: vec![TenantConfig::new("flood", 1), TenantConfig::new("vip", 4)],
        ..ServiceConfig::default()
    });
    let handle = service.handle();

    let mut flood_ids = Vec::new();
    for seed in 0..60u64 {
        match handle.submit(JobSpec::new(BELL).with_seed(seed).with_tenant("flood")) {
            Ok(id) => flood_ids.push(id),
            Err(ServiceError::QueueFull { .. }) => {}
            Err(e) => panic!("unexpected flood rejection: {e}"),
        }
    }
    let vip_ids: Vec<_> = (0..5u64)
        .map(|seed| {
            handle
                .submit(JobSpec::new(BELL).with_seed(1000 + seed).with_tenant("vip"))
                .expect("vip submissions must be admitted")
        })
        .collect();

    for id in vip_ids {
        handle
            .wait(id, Duration::from_secs(60))
            .expect("vip job starved behind the flood");
    }
    for id in flood_ids {
        handle
            .wait(id, Duration::from_secs(60))
            .expect("flood job lost");
    }

    let stats = handle.stats();
    let vip = stats
        .tenants
        .iter()
        .find(|t| t.name == "vip")
        .expect("vip lane missing from stats");
    assert_eq!(vip.weight, 4);
    assert_eq!(vip.submitted, 5);
    assert_eq!(vip.completed, 5);
    assert_eq!(vip.queued, 0);
    service.shutdown();
}

/// A tenant at its queued-job quota is shed with a typed error naming
/// the tenant and the quota, the shed shows up in that tenant's stats,
/// and other tenants are unaffected.
#[test]
fn quota_sheds_with_a_typed_error_and_counts_per_tenant() {
    let service = Service::with_config(ServiceConfig {
        workers: 1,
        queue_capacity: 64,
        tenants: vec![
            TenantConfig::new("batch", 1).with_quota(2),
            TenantConfig::new("interactive", 2),
        ],
        ..ServiceConfig::default()
    });
    let handle = service.handle();

    // A compute-heavy job pins the single worker so queued jobs stay
    // queued (shots are sampled per outcome, so only gate count buys
    // wall-clock time).
    let mut heavy = String::from("qubits 16\n");
    for _ in 0..6 {
        for q in 0..16 {
            heavy.push_str(&format!("h q[{q}]\n"));
        }
        for q in 0..15 {
            heavy.push_str(&format!("cnot q[{q}], q[{}]\n", q + 1));
        }
    }
    heavy.push_str("measure_all\n");
    let plug = handle.submit(JobSpec::new(heavy).with_seed(7)).unwrap();

    // Submit until the quota trips: the worker drains the lane
    // concurrently, but submissions outpace execution by orders of
    // magnitude, so the lane fills within a handful of iterations.
    let mut admitted = Vec::new();
    let mut shed = 0u64;
    for seed in 0..200u64 {
        match handle.submit(JobSpec::new(BELL).with_seed(seed).with_tenant("batch")) {
            Ok(id) => admitted.push(id),
            Err(ServiceError::TenantQuotaExceeded { tenant, quota }) => {
                assert_eq!(tenant, "batch");
                assert_eq!(quota, 2);
                shed += 1;
                break;
            }
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
    assert!(
        shed >= 1,
        "200 submissions against a quota of 2 never tripped it"
    );
    // The other tenant is not affected by batch's quota.
    let other = handle
        .submit(JobSpec::new(BELL).with_seed(42).with_tenant("interactive"))
        .expect("an unrelated tenant must not inherit the shed");

    let stats = handle.stats();
    let batch = stats.tenants.iter().find(|t| t.name == "batch").unwrap();
    assert_eq!(batch.quota, Some(2));
    assert_eq!(batch.shed, shed, "every quota rejection must be counted");

    for id in admitted.into_iter().chain([plug, other]) {
        handle.wait(id, Duration::from_secs(120)).unwrap();
    }
    service.shutdown();
}

/// Starvation regression: replay the tenant-flood chaos scenario at
/// pinned seeds. Each case floods a two-tenant service from several
/// threads racing a shutdown, and fails if any admitted job is stranded
/// without a terminal state. The seeds are fixed so a regression here
/// is reproducible with `qca-chaos-serve --replay <seed>`.
#[test]
fn tenant_flood_chaos_replays_cleanly_at_pinned_seeds() {
    for seed in [3u64, 4, 14] {
        let report = chaos::run_case(seed);
        assert_eq!(
            report.scenario,
            Scenario::TenantFloodShutdown,
            "seed {seed} no longer selects the tenant-flood scenario; repin it"
        );
        assert!(
            report.failure.is_none(),
            "seed {seed} regressed: {:?}",
            report.failure
        );
    }
}
