//! Seeded concurrency stress campaign for the lock-free admission path:
//! the MPMC ring, the deficit-round-robin fair dequeue and (every few
//! cases) a live two-tenant service under adversarial load.
//!
//! ```text
//! qca-ring-stress                          # 200 cases from seed 1
//! qca-ring-stress --seed 7 --cases 500
//! qca-ring-stress --replay 12345          # one case, verbose
//! qca-ring-stress --fail-file failing.txt # CI artifact: failing seeds
//! ```
//!
//! Each case derives everything (thread counts, ring capacity, item
//! counts, lane weights) from its seed, so a failing seed replays the
//! exact schedule *shape* (thread interleavings still vary, which is the
//! point — a seed that fails even occasionally is a real bug). Invariants
//! checked:
//!
//! - **Ring**: no loss, no duplication, per-producer FIFO as observed by
//!   every consumer, across 1/2/4/8-thread producer/consumer grids.
//! - **DRR**: a fully-backlogged queue dequeues exactly `weight` items
//!   per lane per lap, and drains to exactly what was pushed.
//! - **Service**: a flooding tenant cannot starve a weighted rival —
//!   every accepted job settles, and the vip tenant's jobs complete.

use qca_service::{DrrQueue, JobSpec, Ring, Service, ServiceConfig, ServiceError, TenantConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Per-case seed stride (same constant family as the chaos campaigns).
const CASE_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

struct Args {
    seed: u64,
    cases: u64,
    replay: Option<u64>,
    fail_file: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        cases: 200,
        replay: None,
        fail_file: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--seed" => {
                args.seed = take("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--cases" => {
                args.cases = take("--cases")?
                    .parse()
                    .map_err(|e| format!("bad --cases: {e}"))?;
            }
            "--replay" => {
                args.replay = Some(
                    take("--replay")?
                        .parse()
                        .map_err(|e| format!("bad --replay: {e}"))?,
                );
            }
            "--fail-file" => args.fail_file = Some(take("--fail-file")?),
            "--help" | "-h" => return Err(
                "usage: qca-ring-stress [--seed N] [--cases N] [--replay SEED] [--fail-file PATH]"
                    .to_string(),
            ),
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(args)
}

/// Which stressor a case runs (derived from its seed).
#[derive(Debug, Clone, Copy)]
enum Kind {
    Ring,
    Drr,
    Service,
}

/// Runs one case; `None` means every invariant held.
fn run_case(seed: u64) -> (Kind, Option<String>) {
    let mut rng = StdRng::seed_from_u64(seed);
    // The service stressor is ~100x the cost of the in-memory ones, so
    // it takes one slot in eight; ring and DRR split the rest.
    let kind = match rng.gen_range(0..8) {
        0 => Kind::Service,
        n if n % 2 == 1 => Kind::Drr,
        _ => Kind::Ring,
    };
    let failure = match kind {
        Kind::Ring => ring_case(&mut rng),
        Kind::Drr => drr_case(&mut rng),
        Kind::Service => service_case(&mut rng),
    };
    (kind, failure)
}

/// N producers × M consumers over one ring: every pushed item must be
/// popped exactly once, and each consumer must observe every producer's
/// items in push order (the ring is FIFO, so any single consumer's pops
/// are a subsequence of the global order).
fn ring_case(rng: &mut StdRng) -> Option<String> {
    const GRID: [usize; 4] = [1, 2, 4, 8];
    let producers = GRID[rng.gen_range(0..GRID.len())];
    let consumers = GRID[rng.gen_range(0..GRID.len())];
    let capacity = 1usize << rng.gen_range(2..8);
    let per_producer = rng.gen_range(200..1000_usize);
    let ring: Arc<Ring<u64>> = Arc::new(Ring::with_capacity(capacity));
    let total = producers * per_producer;
    let done = Arc::new(AtomicBool::new(false));

    let producer_handles: Vec<_> = (0..producers)
        .map(|p| {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for seq in 0..per_producer {
                    let mut item = ((p as u64) << 32) | seq as u64;
                    // Spin on a full ring; consumers are draining it.
                    loop {
                        match ring.push(item) {
                            Ok(()) => break,
                            Err(back) => {
                                item = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            })
        })
        .collect();

    let consumer_handles: Vec<_> = (0..consumers)
        .map(|_| {
            let ring = Arc::clone(&ring);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut log = Vec::new();
                loop {
                    match ring.pop() {
                        Some(item) => log.push(item),
                        None if done.load(Ordering::SeqCst) => {
                            // One final sweep: `done` may have been set
                            // between our miss and a late push.
                            while let Some(item) = ring.pop() {
                                log.push(item);
                            }
                            return log;
                        }
                        None => std::thread::yield_now(),
                    }
                }
            })
        })
        .collect();

    for h in producer_handles {
        if h.join().is_err() {
            return Some("producer panicked".to_string());
        }
    }
    done.store(true, Ordering::SeqCst);
    let mut seen = vec![0u32; total];
    for h in consumer_handles {
        let Ok(log) = h.join() else {
            return Some("consumer panicked".to_string());
        };
        // Per-producer FIFO within this consumer's log.
        let mut last_seq = vec![None::<u64>; producers];
        for item in log {
            let (p, seq) = ((item >> 32) as usize, item & 0xFFFF_FFFF);
            if p >= producers || seq as usize >= per_producer {
                return Some(format!("alien item {item:#x} popped"));
            }
            if let Some(last) = last_seq[p] {
                if seq <= last {
                    return Some(format!(
                        "producer {p} order violated: seq {seq} after {last}"
                    ));
                }
            }
            last_seq[p] = Some(seq);
            seen[p * per_producer + seq as usize] += 1;
        }
    }
    seen.iter().position(|&n| n != 1).map(|slot| {
        format!(
            "item {}/{} popped {} times (want exactly 1)",
            slot / per_producer,
            slot % per_producer,
            seen[slot]
        )
    })
}

/// A fully-backlogged DRR queue must hand each lane exactly its weight
/// per lap, and drain to exactly what was pushed.
fn drr_case(rng: &mut StdRng) -> Option<String> {
    let lanes = rng.gen_range(2..=4);
    let weights: Vec<u32> = (0..lanes).map(|_| rng.gen_range(1..=5)).collect();
    let laps = rng.gen_range(2..6_u32);
    // Enough backlog that no lane empties during the measured laps.
    let per_lane: Vec<usize> = weights
        .iter()
        .map(|&w| (w * laps) as usize + rng.gen_range(1..10_usize))
        .collect();
    let mut q: DrrQueue<u64> = DrrQueue::new(&weights);
    let mut pushed = 0usize;
    for (lane, &n) in per_lane.iter().enumerate() {
        for i in 0..n {
            // Identical priorities: dequeue order is pure DRR.
            q.push(lane, (lane as u64) << 32 | i as u64);
            pushed += 1;
        }
    }
    let lap_quota: u32 = weights.iter().sum();
    let mut counts = vec![0u32; lanes];
    for _ in 0..(lap_quota * laps) {
        let Some(item) = q.pop() else {
            return Some("queue dried up while backlogged".to_string());
        };
        counts[(item >> 32) as usize] += 1;
    }
    for (lane, (&count, &weight)) in counts.iter().zip(weights.iter()).enumerate() {
        if count != weight * laps {
            return Some(format!(
                "lane {lane} (weight {weight}) got {count} of {laps} laps' worth (want {})",
                weight * laps
            ));
        }
    }
    let mut drained = lap_quota * laps;
    while q.pop().is_some() {
        drained += 1;
    }
    if drained as usize != pushed {
        return Some(format!("pushed {pushed}, drained {drained}"));
    }
    None
}

/// Adversarial two-tenant service: a flooder slams a weight-1 lane while
/// a vip tenant (weight 4) submits a handful of jobs. Every accepted job
/// must settle, and every vip job must *complete* — the flood cannot
/// starve the weighted lane.
fn service_case(rng: &mut StdRng) -> Option<String> {
    let service = Service::with_config(ServiceConfig {
        workers: 1,
        queue_capacity: 64,
        tenants: vec![TenantConfig::new("flood", 1), TenantConfig::new("vip", 4)],
        ..ServiceConfig::default()
    });
    let handle = service.handle();
    let circuit = "qubits 2\nh q[0]\ncnot q[0], q[1]\nmeasure_all\n";
    let mut flood_ids = Vec::new();
    for i in 0..rng.gen_range(20..40) {
        let mut spec = JobSpec::new(circuit).with_tenant("flood");
        spec.seed = i;
        spec.shots = rng.gen_range(50..200);
        match handle.submit(spec) {
            Ok(id) => flood_ids.push(id),
            Err(ServiceError::QueueFull { .. }) => {}
            Err(e) => return Some(format!("flood submit: {e}")),
        }
    }
    let mut vip_ids = Vec::new();
    for i in 0..5 {
        let mut spec = JobSpec::new(circuit).with_tenant("vip");
        spec.seed = 1000 + i;
        spec.shots = 100;
        match handle.submit(spec) {
            Ok(id) => vip_ids.push(id),
            Err(e) => return Some(format!("vip submit: {e}")),
        }
    }
    for id in vip_ids {
        if let Err(e) = handle.wait(id, Duration::from_secs(30)) {
            return Some(format!("vip job {} starved: {e}", id.0));
        }
    }
    for id in flood_ids {
        if let Err(e) = handle.wait(id, Duration::from_secs(30)) {
            return Some(format!("flood job {} stranded: {e}", id.0));
        }
    }
    let stats = handle.stats();
    let vip = stats.tenants.iter().find(|t| t.name == "vip");
    if vip.map_or(0, |t| t.completed) < 5 {
        return Some(format!("vip completions missing from stats: {stats:?}"));
    }
    service.shutdown();
    None
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(seed) = args.replay {
        let (kind, failure) = run_case(seed);
        return match failure {
            None => {
                println!("replay {seed}: {kind:?} ok");
                ExitCode::SUCCESS
            }
            Some(msg) => {
                eprintln!("replay {seed}: {kind:?} FAILED: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    let mut failing: Vec<(u64, String)> = Vec::new();
    let mut by_kind = [0u64; 3];
    for i in 0..args.cases {
        let seed = args.seed.wrapping_add(i.wrapping_mul(CASE_SEED_STRIDE));
        let (kind, failure) = run_case(seed);
        by_kind[match kind {
            Kind::Ring => 0,
            Kind::Drr => 1,
            Kind::Service => 2,
        }] += 1;
        if let Some(msg) = failure {
            eprintln!("case {i} (seed {seed}, {kind:?}): {msg}");
            failing.push((seed, msg));
        }
    }
    println!(
        "qca-ring-stress: {} cases ({} ring, {} drr, {} service), {} failed",
        args.cases,
        by_kind[0],
        by_kind[1],
        by_kind[2],
        failing.len()
    );
    if let Some(path) = &args.fail_file {
        if !failing.is_empty() {
            let mut out = String::new();
            for (seed, msg) in &failing {
                out.push_str(&format!("{seed}\t{msg}\n"));
            }
            if let Err(e) =
                std::fs::File::create(path).and_then(|mut f| f.write_all(out.as_bytes()))
            {
                eprintln!("qca-ring-stress: cannot write {path}: {e}");
            } else {
                eprintln!(
                    "qca-ring-stress: wrote {} failing seed(s) to {path} (replay with --replay SEED)",
                    failing.len()
                );
            }
        }
    }
    if failing.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
