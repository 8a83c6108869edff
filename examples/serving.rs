//! The audit serving layer v2: sessions → tickets → policies → cache.
//!
//! ```sh
//! cargo run --release --example serving
//! ```
//!
//! A deployed auditor rarely answers one question — and it answers the
//! *same* questions over and over (dashboards re-polling, regulators
//! re-checking at new significance levels). `AuditService` is built
//! for that workload:
//!
//! * **register** a dataset once → a `DatasetHandle` routes requests
//!   to its prepared engine;
//! * **submit** returns a `Ticket` immediately (typed `SubmitError`s,
//!   no panics); `poll`/`take` decouple submission from execution;
//! * a **drain policy** (here `MaxPending`) decides when queued
//!   requests execute as one world-sharing batch, driven by an
//!   explicit deterministic clock — `flush()` is the manual override;
//! * executed batches feed the session's **world cache**: a repeated
//!   audit replays cached τ-streams and simulates **zero** new worlds,
//!   bit-identical to its cold run.

use spatial_fairness::prelude::*;
use spatial_fairness::scan::McStrategy;
use std::time::Instant;

fn main() {
    // Unfair-by-design data (paper Fig. 1b) over a fine grid.
    let outcomes = sfdata::synth::SynthConfig::paper().generate(42);
    let regions = RegionSet::regular_grid(outcomes.expanded_bounding_box(), 16, 16);
    let base = AuditConfig::new(0.005).with_worlds(199).with_seed(7);

    // --- register: the expensive phase happens exactly once. ----------
    let t = Instant::now();
    let mut service = AuditService::new().with_policy(DrainPolicy::MaxPending(8));
    let handle = service.register(&outcomes, &regions, base).unwrap();
    println!(
        "registered {} points x {} regions as {} in {:.1?}\n",
        outcomes.len(),
        regions.len(),
        handle,
        t.elapsed()
    );

    // --- submit: tickets come back immediately. -----------------------
    // Three directions at two alphas share one world stream; an
    // early-stopping probe rides along; a differently-seeded replica
    // gets its own stream. The eighth submission reaches MaxPending(8)
    // and the whole queue executes as one world-sharing batch.
    let default_request = service.default_request(handle).unwrap();
    let mut tickets = Vec::new();
    for direction in [Direction::TwoSided, Direction::High, Direction::Low] {
        let mut request = default_request.with_direction(direction);
        let ticket = service.submit(handle, request).unwrap();
        tickets.push((format!("{direction}, a=0.005"), ticket, request));
        request.alpha = 0.05;
        let ticket = service.submit(handle, request).unwrap();
        tickets.push((format!("{direction}, a=0.05"), ticket, request));
    }
    let probe = default_request.with_mc_strategy(McStrategy::early_stop());
    tickets.push((
        "two-sided, early-stop".into(),
        service.submit(handle, probe).unwrap(),
        probe,
    ));
    println!(
        "queued {} requests; plan:",
        service.pending(handle).unwrap()
    );
    for (g, group) in service.plan(handle).unwrap().groups().iter().enumerate() {
        println!(
            "  group {g}: seed {}, {:?}, {} requests, {} directions, max budget {}",
            group.seed,
            group.null_model,
            group.members.len(),
            group.directions.len(),
            group.max_budget
        );
    }
    assert!(
        service.poll(tickets[0].1).is_queued(),
        "nothing executes before the policy fires"
    );

    // --- the policy fires: submission #8 executes the batch. ----------
    let t = Instant::now();
    let reseeded = default_request.with_seed(99);
    let ticket = service.submit(handle, reseeded).unwrap();
    tickets.push(("two-sided, seed 99".into(), ticket, reseeded));
    println!(
        "\nMaxPending(8) fired on submission #8; {} audits ready in {:.1?}:",
        service.ready_total(),
        t.elapsed()
    );
    for (label, ticket, _) in &tickets {
        let response = service.take(*ticket).expect("batch executed");
        let r = &response.report;
        println!(
            "  {label:<24} {} p={:.4} ({} of {} worlds)",
            r.verdict(),
            r.p_value,
            r.worlds_evaluated,
            r.config.worlds
        );
    }

    // --- repeat requests hit the cross-batch world cache. -------------
    let t = Instant::now();
    let repeat = service.submit(handle, default_request).unwrap();
    let extended = service
        .submit(handle, default_request.with_worlds(299))
        .unwrap();
    service.flush(); // manual escape hatch, policy notwithstanding
    let warm = service.take(repeat).unwrap();
    let grown = service.take(extended).unwrap();
    println!(
        "\nwarm repeat + extended budget served in {:.1?}: \
         p={:.4} (199 worlds cached), p={:.4} (299 worlds: one shared \
         stream, 199 replayed + 100 new)",
        t.elapsed(),
        warm.report.p_value,
        grown.report.p_value
    );

    let stats = service.stats();
    println!("stats: {stats}");

    // The contract: every served answer is bit-identical to a
    // standalone audit of the same request — including the cached ones.
    let solo = Auditor::new(default_request.apply_to(base))
        .audit(&outcomes, &regions)
        .unwrap();
    assert_eq!(warm.report, solo);
    // The repeat and the extension share one world class, so the warm
    // batch replays the 199 cached worlds once and simulates only the
    // extension's 100-world suffix.
    assert_eq!(stats.worlds_replayed, 199);
    assert_eq!(stats.unique_worlds, 398 + 100, "only the suffix was new");
    println!("\ncached == cold: verified bit-identical (zero new worlds for the repeat)");

    // Typed rejection instead of a panic: an invalid request never
    // reaches the queue, so one bad payload cannot take the process
    // (or its batch) down.
    let mut bad = default_request;
    bad.alpha = 42.0;
    let err = service.submit(handle, bad).unwrap_err();
    println!("rejected bad request: {err}");

    // Eviction drops the session's engine, queue, and cache.
    let final_cache = service.unregister(handle).unwrap();
    println!("unregistered {handle}: cache had served {final_cache}");
}
