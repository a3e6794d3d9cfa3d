//! `explore`: read-only exploration of an offline engine.
//!
//! A BookCrossing-like dataset (2k users, 12k ratings) is mined with LCM
//! into ~2.2k groups and indexed. Two closed-loop clients step 64 scripted
//! sessions round-robin through one `ExplorationService`. The greedy budget
//! never binds, so each click does a fixed amount of work and its display
//! is deterministic. Nothing is written: refresh, WAL and checkpoint work
//! is absent.

use crate::client::{self, Client, ClientOut};
use crate::layers;
use crate::report::Report;
use crate::stats::{self, percentile, sort};
use crate::trace::{self, Tracer};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};
use vexus_core::engine::VexusBuilder;
use vexus_core::{EngineConfig, ExplorationService, Vexus};
use vexus_data::synthetic::{bookcrossing, BookCrossingConfig};
use vexus_data::{UserData, Vocabulary};
use vexus_index::{GroupIndex, IndexConfig};

const CLIENTS: u64 = 2;
const SESSIONS: u64 = 64;
/// Engine builds per run; `setup_s` is their median.
const SETUP_RUNS: usize = 31;
/// Finished cycles replayed single-threaded after the timed phase.
const REPLAY_CYCLES: usize = 8;
/// Re-executions of discovery and index build in the traced run.
const REBUILDS: usize = 3;

/// The paper's configuration with k = 5, a candidate pool of 96 and a
/// greedy budget (600 s) that never binds.
pub fn config() -> EngineConfig {
    let mut cfg = EngineConfig::paper().with_budget(Duration::from_secs(600));
    cfg.candidate_pool = 96;
    cfg
}

/// The corpus is fixed (the d5 experiment's dataset); the run's seed
/// drives what the sessions click.
fn dataset() -> UserData {
    bookcrossing(&BookCrossingConfig {
        n_users: 2_000,
        n_books: 1_500,
        n_ratings: 12_000,
        n_communities: 6,
        seed: 7,
    })
    .data
}

/// Open the scripted sessions on a fresh service, then step them for
/// `secs`; returns the merged client output, the service and when the
/// timed phase began.
fn measure(
    engine: &Arc<Vexus>,
    cfg: &EngineConfig,
    seed: u64,
    secs: f64,
    traced: bool,
) -> (ClientOut, ExplorationService, Instant) {
    let svc = ExplorationService::new(Arc::clone(engine));
    let base = Instant::now();
    let start = OnceLock::new();
    let warmup = Barrier::new(CLIENTS as usize);
    let outs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|w| {
                let c = Client {
                    svc: &svc,
                    config: cfg,
                    seed,
                    sessions: (w..SESSIONS).step_by(CLIENTS as usize).collect(),
                    start: &start,
                    seconds: secs,
                    warmup: Some(&warmup),
                    tracer: traced.then(|| Tracer::new(base, w + 1)),
                    pinned: None,
                };
                scope.spawn(move || c.run())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    let start = *start.get().expect("clients start the timed phase");
    (client::merge(outs), svc, start)
}

/// Fold a client run into the report, replaying a sample of its cycles.
fn check(out: &ClientOut, cfg: &EngineConfig, seed: u64, r: &mut Report) {
    let checked = client::fold(out, cfg, seed, REPLAY_CYCLES, r);
    println!(
        "explore: {} verbs, {} clicks, {} cycles finished, {checked} replayed single-threaded",
        out.attempted,
        out.clicks_ms.len(),
        out.records.len()
    );
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Report {
    let mut r = Report::default();
    let data = dataset();
    let cfg = config();
    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_RUNS {
        let data = data.clone();
        let t = Instant::now();
        let engine = VexusBuilder::new(data).config(cfg.clone()).build();
        setup.push(t.elapsed().as_secs_f64());
        match engine {
            Ok(e) => built = Some(e),
            Err(e) => {
                r.fail(format!("engine build: {e}"));
                return r;
            }
        }
    }
    let engine = Arc::new(built.expect("SETUP_RUNS > 0"));
    r.set_opt("setup_s", stats::median(&setup), setup.len());
    println!(
        "explore: {} users, {} groups, seed {seed}",
        engine.data().n_users(),
        engine.groups().len()
    );

    if !traced {
        let (out, _, start) = measure(&engine, &cfg, seed, seconds as f64, false);
        let mut clicks = out.clicks_ms.clone();
        sort(&mut clicks);
        let n = clicks.len();
        r.set_opt("p50_ms", percentile(&clicks, 0.5), n);
        r.set_opt("tail_ms", percentile(&clicks, 0.99), n);
        r.set(
            "ops_per_s",
            out.rate(start, seconds as f64),
            out.ok as usize,
        );
        println!(
            "explore: clicks within 100 ms: {:.4} of {n}",
            out.within_100ms()
        );
        check(&out, &cfg, seed, &mut r);
        return r;
    }

    // Traced run: an untraced half gives the reference click p50 (and the
    // cache hit rate), a traced half the spans.
    let half = seconds as f64 / 2.0;
    let cache_stats = || {
        engine
            .neighbor_cache()
            .map(|c| c.stats())
            .unwrap_or_default()
    };
    let before = cache_stats();
    let (mut plain, _, _) = measure(&engine, &cfg, seed, half, false);
    let after = cache_stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    r.set(
        "cache.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        (hits + misses) as usize,
    );
    check(&plain, &cfg, seed, &mut r);
    sort(&mut plain.clicks_ms);
    let plain_p50 = percentile(&plain.clicks_ms, 0.5);

    let (out, svc, _) = measure(&engine, &cfg, seed, half, true);
    check(&out, &cfg, seed, &mut r);
    layers::click_metrics(&out, &svc.stats(), &mut r);
    let traced_p50 = r.metrics.get("serve.click_ms").map(|m| m.0);
    if let (Some(t), Some(p)) = (traced_p50, plain_p50) {
        r.set("trace.overhead", t / p, out.clicks_ms.len());
    }

    // Set-up layers, re-executed on the same inputs: discovery over the
    // dataset, and the index build over the discovered space.
    let mut discover_ms = Vec::new();
    let mut build_ms = Vec::new();
    let mut mismatches = 0usize;
    let backend =
        cfg.discovery
            .backend_with(cfg.min_group_size, cfg.merge_threads, cfg.exchange_rounds);
    let index_cfg = IndexConfig {
        materialize_fraction: cfg.materialize_fraction,
        threads: 0,
    };
    for _ in 0..REBUILDS {
        let t = Instant::now();
        let vocab = Vocabulary::build(engine.data());
        std::hint::black_box(backend.discover(engine.data(), &vocab));
        discover_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let index = GroupIndex::build(engine.groups(), &index_cfg);
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let equal = engine
            .groups()
            .ids()
            .all(|g| index.materialized(g) == engine.index().materialized(g));
        if !equal {
            mismatches += 1;
            r.violate("index rebuild differs from the engine's index".into());
        }
    }
    r.set_opt("mining.discover_ms", stats::median(&discover_ms), REBUILDS);
    r.set_opt("index.build_ms", stats::median(&build_ms), REBUILDS);
    r.set("replay.index_mismatches", mismatches as f64, REBUILDS);
    trace::write("explore", seed, &out.spans);
    r
}
