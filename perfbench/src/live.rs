//! `live`: reads beside writes. One producer thread ingests a batch and
//! refreshes as each falls due (open loop), while one closed-loop client
//! runs scripted sessions on the live engine, reopening onto the newest
//! epoch every fourth cycle. One session opened before the first refresh stays
//! pinned to epoch 0 throughout.

use crate::client::{self, Client};
use crate::layers::{self, tail};
use crate::report::Report;
use crate::stats::{self, percentile, sort};
use crate::stream::{self, Timed};
use crate::trace::{self, Tracer};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use vexus_core::ExplorationService;

/// Actions per batch; one batch (and one refresh) is due every period.
const BATCH: usize = 50;
const PERIOD: Duration = Duration::from_millis(100);
const SESSIONS: u64 = 4;
const SETUP_RUNS: usize = 41;
/// Finished cycles replayed single-threaded on their epoch after the run.
const REPLAY_CYCLES: usize = 4;

pub fn run(seed: u64, seconds: u64, traced: bool) -> Report {
    let mut r = Report::default();
    if let Err(e) = run_into(seed, seconds, traced, &mut r) {
        r.fail(e);
    }
    r
}

fn run_into(seed: u64, seconds: u64, traced: bool, r: &mut Report) -> Result<(), String> {
    let n = (seconds as u128 * 1000 / PERIOD.as_millis()) as usize;
    // The seed reorders actions only within each batch, so every epoch
    // folds in the same actions whatever the seed: a wider shuffle changes
    // what the stream miner keeps, and with it the cost of every click.
    let (base, tape) = stream::dataset(seed, n * BATCH, BATCH)?;
    let cfg = stream::config();
    let (live, dir, setup) = stream::bootstrap(&base, &cfg, SETUP_RUNS, "live")?;
    r.set_opt("setup_s", stats::median(&setup), setup.len());
    let svc = ExplorationService::live(Arc::new(live));
    let (pinned, display0) = svc
        .open_with(cfg.clone())
        .map_err(|e| format!("open: {e}"))?;
    println!(
        "live: {} users, {} base actions, {n} batches of {BATCH} every {PERIOD:?}, {} groups at epoch 0, seed {seed}",
        base.n_users(),
        base.actions().len(),
        svc.engine().groups().len()
    );

    let t0 = Instant::now() + Duration::from_millis(50);
    let span = (PERIOD * n as u32).as_secs_f64();
    let start = OnceLock::from(t0);
    type Published = (Timed, Result<usize, String>, Option<(Instant, Instant)>);
    let (published, out) = std::thread::scope(|scope| {
        let producer = scope.spawn(|| {
            tape.chunks(BATCH)
                .take(n)
                .enumerate()
                .map(|(i, b)| -> Published {
                    let due = stream::due(t0, PERIOD, Duration::ZERO, i);
                    let mut refresh = None;
                    let (timed, res) = stream::at(due, || {
                        stream::feed(svc.live_engine(), b).map_err(|e| e.to_string())?;
                        let start = Instant::now();
                        let outcome = svc.refresh().map_err(|e| e.to_string())?;
                        refresh = Some((start, Instant::now()));
                        Ok(outcome.actions_applied)
                    });
                    (timed, res, refresh)
                })
                .collect::<Vec<_>>()
        });
        let reader = scope.spawn(|| {
            Client {
                svc: &svc,
                config: &cfg,
                seed,
                sessions: (0..SESSIONS).collect(),
                start: &start,
                seconds: span,
                warmup: None,
                tracer: traced.then(|| Tracer::new(t0, 1)),
                pinned: Some((pinned, display0.clone())),
            }
            .run()
        });
        let published = producer.join().expect("producer thread");
        let out = reader.join().expect("client thread");
        (published, out)
    });

    // Counts and output checks.
    r.attempted += published.len() as u64;
    let mut applied = 0;
    for (i, (_, res, _)) in published.iter().enumerate() {
        match res {
            Ok(a) => applied += a,
            Err(e) => r.fail(format!("batch {i}: {e}")),
        }
    }
    if applied != n * BATCH {
        r.violate(format!("{} actions sent, {applied} applied", n * BATCH));
    }
    r.attempted += 1;
    match svc.display(pinned) {
        Ok(d) if d == display0 => {}
        Ok(_) => r.fail("pinned session's display changed".into()),
        Err(e) => r.fail(format!("pinned session: {e}")),
    }
    let checked = client::fold(&out, &cfg, seed, REPLAY_CYCLES, r);
    println!(
        "live: epoch {}, {} verbs, {} clicks, {} cycles finished, {checked} replayed on their epoch",
        svc.stats().epoch,
        out.attempted,
        out.clicks_ms.len(),
        out.records.len()
    );
    let stats = svc.stats();
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);

    let mut clicks = out.clicks_ms.clone();
    sort(&mut clicks);
    let mut freshness: Vec<f64> = published.iter().map(|(t, _, _)| t.since_due_ms()).collect();
    sort(&mut freshness);
    if !traced {
        r.set_opt("p50_ms", percentile(&clicks, 0.5), clicks.len());
        r.set_opt("tail_ms", percentile(&clicks, 0.9), clicks.len());
        r.set("ops_per_s", out.rate(t0, span), out.ok as usize);
        return Ok(());
    }

    layers::click_metrics(&out, &stats, r);
    r.set_opt(
        "live.freshness_p50_ms",
        percentile(&freshness, 0.5),
        freshness.len(),
    );
    r.set_opt("live.freshness_tail_ms", tail(&freshness), freshness.len());
    let mut calls: Vec<f64> = published
        .iter()
        .filter_map(|(_, _, w)| w.map(|(s, e)| (e - s).as_secs_f64() * 1e3))
        .collect();
    sort(&mut calls);
    r.set_opt("live.refresh_p50_ms", percentile(&calls, 0.5), calls.len());
    let mut late: Vec<f64> = published.iter().map(|(t, _, _)| t.lateness_ms()).collect();
    sort(&mut late);
    r.set_opt("gen.lateness_ms", tail(&late), late.len());

    // Clicks that overlapped a refresh against clicks that did not.
    let windows: Vec<(Instant, Instant)> = published.iter().filter_map(|p| p.2).collect();
    let (mut during, mut outside) = (Vec::new(), Vec::new());
    for &(s, e) in &out.click_times {
        let ms = (e - s).as_secs_f64() * 1e3;
        let i = windows.partition_point(|w| w.1 <= s);
        if windows.get(i).is_some_and(|w| w.0 < e) {
            during.push(ms);
        } else {
            outside.push(ms);
        }
    }
    r.set_opt(
        "live.click_during_refresh_ms",
        stats::median(&during),
        during.len(),
    );
    r.set_opt(
        "live.click_outside_refresh_ms",
        stats::median(&outside),
        outside.len(),
    );

    let mut tr = Tracer::new(t0, 2);
    for (i, (_, _, w)) in published.iter().enumerate() {
        if let Some((s, e)) = w {
            tr.record("live.refresh", i as u64, None, tr.at(*s), tr.at(*e));
        }
    }
    let mut spans = out.spans;
    spans.extend(tr.spans);
    trace::write("live", seed, &spans);
    Ok(())
}
