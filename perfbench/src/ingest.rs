//! `ingest`: write-only. A durable `LiveEngine` (stream FIM, per-frame WAL
//! sync, a checkpoint every 8 refreshes) takes fixed-size action batches
//! from a producer thread on an open-loop schedule, while a refresher
//! thread calls `refresh` on a fixed cadence. The run ends between
//! checkpoints; the engine is then dropped and recovered from copies of
//! its directory. No sessions run, so greedy selection is absent.

use crate::layers::tail;
use crate::report::Report;
use crate::stats::{self, percentile, sort};
use crate::stream::{self, Timed};
use crate::trace::{self, Tracer};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vexus_core::{CheckpointOutcome, DurabilityConfig, LiveEngine, RefreshOutcome, Vexus};
use vexus_data::stream::ReplayStream;
use vexus_data::{IngestBuffer, Vocabulary, WalSync, WalWriter};
use vexus_index::{GroupIndex, IndexConfig};
use vexus_mining::delta::diff;
use vexus_mining::DeltaDiscovery;

/// Actions per ingested batch.
const BATCH: usize = 20;
/// One batch is due every period; one refresh too, half a period later.
const PERIOD: Duration = Duration::from_millis(24);
const SETUP_RUNS: usize = 41;
const RECOVERIES: usize = 5;
/// Actions the seed reorders among themselves, window by window.
const SHUFFLE_WINDOW: usize = 500;
/// Every this many advancing refreshes, the traced run keeps the epoch
/// and its predecessor to replay the index patch against.
const KEEP_EVERY: usize = 40;
/// Batches whose buffer pull and WAL frame the traced run re-executes.
const LAYER_SAMPLES: usize = 200;

struct Refresh {
    timed: Timed,
    outcome: Result<RefreshOutcome, String>,
}

/// Epochs kept by the traced run: (advancing refresh ordinal, previous
/// engine, published engine).
type Kept = Vec<(usize, Arc<Vexus>, Arc<Vexus>)>;

pub fn run(seed: u64, seconds: u64, traced: bool) -> Report {
    let mut r = Report::default();
    if let Err(e) = run_into(seed, seconds, traced, &mut r) {
        r.fail(e);
    }
    r
}

fn run_into(seed: u64, seconds: u64, traced: bool, r: &mut Report) -> Result<(), String> {
    let n = (seconds as u128 * 1000 / PERIOD.as_millis()) as usize;
    // One reserve batch past the schedule, to end between checkpoints.
    let (base, tape) = stream::dataset(seed, (n + 1) * BATCH, SHUFFLE_WINDOW)?;
    let cfg = stream::config();
    let (live, dir, setup) = stream::bootstrap(&base, &cfg, SETUP_RUNS, "ingest")?;
    r.set_opt("setup_s", stats::median(&setup), setup.len());
    let live = Arc::new(live);
    let epoch0 = live.engine();
    println!(
        "ingest: {} users, {} base actions, {} batches of {BATCH} every {PERIOD:?}, {} groups at epoch 0, seed {seed}",
        base.n_users(),
        base.actions().len(),
        n,
        epoch0.groups().len()
    );

    let t0 = Instant::now() + Duration::from_millis(50);
    let batches: Vec<&[vexus_data::Action]> = tape.chunks(BATCH).take(n).collect();
    let (ingests, mut refreshes, kept) = std::thread::scope(|scope| {
        let producer = scope.spawn(|| {
            batches
                .iter()
                .enumerate()
                .map(|(i, b)| {
                    let due = stream::due(t0, PERIOD, Duration::ZERO, i);
                    let (timed, res) = stream::at(due, || stream::feed(&live, b));
                    (timed, res.map_err(|e| e.to_string()))
                })
                .collect::<Vec<_>>()
        });
        let refresher = scope.spawn(|| {
            let mut kept: Kept = Vec::new();
            let mut advanced = 0;
            let mut out = Vec::with_capacity(n);
            for j in 0..n {
                let due = stream::due(t0, PERIOD, PERIOD / 2, j);
                let prev = traced.then(|| live.engine());
                let (timed, outcome) = stream::at(due, || live.refresh());
                if let (Some(prev), Ok(o)) = (prev, &outcome) {
                    if o.advanced {
                        if advanced % KEEP_EVERY == KEEP_EVERY / 2 {
                            kept.push((advanced, prev, live.engine()));
                        }
                        advanced += 1;
                    }
                }
                let outcome = outcome.map_err(|e| e.to_string());
                out.push(Refresh { timed, outcome });
            }
            (out, kept)
        });
        let ingests = producer.join().expect("producer thread");
        let (refreshes, kept) = refresher.join().expect("refresher thread");
        (ingests, refreshes, kept)
    });

    // Publish what the schedule left in the buffer, then make sure the
    // run ends between checkpoints: at least one frame past the newest.
    let flush = |refreshes: &mut Vec<Refresh>| {
        let (timed, outcome) = stream::at(Instant::now(), || live.refresh());
        let outcome = outcome.map_err(|e| e.to_string());
        refreshes.push(Refresh { timed, outcome });
    };
    flush(&mut refreshes);
    let since_checkpoint = refreshes
        .iter()
        .rev()
        .filter_map(|f| f.outcome.as_ref().ok().filter(|o| o.advanced))
        .take_while(|o| o.checkpoint != CheckpointOutcome::Written)
        .count();
    let mut sent = n * BATCH;
    if since_checkpoint == 0 {
        let reserve = &tape[n * BATCH..(n + 1) * BATCH];
        stream::feed(&live, reserve).map_err(|e| format!("reserve batch: {e}"))?;
        sent += BATCH;
        flush(&mut refreshes);
    }

    // Counts and output checks.
    r.attempted += (ingests.len() + refreshes.len()) as u64;
    for (i, (_, res)) in ingests.iter().enumerate() {
        match res {
            Ok(got) if *got == BATCH => {}
            Ok(got) => r.fail(format!("batch {i}: {got} of {BATCH} actions ingested")),
            Err(e) => r.fail(format!("batch {i}: ingest failed: {e}")),
        }
    }
    let mut applied = Vec::new();
    let mut total = 0usize;
    for f in &refreshes {
        match &f.outcome {
            Ok(o) => total += o.actions_applied,
            Err(e) => r.fail(format!("refresh failed: {e}")),
        }
        applied.push(total);
    }
    if total != sent {
        r.violate(format!("{sent} actions sent, {total} applied"));
    }

    // Freshness: from a batch's due time to the return of the refresh
    // that published it (the first whose cumulative count covers it).
    let mut freshness: Vec<f64> = ingests
        .iter()
        .enumerate()
        .filter_map(|(i, (timed, _))| {
            let j = applied.partition_point(|&a| a < (i + 1) * BATCH);
            refreshes
                .get(j)
                .map(|f| (f.timed.end - timed.due).as_secs_f64() * 1e3)
        })
        .collect();
    sort(&mut freshness);
    let fresh_n = freshness.len();

    // Crash between checkpoints, then recover from copies of the directory.
    let final_engine = live.engine();
    let reference = final_engine.write_snapshot();
    let final_epoch = live.epoch();
    drop(live);
    let mut recover_ms = Vec::new();
    let mut frames = Vec::new();
    for k in 0..RECOVERIES {
        let copy = stream::fresh_dir(&format!("ingest-recover{k}"));
        stream::copy_dir(&dir, &copy).map_err(|e| format!("copy durable dir: {e}"))?;
        let data = base.clone();
        let t = Instant::now();
        let recovered = LiveEngine::recover(data, cfg.clone(), DurabilityConfig::new(&copy));
        recover_ms.push(t.elapsed().as_secs_f64() * 1e3);
        r.attempted += 1;
        match recovered {
            Ok((engine, report)) => {
                frames.push(report.frames_replayed as f64);
                if report.final_epoch != final_epoch
                    || engine.engine().write_snapshot() != reference
                {
                    r.fail(format!(
                        "recovery {k}: epoch {} is not byte-identical to the last published epoch {final_epoch}",
                        report.final_epoch
                    ));
                }
            }
            Err(e) => r.fail(format!("recovery {k}: {e}")),
        }
        let _ = std::fs::remove_dir_all(&copy);
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "ingest: {} refresh calls, {total} actions applied, epoch {final_epoch}, {since_checkpoint} frames past the newest checkpoint",
        refreshes.len()
    );

    // The engine's own cost, not the schedule's: refresh call latency; the
    // checkpoint spike (the median refresh that writes a checkpoint, one in
    // eight); and batches per second of the time the engine spent inside
    // an ingest or a refresh call (their union, so an ingest waiting on a
    // refresh counts once).
    let mut calls: Vec<f64> = refreshes.iter().map(|f| f.timed.call_ms()).collect();
    sort(&mut calls);
    let by_outcome = |want: CheckpointOutcome| -> Vec<f64> {
        refreshes
            .iter()
            .filter(|f| matches!(&f.outcome, Ok(o) if o.advanced && o.checkpoint == want))
            .map(|f| f.timed.call_ms())
            .collect()
    };
    let (not_due, written) = (
        by_outcome(CheckpointOutcome::NotDue),
        by_outcome(CheckpointOutcome::Written),
    );
    let (nd, wr) = (stats::median(&not_due), stats::median(&written));
    let busy: Vec<(u64, u64)> = ingests
        .iter()
        .map(|(t, _)| t)
        .chain(refreshes.iter().map(|f| &f.timed))
        .map(|t| {
            let ns = |i: Instant| i.saturating_duration_since(t0).as_nanos() as u64;
            (ns(t.start), ns(t.end))
        })
        .collect();
    let busy_s = stats::union_len(&busy) as f64 * 1e-9;
    if !traced {
        r.set_opt("p50_ms", percentile(&calls, 0.5), calls.len());
        r.set_opt("tail_ms", wr, written.len());
        r.set("ops_per_s", n as f64 / busy_s, n);
        println!(
            "ingest: refresh p99 {:.2} ms; freshness p50 {:.2} ms, p90 {:.2} ms",
            percentile(&calls, 0.99).unwrap_or(f64::NAN),
            percentile(&freshness, 0.5).unwrap_or(f64::NAN),
            percentile(&freshness, 0.9).unwrap_or(f64::NAN),
        );
        return Ok(());
    }

    // Traced run: the timed calls as spans, then the layer replays.
    let mut tr = Tracer::new(t0, 1);
    for (i, (timed, _)) in ingests.iter().enumerate() {
        tr.record(
            "live.ingest",
            i as u64,
            None,
            tr.at(timed.start),
            tr.at(timed.end),
        );
    }
    for (j, f) in refreshes.iter().enumerate() {
        let req = (1 << 32) + j as u64;
        tr.record(
            "live.refresh",
            req,
            None,
            tr.at(f.timed.start),
            tr.at(f.timed.end),
        );
    }
    r.set_opt(
        "live.freshness_p50_ms",
        percentile(&freshness, 0.5),
        fresh_n,
    );
    r.set_opt("live.freshness_tail_ms", tail(&freshness), fresh_n);
    let mut from_due: Vec<f64> = ingests.iter().map(|(t, _)| t.since_due_ms()).collect();
    sort(&mut from_due);
    r.set_opt(
        "live.ingest_p99_ms",
        percentile(&from_due, 0.99),
        from_due.len(),
    );
    r.set_opt("live.refresh_p50_ms", percentile(&calls, 0.5), calls.len());
    r.set_opt("live.refresh_p99_ms", percentile(&calls, 0.99), calls.len());
    r.set_opt("live.refresh_not_due_ms", nd, not_due.len());
    r.set_opt("live.refresh_written_ms", wr, written.len());
    if let (Some(nd), Some(wr)) = (nd, wr) {
        r.set("durable.checkpoint_ms", wr - nd, written.len());
    }
    let mut late: Vec<f64> = ingests
        .iter()
        .map(|(t, _)| t.lateness_ms())
        .chain(refreshes.iter().map(|f| f.timed.lateness_ms()))
        .collect();
    sort(&mut late);
    r.set_opt("gen.lateness_ms", percentile(&late, 0.99), late.len());
    let wal_bytes: u64 = refreshes
        .iter()
        .filter_map(|f| f.outcome.as_ref().ok())
        .map(|o| o.wal_bytes)
        .sum();
    r.set(
        "data.wal_bytes_per_action",
        wal_bytes as f64 / total.max(1) as f64,
        total,
    );
    let recover = stats::median(&recover_ms);
    r.set_opt("durable.recover_ms", recover, recover_ms.len());
    let replayed = stats::median(&frames);
    r.set_opt("durable.replay_frames", replayed, frames.len());

    // Buffer pull and WAL frame, re-executed on the same batches.
    let mut pull_us = Vec::new();
    for b in batches.iter().take(LAYER_SAMPLES) {
        let mut buf = IngestBuffer::new();
        let start = tr.now();
        std::hint::black_box(buf.pull(&mut ReplayStream::from_actions(b), usize::MAX));
        let end = tr.now();
        tr.record("data.ingest_pull", 0, None, start, end);
        pull_us.push((end - start) as f64 * 1e-3);
    }
    let pull = stats::median(&pull_us);
    r.set_opt("data.ingest_pull_us", pull, pull_us.len());
    if let Some(pull) = pull {
        let mut wait: Vec<f64> = ingests
            .iter()
            .map(|(t, _)| (t.call_ms() - pull * 1e-3).max(0.0))
            .collect();
        sort(&mut wait);
        r.set_opt("live.ingest_wait_ms", percentile(&wait, 0.99), wait.len());
    }
    let wal_path = stream::fresh_dir("ingest-wal");
    std::fs::create_dir_all(&wal_path).map_err(|e| format!("wal replay dir: {e}"))?;
    let mut wal = WalWriter::create(&wal_path.join("replay.vxwl"), WalSync::PerFrame)
        .map_err(|e| format!("wal replay: {e}"))?;
    let (mut append_us, mut commit_ms) = (Vec::new(), Vec::new());
    for (e, b) in batches.iter().take(LAYER_SAMPLES).enumerate() {
        let start = tr.now();
        wal.append(e as u64, b)
            .map_err(|e| format!("wal append: {e}"))?;
        let mid = tr.now();
        wal.commit().map_err(|e| format!("wal commit: {e}"))?;
        let end = tr.now();
        tr.record("data.wal_append", e as u64, None, start, mid);
        tr.record("data.wal_commit", e as u64, None, mid, end);
        append_us.push((mid - start) as f64 * 1e-3);
        commit_ms.push((end - mid) as f64 * 1e-6);
    }
    drop(wal);
    let _ = std::fs::remove_dir_all(&wal_path);
    r.set_opt(
        "data.wal_append_us",
        stats::median(&append_us),
        append_us.len(),
    );
    r.set_opt(
        "data.wal_commit_ms",
        stats::median(&commit_ms),
        commit_ms.len(),
    );

    // Snapshot encode and load of the final epoch.
    let (mut encode_ms, mut load_ms) = (Vec::new(), Vec::new());
    let mut bytes = 0;
    for _ in 0..RECOVERIES {
        let t = Instant::now();
        let snap = final_engine.write_snapshot();
        encode_ms.push(t.elapsed().as_secs_f64() * 1e3);
        bytes = snap.len();
        let data = final_engine.data().clone();
        let t = Instant::now();
        let loaded = Vexus::from_snapshot(data, &snap, cfg.clone());
        load_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if loaded.map(|e| e.write_snapshot() != snap).unwrap_or(true) {
            r.violate("snapshot of the final epoch does not load back identically".into());
        }
    }
    r.set_opt(
        "snapshot.encode_ms",
        stats::median(&encode_ms),
        encode_ms.len(),
    );
    r.set("snapshot.bytes", bytes as f64, 1);
    let load = stats::median(&load_ms);
    r.set_opt("snapshot.load_ms", load, load_ms.len());
    if let (Some(rec), Some(load), Some(frames)) = (recover, load, replayed) {
        r.set(
            "durable.replay_ms_per_frame",
            (rec - load).max(0.0) / frames.max(1.0),
            recover_ms.len(),
        );
    }

    replay_epochs(&base, &cfg, &tape, &refreshes, &epoch0, &kept, &mut tr, r);
    trace::write("ingest", seed, &tr.spans);
    Ok(())
}

/// Re-execute the refresh path from outside: a shadow `DeltaDiscovery`
/// folds the same cuts, every epoch's group space must match the
/// published one, and at the kept epochs the index patch is re-applied and
/// compared with the published index and with a fresh build.
#[allow(clippy::too_many_arguments)]
fn replay_epochs(
    base: &vexus_data::UserData,
    cfg: &vexus_core::EngineConfig,
    tape: &[vexus_data::Action],
    refreshes: &[Refresh],
    epoch0: &Arc<Vexus>,
    kept: &Kept,
    tr: &mut Tracer,
    r: &mut Report,
) {
    let index_cfg = IndexConfig {
        materialize_fraction: cfg.materialize_fraction,
        threads: 0,
    };
    let mut data = base.clone();
    let vocab = Vocabulary::build(&data);
    let start = tr.now();
    let mut shadow = DeltaDiscovery::new(stream::stream_fim(), cfg.min_group_size, data.n_users());
    shadow.observe_arrivals(&data, &vocab, data.actions());
    let (mut prev, _) = shadow.epoch();
    let end = tr.now();
    tr.record("mining.discover", 0, None, start, end);
    r.set("mining.discover_ms", (end - start) as f64 * 1e-6, 1);
    let mut mismatches = usize::from(prev != *epoch0.groups());

    let (mut append_ms, mut epoch_ms, mut diff_us, mut touched) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut apply_ms, mut build_ms, mut rescored) = (Vec::new(), Vec::new(), Vec::new());
    let mut index_mismatches = 0usize;
    let mut at = 0usize;
    let mut advanced = 0usize;
    let mut kept = kept.iter().peekable();
    for f in refreshes {
        let Ok(o) = &f.outcome else { continue };
        if !o.advanced {
            continue;
        }
        let cut = &tape[at..at + o.actions_applied];
        at += o.actions_applied;
        let t = tr.now();
        data.append_actions(cut);
        let t1 = tr.now();
        shadow.observe_arrivals(&data, &vocab, cut);
        let (groups, delta) = shadow.epoch();
        let t2 = tr.now();
        let recomputed = diff(&prev, &groups);
        let t3 = tr.now();
        tr.record("data.append_actions", advanced as u64, None, t, t1);
        tr.record("mining.delta_epoch", advanced as u64, None, t1, t2);
        tr.record("mining.delta_diff", advanced as u64, None, t2, t3);
        append_ms.push((t1 - t) as f64 * 1e-6);
        epoch_ms.push((t2 - t1) as f64 * 1e-6);
        diff_us.push((t3 - t2) as f64 * 1e-3);
        touched.push(delta.touched() as f64 / groups.len().max(1) as f64);
        let counts_differ = o.groups_added != delta.added.len()
            || o.groups_retired != delta.retired.len()
            || o.groups_resized != delta.resized.len();
        mismatches += usize::from(recomputed != delta || counts_differ);
        if let Some((_, before, published)) = kept.next_if(|k| k.0 == advanced) {
            mismatches += usize::from(groups != *published.groups());
            let t = tr.now();
            let patch = before
                .index()
                .apply_delta(before.groups(), &groups, &delta, &index_cfg);
            let t1 = tr.now();
            let rebuilt = GroupIndex::build(&groups, &index_cfg);
            let t2 = tr.now();
            tr.record("index.apply_delta", advanced as u64, None, t, t1);
            tr.record("index.build", advanced as u64, None, t1, t2);
            apply_ms.push((t1 - t) as f64 * 1e-6);
            build_ms.push((t2 - t1) as f64 * 1e-6);
            rescored.push(patch.rescored as f64 / groups.len().max(1) as f64);
            let same = |a: &GroupIndex, b: &GroupIndex| {
                groups.ids().all(|g| {
                    a.materialized(g) == b.materialized(g)
                        && a.full_neighbor_count(g) == b.full_neighbor_count(g)
                })
            };
            index_mismatches += usize::from(!same(&patch.index, published.index()));
            index_mismatches += usize::from(!same(&patch.index, &rebuilt));
        }
        prev = groups;
        advanced += 1;
    }
    r.set_opt(
        "data.append_actions_ms",
        stats::median(&append_ms),
        append_ms.len(),
    );
    r.set_opt(
        "mining.delta_epoch_ms",
        stats::median(&epoch_ms),
        epoch_ms.len(),
    );
    r.set_opt(
        "mining.delta_diff_us",
        stats::median(&diff_us),
        diff_us.len(),
    );
    r.set_opt(
        "mining.groups_touched_ratio",
        stats::mean(&touched),
        touched.len(),
    );
    r.set_opt(
        "index.apply_delta_ms",
        stats::median(&apply_ms),
        apply_ms.len(),
    );
    r.set_opt("index.build_ms", stats::median(&build_ms), build_ms.len());
    r.set_opt(
        "index.rescored_ratio",
        stats::mean(&rescored),
        rescored.len(),
    );
    r.set("replay.delta_mismatches", mismatches as f64, advanced);
    r.set(
        "replay.index_mismatches",
        index_mismatches as f64,
        apply_ms.len(),
    );
    if mismatches > 0 {
        r.violate(format!(
            "{mismatches} replayed epochs differ from the published group space"
        ));
    }
    if index_mismatches > 0 {
        r.violate(format!("{index_mismatches} replayed index patches differ"));
    }
}
