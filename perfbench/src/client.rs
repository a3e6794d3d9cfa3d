//! A closed-loop exploration client: it steps its scripted sessions
//! round-robin through an `ExplorationService`, sending each verb only
//! after the previous one returned, for a fixed time.

use crate::layers::{self, ClickLayers};
use crate::report::Report;
use crate::script::{self, CycleRecord, Outcome, Script, Verb};
use crate::trace::{Span, Tracer};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};
use vexus_core::greedy::SelectScratch;
use vexus_core::{EngineConfig, ExplorationService, SessionId, Vexus};
use vexus_mining::GroupId;

/// How one client runs.
pub struct Client<'a> {
    pub svc: &'a ExplorationService,
    pub config: &'a EngineConfig,
    pub seed: u64,
    /// The scripted sessions this client owns.
    pub sessions: Vec<u64>,
    /// Start of the timed phase: set by the first client past the warm-up
    /// (or beforehand by the caller).
    pub start: &'a OnceLock<Instant>,
    pub seconds: f64,
    /// When set, every session is opened before the timed phase, and the
    /// clients start it together.
    pub warmup: Option<&'a Barrier>,
    /// Records spans and re-executes each click's layers when set.
    pub tracer: Option<Tracer>,
    /// A session whose display must never change, checked once a cycle.
    pub pinned: Option<(SessionId, Vec<GroupId>)>,
}

/// What one client measured.
#[derive(Default)]
pub struct ClientOut {
    /// Latency of every attempted click, ms (a failed click is +inf).
    pub clicks_ms: Vec<f64>,
    /// When each successful verb returned.
    pub done_at: Vec<Instant>,
    /// Start and end of every successful click.
    pub click_times: Vec<(Instant, Instant)>,
    pub attempted: u64,
    pub ok: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub violations: Vec<String>,
    pub records: Vec<CycleRecord>,
    /// (session, cycle, engine epoch it ran on), for replay.
    pub engines: Vec<(u64, u64, Arc<Vexus>)>,
    pub spans: Vec<Span>,
    pub layers: Vec<ClickLayers>,
}

impl ClientOut {
    fn error(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

fn span_name(verb: Verb) -> &'static str {
    match verb {
        Verb::Open => "serve.open",
        Verb::Click(_) => "serve.click",
        Verb::Context => "serve.context",
        Verb::Memo(_) => "serve.memo",
        Verb::Backtrack(_) => "serve.backtrack",
        Verb::Close => "serve.close",
    }
}

impl Client<'_> {
    pub fn run(mut self) -> ClientOut {
        let mut out = ClientOut::default();
        let mut scratch = SelectScratch::new();
        let mut scripts: Vec<Script> = self
            .sessions
            .iter()
            .map(|&s| Script::new(self.seed, s))
            .collect();
        let mut epochs: Vec<Option<Arc<Vexus>>> = vec![None; scripts.len()];
        if let Some(barrier) = self.warmup {
            for (sc, epoch) in scripts.iter_mut().zip(&mut epochs) {
                self.step(sc, epoch, &mut scratch, &mut out);
            }
            barrier.wait();
        }
        let start = *self.start.get_or_init(Instant::now);
        let deadline = start + Duration::from_secs_f64(self.seconds);
        'run: loop {
            for (sc, epoch) in scripts.iter_mut().zip(&mut epochs) {
                if Instant::now() >= deadline {
                    break 'run;
                }
                self.step(sc, epoch, &mut scratch, &mut out);
            }
        }
        if let Some(tr) = self.tracer {
            out.spans = tr.spans;
        }
        out
    }

    /// Perform one session's next verb and fold in its outcome.
    fn step(
        &mut self,
        sc: &mut Script,
        epoch: &mut Option<Arc<Vexus>>,
        scratch: &mut SelectScratch,
        out: &mut ClientOut,
    ) {
        let verb = sc.next_verb();
        let request = out.attempted;
        out.attempted += 1;
        let t0 = Instant::now();
        let result = script::serve(self.svc, sc.id, verb, self.config);
        let t1 = Instant::now();
        let is_click = matches!(verb, Verb::Click(_));
        let outcome = match result {
            Ok(o) => o,
            Err(e) => {
                if is_click {
                    out.clicks_ms.push(f64::INFINITY);
                }
                out.error(format!("{verb:?}: {e}"));
                if let Some(id) = sc.id {
                    let _ = self.svc.close(id);
                }
                sc.abandon();
                return;
            }
        };
        out.ok += 1;
        out.done_at.push(t1);
        if is_click {
            out.clicks_ms.push((t1 - t0).as_secs_f64() * 1e3);
            out.click_times.push((t0, t1));
        }
        if let Some(tr) = self.tracer.as_mut() {
            let (s, e) = (tr.at(t0), tr.at(t1));
            let span = tr.record(span_name(verb), request, None, s, e);
            if let (Verb::Click(g), Some(id)) = (verb, sc.id) {
                match layers::trace_click(self.svc, id, g, tr, scratch, request, span) {
                    Ok(l) => out.layers.push(l),
                    Err(e) => out.error(format!("click layers: {e}")),
                }
            }
        }
        if let Outcome::Opened(id, _) = &outcome {
            match self.svc.with_session(*id, |s| Arc::clone(s.engine())) {
                Ok(engine) => *epoch = Some(engine),
                Err(e) => out.error(format!("engine handle: {e}")),
            }
        }
        match sc.advance(verb, outcome) {
            Ok(Some(record)) => {
                if let Some(engine) = epoch {
                    out.engines
                        .push((record.session, record.cycle, Arc::clone(engine)));
                }
                out.records.push(record);
                if let Some((pinned, display)) = &self.pinned {
                    out.attempted += 1;
                    match self.svc.display(*pinned) {
                        Ok(d) if d == *display => out.ok += 1,
                        Ok(_) => {
                            out.failed += 1;
                            out.violations
                                .push("pinned session's display changed".into());
                        }
                        Err(e) => out.error(format!("pinned display: {e}")),
                    }
                }
            }
            Ok(None) => {}
            Err(violation) => {
                out.failed += 1;
                out.violations.push(violation);
            }
        }
    }
}

/// Fold a client run into the report: its counts, errors and output
/// checks, then a seeded sample of `replays` finished cycles replayed
/// single-threaded on the engine epoch each cycle ran on, each of which
/// must reproduce its display trajectory. Returns how many were replayed.
pub fn fold(
    out: &ClientOut,
    config: &EngineConfig,
    seed: u64,
    replays: usize,
    r: &mut Report,
) -> usize {
    r.attempted += out.attempted;
    r.failed += out.failed;
    for e in &out.errors {
        eprintln!("operation failed: {e}");
    }
    r.violations.extend(out.violations.iter().cloned());
    let mut checked = 0;
    for rec in sample(&out.records, replays, seed) {
        let ran_on = out
            .engines
            .iter()
            .find(|(s, c, _)| *s == rec.session && *c == rec.cycle);
        let Some((_, _, engine)) = ran_on else {
            continue;
        };
        checked += 1;
        r.attempted += 1;
        match script::replay(engine, config, seed, rec.session, rec.cycle) {
            Ok(t) if t == rec.trajectory => {}
            Ok(_) => r.fail(format!(
                "session {} cycle {}: single-threaded replay differs",
                rec.session, rec.cycle
            )),
            Err(e) => r.fail(format!(
                "session {} cycle {}: replay failed: {e}",
                rec.session, rec.cycle
            )),
        }
    }
    if checked == 0 {
        r.violate("no finished cycle to replay".into());
    }
    checked
}

/// Merge the outputs of several clients.
pub fn merge(outs: Vec<ClientOut>) -> ClientOut {
    let mut all = ClientOut::default();
    for o in outs {
        all.clicks_ms.extend(o.clicks_ms);
        all.done_at.extend(o.done_at);
        all.click_times.extend(o.click_times);
        all.attempted += o.attempted;
        all.ok += o.ok;
        all.failed += o.failed;
        all.errors.extend(o.errors);
        all.violations.extend(o.violations);
        all.records.extend(o.records);
        all.engines.extend(o.engines);
        all.spans.extend(o.spans);
        all.layers.extend(o.layers);
    }
    all.records.sort_by_key(|r| (r.session, r.cycle));
    all
}

/// A seeded sample of about `n` finished cycles, spread over the run.
fn sample(records: &[CycleRecord], n: usize, seed: u64) -> Vec<&CycleRecord> {
    let stride = (records.len() / n.max(1)).max(1);
    let offset = (script::mix(seed) % stride as u64) as usize;
    records
        .iter()
        .skip(offset)
        .step_by(stride)
        .take(n)
        .collect()
}

impl ClientOut {
    /// Share of attempted clicks that succeeded within the paper's 100 ms.
    pub fn within_100ms(&self) -> f64 {
        let within = self.clicks_ms.iter().filter(|&&ms| ms <= 100.0).count();
        within as f64 / self.clicks_ms.len().max(1) as f64
    }

    /// Verbs completed per second over `[start, start + seconds)`.
    pub fn rate(&self, start: Instant, seconds: f64) -> f64 {
        let end = start + Duration::from_secs_f64(seconds);
        let done = self
            .done_at
            .iter()
            .filter(|&&t| t >= start && t < end)
            .count();
        done as f64 / seconds
    }
}
