//! Per-layer timing of a click, from outside the program: right after a
//! traced `ExplorationService::click` returns, the benchmark re-executes
//! each layer call the click made — feedback reward, neighbor fetch,
//! greedy selection, quality evaluation — with the same inputs, read from
//! the session under its lock. Greedy reuses one scratch per client, as a
//! session does. Each re-execution is a span whose parent is
//! the click's span. The greedy re-execution doubles as a cross-check: it
//! must reproduce the display the service returned.

use crate::client::ClientOut;
use crate::report::Report;
use crate::script::CONTEXT_N;
use crate::stats::{self, percentile, sort};
use crate::trace::{durations, Span, Tracer};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use vexus_core::greedy::{self, SelectParams, SelectScratch};
use vexus_core::{quality, ExplorationService, ServeError, ServiceStats, SessionId};
use vexus_mining::GroupId;

/// Quality evaluations timed per traced click (one call is ~µs).
pub const QUALITY_REPS: usize = 32;

/// What the greedy re-execution and the session reported for one click.
pub struct ClickLayers {
    pub rounds: usize,
    pub budget_exhausted: bool,
    pub mismatch: bool,
}

/// Re-execute the layer calls of the click on `g` that session `id` just
/// completed, recording one span per call under `parent`.
pub fn trace_click(
    svc: &ExplorationService,
    id: SessionId,
    g: GroupId,
    tr: &mut Tracer,
    scratch: &mut SelectScratch,
    request: u64,
    parent: u64,
) -> Result<ClickLayers, ServeError> {
    svc.with_session(id, |s| {
        let engine = Arc::clone(s.engine());
        let (groups, index) = (engine.groups(), engine.index());
        let cfg = s.config().clone();
        let group = groups.get(g);
        let history = s.history();
        let mut before = (*history[history.len() - 2].feedback).clone();
        let p = Some(parent);
        tr.time("feedback.reward", request, p, || before.reward_group(group));
        if let Some(cache) = engine.neighbor_cache() {
            tr.time("cache.neighbors", request, p, || {
                black_box(cache.neighbors(index, groups, g, cfg.candidate_pool))
            });
        }
        let direct = tr.time("index.neighbors", request, p, || {
            index.neighbors(groups, g, cfg.candidate_pool)
        });
        let candidates: Vec<(GroupId, f64)> =
            direct.iter().map(|&(h, sim)| (h, sim as f64)).collect();
        let params = SelectParams {
            k: cfg.k,
            budget: Some(cfg.time_budget),
            min_similarity: cfg.min_similarity,
            diversity_weight: cfg.diversity_weight,
            coverage_weight: cfg.coverage_weight,
            feedback_weight: cfg.feedback_weight,
        };
        let outcome = tr.time("greedy.select", request, p, || {
            greedy::select_k_with(
                scratch,
                groups,
                &candidates,
                &group.members,
                s.feedback(),
                &params,
            )
        });
        tr.time("quality.evaluate", request, p, || {
            for _ in 0..QUALITY_REPS {
                black_box(quality::evaluate(groups, s.display(), &group.members));
            }
        });
        tr.time("feedback.context", request, p, || {
            black_box(s.feedback().context_view(CONTEXT_N))
        });
        let last = s.last_outcome().expect("a click records its outcome");
        ClickLayers {
            rounds: last.rounds,
            budget_exhausted: last.budget_exhausted,
            mismatch: outcome.selection != s.display(),
        }
    })
}

/// Median of `name`'s spans in `scale` units, if any were recorded.
fn median(spans: &[Span], name: &str, scale: f64) -> (Option<f64>, usize) {
    let v = durations(spans, name, scale);
    (stats::median(&v), v.len())
}

/// The highest of p99 and p90 the sample supports.
pub fn tail(sorted: &[f64]) -> Option<f64> {
    percentile(sorted, 0.99).or_else(|| percentile(sorted, 0.9))
}

/// Aggregate a traced client run (its spans, per-click layer outcomes and
/// the service's refusal counters) into the session-side per-layer metrics.
pub fn click_metrics(out: &ClientOut, stats: &ServiceStats, report: &mut Report) {
    let (spans, layers) = (&out.spans[..], &out.layers[..]);
    let refused = stats.rejections + stats.quarantines + stats.evictions;
    report.set(
        "serve.failed",
        (out.failed + refused) as f64 / out.attempted.max(1) as f64,
        out.attempted as usize,
    );
    report.set(
        "serve.within_100ms",
        out.within_100ms(),
        out.clicks_ms.len(),
    );
    for (metric, name, scale) in [
        ("serve.click_ms", "serve.click", 1e-6),
        ("serve.open_ms", "serve.open", 1e-6),
        ("serve.backtrack_us", "serve.backtrack", 1e-3),
        ("serve.context_us", "serve.context", 1e-3),
        ("greedy.select_ms", "greedy.select", 1e-6),
        ("feedback.reward_us", "feedback.reward", 1e-3),
        ("feedback.context_us", "feedback.context", 1e-3),
        ("index.neighbors_us", "index.neighbors", 1e-3),
        ("cache.neighbors_us", "cache.neighbors", 1e-3),
        (
            "quality.evaluate_us",
            "quality.evaluate",
            1e-3 / QUALITY_REPS as f64,
        ),
    ] {
        let (v, n) = median(spans, name, scale);
        report.set_opt(metric, v, n);
    }
    let mut greedy = durations(spans, "greedy.select", 1e-6);
    sort(&mut greedy);
    report.set_opt("greedy.select_tail_ms", tail(&greedy), greedy.len());

    // Session self time: the click minus its reward, neighbor fetch and
    // greedy children. The re-executions ran after the click, so they are
    // laid back to back from the click's start, in the order the session
    // calls them, before the union is taken. The neighbor child is the
    // cached fetch: the cache answers most clicks (`cache.hit_rate`, ~0.8
    // on explore). Greedy is nearly all of a click and is re-run, not
    // observed, so the self time is bounded by the noise between two greedy
    // runs: a click whose children outlast it is clipped to 0, and
    // `session.self_clipped` reports how often that happened.
    let mut children: HashMap<u64, Vec<u64>> = HashMap::new();
    for s in spans {
        if matches!(
            s.name,
            "feedback.reward" | "cache.neighbors" | "greedy.select"
        ) {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push(s.ns());
            }
        }
    }
    let (mut click_ns, mut greedy_ns) = (0u64, 0u64);
    let mut self_ms: Vec<f64> = Vec::new();
    let mut clipped = 0usize;
    for s in spans.iter().filter(|s| s.name == "serve.click") {
        let Some(kids) = children.get(&s.id) else {
            continue;
        };
        let mut at = s.start_ns;
        let projected: Vec<(u64, u64)> = kids
            .iter()
            .map(|&d| {
                at += d;
                (at - d, at)
            })
            .collect();
        let own = stats::self_time((s.start_ns, s.end_ns), &projected);
        clipped += usize::from(at >= s.end_ns);
        self_ms.push(own as f64 * 1e-6);
        click_ns += s.ns();
    }
    for s in spans.iter().filter(|s| s.name == "greedy.select") {
        greedy_ns += s.ns();
    }
    report.set_opt("session.self_ms", stats::median(&self_ms), self_ms.len());
    report.set(
        "session.self_clipped",
        clipped as f64 / self_ms.len().max(1) as f64,
        self_ms.len(),
    );
    report.set(
        "greedy.share",
        greedy_ns as f64 / click_ns.max(1) as f64,
        self_ms.len(),
    );

    let n = layers.len();
    let rounds: Vec<f64> = layers.iter().map(|l| l.rounds as f64).collect();
    report.set_opt("greedy.rounds", stats::mean(&rounds), n);
    let exhausted = layers.iter().filter(|l| l.budget_exhausted).count();
    report.set("greedy.budget_exhausted", exhausted as f64, n);
    let mismatches = layers.iter().filter(|l| l.mismatch).count();
    report.set("replay.greedy_mismatches", mismatches as f64, n);
    if mismatches > 0 {
        report.violate(format!(
            "{mismatches} of {n} re-executed greedy selections differ from the served display"
        ));
    }
    if exhausted > 0 {
        report.violate(format!(
            "{exhausted} greedy selections exhausted their budget"
        ));
    }
}
