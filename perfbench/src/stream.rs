//! What the two writing workloads (`ingest`, `live`) share: the dataset
//! split into a warm-up base and an action tape, the stream-mining engine
//! configuration, durable bootstrap, and the open-loop schedule.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use vexus_core::{CoreError, DurabilityConfig, EngineConfig, LiveEngine};
use vexus_data::stream::ReplayStream;
use vexus_data::synthetic::{bookcrossing, BookCrossingConfig};
use vexus_data::{Action, UserData};
use vexus_mining::{DiscoverySelection, StreamFimConfig};

pub const SUPPORT: f64 = 0.02;
pub const EPSILON: f64 = 0.004;
pub const MAX_LEN: usize = 3;

/// Stream FIM discovery (support 0.02) with the explore workload's
/// session settings: k = 5, candidate pool 96, a budget that never binds.
pub fn config() -> EngineConfig {
    crate::explore::config().with_discovery(DiscoverySelection::StreamFim {
        support: SUPPORT,
        epsilon: EPSILON,
        max_len: MAX_LEN,
    })
}

pub fn stream_fim() -> StreamFimConfig {
    StreamFimConfig {
        support: SUPPORT,
        epsilon: EPSILON,
        max_len: MAX_LEN,
    }
}

/// A fixed BookCrossing-like corpus (5k users, 30k ratings: the d8
/// experiment's dataset) whose last `live_actions` ratings are held back
/// as the tape; the rest warm up the base the engine bootstraps from. The
/// seed shuffles the tape within consecutive windows of `shuffle_window`
/// actions, so each seed sends the actions in another order with the same
/// arrival profile.
pub fn dataset(
    seed: u64,
    live_actions: usize,
    shuffle_window: usize,
) -> Result<(UserData, Vec<Action>), String> {
    let ds = bookcrossing(&BookCrossingConfig {
        n_users: 5_000,
        n_books: 4_000,
        n_ratings: 30_000,
        n_communities: 8,
        seed: 42,
    });
    let (mut base, tape) = ds.data.split_actions();
    if live_actions + tape.len() / 8 > tape.len() {
        return Err(format!(
            "the run needs {live_actions} live actions; the tape holds {}",
            tape.len()
        ));
    }
    let warmup = tape.len() - live_actions;
    base.append_actions(&tape[..warmup]);
    let mut live = tape[warmup..].to_vec();
    let mut state = seed;
    for window in live.chunks_mut(shuffle_window) {
        for i in (1..window.len()).rev() {
            state = crate::script::mix(state);
            window.swap(i, (state % (i as u64 + 1)) as usize);
        }
    }
    Ok((base, live))
}

/// A fresh durable directory under the benchmark's output directory.
pub fn fresh_dir(tag: &str) -> PathBuf {
    let dir = crate::out_dir().join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Bootstrap a durable engine `runs` times (each into a fresh directory);
/// returns the last engine, its directory and every bootstrap's seconds.
pub fn bootstrap(
    base: &UserData,
    cfg: &EngineConfig,
    runs: usize,
    tag: &str,
) -> Result<(LiveEngine, PathBuf, Vec<f64>), String> {
    let mut secs = Vec::new();
    let mut last = None;
    for i in 0..runs {
        let dir = fresh_dir(&format!("{tag}-setup{i}"));
        let data = base.clone();
        let t = Instant::now();
        let live = LiveEngine::bootstrap_durable(data, cfg.clone(), DurabilityConfig::new(&dir))
            .map_err(|e| format!("bootstrap: {e}"))?;
        secs.push(t.elapsed().as_secs_f64());
        if let Some((_, old)) = last.replace((live, dir)) {
            let _ = std::fs::remove_dir_all(old);
        }
    }
    let (live, dir) = last.ok_or("no bootstrap run")?;
    Ok((live, dir, secs))
}

/// Ingest one batch into the engine's buffer.
pub fn feed(live: &LiveEngine, actions: &[Action]) -> Result<usize, CoreError> {
    live.ingest(&mut ReplayStream::from_actions(actions), usize::MAX)
}

/// Sleep until `t` (no-op when it is past).
pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// One open-loop operation: when it was due, when it was sent, when it
/// returned.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub due: Instant,
    pub start: Instant,
    pub end: Instant,
}

impl Timed {
    /// Milliseconds from the due time to the return.
    pub fn since_due_ms(&self) -> f64 {
        (self.end - self.due).as_secs_f64() * 1e3
    }

    /// Milliseconds the call itself took.
    pub fn call_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }

    /// Milliseconds the schedule was late sending it.
    pub fn lateness_ms(&self) -> f64 {
        self.start.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// Run `op` at `due` (or at once when late) and time it.
pub fn at<R>(due: Instant, op: impl FnOnce() -> R) -> (Timed, R) {
    sleep_until(due);
    let start = Instant::now();
    let r = op();
    let end = Instant::now();
    (Timed { due, start, end }, r)
}

/// The due time of the `i`th operation of a schedule.
pub fn due(t0: Instant, period: Duration, offset: Duration, i: usize) -> Instant {
    t0 + offset + period * i as u32
}

/// Copy every file of a durable directory.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}
