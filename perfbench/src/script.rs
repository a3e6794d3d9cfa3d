//! The scripted exploration session both reading workloads run.
//!
//! A session cycle starts at the opening display: [`CYCLE`] (clicks,
//! CONTEXT reads, a MEMO bookmark, one backtrack), then it ends by
//! rewinding to history step 0 (a backtrack, which restores the opening
//! display and feedback) or, every [`REOPEN_EVERY`]th cycle (staggered
//! across sessions), by closing the session; the next cycle then reopens. Which displayed group a click
//! picks depends only on the seed, the session, the cycle, the step and
//! the current display, so replaying a cycle on a fresh single-threaded
//! session over the same engine must reproduce its display trajectory byte
//! for byte.

use std::sync::Arc;
use vexus_core::{EngineConfig, ExplorationService, OwnedSession, ServeError, SessionId, Vexus};
use vexus_mining::GroupId;

/// One step of a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    Click,
    Context,
    Memo,
    Backtrack(usize),
    /// Rewind to the opening display, or close the session.
    End,
}

/// The steps of one cycle: six clicks, two CONTEXT reads, a MEMO bookmark
/// and a backtrack to history step 2.
pub const CYCLE: &[Step] = &[
    Step::Click,
    Step::Click,
    Step::Context,
    Step::Click,
    Step::Memo,
    Step::Click,
    Step::Backtrack(2),
    Step::Click,
    Step::Context,
    Step::Click,
    Step::End,
];

/// Every this many cycles a session is closed and reopened instead of
/// rewound.
pub const REOPEN_EVERY: u64 = 4;

/// Top-n size of the CONTEXT read.
pub const CONTEXT_N: usize = 10;

/// A resolved verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Open,
    Click(GroupId),
    Context,
    Memo(GroupId),
    Backtrack(usize),
    Close,
}

/// What a verb returned.
pub enum Outcome {
    Opened(SessionId, Vec<GroupId>),
    Display(Vec<GroupId>),
    Done,
}

/// SplitMix64: the benchmark's only source of pseudo-randomness.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1330_11EB);
    x ^ (x >> 31)
}

/// A finished cycle: which session and cycle, and every display it saw
/// (the opening display, then one per display-returning verb).
#[derive(Debug, Clone)]
pub struct CycleRecord {
    pub session: u64,
    pub cycle: u64,
    pub trajectory: Vec<Vec<GroupId>>,
}

/// One scripted session's progress through its cycles.
pub struct Script {
    seed: u64,
    pub session: u64,
    pub cycle: u64,
    step: usize,
    pub id: Option<SessionId>,
    display: Vec<GroupId>,
    /// Display of each history step (what a backtrack must restore).
    history: Vec<Vec<GroupId>>,
    trajectory: Vec<Vec<GroupId>>,
}

impl Script {
    pub fn new(seed: u64, session: u64) -> Self {
        Self {
            seed,
            session,
            cycle: 0,
            step: 0,
            id: None,
            display: Vec::new(),
            history: Vec::new(),
            trajectory: Vec::new(),
        }
    }

    /// The verb this session performs next.
    pub fn next_verb(&self) -> Verb {
        if self.id.is_none() {
            return Verb::Open;
        }
        let pick = || {
            let h = mix(self.seed ^ mix(self.session << 32 ^ self.cycle << 8 ^ self.step as u64));
            self.display[(h % self.display.len() as u64) as usize]
        };
        match CYCLE[self.step] {
            Step::Click if self.display.is_empty() => Verb::Close,
            Step::Memo if self.display.is_empty() => Verb::Context,
            Step::Click => Verb::Click(pick()),
            Step::Memo => Verb::Memo(pick()),
            Step::Context => Verb::Context,
            Step::Backtrack(to) => Verb::Backtrack(to),
            Step::End if (self.session + self.cycle + 1).is_multiple_of(REOPEN_EVERY) => {
                Verb::Close
            }
            Step::End => Verb::Backtrack(0),
        }
    }

    /// Fold in a verb's successful outcome. Returns the cycle it finished
    /// (on a rewind or close), or `Err` when a backtrack did not restore
    /// the display recorded at that history step.
    pub fn advance(&mut self, verb: Verb, outcome: Outcome) -> Result<Option<CycleRecord>, String> {
        match (verb, outcome) {
            (Verb::Open, Outcome::Opened(id, display)) => {
                self.id = Some(id);
                self.step = 0;
                self.history = vec![display.clone()];
                self.trajectory = vec![display.clone()];
                self.display = display;
            }
            (Verb::Click(_), Outcome::Display(display)) => {
                self.history.push(display.clone());
                self.trajectory.push(display.clone());
                self.display = display;
                self.step += 1;
            }
            (Verb::Backtrack(to), Outcome::Display(display)) => {
                if self.history.get(to) != Some(&display) {
                    return Err(format!(
                        "session {} cycle {}: backtrack({to}) did not restore its display",
                        self.session, self.cycle
                    ));
                }
                self.history.truncate(to + 1);
                if CYCLE[self.step] == Step::End {
                    // Rewound: the next cycle starts from the opening display.
                    let record = self.finish();
                    self.trajectory = vec![display.clone()];
                    self.display = display;
                    return Ok(Some(record));
                }
                self.trajectory.push(display.clone());
                self.display = display;
                self.step += 1;
            }
            (Verb::Close, _) => {
                let record = self.finish();
                self.id = None;
                return Ok(Some(record));
            }
            _ => self.step += 1,
        }
        Ok(None)
    }

    /// Close the current cycle's record and move on to the next cycle.
    fn finish(&mut self) -> CycleRecord {
        let record = CycleRecord {
            session: self.session,
            cycle: self.cycle,
            trajectory: std::mem::take(&mut self.trajectory),
        };
        self.cycle += 1;
        self.step = 0;
        record
    }

    /// Drop the current cycle (after a failed verb) and start the next.
    pub fn abandon(&mut self) {
        self.id = None;
        self.cycle += 1;
        self.step = 0;
        self.history.clear();
        self.trajectory.clear();
    }
}

/// Perform a verb through the service.
pub fn serve(
    svc: &ExplorationService,
    id: Option<SessionId>,
    verb: Verb,
    config: &EngineConfig,
) -> Result<Outcome, ServeError> {
    let id = || id.expect("verbs after open carry a session id");
    Ok(match verb {
        Verb::Open => {
            let (id, display) = svc.open_with(config.clone())?;
            Outcome::Opened(id, display)
        }
        Verb::Click(g) => Outcome::Display(svc.click(id(), g)?),
        Verb::Backtrack(to) => Outcome::Display(svc.backtrack(id(), to)?),
        Verb::Context => {
            std::hint::black_box(svc.context(id(), CONTEXT_N)?);
            Outcome::Done
        }
        Verb::Memo(g) => {
            svc.memo_group(id(), g)?;
            Outcome::Done
        }
        Verb::Close => {
            svc.close(id())?;
            Outcome::Done
        }
    })
}

/// Replay one cycle on a plain single-threaded session over `engine` and
/// return its display trajectory.
pub fn replay(
    engine: &Arc<Vexus>,
    config: &EngineConfig,
    seed: u64,
    session: u64,
    cycle: u64,
) -> Result<Vec<Vec<GroupId>>, String> {
    let mut script = Script::new(seed, session);
    script.cycle = cycle;
    let mut s: Option<OwnedSession> = None;
    loop {
        let verb = script.next_verb();
        let outcome = match verb {
            Verb::Open => {
                let opened = OwnedSession::open_with(Arc::clone(engine), config.clone())
                    .map_err(|e| e.to_string())?;
                let display = opened.display().to_vec();
                s = Some(opened);
                Outcome::Opened(SessionId(u64::MAX), display)
            }
            _ => {
                let s = s.as_mut().expect("opened first");
                match verb {
                    Verb::Click(g) => {
                        Outcome::Display(s.click(g).map_err(|e| e.to_string())?.to_vec())
                    }
                    Verb::Backtrack(to) => {
                        Outcome::Display(s.backtrack(to).map_err(|e| e.to_string())?.to_vec())
                    }
                    Verb::Context => {
                        std::hint::black_box(s.context(CONTEXT_N));
                        Outcome::Done
                    }
                    Verb::Memo(g) => {
                        s.memo_group(g).map_err(|e| e.to_string())?;
                        Outcome::Done
                    }
                    Verb::Open | Verb::Close => Outcome::Done,
                }
            }
        };
        if let Some(record) = script.advance(verb, outcome)? {
            return Ok(record.trajectory);
        }
    }
}
