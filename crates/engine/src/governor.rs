//! The closed-loop overload governor: the decision rule, apart from the
//! executor that applies it.
//!
//! An executor feeds a [`Governor`] the time spent at or above the overload
//! watermark and, at each visit, its clock and pending depth; it applies the
//! [`Decision`]s that come back. The simulator runs it on virtual time.

use hcq_common::{HcqError, Nanos, Result};
use hcq_core::PolicyKind;

use crate::config::{AdmissionMode, OverloadConfig};

/// Closed-loop overload governor configuration.
///
/// Every [`GovernorConfig::cadence`] the governor may move the admission
/// mode one step along `Unbounded → DropTail → QosShed`, with hysteresis
/// bands and a minimum dwell so the mode never flaps. The run's
/// [`OverloadConfig`] supplies the rest: its mode is the ladder floor, its
/// capacity bounds the bounded rungs, its watermark defines "overloaded".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorConfig {
    /// Interval between governor decisions (positive).
    pub cadence: Nanos,
    /// Minimum time between two mode transitions (anti-flapping; positive).
    pub min_dwell: Nanos,
    /// Escalate one ladder step when total pending tuples reach this level.
    pub escalate_pending: usize,
    /// De-escalate one step only when total pending tuples are at or below
    /// this level (must be < `escalate_pending`: the hysteresis band).
    pub deescalate_pending: usize,
    /// Escalate when the fraction of the last cadence window spent at or
    /// above the overload watermark reaches this share.
    pub escalate_share: f64,
    /// De-escalate only when the window overload share is at or below this
    /// (must be < `escalate_share`).
    pub deescalate_share: f64,
    /// The meta-scheduler: on sustained overload swap the running policy for
    /// this one (LSF is the natural triage: the tail degrades first), and
    /// swap the original back once the overload subsides. `None` (the
    /// default) only walks the admission-mode ladder.
    pub overload_policy: Option<PolicyKind>,
    /// Engage the overload policy when the window overload share is at or
    /// above this level for [`GovernorConfig::switch_sustain`] consecutive
    /// complete windows.
    pub switch_share: f64,
    /// Return to the base policy when the share is at or below this level
    /// for the same number of consecutive complete windows (must be <
    /// `switch_share` for a real hysteresis band).
    pub return_share: f64,
    /// Consecutive complete cadence windows required on either side of the
    /// switch band (≥ 1) — incomplete windows never count.
    pub switch_sustain: u32,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            cadence: Nanos::from_millis(50),
            min_dwell: Nanos::from_millis(200),
            escalate_pending: 0,
            deescalate_pending: 0,
            escalate_share: 0.5,
            deescalate_share: 0.1,
            overload_policy: None,
            switch_share: 0.6,
            return_share: 0.15,
            switch_sustain: 2,
        }
    }
}

impl GovernorConfig {
    /// Check this governor against the overload config it governs, as every
    /// executor does: positive cadence and dwell, a per-unit capacity for the
    /// bounded rungs, and a real hysteresis band on every signal it reads.
    pub fn validate(&self, overload: &OverloadConfig) -> Result<()> {
        let switching = self.overload_policy.is_some();
        let problem = if self.cadence.is_zero() || self.min_dwell.is_zero() {
            "governor cadence and min_dwell must be positive"
        } else if overload.capacity == 0 {
            "the governor needs a per-unit capacity of at least 1 for its bounded modes"
        } else if self.escalate_pending <= self.deescalate_pending {
            "escalate_pending must exceed deescalate_pending (hysteresis band)"
        } else if self.escalate_share <= self.deescalate_share {
            "escalate_share must exceed deescalate_share (hysteresis band)"
        } else if switching && self.switch_share <= self.return_share {
            "policy switching needs switch_share > return_share (hysteresis band)"
        } else if switching && self.switch_sustain == 0 {
            "policy switching needs switch_sustain of at least 1"
        } else {
            return Ok(());
        };
        Err(HcqError::config(problem))
    }
}

/// A meta-scheduler move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Switch {
    /// Park the base policy and run this one.
    Engage(PolicyKind),
    /// Drop the overload policy and bring the parked base policy back.
    Disengage,
}

/// What the governor decided at one cadence boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// The window overload share the decision read, in `[0, 1]`.
    pub share: f64,
    /// The admission mode to move to, when the ladder moves.
    pub mode: Option<AdmissionMode>,
    /// The policy swap to make, when the meta-scheduler moves.
    pub switch: Option<Switch>,
}

/// Live state of the closed-loop overload governor.
#[derive(Debug, Clone)]
pub struct Governor {
    cfg: GovernorConfig,
    /// Next cadence boundary at which to take a decision.
    next_decision: Nanos,
    /// Instant of the last mode transition (`None` before the first).
    last_transition: Option<Nanos>,
    /// Ladder floor: the configured base admission mode's rung.
    floor: u8,
    /// Current ladder level.
    level: u8,
    /// Time at or above the watermark since the last decision.
    window_overload: Nanos,
    /// When `window_overload` was last zeroed. A window is *complete* once a
    /// full cadence has elapsed since; caught-up boundaries see empty ones.
    window_start: Nanos,
    /// Mode transitions taken so far.
    transitions: u64,
    /// Consecutive complete windows with overload share at or above
    /// [`GovernorConfig::switch_share`].
    high_streak: u32,
    /// Consecutive complete windows with overload share at or below
    /// [`GovernorConfig::return_share`].
    low_streak: u32,
    /// Whether the overload policy is running.
    engaged: bool,
    /// Instant of the last policy switch (`None` before the first).
    last_switch: Option<Nanos>,
    /// Policy switches taken so far (engage and disengage each count).
    switches: u64,
}

impl Governor {
    /// A governor at its floor `base`, the run's configured admission mode.
    pub fn new(cfg: GovernorConfig, base: AdmissionMode) -> Self {
        Governor {
            cfg,
            next_decision: cfg.cadence,
            last_transition: None,
            floor: base.rung(),
            level: base.rung(),
            window_overload: Nanos::ZERO,
            window_start: Nanos::ZERO,
            transitions: 0,
            high_streak: 0,
            low_streak: 0,
            engaged: false,
            last_switch: None,
            switches: 0,
        }
    }

    /// Account `span` of time spent at or above the overload watermark.
    pub fn overloaded(&mut self, span: Nanos) {
        self.window_overload += span;
    }

    /// Mode transitions taken so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Policy switches taken so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// The decision at the next cadence boundary `now` has reached, or `None`
    /// once all are decided: call it in a loop, so no boundary is skipped.
    /// Escalate one step when either signal (`pending`, window overload
    /// share) crosses its upper threshold, de-escalate when *both* are at or
    /// below their lower ones, either only once `min_dwell` has elapsed.
    pub fn decide(&mut self, now: Nanos, pending: usize) -> Option<Decision> {
        if now < self.next_decision {
            return None;
        }
        let at = self.next_decision;
        self.next_decision = at + self.cfg.cadence;
        let share = self.window_overload.ratio(self.cfg.cadence).min(1.0);
        // A window that accumulated for less than one cadence — the
        // trailing boundaries of a catch-up batch, or the first boundary
        // after a transition when min_dwell is shorter than the cadence —
        // understates the overload share. Escalation may still act on it (a
        // high share on a short window is a real signal, and pending depth
        // is unaffected); de-escalation and switch-streak accounting must
        // not mistake it for calm.
        let window_complete = now.saturating_since(self.window_start) >= self.cfg.cadence;
        self.window_overload = Nanos::ZERO;
        self.window_start = now;
        let mut mode = None;
        if dwell_elapsed(self.last_transition, at, self.cfg.min_dwell) {
            let want_up = self.level < AdmissionMode::QosShed.rung()
                && (pending >= self.cfg.escalate_pending || share >= self.cfg.escalate_share);
            let want_down = self.level > self.floor
                && window_complete
                && pending <= self.cfg.deescalate_pending
                && share <= self.cfg.deescalate_share;
            if want_up || want_down {
                self.level = if want_up {
                    self.level + 1
                } else {
                    self.level - 1
                };
                self.last_transition = Some(at);
                self.transitions += 1;
                mode = Some(AdmissionMode::from_rung(self.level));
            }
        }
        let switch = match self.cfg.overload_policy {
            Some(overload) => self.meta_schedule(overload, at, share, window_complete),
            None => None,
        };
        Some(Decision {
            share,
            mode,
            switch,
        })
    }

    /// The meta-scheduler rung of the governor: engage `overload` after
    /// `switch_sustain` consecutive complete windows at or above
    /// `switch_share`, and return after as many at or below `return_share`.
    /// The band between the thresholds resets both streaks, and `min_dwell`
    /// applies between switches, so a share oscillating around either
    /// threshold cannot thrash the policy.
    fn meta_schedule(
        &mut self,
        overload: PolicyKind,
        at: Nanos,
        share: f64,
        window_complete: bool,
    ) -> Option<Switch> {
        if window_complete {
            if share >= self.cfg.switch_share {
                self.high_streak += 1;
                self.low_streak = 0;
            } else if share <= self.cfg.return_share {
                self.low_streak += 1;
                self.high_streak = 0;
            } else {
                self.high_streak = 0;
                self.low_streak = 0;
            }
        }
        if !dwell_elapsed(self.last_switch, at, self.cfg.min_dwell) {
            return None;
        }
        let switch = if !self.engaged && self.high_streak >= self.cfg.switch_sustain {
            Switch::Engage(overload)
        } else if self.engaged && self.low_streak >= self.cfg.switch_sustain {
            Switch::Disengage
        } else {
            return None;
        };
        self.engaged = !self.engaged;
        self.last_switch = Some(at);
        self.switches += 1;
        self.high_streak = 0;
        self.low_streak = 0;
        Some(switch)
    }
}

/// Whether `min_dwell` has elapsed at `at` since the `last` move (the first
/// move of a run is exempt).
fn dwell_elapsed(last: Option<Nanos>, at: Nanos, min_dwell: Nanos) -> bool {
    match last {
        None => true,
        Some(last) => at.saturating_since(last) >= min_dwell,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AdmissionMode::{DropTail, QosShed, Unbounded};

    /// One scripted visit: time spent overloaded since the previous visit,
    /// the clock, the pending depth, and the decisions expected back — one
    /// per cadence boundary the clock has reached.
    type Visit<'a> = (
        u64,
        u64,
        usize,
        &'a [(Option<AdmissionMode>, Option<Switch>)],
    );

    fn drive(cfg: GovernorConfig, base: AdmissionMode, script: &[Visit<'_>]) -> Governor {
        let mut g = Governor::new(cfg, base);
        for (i, &(overloaded, now, pending, expected)) in script.iter().enumerate() {
            g.overloaded(Nanos::from_nanos(overloaded));
            let now = Nanos::from_nanos(now);
            let got: Vec<_> = std::iter::from_fn(|| g.decide(now, pending))
                .map(|d| (d.mode, d.switch))
                .collect();
            assert_eq!(got, expected, "visit {i} at {now:?}");
        }
        g
    }

    const NONE: (Option<AdmissionMode>, Option<Switch>) = (None, None);

    fn to(mode: AdmissionMode) -> (Option<AdmissionMode>, Option<Switch>) {
        (Some(mode), None)
    }

    /// Cadence 10 ns, dwell 20 ns, pending band (2, 10], share band
    /// (0.1, 0.5).
    fn ladder() -> GovernorConfig {
        GovernorConfig {
            cadence: Nanos(10),
            min_dwell: Nanos(20),
            escalate_pending: 10,
            deescalate_pending: 2,
            ..GovernorConfig::default()
        }
    }

    #[test]
    fn the_ladder_rule_by_table() {
        let g = drive(
            ladder(),
            Unbounded,
            &[
                // No boundary reached yet.
                (0, 5, 50, &[]),
                // Pending depth alone escalates; the first move needs no dwell.
                (0, 10, 50, &[to(DropTail)]),
                // Share 0.6 wants up, but only 10 ns have passed.
                (6, 20, 0, &[NONE]),
                // Dwell done: the share signal alone escalates.
                (6, 30, 0, &[to(QosShed)]),
                // Three boundaries caught up in one visit. The first is
                // inside the dwell; the other two see an empty window at
                // the same clock, which is not calm.
                (0, 60, 0, &[NONE, NONE, NONE]),
                // A complete calm window: one step down.
                (0, 70, 2, &[to(DropTail)]),
                (0, 80, 3, &[NONE]),
                // Dwell done, but pending above the lower edge blocks
                // de-escalation...
                (0, 90, 3, &[NONE]),
                // ...and so does a share above it.
                (2, 100, 0, &[NONE]),
                (0, 110, 0, &[to(Unbounded)]),
                // Nothing below the bottom rung.
                (0, 140, 0, &[NONE, NONE, NONE]),
            ],
        );
        assert_eq!(g.transitions(), 4);
        assert_eq!(g.switches(), 0);
    }

    #[test]
    fn the_base_mode_is_the_floor() {
        let g = drive(
            ladder(),
            DropTail,
            &[
                (0, 10, 0, &[NONE]),
                (0, 20, 10, &[to(QosShed)]),
                (0, 30, 0, &[NONE]),
                (0, 40, 0, &[to(DropTail)]),
                (0, 100, 0, &[NONE; 6]),
            ],
        );
        assert_eq!(g.transitions(), 2);
    }

    #[test]
    fn the_meta_scheduler_by_table() {
        // The pending threshold is out of reach and the escalate share above
        // 1, so the ladder stays put and each row shows only the switch.
        let cfg = GovernorConfig {
            cadence: Nanos(10),
            min_dwell: Nanos(30),
            escalate_pending: usize::MAX,
            deescalate_pending: 0,
            escalate_share: 2.0,
            deescalate_share: 0.0,
            overload_policy: Some(PolicyKind::Lsf),
            switch_share: 0.6,
            return_share: 0.15,
            switch_sustain: 2,
        };
        let engage = (None, Some(Switch::Engage(PolicyKind::Lsf)));
        let disengage = (None, Some(Switch::Disengage));
        let g = drive(
            cfg,
            Unbounded,
            &[
                // One high window is not yet sustained.
                (7, 10, 0, &[NONE]),
                (7, 20, 0, &[engage]),
                // Two low windows, but the dwell since the engage holds...
                (1, 30, 0, &[NONE]),
                (1, 40, 0, &[NONE]),
                // ...until it elapses.
                (1, 50, 0, &[disengage]),
                // High, then a window inside the band resets the streak.
                (7, 60, 0, &[NONE]),
                (3, 70, 0, &[NONE]),
                // Two boundaries at once: the first window is complete and
                // high; the second is empty but incomplete, so it does not
                // break the streak...
                (10, 90, 0, &[NONE, NONE]),
                // ...and the next high window completes it.
                (7, 100, 0, &[engage]),
            ],
        );
        assert_eq!(g.switches(), 3);
        assert_eq!(g.transitions(), 0);
    }

    #[test]
    fn validate_names_the_broken_knob() {
        let overload = OverloadConfig {
            capacity: 4,
            ..OverloadConfig::default()
        };
        let good = GovernorConfig {
            escalate_pending: 10,
            deescalate_pending: 2,
            overload_policy: Some(PolicyKind::Lsf),
            ..GovernorConfig::default()
        };
        assert!(good.validate(&overload).is_ok());
        let cases: [(GovernorConfig, OverloadConfig, &str); 7] = [
            (
                GovernorConfig {
                    cadence: Nanos::ZERO,
                    ..good
                },
                overload,
                "cadence",
            ),
            (
                GovernorConfig {
                    min_dwell: Nanos::ZERO,
                    ..good
                },
                overload,
                "min_dwell",
            ),
            (good, OverloadConfig::default(), "capacity"),
            (
                GovernorConfig {
                    deescalate_pending: 10,
                    ..good
                },
                overload,
                "escalate_pending",
            ),
            (
                GovernorConfig {
                    deescalate_share: 0.5,
                    ..good
                },
                overload,
                "escalate_share",
            ),
            (
                GovernorConfig {
                    return_share: 0.6,
                    ..good
                },
                overload,
                "switch_share",
            ),
            (
                GovernorConfig {
                    switch_sustain: 0,
                    ..good
                },
                overload,
                "switch_sustain",
            ),
        ];
        for (cfg, overload, knob) in cases {
            let err = cfg.validate(&overload).expect_err(knob);
            assert!(
                matches!(&err, HcqError::InvalidConfig(m) if m.contains(knob)),
                "{knob}: {err}"
            );
        }
        // The switch band is only checked when switching is on.
        let ladder_only = GovernorConfig {
            overload_policy: None,
            return_share: 0.9,
            switch_sustain: 0,
            ..good
        };
        assert!(ladder_only.validate(&overload).is_ok());
    }
}
