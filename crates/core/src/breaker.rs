//! Per-accelerator circuit breakers.
//!
//! PR 1's fault machinery retries and fails over *within* one deploy; a
//! serving process also needs memory *across* deploys, so a persistently
//! sick accelerator stops eating retry budgets request after request. The
//! classic three-state breaker provides that:
//!
//! * **Closed** — requests flow normally; consecutive failures are counted.
//! * **Open** — after [`BreakerConfig::failure_threshold`] consecutive
//!   failures the breaker trips: requests route around the accelerator
//!   (the resilient deploy loop re-clamps the predicted configuration for
//!   the survivor via [`DeployOptions::avoid`](crate::DeployOptions)).
//!   Cooldown is counted in *routed-around requests*, not wall time, so
//!   breaker evolution is a pure function of the request stream and stays
//!   bit-reproducible under the deterministic chaos harness.
//! * **Half-open** — after [`BreakerConfig::cooldown_requests`] sheds the
//!   breaker lets probes through; [`BreakerConfig::probe_successes`]
//!   consecutive successes close it, any probe failure re-opens it.
//!
//! Transitions are serial by design — callers own the synchronization (a
//! mutex in the serving layer, the per-round serial fold in the chaos
//! harness) — and every transition emits an obs event, so the flight
//! recorder explains each degradation decision.

use crate::report::Placement;
use crate::resilient::AttemptOutcome;
use heteromap_model::Accelerator;
use serde::{Deserialize, Serialize};

/// Circuit-breaker tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BreakerConfig {
    /// Consecutive failures that trip a Closed breaker Open.
    pub failure_threshold: u32,
    /// Requests routed around an Open breaker before it goes Half-open.
    /// Counted in requests (not wall time) for determinism.
    pub cooldown_requests: u32,
    /// Consecutive Half-open probe successes that close the breaker.
    pub probe_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_requests: 16,
            probe_successes: 2,
        }
    }
}

/// The three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum BreakerState {
    /// Requests flow; failures are counted.
    #[default]
    Closed,
    /// Requests route around the accelerator until the cooldown elapses.
    Open,
    /// Probes flow; successes close the breaker, a failure re-opens it.
    HalfOpen,
}

/// A circuit breaker for one accelerator.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    accelerator: Accelerator,
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    sheds_since_open: u32,
    consecutive_probe_successes: u32,
    opens: u64,
    closes: u64,
}

impl CircuitBreaker {
    /// A Closed breaker for `accelerator`.
    pub fn new(accelerator: Accelerator, config: BreakerConfig) -> Self {
        CircuitBreaker {
            accelerator,
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            sheds_since_open: 0,
            consecutive_probe_successes: 0,
            opens: 0,
            closes: 0,
        }
    }

    /// The guarded accelerator.
    pub fn accelerator(&self) -> Accelerator {
        self.accelerator
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether requests may currently target the accelerator (Closed or
    /// Half-open probing).
    pub fn allows(&self) -> bool {
        self.state != BreakerState::Open
    }

    /// Times the breaker tripped open (including re-opens from Half-open).
    pub fn opens(&self) -> u64 {
        self.opens
    }

    /// Times the breaker closed from Half-open.
    pub fn closes(&self) -> u64 {
        self.closes
    }

    /// Records one deploy outcome against the accelerator.
    pub fn on_outcome(&mut self, success: bool) {
        match (self.state, success) {
            (BreakerState::Closed, true) => self.consecutive_failures = 0,
            (BreakerState::Closed, false) => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.failure_threshold.max(1) {
                    self.trip("threshold");
                }
            }
            (BreakerState::HalfOpen, true) => {
                self.consecutive_probe_successes += 1;
                if self.consecutive_probe_successes >= self.config.probe_successes.max(1) {
                    self.state = BreakerState::Closed;
                    self.consecutive_failures = 0;
                    self.closes += 1;
                    let accelerator = self.accelerator;
                    heteromap_obs::event("breaker.close", || {
                        format!("accelerator={accelerator:?} cause=probe_successes")
                    });
                    if heteromap_obs::metrics_enabled() {
                        crate::telemetry::record_breaker_transition("closed");
                    }
                }
            }
            (BreakerState::HalfOpen, false) => self.trip("probe_failure"),
            // An Open breaker is routed around; a straggler outcome that
            // still reaches it (e.g. admitted before the trip) is ignored.
            (BreakerState::Open, _) => {}
        }
    }

    /// Records one request that was routed around this Open breaker; after
    /// the configured cooldown the breaker goes Half-open.
    pub fn on_shed(&mut self) {
        if self.state != BreakerState::Open {
            return;
        }
        self.sheds_since_open += 1;
        if self.sheds_since_open >= self.config.cooldown_requests.max(1) {
            self.state = BreakerState::HalfOpen;
            self.consecutive_probe_successes = 0;
            let accelerator = self.accelerator;
            heteromap_obs::event("breaker.half_open", || {
                format!(
                    "accelerator={accelerator:?} cause=cooldown_elapsed sheds={}",
                    self.sheds_since_open
                )
            });
            if heteromap_obs::metrics_enabled() {
                crate::telemetry::record_breaker_transition("half_open");
            }
        }
    }

    fn trip(&mut self, cause: &'static str) {
        self.state = BreakerState::Open;
        self.sheds_since_open = 0;
        self.consecutive_probe_successes = 0;
        self.opens += 1;
        let accelerator = self.accelerator;
        let failures = self.consecutive_failures;
        heteromap_obs::event("breaker.open", || {
            format!("accelerator={accelerator:?} cause={cause} consecutive_failures={failures}")
        });
        if heteromap_obs::metrics_enabled() {
            crate::telemetry::record_breaker_transition("open");
        }
    }
}

/// The breaker pair guarding a GPU + multicore system, with the routing
/// decision and the attempt-log feedback loop in one place so the serving
/// layer and the chaos harness share identical semantics.
#[derive(Debug, Clone)]
pub struct BreakerBoard {
    gpu: CircuitBreaker,
    multicore: CircuitBreaker,
}

impl BreakerBoard {
    /// A board with both breakers Closed.
    pub fn new(config: BreakerConfig) -> Self {
        BreakerBoard {
            gpu: CircuitBreaker::new(Accelerator::Gpu, config),
            multicore: CircuitBreaker::new(Accelerator::Multicore, config),
        }
    }

    /// The breaker for `accelerator`.
    pub fn breaker(&self, accelerator: Accelerator) -> &CircuitBreaker {
        match accelerator {
            Accelerator::Gpu => &self.gpu,
            Accelerator::Multicore => &self.multicore,
        }
    }

    fn breaker_mut(&mut self, accelerator: Accelerator) -> &mut CircuitBreaker {
        match accelerator {
            Accelerator::Gpu => &mut self.gpu,
            Accelerator::Multicore => &mut self.multicore,
        }
    }

    /// Whether both breakers are Open — nothing may be targeted and the
    /// request must be shed with a typed `Unhealthy` rejection.
    pub fn all_open(&self) -> bool {
        !self.gpu.allows() && !self.multicore.allows()
    }

    /// The accelerator requests should currently route around: `Some` when
    /// exactly one breaker is Open, `None` when both flow (or neither does —
    /// see [`BreakerBoard::all_open`]).
    pub fn route_avoid(&self) -> Option<Accelerator> {
        match (self.gpu.allows(), self.multicore.allows()) {
            (false, true) => Some(Accelerator::Gpu),
            (true, false) => Some(Accelerator::Multicore),
            _ => None,
        }
    }

    /// Ticks the cooldown of every Open breaker by one routed-around
    /// request.
    pub fn on_shed_open(&mut self) {
        self.gpu.on_shed();
        self.multicore.on_shed();
    }

    /// Ticks the cooldown of the single breaker one request was routed
    /// around (the [`BreakerBoard::route_avoid`] target).
    pub fn on_routed_around(&mut self, accelerator: Accelerator) {
        self.breaker_mut(accelerator).on_shed();
    }

    /// Feeds one finished placement back into the breakers, judging each
    /// accelerator by its own final attempt so one sick accelerator cannot
    /// poison the healthy survivor's breaker:
    ///
    /// * **Success** — healthy only if the accelerator's *own* run (total
    ///   time minus predictor overhead and retry charges racked up by other
    ///   legs) fit `deadline_ms`. A throttled accelerator that "succeeds"
    ///   past every deadline is not healthy; a fast survivor that completed
    ///   a request already late from another leg's retries is.
    /// * **DeadlineExceeded** — a failure only when the accelerator's
    ///   predicted time would not have fit even the *full* deadline: the
    ///   accelerator is too slow for this class of request. When the
    ///   prediction fit the deadline but not the budget *remaining* (other
    ///   legs ate it), or the budget was spent before the attempt, the
    ///   skip says nothing about the accelerator — neutral.
    /// * **OutOfMemory** — neutral: the working set, not the accelerator,
    ///   is the problem; tripping would shed right-sized requests too.
    /// * Any other failure counts against the accelerator.
    pub fn on_placement(&mut self, placement: &Placement, deadline_ms: f64) {
        let run_ms = placement.report.time_ms
            - placement.predictor_overhead_ms
            - placement.attempts.retry_time_ms;
        for accelerator in [Accelerator::Gpu, Accelerator::Multicore] {
            let Some(last) = placement
                .attempts
                .records
                .iter()
                .rev()
                .find(|r| r.accelerator == accelerator)
            else {
                continue;
            };
            let verdict = match last.outcome {
                AttemptOutcome::Success => Some(run_ms <= deadline_ms),
                AttemptOutcome::DeadlineExceeded { would_take_ms, .. } => {
                    (would_take_ms.is_finite() && would_take_ms > deadline_ms).then_some(false)
                }
                AttemptOutcome::OutOfMemory { .. } => None,
                _ => Some(false),
            };
            if let Some(success) = verdict {
                self.breaker_mut(accelerator).on_outcome(success);
            }
        }
    }

    /// Total trips across both breakers.
    pub fn total_opens(&self) -> u64 {
        self.gpu.opens() + self.multicore.opens()
    }

    /// Total closes across both breakers.
    pub fn total_closes(&self) -> u64 {
        self.gpu.closes() + self.multicore.closes()
    }
}

/// How one request or job resolved in a deterministic round driver (the
/// chaos harness and the fleet simulator). Each outcome lands in exactly
/// one bucket, and [`Resolution::tag`] is its value in the run digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Completed within its deadline.
    Good,
    /// Resolved, but outside its deadline.
    Late,
    /// Every attempt failed (or the migration budget ran out).
    Failed,
    /// Refused without running: every breaker open, no targetable device,
    /// or a deadline no placement could meet.
    Shed,
}

impl Resolution {
    /// The outcome's digest tag (1–4).
    pub fn tag(self) -> u64 {
        match self {
            Resolution::Good => 1,
            Resolution::Late => 2,
            Resolution::Failed => 3,
            Resolution::Shed => 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(Accelerator::Gpu, BreakerConfig::default())
    }

    #[test]
    fn opens_after_consecutive_failures_only() {
        let mut b = breaker();
        b.on_outcome(false);
        b.on_outcome(false);
        b.on_outcome(true); // success resets the streak
        b.on_outcome(false);
        b.on_outcome(false);
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_outcome(false);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allows());
        assert_eq!(b.opens(), 1);
    }

    #[test]
    fn cooldown_sheds_then_probes_then_closes() {
        let config = BreakerConfig {
            failure_threshold: 2,
            cooldown_requests: 3,
            probe_successes: 2,
        };
        let mut b = CircuitBreaker::new(Accelerator::Multicore, config);
        b.on_outcome(false);
        b.on_outcome(false);
        assert_eq!(b.state(), BreakerState::Open);
        b.on_shed();
        b.on_shed();
        assert_eq!(b.state(), BreakerState::Open);
        b.on_shed();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.allows(), "half-open lets probes through");
        b.on_outcome(true);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_outcome(true);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.closes(), 1);
    }

    #[test]
    fn probe_failure_reopens_and_restarts_cooldown() {
        let config = BreakerConfig {
            failure_threshold: 1,
            cooldown_requests: 2,
            probe_successes: 1,
        };
        let mut b = CircuitBreaker::new(Accelerator::Gpu, config);
        b.on_outcome(false);
        b.on_shed();
        b.on_shed();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_outcome(false);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 2);
        // Cooldown restarts from zero.
        b.on_shed();
        assert_eq!(b.state(), BreakerState::Open);
        b.on_shed();
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn shed_is_ignored_outside_open() {
        let mut b = breaker();
        b.on_shed();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn board_routes_around_the_single_open_breaker() {
        let mut board = BreakerBoard::new(BreakerConfig {
            failure_threshold: 1,
            ..BreakerConfig::default()
        });
        assert_eq!(board.route_avoid(), None);
        assert!(!board.all_open());
        board.breaker_mut(Accelerator::Gpu).on_outcome(false);
        assert_eq!(board.route_avoid(), Some(Accelerator::Gpu));
        board.breaker_mut(Accelerator::Multicore).on_outcome(false);
        assert!(board.all_open());
        assert_eq!(board.route_avoid(), None);
        assert_eq!(board.total_opens(), 2);
    }

    #[test]
    fn board_feeds_placements_per_accelerator() {
        use crate::report::Placement;
        use crate::resilient::{AttemptLog, AttemptRecord};
        use heteromap_accel::SimReport;
        use heteromap_model::MConfig;

        let mut board = BreakerBoard::new(BreakerConfig {
            failure_threshold: 1,
            ..BreakerConfig::default()
        });
        // A GPU failure followed by a multicore success in one placement.
        let placement = Placement {
            config: MConfig::multicore_default(),
            report: SimReport {
                time_ms: 1.0,
                energy_j: 1.0,
                utilization: 0.5,
            },
            predictor_overhead_ms: 0.0,
            attempts: AttemptLog {
                records: vec![
                    AttemptRecord {
                        accelerator: Accelerator::Gpu,
                        attempt: 0,
                        outcome: AttemptOutcome::AcceleratorDown,
                        charged_ms: 0.0,
                    },
                    AttemptRecord {
                        accelerator: Accelerator::Multicore,
                        attempt: 0,
                        outcome: AttemptOutcome::Success,
                        charged_ms: 0.0,
                    },
                ]
                .into(),
                failovers: 1,
                ..AttemptLog::default()
            },
        };
        board.on_placement(&placement, f64::INFINITY);
        assert_eq!(board.breaker(Accelerator::Gpu).state(), BreakerState::Open);
        assert_eq!(
            board.breaker(Accelerator::Multicore).state(),
            BreakerState::Closed
        );
        // The survivor's own 1 ms run busting the deadline fails it too.
        let mut board2 = BreakerBoard::new(BreakerConfig {
            failure_threshold: 1,
            ..BreakerConfig::default()
        });
        board2.on_placement(&placement, 0.5);
        assert_eq!(
            board2.breaker(Accelerator::Multicore).state(),
            BreakerState::Open
        );
    }

    #[test]
    fn survivor_is_not_blamed_for_other_legs_retry_charges() {
        use crate::report::Placement;
        use crate::resilient::{AttemptLog, AttemptRecord};
        use heteromap_accel::SimReport;
        use heteromap_model::MConfig;

        // GPU burned 9 ms of transient retries; the multicore run itself
        // took 1 ms. The request is late against a 5 ms deadline, but the
        // multicore's own run fit easily — its breaker must stay closed.
        let placement = Placement {
            config: MConfig::multicore_default(),
            report: SimReport {
                time_ms: 10.0,
                energy_j: 1.0,
                utilization: 0.5,
            },
            predictor_overhead_ms: 0.0,
            attempts: AttemptLog {
                records: vec![
                    AttemptRecord {
                        accelerator: Accelerator::Gpu,
                        attempt: 0,
                        outcome: AttemptOutcome::TransientFailure {
                            failed_after_ms: 9.0,
                        },
                        charged_ms: 9.0,
                    },
                    AttemptRecord {
                        accelerator: Accelerator::Multicore,
                        attempt: 0,
                        outcome: AttemptOutcome::Success,
                        charged_ms: 0.0,
                    },
                ]
                .into(),
                failovers: 1,
                retry_time_ms: 9.0,
                ..AttemptLog::default()
            },
        };
        let mut board = BreakerBoard::new(BreakerConfig {
            failure_threshold: 1,
            ..BreakerConfig::default()
        });
        board.on_placement(&placement, 5.0);
        assert_eq!(board.breaker(Accelerator::Gpu).state(), BreakerState::Open);
        assert_eq!(
            board.breaker(Accelerator::Multicore).state(),
            BreakerState::Closed,
            "1 ms run within the 5 ms deadline"
        );
    }

    #[test]
    fn oom_and_budget_exhaustion_are_neutral() {
        use crate::report::Placement;
        use crate::resilient::{AttemptLog, AttemptRecord};
        use heteromap_accel::SimReport;
        use heteromap_model::MConfig;

        let placement = Placement {
            config: MConfig::gpu_default(),
            report: SimReport {
                time_ms: f64::INFINITY,
                energy_j: 0.0,
                utilization: 0.0,
            },
            predictor_overhead_ms: 0.0,
            attempts: AttemptLog {
                records: vec![
                    AttemptRecord {
                        accelerator: Accelerator::Gpu,
                        attempt: 0,
                        outcome: AttemptOutcome::OutOfMemory {
                            footprint_bytes: 4_000_000_000,
                            capacity_bytes: 2_000_000_000,
                        },
                        charged_ms: 0.0,
                    },
                    AttemptRecord {
                        accelerator: Accelerator::Multicore,
                        attempt: 0,
                        outcome: AttemptOutcome::DeadlineExceeded {
                            would_take_ms: f64::INFINITY,
                            remaining_ms: -1.0,
                        },
                        charged_ms: 0.0,
                    },
                ]
                .into(),
                ..AttemptLog::default()
            },
        };
        let mut board = BreakerBoard::new(BreakerConfig {
            failure_threshold: 1,
            ..BreakerConfig::default()
        });
        board.on_placement(&placement, 5.0);
        assert_eq!(
            board.breaker(Accelerator::Gpu).state(),
            BreakerState::Closed,
            "OOM says nothing about accelerator health"
        );
        assert_eq!(
            board.breaker(Accelerator::Multicore).state(),
            BreakerState::Closed,
            "an exhausted budget says nothing about accelerator health"
        );
    }
}
