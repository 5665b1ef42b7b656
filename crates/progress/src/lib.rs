#![warn(missing_docs)]

//! The flow's progress/timing layer: an injectable [`Clock`], a
//! [`ProgressSink`] for per-phase progress reporting, and a cooperative
//! [`CancelToken`].
//!
//! Library crates must not read wall clocks directly (`sdp-lint`'s
//! `wall-clock-in-library` rule): every phase timer in `extract`, `gp`,
//! and `core` goes through a [`Clock`] handle instead, and this crate is
//! the **one sanctioned place** where `Instant::now` may be called — the
//! lint knows `sdp-progress` as the sanctioned time source. Tests and
//! replay harnesses inject a [`ManualClock`] and get bitwise-stable
//! timing fields for free.
//!
//! Cancellation is cooperative: long-running kernels poll
//! [`Observer::cancelled`] at their outer-loop boundaries and unwind with
//! [`Cancelled`] as a typed error, never a panic. The serving layer
//! (`sdp-serve`) hands every job a [`CancelToken`] and flips it on
//! `DELETE /jobs/:id` or when the job's deadline passes.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The placement flow's phases, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Datapath extraction.
    Extract,
    /// Global placement (including alignment refinement).
    Global,
    /// Legalization (including group snapping).
    Legalize,
    /// Detailed placement.
    Detailed,
    /// Global routing (route-mode flows: RUDY feedback loop + final route).
    Route,
}

impl Phase {
    /// All phases in execution order.
    pub const ALL: [Phase; 5] = [
        Phase::Extract,
        Phase::Global,
        Phase::Legalize,
        Phase::Detailed,
        Phase::Route,
    ];

    /// Stable lowercase name (used in status reports and metric labels).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Extract => "extract",
            Phase::Global => "global",
            Phase::Legalize => "legalize",
            Phase::Detailed => "detailed",
            Phase::Route => "route",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A monotonic time source. Implementations must be monotone
/// non-decreasing; the zero point is arbitrary (per-clock).
pub trait Clock: Send + Sync {
    /// Time elapsed since the clock's own epoch.
    fn now(&self) -> Duration;
}

/// The real monotonic clock, anchored at construction.
///
/// This is the **only** sanctioned `Instant::now` call site in the
/// workspace's library crates (see the crate docs).
#[derive(Debug, Clone)]
pub struct MonotonicClock {
    anchor: Instant,
}

impl MonotonicClock {
    /// A clock anchored now.
    #[allow(
        clippy::disallowed_methods,
        reason = "the one sanctioned clock read behind `Clock`"
    )]
    pub fn new() -> Self {
        MonotonicClock {
            anchor: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now(&self) -> Duration {
        self.anchor.elapsed()
    }
}

/// A deterministic test clock: time moves only when [`ManualClock::advance`]
/// is called. Timing fields filled from this clock are bitwise stable.
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    /// A clock at t = 0.
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Moves the clock forward.
    pub fn advance(&self, by: Duration) {
        let ns = u64::try_from(by.as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(ns, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }
}

/// A shareable cooperative-cancellation flag. Cloning shares the flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// The typed error a cancelled flow unwinds with. Deliberately carries no
/// payload: partial placements are not results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("flow cancelled")
    }
}

impl std::error::Error for Cancelled {}

/// Receives progress reports and answers cancellation polls. Implementors
/// must be cheap: kernels call [`ProgressSink::report`] once per outer
/// iteration and poll [`ProgressSink::cancelled`] just as often.
pub trait ProgressSink: Send + Sync {
    /// `frac` of `phase` is complete (monotone within a phase, in `[0, 1]`;
    /// best-effort — phases with data-dependent iteration counts report
    /// against their configured maximum).
    fn report(&self, phase: Phase, frac: f64);

    /// Should the flow stop at the next safe point?
    fn cancelled(&self) -> bool {
        false
    }
}

/// A sink that ignores progress and never cancels.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl ProgressSink for NullSink {
    fn report(&self, _phase: Phase, _frac: f64) {}
}

/// A sink driven by a [`CancelToken`], forwarding progress to a closure.
/// The closure form keeps `sdp-serve`'s per-job state out of this crate.
pub struct TokenSink<F: Fn(Phase, f64) + Send + Sync> {
    token: CancelToken,
    on_report: F,
}

impl<F: Fn(Phase, f64) + Send + Sync> TokenSink<F> {
    /// A sink cancelled by `token` that forwards reports to `on_report`.
    pub fn new(token: CancelToken, on_report: F) -> Self {
        TokenSink { token, on_report }
    }
}

impl<F: Fn(Phase, f64) + Send + Sync> ProgressSink for TokenSink<F> {
    fn report(&self, phase: Phase, frac: f64) {
        (self.on_report)(phase, frac);
    }

    fn cancelled(&self) -> bool {
        self.token.is_cancelled()
    }
}

/// The bundle the flow threads through its phases: a clock for stats
/// timing plus a progress/cancellation sink.
#[derive(Clone)]
pub struct Observer {
    clock: Arc<dyn Clock>,
    sink: Arc<dyn ProgressSink>,
}

impl Observer {
    /// An observer over explicit clock and sink handles.
    pub fn new(clock: Arc<dyn Clock>, sink: Arc<dyn ProgressSink>) -> Self {
        Observer { clock, sink }
    }

    /// Real clock, no progress reporting, never cancelled — the default
    /// for CLI one-shot runs and existing API entry points.
    pub fn noop() -> Self {
        Observer {
            clock: Arc::new(MonotonicClock::new()),
            sink: Arc::new(NullSink),
        }
    }

    /// Current clock reading.
    pub fn now(&self) -> Duration {
        self.clock.now()
    }

    /// Seconds elapsed since `since` (clamped at zero).
    pub fn seconds_since(&self, since: Duration) -> f64 {
        self.clock.now().saturating_sub(since).as_secs_f64()
    }

    /// Reports phase progress.
    pub fn report(&self, phase: Phase, frac: f64) {
        self.sink.report(phase, frac);
    }

    /// Polls cancellation.
    pub fn cancelled(&self) -> bool {
        self.sink.cancelled()
    }

    /// Returns `Err(Cancelled)` when cancellation has been requested —
    /// the one-liner kernels call at safe points.
    pub fn checkpoint(&self) -> Result<(), Cancelled> {
        if self.cancelled() {
            Err(Cancelled)
        } else {
            Ok(())
        }
    }
}

impl std::fmt::Debug for Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observer").finish_non_exhaustive()
    }
}

impl Default for Observer {
    fn default() -> Self {
        Observer::noop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_is_deterministic() {
        let c = ManualClock::new();
        assert_eq!(c.now(), Duration::ZERO);
        c.advance(Duration::from_millis(250));
        c.advance(Duration::from_millis(250));
        assert_eq!(c.now(), Duration::from_millis(500));
    }

    #[test]
    fn monotonic_clock_is_monotone() {
        let c = MonotonicClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn cancel_token_shares_state_across_clones() {
        let t = CancelToken::new();
        let t2 = t.clone();
        assert!(!t2.is_cancelled());
        t.cancel();
        assert!(t2.is_cancelled());
    }

    #[test]
    fn token_sink_reports_and_cancels() {
        use std::sync::Mutex;
        let token = CancelToken::new();
        let seen: Arc<Mutex<Vec<(Phase, f64)>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let sink = TokenSink::new(token.clone(), move |p, f| {
            seen2.lock().unwrap().push((p, f));
        });
        let obs = Observer::new(Arc::new(ManualClock::new()), Arc::new(sink));
        obs.report(Phase::Global, 0.5);
        assert!(obs.checkpoint().is_ok());
        token.cancel();
        assert_eq!(obs.checkpoint(), Err(Cancelled));
        assert_eq!(seen.lock().unwrap().as_slice(), &[(Phase::Global, 0.5)]);
    }

    #[test]
    fn noop_observer_never_cancels() {
        let obs = Observer::noop();
        obs.report(Phase::Extract, 1.0);
        assert!(!obs.cancelled());
        let t0 = obs.now();
        assert!(obs.seconds_since(t0) >= 0.0);
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            ["extract", "global", "legalize", "detailed", "route"]
        );
    }
}
