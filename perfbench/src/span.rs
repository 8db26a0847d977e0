//! Host-time spans recorded in memory around the harness's calls into
//! each layer of the program.
//!
//! A disabled recorder calls straight through, so the untraced runs
//! that produce the end-to-end metrics read no clock per call. An
//! enabled one keeps every span (layer, start, end, parent) until the
//! run summarizes them; a layer's self time is its spans' duration
//! minus the part their child spans cover. A calibrated recorder also
//! times each top-level span in calibrated ns (see [`crate::clock`]).

use std::sync::Mutex;
use std::time::Instant;

use crate::clock::Laps;

/// A layer the harness calls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `TpchData::generate_seeded`.
    Generate,
    /// The hand-written Q100 graph builders of `q100_tpch::queries`.
    GraphBuild,
    /// `q100_core::execute_lean` (the functional executor).
    Execute,
    /// `q100_dbms::run` (the software baseline).
    Dbms,
    /// `Q100Device::new`.
    DeviceBuild,
    /// `ScheduleCache::get_or_schedule` on a key's first sight.
    Sched,
    /// `PlanCache::get_or_compile`: compile on a miss, lookup on a hit.
    Plan,
    /// One timing-kernel simulation.
    Timing,
    /// `run_service_on`.
    Serve,
    /// The harness's calibration loop, where it runs inside another span.
    Clock,
}

impl Layer {
    /// The number of layers.
    const COUNT: usize = Layer::Clock as usize + 1;

    fn index(self) -> usize {
        self as usize
    }
}

/// One recorded span, in nanoseconds since the recorder was made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer called.
    pub layer: Layer,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's duration.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Default)]
struct Log {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// The span recorder. `Sync`, so the serve layer's worker callbacks can
/// record into it; the harness itself runs on one thread.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    log: Option<Mutex<Log>>,
    /// Calibrated time of each top-level span, when asked for.
    laps: Option<Mutex<Laps>>,
}

impl Spans {
    /// A recorder that records nothing.
    #[must_use]
    pub fn off() -> Self {
        Spans { epoch: Instant::now(), log: None, laps: None }
    }

    /// A recorder that keeps every span.
    #[must_use]
    pub fn on() -> Self {
        Spans { epoch: Instant::now(), log: Some(Mutex::default()), laps: None }
    }

    /// A recorder that keeps every span and times each top-level span in
    /// calibrated ns; the calibration loop runs between top-level spans.
    #[must_use]
    pub fn calibrated() -> Self {
        Spans { laps: Some(Mutex::new(Laps::start())), ..Spans::on() }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.log.is_some()
    }

    /// Runs `f` inside a span of `layer`. The span closes even if `f`
    /// unwinds, so a caught panic leaves the nesting intact.
    pub fn time<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let Some(log) = &self.log else { return f() };
        {
            let mut log = log.lock().expect("span log poisoned by a panic while recording");
            if log.open.is_empty() {
                if let Some(laps) = &self.laps {
                    laps.lock().expect("span timer poisoned").skip();
                }
            }
            let start_ns = self.now_ns();
            let parent = log.open.last().copied();
            let index = log.spans.len();
            log.spans.push(Span { layer, start_ns, end_ns: start_ns, parent });
            log.open.push(index);
        }
        let _close = Close { spans: self };
        f()
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        self.log.as_ref().map_or_else(Vec::new, |log| {
            std::mem::take(&mut log.lock().expect("span log poisoned").spans)
        })
    }

    /// Removes and returns the calibrated time of each top-level span
    /// closed so far, in ns (empty unless [`Spans::calibrated`]).
    pub fn take_laps(&self) -> Vec<u64> {
        self.laps
            .as_ref()
            .map_or_else(Vec::new, |laps| laps.lock().expect("span timer poisoned").take().0)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Closes the innermost open span when dropped.
struct Close<'a> {
    spans: &'a Spans,
}

impl Drop for Close<'_> {
    fn drop(&mut self) {
        let end_ns = self.spans.now_ns();
        let Some(log) = &self.spans.log else { return };
        // Never panic in drop: a poisoned log only loses this span's end.
        if let Ok(mut log) = log.lock() {
            if let Some(index) = log.open.pop() {
                log.spans[index].end_ns = end_ns;
            }
            if log.open.is_empty() {
                if let Some(Ok(mut laps)) = self.spans.laps.as_ref().map(Mutex::lock) {
                    laps.lap();
                }
            }
        }
    }
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTimes {
    busy_ns: [u64; Layer::COUNT],
    self_ns: [u64; Layer::COUNT],
}

impl LayerTimes {
    /// Sums `spans` per layer: busy time, and self time (busy time minus
    /// the time of direct child spans).
    #[must_use]
    pub fn of(spans: &[Span]) -> Self {
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.duration_ns();
            }
        }
        let mut t = LayerTimes::default();
        for (span, &children) in spans.iter().zip(&child_ns) {
            let i = span.layer.index();
            t.busy_ns[i] += span.duration_ns();
            t.self_ns[i] += span.duration_ns().saturating_sub(children);
        }
        t
    }

    /// Total time inside `layer`, in seconds.
    #[must_use]
    pub fn busy_s(&self, layer: Layer) -> f64 {
        self.busy_ns[layer.index()] as f64 * 1e-9
    }

    /// Time inside `layer` but outside its child spans, in seconds.
    #[must_use]
    pub fn self_s(&self, layer: Layer) -> f64 {
        self.self_ns[layer.index()] as f64 * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let spans = Spans::off();
        assert_eq!(spans.time(Layer::Timing, || 7), 7);
        assert!(spans.take().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let spans = Spans::on();
        spans.time(Layer::Serve, || {
            spans.time(Layer::Timing, || std::thread::sleep(std::time::Duration::from_millis(2)));
            spans.time(Layer::Timing, || ());
        });
        let log = spans.take();
        assert_eq!(log.len(), 3);
        assert_eq!(log[1].parent, Some(0));
        let t = LayerTimes::of(&log);
        assert!(t.busy_s(Layer::Timing) >= 0.002);
        assert!(t.busy_s(Layer::Serve) >= t.busy_s(Layer::Timing));
        let expect = t.busy_s(Layer::Serve) - t.busy_s(Layer::Timing);
        assert!((t.self_s(Layer::Serve) - expect).abs() < 1e-9);
    }

    #[test]
    fn unwinding_closes_the_span() {
        let spans = Spans::on();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            spans.time(Layer::Plan, || panic!("boom"));
        }));
        assert!(caught.is_err());
        spans.time(Layer::Sched, || ());
        let log = spans.take();
        assert_eq!(log[1].parent, None, "the panicked span must not stay open");
    }

    #[test]
    fn calibrated_recorder_times_top_level_spans() {
        let spans = Spans::calibrated();
        spans.time(Layer::Generate, || spans.time(Layer::Execute, || ()));
        spans.time(Layer::Dbms, || ());
        assert_eq!(spans.take().len(), 3);
        assert_eq!(spans.take_laps().len(), 2);
        assert!(Spans::on().take_laps().is_empty());
    }
}
