//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each
//! module's public functions (never inside the simulator), kept in memory
//! until the run ends, and folded into per-name self times. A span's self
//! time is its duration minus the durations of its direct children; time
//! inside the traced window that no root span covers is `unattributed`.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary name, e.g. `vm.run`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (run id) the span belongs to.
    pub run: u64,
}

/// Records spans in memory; the epoch is the start of the traced window.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u64,
}

/// Per-name totals of a finished recording.
#[derive(Debug, Default)]
pub struct Summary {
    /// Name → (self ns, calls).
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
    /// Traced wall time not covered by any root span.
    pub unattributed_ns: u64,
    /// The traced window.
    pub wall_ns: u64,
}

impl Summary {
    /// Self time of `name` in milliseconds (0 when never entered).
    #[must_use]
    pub fn self_ms(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |&(ns, _)| ns as f64 / 1e6)
    }

    /// How many spans named `name` were recorded.
    #[must_use]
    pub fn calls(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |&(_, calls)| calls)
    }
}

impl Recorder {
    /// Starts the traced window now.
    #[must_use]
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Tags the spans entered from now on with operation `run`.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order (a bug in the caller).
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans closed out of order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// All spans recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Ends the traced window and folds the spans into self times.
    ///
    /// # Errors
    ///
    /// A description of the first inconsistency: a span left open, a
    /// child outside its parent, overlapping siblings, or self times plus
    /// unattributed time that do not add up to the traced wall time.
    pub fn finish(self) -> Result<Summary, String> {
        let wall_ns = self.now_ns();
        if !self.open.is_empty() {
            return Err(format!("{} spans left open", self.open.len()));
        }
        let mut child_ns = vec![0u64; self.spans.len()];
        // Spans are pushed in start order, so the previous sibling of a
        // span is the last earlier span with the same parent.
        let mut last_end: BTreeMap<Option<usize>, u64> = BTreeMap::new();
        let mut roots_ns = 0u64;
        for s in &self.spans {
            if s.end_ns < s.start_ns || s.end_ns > wall_ns {
                return Err(format!("span {} ends outside the window", s.name));
            }
            let prev = last_end.insert(s.parent, s.end_ns).unwrap_or(0);
            if s.start_ns < prev {
                return Err(format!("span {} overlaps its previous sibling", s.name));
            }
            let dur = s.end_ns - s.start_ns;
            match s.parent {
                Some(p) => {
                    let parent = &self.spans[p];
                    if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                        return Err(format!("span {} escapes parent {}", s.name, parent.name));
                    }
                    child_ns[p] += dur;
                }
                None => roots_ns += dur,
            }
        }
        let mut out = Summary {
            wall_ns,
            unattributed_ns: wall_ns - roots_ns,
            ..Summary::default()
        };
        for (s, children) in self.spans.iter().zip(child_ns) {
            let e = out.by_name.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns) - children;
            e.1 += 1;
        }
        let total: u64 = out.by_name.values().map(|&(ns, _)| ns).sum::<u64>() + out.unattributed_ns;
        if total != wall_ns {
            return Err(format!(
                "self times + unattributed = {total} ns, traced wall = {wall_ns} ns"
            ));
        }
        Ok(out)
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_adds_up() {
        let mut rec = Recorder::new();
        rec.set_run(7);
        let outer = rec.enter("outer");
        rec.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        rec.exit(outer);
        assert!(rec.spans().iter().all(|s| s.run == 7));
        assert_eq!(rec.spans()[1].parent, Some(outer));
        let s = rec.finish().unwrap();
        assert_eq!(s.calls("inner"), 2);
        assert!(s.self_ms("inner") >= 3.0);
        assert!(s.self_ms("outer") < s.self_ms("inner"));
        let sum: u64 = s.by_name.values().map(|v| v.0).sum();
        assert_eq!(sum + s.unattributed_ns, s.wall_ns);
    }

    #[test]
    fn open_span_is_an_error() {
        let mut rec = Recorder::new();
        rec.enter("dangling");
        assert!(rec.finish().is_err());
    }
}
