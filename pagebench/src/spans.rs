//! In-memory span recording and the statistics the report is built from.
//!
//! A span is one timed call into a layer's public function, recorded from
//! the benchmark's own code around that call. Spans stay in memory until
//! the run ends; a layer's *self time* is its span's duration minus the
//! part of that interval its child spans cover (children may run on other
//! threads, so coverage is an interval union, not a sum).

use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `Kernel::run` or `experiments::fig3`.
    pub name: &'static str,
    /// Index of the trial (work unit) the span belongs to, if any.
    pub trial: Option<u32>,
    /// Benchmark thread that made the call (0 = main).
    pub thread: u32,
    /// Start, in ns since the trace epoch.
    pub start: u64,
    /// End, in ns since the trace epoch.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A shared span log. Spans are opened (reserving their index, so
/// children can name them as parent) and closed by index.
pub struct Trace {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    /// An empty log whose clock starts now.
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `f` as span `name`; `f` receives the new span's index so it
    /// can parent further spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        trial: Option<u32>,
        thread: u32,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = {
            let mut spans = self
                .spans
                .lock()
                .expect("span log poisoned by a panicking thread");
            spans.push(Span {
                name,
                trial,
                thread,
                start: self.now(),
                end: 0,
                parent,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.now();
        self.spans
            .lock()
            .expect("span log poisoned by a panicking thread")[id]
            .end = end;
        out
    }

    /// The recorded spans, in open order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("span log poisoned by a panicking thread")
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            kids[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&kids)
        .map(|(s, kids)| {
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&c| (spans[c].start.max(s.start), spans[c].end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur() - covered
        })
        .collect()
}

/// Median (mean of the two middle values for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, `q_permille` in thousandths; 0 when empty.
pub fn percentile(values: &[f64], q_permille: u32) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q_permille as usize * v.len()).div_ceil(1000).max(1);
    v[rank - 1]
}

/// The highest percentile (in thousandths) with at least ten samples
/// beyond it, from p99.9 down to p75; `None` means only the median is
/// meaningful at this sample count.
pub fn tail_permille(n: usize) -> Option<u32> {
    [999, 990, 950, 900, 750]
        .into_iter()
        .find(|&q| n - (q as usize * n).div_ceil(1000) >= 10)
}

/// The tail value the report prints: the percentile [`tail_permille`]
/// allows, or the median when the sample is too small for a tail.
pub fn tail(values: &[f64]) -> f64 {
    match tail_permille(values.len()) {
        Some(q) => percentile(values, q),
        None => median(values),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, thread: u32, parent: Option<usize>) -> Span {
        Span {
            name: "x",
            trial: None,
            thread,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span(0, 100, 0, None),
            span(10, 30, 0, Some(0)),
            span(40, 90, 0, Some(0)),
            span(50, 60, 0, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_siblings_on_two_threads_count_once() {
        // A main-thread parent whose children ran concurrently on two
        // worker threads: [10,60) and [40,80) cover [10,80), 70 ns.
        let spans = vec![
            span(0, 100, 0, None),
            span(10, 60, 1, Some(0)),
            span(40, 80, 2, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 50, 40]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span(10, 50, 0, None),
            span(0, 20, 1, Some(0)),
            span(45, 90, 2, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40 - 10 - 5);
    }

    #[test]
    fn recorded_spans_nest_and_close() {
        let trace = Trace::new();
        trace.span("outer", None, 0, None, |outer| {
            trace.span("inner", Some(3), 1, Some(outer), |_| ());
        });
        let spans = trace.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].trial, Some(3));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let st = self_times(&spans);
        assert_eq!(st[0] + spans[1].dur(), spans[0].dur());
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_permille(250), Some(950));
        assert_eq!(tail_permille(1200), Some(990));
        assert_eq!(tail_permille(10_000), Some(999));
        for n in 0..11 {
            assert_eq!(tail_permille(n), None, "n={n}");
        }
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&v), median(&v));
    }

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=250).map(f64::from).collect();
        assert_eq!(percentile(&v, 950), 238.0);
        assert_eq!(percentile(&v, 500), 125.0);
    }
}
