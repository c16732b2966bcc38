//! Span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer, kept in memory and written out when the run ends. A span's
//! self time is its duration minus the durations of its direct
//! children. For children nested inside the parent's interval that is
//! the part of the interval they cover; a child may also be a re-run of
//! work the parent contained (the router's worker is mirrored by a
//! builder the benchmark runs after each batch), in which case it lies
//! after the parent and stands in for that work.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the recorder, if any.
    pub parent: Option<usize>,
    /// Query or replication id.
    pub id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The instant span times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        id: u64,
    ) -> usize {
        debug_assert!(end_ns >= start_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one CSV line `name,start_ns,end_ns,parent,id`
    /// (parent `-1` for roots).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "name,start_ns,end_ns,parent,id")?;
        for s in &self.spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                "{},{},{},{},{}",
                s.name, s.start_ns, s.end_ns, parent, s.id
            )?;
        }
        w.flush()
    }
}

/// Self time of every span, in recording order: duration minus the sum
/// of its direct children's durations (negative when mirrored children
/// ran slower than the work they stand in for).
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut own: Vec<i64> = spans.iter().map(|s| s.dur_ns() as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur_ns() as i64;
        }
    }
    own
}

/// Summed self time and count of the spans named `name`.
pub fn self_time_of(spans: &[Span], name: &str) -> (i64, usize) {
    let own = self_times(spans);
    spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == name)
        .fold((0, 0), |(t, n), (_, &o)| (t + o, n + 1))
}

/// Mean duration in microseconds of the spans named `name`, with their
/// count (0 and 0 when none were recorded).
pub fn mean_us(spans: &[Span], name: &str) -> (f64, usize) {
    let (sum, n) = spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0usize), |(t, n), s| (t + s.dur_ns(), n + 1));
    if n == 0 {
        (0.0, 0)
    } else {
        (sum as f64 / n as f64 / 1e3, n)
    }
}

/// Summed duration in microseconds of the spans named `name`.
pub fn total_us(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns())
        .sum::<u64>() as f64
        / 1e3
}

/// Mean difference in microseconds between spans named `name` and the
/// spans with the same id whose name is in `base`, over the ids where
/// both exist, with the number of such pairs.
pub fn mean_diff_us(spans: &[Span], name: &str, base: &[&str]) -> (f64, usize) {
    let base_dur: HashMap<u64, u64> = spans
        .iter()
        .filter(|s| base.contains(&s.name))
        .map(|s| (s.id, s.dur_ns()))
        .collect();
    let (sum, n) = spans
        .iter()
        .filter(|s| s.name == name)
        .filter_map(|s| base_dur.get(&s.id).map(|&b| s.dur_ns() as i64 - b as i64))
        .fold((0i64, 0usize), |(t, n), d| (t + d, n + 1));
    if n == 0 {
        (0.0, 0)
    } else {
        (sum as f64 / n as f64 / 1e3, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 0, 100, None),       // 0
            span("a", 10, 30, Some(0)),       // 1
            span("b", 40, 70, Some(0)),       // 2
            span("b.inner", 45, 55, Some(2)), // 3: a grandchild of root
            span("other", 200, 260, None),    // 4
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10, 60]);
        assert_eq!(self_time_of(&spans, "root"), (50, 1));
        assert_eq!(self_time_of(&spans, "missing"), (0, 0));
    }

    #[test]
    fn mirrored_children_stand_in_for_contained_work() {
        // A 100 ns batch whose contained work is re-run after it as two
        // 30 ns children: 40 ns remain as the batch's own time.
        let spans = vec![
            span("batch", 0, 100, None),
            span("query", 100, 130, Some(0)),
            span("query", 130, 160, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40);
        // Children slower than the parent give a negative self time.
        let slow = vec![span("batch", 0, 10, None), span("q", 10, 40, Some(0))];
        assert_eq!(self_times(&slow)[0], -20);
    }

    #[test]
    fn means_and_paired_differences() {
        let mut spans = vec![
            span("x", 0, 3_000, None),
            span("x", 0, 5_000, None),
            span("base", 0, 1_000, None),
        ];
        spans[1].id = 1;
        spans[2].id = 1;
        assert_eq!(mean_us(&spans, "x"), (4.0, 2));
        assert_eq!(mean_us(&spans, "none"), (0.0, 0));
        assert_eq!(total_us(&spans, "x"), 8.0);
        // Only id 1 has both spans: 5 µs − 1 µs.
        assert_eq!(mean_diff_us(&spans, "x", &["base"]), (4.0, 1));
    }
}
