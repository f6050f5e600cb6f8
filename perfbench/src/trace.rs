//! The benchmark's own spans, self-time arithmetic, layer accounting and the
//! merged Chrome-trace export.
//!
//! Spans are recorded from the benchmark's side of each call into a layer.
//! They share the clock of the run's `Obs` hub, so the program's own events
//! (Instr, Kernel, FCall, SpillWrite/Restore, PersistWrite, ...) nest inside
//! them on the same thread lane and one trace file holds both.

use lima_core::obs::EventKind;
use lima_core::{Event, Obs};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One span recorded by the benchmark.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Enclosing span id; 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub lane: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records nested spans for one thread. A disabled tracer records nothing;
/// its `begin`/`end` cost a branch.
pub struct Tracer {
    clock: Option<Arc<Obs>>,
    lane: u64,
    next_id: u64,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

/// Token returned by [`Tracer::begin`].
#[derive(Clone, Copy)]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn disabled() -> Tracer {
        Tracer {
            clock: None,
            lane: 0,
            next_id: 1,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A tracer on `lane` using `obs`'s clock; span ids start at `first_id`
    /// so tracers on several threads never collide.
    pub fn new(obs: &Arc<Obs>, lane: u64, first_id: u64) -> Tracer {
        Tracer {
            clock: Some(Arc::clone(obs)),
            lane,
            next_id: first_id,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let Some(clock) = &self.clock else {
            return Open(None);
        };
        let parent = self.stack.last().map_or(0, |&i| self.spans[i].id);
        self.spans.push(Span {
            id: self.next_id,
            parent,
            name,
            lane: self.lane,
            start_ns: clock.now_ns(),
            end_ns: 0,
        });
        self.next_id += 1;
        self.stack.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, open: Open) {
        let (Some(clock), Some(idx)) = (&self.clock, open.0) else {
            return;
        };
        self.spans[idx].end_ns = clock.now_ns().max(self.spans[idx].start_ns + 1);
        if self.stack.last() == Some(&idx) {
            self.stack.pop();
        }
    }
}

/// A closed interval on a thread lane, for self-time arithmetic.
#[derive(Clone, Copy, Debug)]
pub struct Interval {
    pub lane: u64,
    pub start: u64,
    pub end: u64,
}

/// Self time of each interval: its duration minus the part covered by the
/// intervals directly nested in it on the same lane. Intervals that
/// straddle an enclosing one are clipped to it.
pub fn self_times(spans: &[Interval]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| {
        (
            spans[i].lane,
            spans[i].start,
            std::cmp::Reverse(spans[i].end),
        )
    });
    let mut covered = vec![0u64; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        let s = spans[i];
        while let Some(&top) = stack.last() {
            let t = spans[top];
            if t.lane != s.lane || t.end <= s.start {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&top) = stack.last() {
            covered[top] += s.end.min(spans[top].end) - s.start;
        }
        stack.push(i);
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end - s.start).saturating_sub(c))
        .collect()
}

/// The layer a span's self time is charged to. The names are the
/// repository's modules.
pub fn layer_of_bench(name: &str) -> &'static str {
    match name {
        "compile" => "lang",
        "ctx_setup" | "exec" | "teardown" => "runtime",
        _ => "bench",
    }
}

pub fn layer_of_event(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Kernel => "matrix",
        EventKind::SpillWrite | EventKind::SpillRestore | EventKind::PersistWrite => {
            "core.cache.io"
        }
        _ => "runtime",
    }
}

/// Program events and benchmark spans of one traced run, with self times.
pub struct TracedRun {
    pub run_id: u64,
    pub spans: Vec<Span>,
    pub events: Vec<(u64, Event)>,
    /// Self time per span, aligned with `spans`.
    pub span_self: Vec<u64>,
    /// Self time per event (0 for instants), aligned with `events`.
    pub event_self: Vec<u64>,
    pub dropped_events: u64,
}

impl TracedRun {
    pub fn new(run_id: u64, spans: Vec<Span>, events: Vec<(u64, Event)>, dropped: u64) -> Self {
        let mut iv: Vec<Interval> = spans
            .iter()
            .map(|s| Interval {
                lane: s.lane,
                start: s.start_ns,
                end: s.end_ns,
            })
            .collect();
        let event_idx: Vec<usize> = (0..events.len())
            .filter(|&i| events[i].1.dur_ns > 0)
            .collect();
        iv.extend(event_idx.iter().map(|&i| {
            let (tid, ev) = &events[i];
            Interval {
                lane: *tid,
                start: ev.ts_ns,
                end: ev.ts_ns + ev.dur_ns,
            }
        }));
        let selfs = self_times(&iv);
        let mut event_self = vec![0u64; events.len()];
        for (k, &i) in event_idx.iter().enumerate() {
            event_self[i] = selfs[spans.len() + k];
        }
        TracedRun {
            run_id,
            span_self: selfs[..spans.len()].to_vec(),
            spans,
            events,
            event_self,
            dropped_events: dropped,
        }
    }

    /// Total duration (ns) of the benchmark spans named `name`.
    pub fn span_total(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// (count, total duration ns, total self ns) of program events of `kind`.
    pub fn event_totals(&self, kind: EventKind) -> (u64, u64, u64) {
        self.events
            .iter()
            .zip(&self.event_self)
            .filter(|((_, e), _)| e.kind == kind)
            .fold((0, 0, 0), |(n, d, s), ((_, e), &es)| {
                (n + 1, d + e.dur_ns, s + es)
            })
    }

    /// Self time (ns) per layer, summed over spans and events.
    pub fn layer_self(&self) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (s, &ns) in self.spans.iter().zip(&self.span_self) {
            *out.entry(layer_of_bench(s.name)).or_default() += ns;
        }
        for ((_, e), &ns) in self.events.iter().zip(&self.event_self) {
            *out.entry(layer_of_event(e.kind)).or_default() += ns;
        }
        out
    }

    /// Chrome `trace_event` JSON holding both the benchmark's spans and the
    /// program's events; every event carries the run id.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::with_capacity((self.spans.len() + self.events.len()) * 150 + 64);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !first {
                out.push(',');
            }
            first = false;
        };
        for s in &self.spans {
            sep(&mut out);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"run_id\":{},\"span_id\":{},\"parent\":{}}}}}",
                s.name,
                s.lane,
                s.start_ns as f64 / 1000.0,
                (s.end_ns - s.start_ns) as f64 / 1000.0,
                self.run_id,
                s.id,
                s.parent
            ));
        }
        for (tid, ev) in &self.events {
            sep(&mut out);
            let name: String = ev
                .name
                .as_str()
                .chars()
                .filter(|c| !c.is_control() && *c != '"' && *c != '\\')
                .collect();
            out.push_str(&format!(
                "{{\"name\":\"{name}\",\"cat\":\"{}\",\"ph\":\"{}\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3}",
                ev.kind.cat(),
                if ev.dur_ns > 0 { "X" } else { "i" },
                ev.ts_ns as f64 / 1000.0
            ));
            if ev.dur_ns > 0 {
                out.push_str(&format!(",\"dur\":{:.3}", ev.dur_ns as f64 / 1000.0));
            } else {
                out.push_str(",\"s\":\"t\"");
            }
            out.push_str(&format!(
                ",\"args\":{{\"run_id\":{},\"lineage_id\":{},\"a\":{},\"b\":{}}}}}",
                self.run_id, ev.lineage_id, ev.a, ev.b
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Writes the merged trace; returns its event count. The file is checked
/// with the program's own validators by the self-tests only: their JSON
/// reader re-validates UTF-8 over the rest of the input for every string
/// character, which is quadratic in the file size.
pub fn write_trace(run: &TracedRun, path: &std::path::Path) -> Result<usize, String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, run.chrome_trace()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(run.spans.len() + run.events.len())
}

/// Checks a trace file with `validate_chrome_trace` and `check_span_nesting`.
#[cfg(test)]
pub fn check_trace_file(path: &std::path::Path) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let summary = lima_core::obs::validate_chrome_trace(&text)?;
    lima_core::obs::check_span_nesting(&summary)?;
    Ok(summary.total_events)
}

/// Binds the calling thread to a ring of `obs` and returns that ring's
/// lane id, so benchmark spans on this thread share the program's lane.
pub fn bind_lane(obs: &Obs) -> u64 {
    obs.record_instant(EventKind::SessionStart, "perfbench", 0, 0, 0);
    obs.events()
        .iter()
        .rev()
        .find(|(_, e)| e.name.as_str() == "perfbench")
        .map_or(0, |(tid, _)| *tid)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lane: u64, start: u64, end: u64) -> Interval {
        Interval { lane, start, end }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) > a [10,50) > b [20,30); c [60,70) directly in root.
        let s = [iv(1, 0, 100), iv(1, 10, 50), iv(1, 20, 30), iv(1, 60, 70)];
        assert_eq!(self_times(&s), vec![100 - 40 - 10, 40 - 10, 10, 10]);
    }

    #[test]
    fn self_time_keeps_lanes_apart_and_clips_straddlers() {
        let s = [iv(1, 0, 10), iv(2, 2, 8), iv(1, 5, 15)];
        let t = self_times(&s);
        assert_eq!(t[1], 6, "other lane is not a child");
        assert_eq!(t[0], 5, "straddling span clipped to its parent");
        assert_eq!(t[2], 10);
        // Self times of a properly nested lane sum to the root's duration.
        let nested = [iv(3, 0, 90), iv(3, 5, 40), iv(3, 6, 7), iv(3, 50, 89)];
        assert_eq!(self_times(&nested).iter().sum::<u64>(), 90);
    }

    #[test]
    fn trace_file_passes_program_validators() {
        let obs = Arc::new(Obs::with_capacity(1024));
        let lane = bind_lane(&obs);
        let mut t = Tracer::new(&obs, lane, 1);
        let run = t.begin("run");
        let exec = t.begin("exec");
        let k0 = obs.now_ns();
        std::thread::sleep(std::time::Duration::from_micros(50));
        obs.record_span(EventKind::Kernel, "tsmm", 7, k0, 0, 0);
        t.end(exec);
        t.end(run);
        let events = obs.events();
        let traced = TracedRun::new(9, t.spans.clone(), events, obs.dropped());
        assert_eq!(t.spans[1].parent, t.spans[0].id);
        let (n, dur, own) = traced.event_totals(EventKind::Kernel);
        assert_eq!((n, dur), (1, own));
        let layers = traced.layer_self();
        let total: u64 = layers.values().sum();
        assert_eq!(total, t.spans[0].end_ns - t.spans[0].start_ns);
        let path = std::env::temp_dir().join(format!("perfbench-test-{}.json", std::process::id()));
        let written = write_trace(&traced, &path).expect("trace written");
        let events = check_trace_file(&path).expect("valid, nested trace");
        std::fs::remove_file(&path).ok();
        assert_eq!(
            events, 4,
            "two bench spans, one kernel span, one lane marker"
        );
        assert_eq!(written, events);
    }
}
