//! In-memory spans around the benchmark's calls into each layer, written
//! out as Chrome trace-event JSON when the run ends.
//!
//! A span's layer is its name up to the first `.` (`tune.lookup` belongs
//! to `tune`). Spans on the benchmark thread (`tid` 0) nest strictly;
//! spans placed after the fact from device timestamps (`tid` 1) describe
//! work that overlaps other requests, so their self times are summed
//! separately.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Track of the benchmark's own thread.
pub const HOST: u32 = 0;
/// Track of device-side intervals reconstructed from event timestamps.
pub const DEVICE: u32 = 1;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    /// Request the span belongs to; 0 when it belongs to none.
    pub req: u64,
    pub tid: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span on the host track, nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            req,
            tid: HOST,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end = self.ns(Instant::now());
        self.spans[idx].end = end;
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(idx), "spans must close innermost first");
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, req);
        let r = f();
        self.end(open);
        r
    }

    /// Records a finished interval, e.g. one reconstructed from device
    /// timestamps, under `parent`. Returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        (start, end): (Instant, Instant),
        parent: Option<usize>,
        req: u64,
        tid: u32,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start = self.ns(start);
        let end = self.ns(end).max(start);
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
            tid,
        });
        Some(self.spans.len() - 1)
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64 * 1e-9)
            .collect()
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children on the same track cover (children clipped to the parent,
/// overlaps merged).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if parent.tid == s.tid && a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Summed self time in seconds per (track, layer).
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<(u32, &'static str), f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry((s.tid, s.layer())).or_insert(0.0) += t as f64 * 1e-9;
    }
    out
}

/// Chrome trace-event JSON of `spans`, with the per-layer self-time
/// summary under `otherData`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{i},\"parent\":{},\"req\":{}}}}}",
            s.name,
            s.layer(),
            s.start as f64 / 1e3,
            s.dur() as f64 / 1e3,
            s.tid,
            s.parent.map_or(-1, |p| p as i64),
            s.req
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"self_time_s\":{");
    for (i, ((tid, layer), secs)) in layer_self_times(spans).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let track = if *tid == HOST { "host" } else { "device" };
        let _ = write!(out, "\"{track}.{layer}\":{secs:.9}");
    }
    out.push_str("}}}\n");
    out
}

/// Minimal JSON check for the tests: exactly one well-formed value.
#[cfg(test)]
pub fn parses(text: &str) -> bool {
    fn ws(b: &[u8], mut i: usize) -> usize {
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        i
    }
    fn value(b: &[u8], i: usize) -> Option<usize> {
        let i = ws(b, i);
        match *b.get(i)? {
            b'{' => {
                let mut i = ws(b, i + 1);
                if b.get(i) == Some(&b'}') {
                    return Some(i + 1);
                }
                loop {
                    i = string(b, ws(b, i))?;
                    i = ws(b, i);
                    if b.get(i) != Some(&b':') {
                        return None;
                    }
                    i = ws(b, value(b, i + 1)?);
                    match b.get(i)? {
                        b',' => i += 1,
                        b'}' => return Some(i + 1),
                        _ => return None,
                    }
                }
            }
            b'[' => {
                let mut i = ws(b, i + 1);
                if b.get(i) == Some(&b']') {
                    return Some(i + 1);
                }
                loop {
                    i = ws(b, value(b, i)?);
                    match b.get(i)? {
                        b',' => i += 1,
                        b']' => return Some(i + 1),
                        _ => return None,
                    }
                }
            }
            b'"' => string(b, i),
            _ => {
                let end = (i..b.len())
                    .find(|&j| !matches!(b[j], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                    .unwrap_or(b.len());
                std::str::from_utf8(&b[i..end])
                    .ok()?
                    .parse::<f64>()
                    .ok()
                    .map(|_| end)
            }
        }
    }
    fn string(b: &[u8], i: usize) -> Option<usize> {
        if b.get(i) != Some(&b'"') {
            return None;
        }
        let mut i = i + 1;
        loop {
            match *b.get(i)? {
                b'"' => return Some(i + 1),
                b'\\' => i += 2,
                _ => i += 1,
            }
        }
    }
    let b = text.as_bytes();
    value(b, 0).is_some_and(|end| ws(b, end) == b.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_trace() -> Tracer {
        let mut t = Tracer::new(true);
        let root = t.begin("bench.phase", 0);
        for req in 1..=3 {
            let admit = t.begin("gen.admit", req);
            t.span("tune.lookup", req, || {
                std::thread::sleep(Duration::from_micros(200))
            });
            let queued = Instant::now();
            t.span("queue.enqueue", req, || {
                std::thread::sleep(Duration::from_micros(100))
            });
            t.end(admit);
            // Device work overlaps the admission span it hangs under.
            t.record(
                "engine.exec",
                (queued, queued + Duration::from_millis(2)),
                admit.0,
                req,
                DEVICE,
            );
        }
        t.end(root);
        t
    }

    #[test]
    fn trace_json_parses() {
        let t = sample_trace();
        let json = chrome_json(t.spans());
        assert!(parses(&json), "{json}");
        assert!(json.contains("\"traceEvents\""));
        assert!(!parses("{\"a\":[1,2,}"));
    }

    #[test]
    fn self_times_never_exceed_their_parent_spans() {
        let t = sample_trace();
        let spans = t.spans();
        let own = self_times(spans);
        for (i, s) in spans.iter().enumerate() {
            assert!(own[i] <= s.dur(), "{}", s.name);
            if let Some(p) = s.parent.filter(|&p| spans[p].tid == s.tid) {
                assert!(own[i] <= spans[p].dur(), "{}", s.name);
                // Children's self times together fit in the parent.
                let kids: u64 = spans
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.parent == Some(p) && c.tid == spans[p].tid)
                    .map(|(j, _)| own[j])
                    .sum();
                assert!(kids <= spans[p].dur(), "{}", spans[p].name);
            }
        }
        // Host-track self times add up exactly to the root span.
        let root = spans.iter().find(|s| s.parent.is_none()).unwrap();
        let host: u64 = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.tid == HOST)
            .map(|(_, t)| t)
            .sum();
        assert_eq!(host, root.dur());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let o = t.begin("x.y", 1);
        t.end(o);
        let now = Instant::now();
        assert!(t.record("x.z", (now, now), None, 1, DEVICE).is_none());
        assert!(t.spans().is_empty());
    }
}
