//! In-memory span log of a traced run, written out when the run ends.
//!
//! The benchmark records one span around each public call it makes; a
//! search's returned `QueryTrace` is attached below it as child spans
//! (fan-out, then per-shard search, then the scan / screen / verify
//! stages, then the merge). The trace reports durations, not start
//! times, so children are laid out back to back from the fan-out start:
//! their durations are measured, their offsets are a sequential layout.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use promips::obs::QueryTrace;

struct Span {
    id: u64,
    parent: u64,
    op: u64,
    name: &'static str,
    shard: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Records a span and returns its id (ids start at 1; parent 0 is the
    /// root).
    pub fn record(
        &mut self,
        op: u64,
        parent: u64,
        name: &'static str,
        shard: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            shard,
            start_ns,
            end_ns,
        });
        id
    }

    /// Attaches a search's trace as children of the call span `parent`.
    pub fn attach(&mut self, op: u64, parent: u64, trace: &QueryTrace) {
        let start = trace.started_at_ns;
        let end = start + trace.total_ns;
        let fanout = self.record(op, parent, "shard.search", None, start, end);
        let mut t = start;
        for s in trace.shards.iter().filter(|s| !s.pruned) {
            let span = self.record(op, fanout, "shard.span", Some(s.shard), t, t + s.elapsed_ns);
            let mut u = t;
            for (name, ns) in [
                ("core.scan", s.stages.scan_ns),
                ("core.screen", s.stages.screen_ns),
                ("core.verify", s.stages.verify_ns),
            ] {
                self.record(op, span, name, Some(s.shard), u, u + ns);
                u += ns;
            }
            t += s.elapsed_ns;
        }
        self.record(
            op,
            fanout,
            "shard.merge",
            None,
            end - trace.merge_ns.min(trace.total_ns),
            end,
        );
    }

    /// Writes one JSON object per line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let shard = s.shard.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"op":{},"name":"{}","shard":{shard},"start_ns":{},"end_ns":{}}}"#,
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}
