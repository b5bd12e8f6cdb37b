//! Metric assembly and output: the end-to-end and per-layer metrics, the
//! traced run's report, the determinism fingerprint, and the final JSON
//! line.

use std::fmt::Write as _;
use std::path::Path;

use crate::check::Checker;
use crate::cli::Args;
use crate::counters::Counters;
use crate::session::{QueryTotals, Scores, Session};
use crate::stats;
use crate::workload::Workload;
use crate::OUT_DIR;

/// A named metric value.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn json(&self, correct: bool) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // A failed run can leave a metric without samples (NaN).
            let value = if x.value.is_finite() {
                format!("{:?}", x.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                m,
                r#"{sep}"{}": {{"value": {value}, "unit": "{}"}}"#,
                x.name, x.unit
            );
        }
        format!(
            r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{m}}}}}"#,
            self.attempted.max(1),
            self.failed
        )
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub struct MetricInputs<'a> {
    pub w: Workload,
    pub s: &'a Session,
    pub setup_s: f64,
    pub index_bytes: u64,
    pub scores: &'a Scores,
    /// Scored queries (deterministic funnel counts).
    pub funnel: &'a QueryTotals,
    /// Timed queries (steady-state cache behaviour).
    pub timed: &'a QueryTotals,
    pub live_bytes: f64,
    pub space_bytes: u64,
    pub wal_bytes: u64,
    /// Registry deltas from the end of set-up to the end of the run.
    pub ops: Counters,
    pub build_writes: u64,
}

/// The end-to-end and per-layer metrics of a run. Write-path latencies
/// and compaction time are printed as text lines only (see the README).
pub fn metrics(m: MetricInputs) -> (Vec<Metric>, Vec<Metric>) {
    let s = m.s;
    let lat = &s.lat;
    let qt = stats::tail(&lat.query);
    println!(
        "  query tail: p{} of {} samples ({} beyond)",
        qt.pct, qt.samples, qt.beyond
    );
    // The closed-loop client's untraced searches, inserts and deletes over
    // the time spent in them (compaction passes excluded).
    let ops = lat.query.len() + lat.insert.len() + lat.delete.len();
    let busy_s: f64 = lat
        .query
        .iter()
        .chain(&lat.insert)
        .chain(&lat.delete)
        .sum::<f64>()
        / 1e9;
    let sc = m.scores;
    let f = m.funnel;
    let fq = f.n as f64;
    let e2e = vec![
        metric("setup_s", m.setup_s, "s"),
        metric("query_p50_ms", ms(stats::median(&lat.query)), "ms"),
        metric("query_tail_ms", ms(qt.value), "ms"),
        metric("ops_per_s", ratio(ops as f64, busy_s), "ops/s"),
        metric("recall_at_10", sc.recall / sc.n as f64, "fraction"),
        metric("overall_ratio", sc.ratio / sc.n as f64, "fraction"),
        metric(
            "guarantee_rate",
            sc.guaranteed as f64 / sc.n as f64,
            "fraction",
        ),
        metric("pages_per_query", f.pager_reads as f64 / fq, "pages"),
        metric("index_bytes", m.index_bytes as f64, "bytes"),
        metric("space_amp", m.space_bytes as f64 / m.live_bytes, "ratio"),
    ];
    if !m.w.is_read() {
        let it = stats::tail(&lat.insert);
        let compact_s = lat.compact.iter().sum::<f64>() / 1e9;
        println!("  write path (printed, not gated):");
        println!("    insert_p50_ms  {:?} ms", ms(stats::median(&lat.insert)));
        println!(
            "    insert_tail_ms {:?} ms (p{} of {} samples, {} beyond)",
            ms(it.value),
            it.pct,
            it.samples,
            it.beyond
        );
        println!("    delete_p50_ms  {:?} ms", ms(stats::median(&lat.delete)));
        println!(
            "    compact_s      {compact_s:?} s over {} passes",
            lat.compact.len()
        );
        println!(
            "    shard.compact_ns_per_shard {:?} ns",
            ratio(compact_s * 1e9, m.ops.compactions as f64)
        );
    }

    let tr = &s.trace;
    let tn = tr.n as f64;
    let t = m.timed;
    let o = &m.ops;
    let p50 = stats::median(&lat.query);
    let p50_traced = stats::median(&lat.query_traced);
    let per_layer = vec![
        metric(
            "shard.self_ns",
            ratio(tr.total_ns.saturating_sub(tr.span_ns) as f64, tn),
            "ns",
        ),
        metric("shard.merge_ns", ratio(tr.merge_ns as f64, tn), "ns"),
        metric("shard.span_max_ns", ratio(tr.span_max_ns as f64, tn), "ns"),
        metric(
            "shard.pruned_frac",
            ratio(f.reg.pruned as f64, (f.reg.pruned + f.reg.searched) as f64),
            "fraction",
        ),
        metric(
            "shard.delta_rows_per_query",
            f.delta_rows as f64 / fq,
            "rows",
        ),
        metric("shard.compactions", o.compactions as f64, "count"),
        metric("core.scan_ns", ratio(tr.scan_ns as f64, tn), "ns"),
        metric("core.screen_ns", ratio(tr.screen_ns as f64, tn), "ns"),
        metric("core.verify_ns", ratio(tr.verify_ns as f64, tn), "ns"),
        metric(
            "core.stage_coverage",
            ratio(
                (tr.scan_ns + tr.screen_ns + tr.verify_ns) as f64,
                tr.span_ns as f64,
            ),
            "fraction",
        ),
        metric(
            "core.screened_per_query",
            f.reg.screened as f64 / fq,
            "rows",
        ),
        metric(
            "core.verified_per_query",
            f.reg.verified as f64 / fq,
            "rows",
        ),
        metric(
            "core.screen_reject_frac",
            ratio(
                f.reg.screened as f64,
                (f.reg.screened + f.reg.verified) as f64,
            ),
            "fraction",
        ),
        metric(
            "idistance.scanned_per_query",
            f.reg.scanned as f64 / fq,
            "rows",
        ),
        metric(
            "idistance.candidate_frac",
            ratio(f.reg.scanned as f64, f.live as f64),
            "fraction",
        ),
        metric(
            "storage.page_reads_per_query",
            f.reg.page_reads as f64 / fq,
            "pages",
        ),
        metric(
            "storage.cache_hit_frac",
            ratio(
                t.reg.cache_hits as f64,
                (t.reg.cache_hits + t.reg.cache_misses) as f64,
            ),
            "fraction",
        ),
        metric(
            "storage.cache_misses_per_query",
            ratio(t.reg.cache_misses as f64, t.n as f64),
            "pages",
        ),
        metric(
            "storage.page_writes",
            (m.build_writes + o.page_writes) as f64,
            "pages",
        ),
        metric("storage.fsyncs", o.fsyncs as f64, "count"),
        metric("storage.io_retries", o.io_retries as f64, "count"),
        metric("wal.appends", o.wal_appends as f64, "count"),
        metric("wal.syncs", o.wal_syncs as f64, "count"),
        metric(
            "wal.appends_per_sync",
            ratio(o.wal_appends as f64, o.wal_syncs as f64),
            "ratio",
        ),
        metric("wal.bytes", m.wal_bytes as f64, "bytes"),
        metric(
            "obs.sampled_frac",
            ratio(t.untraced_reg.sampled as f64, t.untraced as f64),
            "fraction",
        ),
        metric(
            "obs.trace_overhead_pct",
            if lat.query_traced.is_empty() {
                0.0
            } else {
                (p50_traced / p50 - 1.0) * 100.0
            },
            "%",
        ),
    ];
    (e2e, per_layer)
}

pub fn print_metrics(title: &str, ms: &[Metric]) {
    println!("  {title}:");
    for m in ms {
        println!("    {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn get(ms: &[Metric], name: &str) -> f64 {
    ms.iter()
        .find(|m| m.name == name)
        .map_or(f64::NAN, |m| m.value)
}

/// The traced run's report: untraced and traced latency side by side,
/// self time per layer, and the property each workload was chosen for.
pub fn report_trace(w: Workload, s: &Session, pl: &[Metric]) {
    if s.trace.n == 0 {
        return;
    }
    let p50 = ms(stats::median(&s.lat.query));
    let p50t = ms(stats::median(&s.lat.query_traced));
    let total = s.trace.total_ns as f64 / s.trace.n as f64;
    println!(
        "  traced run: untraced p50 {p50:.4} ms | traced p50 {p50t:.4} ms | overhead {:.2}%",
        get(pl, "obs.trace_overhead_pct")
    );
    println!("  self time per traced query (ns, share of the trace's total {total:.0} ns):");
    for name in [
        "shard.self_ns",
        "core.scan_ns",
        "core.screen_ns",
        "core.verify_ns",
    ] {
        let v = get(pl, name);
        println!("    {name:<20} {v:>12.0} {:>6.1}%", 100.0 * v / total);
    }
    let unexplained =
        s.trace
            .span_ns
            .saturating_sub(s.trace.scan_ns + s.trace.screen_ns + s.trace.verify_ns) as f64
            / s.trace.n as f64;
    println!(
        "    {:<20} {unexplained:>12.0} {:>6.1}% (in-shard time no stage explains)",
        "shard.span_rest",
        100.0 * unexplained / total
    );
    println!(
        "    core.stage_coverage  {:.4}",
        get(pl, "core.stage_coverage")
    );
    let hit = get(pl, "storage.cache_hit_frac");
    let (what, holds) = match w {
        Workload::YahooOoc => ("storage.cache_hit_frac < 0.7".to_string(), hit < 0.7),
        Workload::P53Wide => {
            let scan_share = get(pl, "core.scan_ns") / total;
            (
                format!(
                    "storage.cache_hit_frac = 1 and core.scan_ns < 5% of query time ({:.2}%)",
                    100.0 * scan_share
                ),
                hit == 1.0 && scan_share < 0.05,
            )
        }
        Workload::NetflixRw => (
            "shard.compactions >= 2 and storage.fsyncs > 0".to_string(),
            get(pl, "shard.compactions") >= 2.0 && get(pl, "storage.fsyncs") > 0.0,
        ),
    };
    println!(
        "  workload property: {what}: {}",
        if holds { "holds" } else { "DOES NOT HOLD" }
    );
}

/// Determinism self-check: the metrics that are a function of the seed
/// are written under a key naming the workload, seed, run length and
/// this executable's hash; a later run with the same key (either trace
/// mode) must reproduce them exactly.
pub fn fingerprint(args: &Args, e2e: &[Metric], pl: &[Metric], check: &mut Checker) {
    const DETERMINISTIC: [&str; 14] = [
        "recall_at_10",
        "overall_ratio",
        "guarantee_rate",
        "pages_per_query",
        "index_bytes",
        "space_amp",
        "shard.pruned_frac",
        "shard.delta_rows_per_query",
        "shard.compactions",
        "core.screened_per_query",
        "core.verified_per_query",
        "idistance.scanned_per_query",
        "storage.page_reads_per_query",
        "wal.bytes",
    ];
    let mut text = String::new();
    for name in DETERMINISTIC {
        let v = e2e
            .iter()
            .chain(pl)
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value);
        let _ = writeln!(text, "{name} {v:?}");
    }
    let exe_hash = std::env::current_exe()
        .and_then(std::fs::read)
        .map(|b| {
            b.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &x| {
                (h ^ u64::from(x)).wrapping_mul(0x100_0000_01b3)
            })
        })
        .unwrap_or(0);
    let dir = Path::new(OUT_DIR).join("determinism");
    let path = dir.join(format!(
        "{}-seed{}-s{}-{exe_hash:016x}.txt",
        args.workload.name(),
        args.seed,
        args.seconds
    ));
    match std::fs::read_to_string(&path) {
        Ok(prev) => {
            let same = prev == text;
            check.ensure(same, || {
                format!(
                    "deterministic metrics differ from an earlier run on this seed ({})",
                    path.display()
                )
            });
            if same {
                println!(
                    "  determinism: matches the earlier run recorded in {}",
                    path.display()
                );
            }
        }
        Err(_) => {
            let _ = std::fs::create_dir_all(&dir);
            if std::fs::write(&path, &text).is_ok() {
                println!(
                    "  determinism: recorded in {} for later runs to match",
                    path.display()
                );
            }
        }
    }
}
