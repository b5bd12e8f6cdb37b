//! The closed-loop client: one thread, one call at a time, each public
//! call timed and bracketed by registry and pager reads, each answer
//! checked against the benchmark's own mirror of the live set.

use std::time::Instant;

use promips::baselines::Neighbor;
use promips::core::SearchItem;
use promips::data::GroundTruth;
use promips::linalg::Matrix;
use promips::shard::{ShardedProMips, ShardedScratch};
use promips::stats::Xoshiro256pp;
use promips_bench::metrics::{overall_ratio, recall};

use crate::check::{self, Checker};
use crate::counters::Counters;
use crate::spans::SpanLog;
use crate::workload::{INSERT_BATCH, K};

/// Sums over a set of search calls: from the results, from the pager's
/// `access_stats()`, and from the registry, bracketed call by call.
#[derive(Clone, Default)]
pub struct QueryTotals {
    pub n: u64,
    pub verified: u64,
    pub screened: u64,
    pub pruned: u64,
    pub delta_rows: u64,
    pub pager_reads: u64,
    /// Σ live points at query time (base of `idistance.candidate_frac`).
    pub live: u64,
    pub reg: Counters,
    /// Registry deltas around the untraced calls only, and their count
    /// (base of `obs.sampled_frac`).
    pub untraced_reg: Counters,
    pub untraced: u64,
}

/// Sums over the `QueryTrace`s of traced calls.
#[derive(Default)]
pub struct TraceTotals {
    pub n: u64,
    pub total_ns: u64,
    pub span_ns: u64,
    pub span_max_ns: u64,
    pub merge_ns: u64,
    pub scan_ns: u64,
    pub screen_ns: u64,
    pub verify_ns: u64,
}

/// Accuracy sums over scored queries.
#[derive(Default)]
pub struct Scores {
    pub n: u64,
    pub recall: f64,
    pub ratio: f64,
    pub guaranteed: u64,
}

/// Latency samples in nanoseconds.
#[derive(Default)]
pub struct Latencies {
    pub query: Vec<f64>,
    pub query_traced: Vec<f64>,
    pub insert: Vec<f64>,
    pub delete: Vec<f64>,
    pub compact: Vec<f64>,
    pub shards_compacted: u64,
}

impl Latencies {
    pub fn record_query(&mut self, traced: bool, ns: u64) {
        if traced {
            self.query_traced.push(ns as f64);
        } else {
            self.query.push(ns as f64);
        }
    }
}

pub struct Session {
    /// `None` only between [`Session::close`] and [`Session::install`].
    index: Option<ShardedProMips>,
    scratch: ShardedScratch,
    /// Base rows then the insert stream; row `i` is global id `i`.
    pub rows: Matrix,
    pub n_base: usize,
    /// Liveness by global id, and the live ids in a swap-remove vector
    /// (with each id's position) for uniform draws.
    pub alive: Vec<bool>,
    live_ids: Vec<u64>,
    live_pos: Vec<usize>,
    /// Stream rows acknowledged so far.
    pub inserted: usize,
    pub deleted: Vec<u64>,
    pub check: Checker,
    pub lat: Latencies,
    pub trace: TraceTotals,
    pub spans: Option<SpanLog>,
    /// The c of the c-AMIP guarantee, for `guarantee_rate`.
    c: f64,
    op: u64,
}

impl Session {
    pub fn new(index: ShardedProMips, rows: Matrix, n_base: usize, traced: bool) -> Self {
        let scratch = ShardedScratch::for_index(&index);
        let c = index.config().base.c;
        let mut alive = vec![false; rows.rows()];
        alive[..n_base].fill(true);
        Session {
            index: Some(index),
            scratch,
            alive,
            live_ids: (0..n_base as u64).collect(),
            live_pos: (0..rows.rows()).collect(),
            rows,
            n_base,
            inserted: 0,
            deleted: Vec::new(),
            check: Checker::default(),
            lat: Latencies::default(),
            trace: TraceTotals::default(),
            spans: traced.then(SpanLog::default),
            c,
            op: 0,
        }
    }

    pub fn index(&self) -> &ShardedProMips {
        self.index.as_ref().expect("the index is open")
    }

    /// Drops the index (closing its files).
    pub fn close(&mut self) {
        self.index = None;
    }

    /// Installs a (re)opened index.
    pub fn install(&mut self, index: ShardedProMips) {
        self.scratch = ShardedScratch::for_index(&index);
        self.index = Some(index);
    }

    pub fn live(&self) -> usize {
        self.live_ids.len()
    }

    /// End of the rows the index has seen (base plus acknowledged stream).
    pub fn hi(&self) -> usize {
        self.n_base + self.inserted
    }

    /// A uniformly drawn live id.
    pub fn pick_live(&self, rng: &mut Xoshiro256pp) -> u64 {
        self.live_ids[rng.below(self.live_ids.len() as u64) as usize]
    }

    /// Records a span around a public call (traced runs only) and returns
    /// its id, or 0.
    fn span(&mut self, name: &'static str, start: u64, end: u64) -> u64 {
        match &mut self.spans {
            Some(log) => log.record(self.op, 0, name, None, start, end),
            None => 0,
        }
    }

    /// One search, untraced (`search_threaded`) or traced
    /// (`search_traced_threaded`), with one fan-out worker. Returns the
    /// items and the call's latency in ns, or `None` if the call failed or
    /// its answer failed a check.
    pub fn query(
        &mut self,
        q: &[f32],
        traced: bool,
        tot: &mut QueryTotals,
    ) -> Option<(Vec<SearchItem>, u64)> {
        self.op += 1;
        self.check.attempt();
        let pager0 = self.index().access_stats();
        let reg0 = Counters::read();
        let t0 = promips::obs::now_ns();
        let clock = Instant::now();
        let out = if traced {
            self.index()
                .search_traced_threaded(q, K, 1, &self.scratch)
                .map(|(r, t)| (r, Some(t)))
        } else {
            self.index()
                .search_threaded(q, K, 1, &self.scratch)
                .map(|r| (r, None))
        };
        let ns = clock.elapsed().as_nanos() as u64;
        let t1 = promips::obs::now_ns();
        let reg = Counters::read().since(&reg0);
        let pager = self.index().access_stats();
        let (res, trace) = match out {
            Ok(out) => std::hint::black_box(out),
            Err(e) => {
                self.check.fail(format_args!("search failed: {e}"));
                return None;
            }
        };
        tot.n += 1;
        tot.verified += res.verified as u64;
        tot.screened += res.screened as u64;
        tot.pruned += res.shards_pruned() as u64;
        tot.delta_rows += res
            .per_shard
            .iter()
            .map(|s| s.delta_len as u64)
            .sum::<u64>();
        tot.pager_reads += pager.logical_reads - pager0.logical_reads;
        tot.live += self.live() as u64;
        tot.reg.add(&reg);
        if !traced {
            tot.untraced += 1;
            tot.untraced_reg.add(&reg);
        }
        let call = self.span("search", t0, t1);
        if let Some(trace) = trace {
            let spans: u64 = trace.shards.iter().map(|s| s.elapsed_ns).sum();
            let st = trace.stages();
            let t = &mut self.trace;
            t.n += 1;
            t.total_ns += trace.total_ns;
            t.span_ns += spans;
            t.span_max_ns += trace.shards.iter().map(|s| s.elapsed_ns).max().unwrap_or(0);
            t.merge_ns += trace.merge_ns;
            t.scan_ns += st.scan_ns;
            t.screen_ns += st.screen_ns;
            t.verify_ns += st.verify_ns;
            if let Some(log) = &mut self.spans {
                log.attach(self.op, call, &trace);
            }
        }
        if res.degraded {
            self.check
                .fail("search answer degraded with no fault injected");
            return None;
        }
        if let Err(e) = check::validate(&res.items, q, &self.rows, &self.alive, self.live(), K) {
            self.check.fail(format_args!("search answer: {e}"));
            return None;
        }
        Some((res.items, ns))
    }

    /// Scores an answer against the exact top-k.
    pub fn score(&mut self, items: &[SearchItem], truth: &GroundTruth, sc: &mut Scores) {
        let got: Vec<Neighbor> = items
            .iter()
            .map(|it| Neighbor {
                id: it.id,
                ip: it.ip,
            })
            .collect();
        sc.n += 1;
        sc.recall += recall(&got, truth, K);
        sc.ratio += overall_ratio(&got, truth, K);
        let best = got.first().map_or(f64::NEG_INFINITY, |n| n.ip);
        if best >= self.c * truth[0].1 {
            sc.guaranteed += 1;
        }
    }

    /// Exact top-k over the live set as it is now.
    pub fn truth_now(&self, q: &[f32]) -> GroundTruth {
        check::exact_topk_live(&self.rows, self.hi(), &self.alive, q, K)
    }

    /// `insert_batch` of the next [`INSERT_BATCH`] stream rows; the
    /// returned global ids must be the next ones in order.
    pub fn insert_batch(&mut self) {
        self.op += 1;
        self.check.attempt();
        let lo = self.hi();
        let t0 = promips::obs::now_ns();
        let clock = Instant::now();
        let res = self
            .index()
            .insert_batch((lo..lo + INSERT_BATCH).map(|i| self.rows.row(i)));
        let ns = clock.elapsed().as_nanos() as u64;
        self.span("insert_batch", t0, promips::obs::now_ns());
        match res {
            Ok(gids) if gids == (lo as u64..(lo + INSERT_BATCH) as u64).collect::<Vec<_>>() => {
                self.lat.insert.push(ns as f64);
                for g in gids {
                    self.alive[g as usize] = true;
                    self.live_pos[g as usize] = self.live_ids.len();
                    self.live_ids.push(g);
                }
                self.inserted += INSERT_BATCH;
            }
            Ok(gids) => self.check.fail(format_args!(
                "insert_batch at row {lo} assigned ids {gids:?}"
            )),
            Err(e) => self.check.fail(format_args!("insert_batch failed: {e}")),
        }
    }

    /// `delete` of a uniformly drawn live id.
    pub fn delete(&mut self, rng: &mut Xoshiro256pp) {
        self.op += 1;
        self.check.attempt();
        let gid = self.pick_live(rng);
        let t0 = promips::obs::now_ns();
        let clock = Instant::now();
        let res = self.index().delete(gid);
        let ns = clock.elapsed().as_nanos() as u64;
        self.span("delete", t0, promips::obs::now_ns());
        match res {
            Ok(()) => {
                self.lat.delete.push(ns as f64);
                let pos = self.live_pos[gid as usize];
                self.live_ids.swap_remove(pos);
                if let Some(&moved) = self.live_ids.get(pos) {
                    self.live_pos[moved as usize] = pos;
                }
                self.alive[gid as usize] = false;
                self.deleted.push(gid);
            }
            Err(e) => self.check.fail(format_args!("delete({gid}) failed: {e}")),
        }
    }

    /// One synchronous `compact()` pass.
    pub fn compact(&mut self) {
        self.op += 1;
        self.check.attempt();
        let t0 = promips::obs::now_ns();
        let clock = Instant::now();
        let res = self.index().compact();
        let ns = clock.elapsed().as_nanos() as u64;
        self.span("compact", t0, promips::obs::now_ns());
        match res {
            Ok(report) => {
                self.lat.compact.push(ns as f64);
                self.lat.shards_compacted += report.compacted.len() as u64;
            }
            Err(e) => self.check.fail(format_args!("compact failed: {e}")),
        }
    }

    /// Every acknowledged insert is present, every deleted id absent, and
    /// the index holds exactly the mirror's live count. Returns what
    /// disagrees.
    pub fn membership_errors(&self, index: &ShardedProMips, when: &str) -> Vec<String> {
        let mut errs = Vec::new();
        for g in self.n_base as u64..self.hi() as u64 {
            if index.contains(g) != self.alive[g as usize] {
                errs.push(format!("{when}: contains({g}) disagrees with the live set"));
            }
        }
        for &g in &self.deleted {
            if index.contains(g) {
                errs.push(format!("{when}: deleted id {g} is still present"));
            }
        }
        let (len, live) = (index.len(), self.live() as u64);
        if len != live {
            errs.push(format!("{when}: len() = {len} but {live} ids are live"));
        }
        errs
    }

    /// Checks that per-call registry deltas equal the sums over the
    /// results, so a counter that moves or changes meaning is caught.
    pub fn reconcile(&mut self, tot: &QueryTotals, phase: &str) {
        for (name, reg, sum) in [
            ("Queries", tot.reg.queries, tot.n),
            ("QueryVerified", tot.reg.verified, tot.verified),
            ("QueryScreened", tot.reg.screened, tot.screened),
            ("ShardsPruned", tot.reg.pruned, tot.pruned),
            ("PageReads", tot.reg.page_reads, tot.pager_reads),
        ] {
            self.check.ensure(reg == sum, || {
                format!("{phase}: registry {name} moved by {reg} but the results sum to {sum}")
            });
        }
    }

    /// The result of a run cut short by a failure that leaves no index.
    pub fn abort(&self) -> crate::report::RunResult {
        crate::report::RunResult {
            attempted: self.check.attempted,
            failed: self.check.failed.max(1),
            metrics: Vec::new(),
        }
    }

    /// Records a span for a call made outside the session (build, open).
    pub fn span_outside(&mut self, name: &'static str, start: u64, end: u64) {
        self.op += 1;
        self.span(name, start, end);
    }
}
