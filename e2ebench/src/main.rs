//! End-to-end benchmark of the sharded ProMIPS index.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <yahoo-ooc|p53-wide|netflix-rw> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One single-threaded closed-loop client drives the public
//! `ShardedProMips` API on inputs generated from `--seed`, checks every
//! answer, and prints each metric by name with its unit. The last line of
//! standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1` (a separate run on
//! the same seed whose queries alternate between `search_threaded` and
//! `search_traced_threaded`). Layers are measured from outside: call
//! timings, registry counter deltas, pager `access_stats()`, and the
//! `QueryTrace` a traced search returns. Any failed call or check exits
//! non-zero. See `e2ebench/README.md` for the workloads and metrics.

mod check;
mod cli;
mod counters;
mod report;
mod session;
mod spans;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use promips::data::GroundTruth;
use promips::shard::ShardedProMips;
use promips::stats::Xoshiro256pp;

use counters::Counters;
use report::{fingerprint, metrics, print_metrics, ratio, report_trace, MetricInputs, RunResult};
use session::{QueryTotals, Scores, Session};
use workload::{Inputs, Op, Spec, Workload, HELD_OUT_SEED, K, PICK_SALT};

/// Where runs leave their span logs, determinism fingerprints and (while
/// running) index directories; relative to the working directory.
const OUT_DIR: &str = ".e2ebench_out";

fn main() {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let work = WorkDir::new(args.workload, args.seed);
    let result = run(&args, &work.path);
    drop(work);
    let correct = result.failed == 0;
    println!("{}", result.json(correct));
    if !correct {
        std::process::exit(1);
    }
}

/// Scratch directory for index files, removed when the run ends.
struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    fn new(w: Workload, seed: u64) -> Self {
        let path =
            Path::new(OUT_DIR).join(format!("work-{}-{seed}-{}", w.name(), std::process::id()));
        WorkDir { path }
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn run(args: &cli::Args, work: &Path) -> RunResult {
    let w = args.workload;
    let spec = w.spec();
    let plan = w.plan(args.seed, args.seconds);
    let inputs = Inputs::generate(w, &spec, args.seed, args.seconds);
    let d = inputs.rows.cols();
    println!(
        "workload {} seed {} (held-out claim seed {HELD_OUT_SEED}) trace {}",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );
    println!(
        "  n={} d={d} shards={} page={}B pool={} pages ({} B) {} | k={K}, 1 closed-loop client, 1 fan-out worker",
        inputs.n_base,
        spec.shards,
        spec.page_size,
        spec.pool_pages,
        spec.page_size * spec.pool_pages,
        if w.is_read() { "build_in_memory" } else { "build_in_dir, WAL SyncPolicy::Always" },
    );

    // Set-up: build the index `setup_reps` times; keep the last build.
    let Setup {
        index,
        builds,
        page_writes: build_writes,
    } = match setup(w, &spec, &inputs, work) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("e2ebench: index build failed: {e}");
            return RunResult {
                attempted: 1,
                failed: 1,
                metrics: Vec::new(),
            };
        }
    };
    let index_bytes = index.index_size_bytes();
    println!(
        "  index: {} B, page files {} B vs pool {} B ({})",
        index_bytes,
        index.file_size_bytes(),
        spec.page_size * spec.pool_pages * spec.shards,
        if index.file_size_bytes() > (spec.page_size * spec.pool_pages * spec.shards) as u64 {
            "out of cache"
        } else {
            "fits in cache"
        }
    );
    let run_start = Counters::read();
    let mut s = Session::new(index, inputs.rows, inputs.n_base, args.trace);
    for &(t0, t1) in &builds {
        s.span_outside("build", t0, t1);
    }
    let build_s: Vec<f64> = builds
        .iter()
        .map(|&(t0, t1)| (t1 - t0) as f64 / 1e9)
        .collect();
    println!("  setup builds (s): {build_s:?}");
    let setup_s = stats::median(&build_s);

    // Scored queries give the funnel counts; timed queries give latency
    // and steady-state cache behaviour. On netflix-rw they are one set.
    let mut scores = Scores::default();
    let (funnel, timed) = if w.is_read() {
        let truth: Vec<GroundTruth> = (0..inputs.queries.rows())
            .map(|i| s.truth_now(inputs.queries.row(i)))
            .collect();
        let (funnel, timed) = read_phase(&mut s, &inputs.queries, &truth, args, &mut scores);
        s.reconcile(&funnel, "scored pass");
        s.reconcile(&timed, "timed loop");
        (funnel, timed)
    } else {
        let mixed = run_plan(&mut s, &plan, args, &mut scores);
        s.reconcile(&mixed, "op mix");
        if s.lat.shards_compacted == 0 {
            s.check.fail("no compact() pass compacted a shard");
        }
        (mixed.clone(), mixed)
    };

    // End state; netflix-rw then drops the index, reopens its directory
    // and checks that every acknowledged write survived.
    let live_bytes = (s.live() * d * 4) as f64;
    let wal_bytes: u64 = (0..s.index().shard_count())
        .map(|si| s.index().wal_bytes(si))
        .sum();
    let space_bytes = if w.is_read() {
        s.index().file_size_bytes()
    } else {
        dir_bytes(work)
    };
    let ops_done = Counters::read().since(&run_start);
    if !w.is_read() {
        let errs = s.membership_errors(s.index(), "before reopen");
        errs.into_iter().for_each(|e| s.check.fail(e));
        if !reopen(&mut s, work) {
            return s.abort();
        }
        let errs = s.membership_errors(s.index(), "after reopen");
        errs.into_iter().for_each(|e| s.check.fail(e));
        let mut rng = Xoshiro256pp::seed_from_u64(args.seed ^ PICK_SALT);
        for _ in 0..20 {
            let q = s.rows.row(s.pick_live(&mut rng) as usize).to_vec();
            s.query(&q, false, &mut QueryTotals::default());
        }
    }

    let (e2e, per_layer) = metrics(MetricInputs {
        w,
        s: &s,
        setup_s,
        index_bytes,
        scores: &scores,
        funnel: &funnel,
        timed: &timed,
        live_bytes,
        space_bytes,
        wal_bytes,
        ops: ops_done,
        build_writes,
    });
    print_metrics("end-to-end", &e2e);
    print_metrics("per-layer", &per_layer);
    report_trace(w, &s, &per_layer);
    fingerprint(args, &e2e, &per_layer, &mut s.check);
    if let Some(log) = &s.spans {
        let path = Path::new(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
        match log.write(&path) {
            Ok(()) => println!("  {} spans written to {}", log.len(), path.display()),
            Err(e) => eprintln!("e2ebench: writing {}: {e}", path.display()),
        }
    }
    let error_rate = ratio(s.check.failed as f64, s.check.attempted as f64);
    println!(
        "  error_rate {error_rate:?} fraction ({} failed of {} attempted)",
        s.check.failed, s.check.attempted
    );
    RunResult {
        attempted: s.check.attempted,
        failed: s.check.failed,
        metrics: if args.trace { per_layer } else { e2e },
    }
}

/// The last of the set-up builds, each build's start and end
/// (`obs::now_ns`), and the page writes of one build.
struct Setup {
    index: ShardedProMips,
    builds: Vec<(u64, u64)>,
    page_writes: u64,
}

/// Builds the index `spec.setup_reps` times. netflix-rw builds into
/// `work`; the read workloads build in memory.
fn setup(w: Workload, spec: &Spec, inputs: &Inputs, work: &Path) -> std::io::Result<Setup> {
    let base = inputs.rows.gather(&(0..inputs.n_base).collect::<Vec<_>>());
    let mut times = Vec::new();
    let mut index = None;
    let mut writes = 0;
    for _ in 0..spec.setup_reps {
        drop(index.take()); // free the previous build first
        let _ = std::fs::remove_dir_all(work);
        let w0 = Counters::read();
        let t0 = promips::obs::now_ns();
        index = Some(if w.is_read() {
            ShardedProMips::build_in_memory(&base, spec.config())?
        } else {
            ShardedProMips::build_in_dir(&base, spec.config(), work)?
        });
        times.push((t0, promips::obs::now_ns()));
        writes = Counters::read().since(&w0).page_writes;
    }
    Ok(Setup {
        index: index.expect("at least one setup rep"),
        builds: times,
        page_writes: writes,
    })
}

/// Scored pass over the query set, then the timed loop in whole passes
/// until `--seconds` elapse. Returns the totals of both.
fn read_phase(
    s: &mut Session,
    queries: &promips::linalg::Matrix,
    truth: &[GroundTruth],
    args: &cli::Args,
    scores: &mut Scores,
) -> (QueryTotals, QueryTotals) {
    let mut funnel = QueryTotals::default();
    let mut timed = QueryTotals::default();
    let nq = queries.rows();
    let mut first = Vec::with_capacity(nq);
    for (i, t) in truth.iter().enumerate() {
        let items = s
            .query(queries.row(i), false, &mut funnel)
            .map(|(items, _)| items);
        if let Some(items) = &items {
            s.score(items, t, scores);
        }
        first.push(items);
    }
    // Whole passes, so every query weighs the same in the latency figures.
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    for pass in 0.. {
        if pass > 0 && Instant::now() >= deadline {
            return (funnel, timed);
        }
        for (i, expect) in first.iter().enumerate() {
            let traced = args.trace && (i + pass) % 2 == 1;
            if let Some((items, ns)) = s.query(queries.row(i), traced, &mut timed) {
                if Some(&items) != expect.as_ref() {
                    s.check.fail(format_args!(
                        "query {i} pass {pass}: answer differs from the scored pass"
                    ));
                }
                s.lat.record_query(traced, ns);
            }
        }
    }
    unreachable!("the timed loop ends at its deadline")
}

/// Runs the netflix-rw operation plan. Queries draw a live row, are
/// scored against the exact top-k of the live set at that moment, and
/// alternate traced/untraced in a traced run. Returns the query totals.
fn run_plan(s: &mut Session, plan: &[Op], args: &cli::Args, scores: &mut Scores) -> QueryTotals {
    let mut rng = Xoshiro256pp::seed_from_u64(args.seed ^ PICK_SALT);
    let mut tot = QueryTotals::default();
    for &op in plan {
        match op {
            Op::Query => {
                let q = s.rows.row(s.pick_live(&mut rng) as usize).to_vec();
                let traced = args.trace && tot.n % 2 == 1;
                if let Some((items, ns)) = s.query(&q, traced, &mut tot) {
                    let truth = s.truth_now(&q);
                    s.score(&items, &truth, scores);
                    s.lat.record_query(traced, ns);
                }
            }
            Op::Insert => s.insert_batch(),
            Op::Delete => s.delete(&mut rng),
            Op::Compact => s.compact(),
        }
    }
    tot
}

/// Drops the index and reopens its directory with `ShardedProMips::open`;
/// false if that failed (the failure is counted).
fn reopen(s: &mut Session, work: &Path) -> bool {
    s.close();
    s.check.attempt();
    let t0 = promips::obs::now_ns();
    let reopened = ShardedProMips::open(work);
    let t1 = promips::obs::now_ns();
    s.span_outside("open", t0, t1);
    match reopened {
        Ok(index) => {
            println!("  open() took {:.4} s", (t1 - t0) as f64 / 1e9);
            s.install(index);
            true
        }
        Err(e) => {
            s.check.fail(format_args!("open failed: {e}"));
            false
        }
    }
}

/// Bytes of every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
