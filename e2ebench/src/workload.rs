//! The three workloads: their shapes, index configurations, operation
//! plans and generated inputs. Everything here is a function of the seed
//! and, for the op count of `netflix-rw`, of `--seconds`.

use promips::data::DatasetSpec;
use promips::linalg::Matrix;
use promips::shard::ShardedConfig;
use promips::stats::Xoshiro256pp;

/// Results per query (the paper's k = 10 column).
pub const K: usize = 10;
/// Rows per `insert_batch` call.
pub const INSERT_BATCH: usize = 8;
/// `netflix-rw` runs `compact()` once every this many operations.
pub const COMPACT_EVERY: usize = 200;
/// `netflix-rw` operations per requested second of measurement. The op
/// count is fixed (not time-bounded) so every count metric, compaction
/// and file size repeats exactly on a seed.
const RW_OPS_PER_SECOND: usize = 300;
/// Fewest `netflix-rw` operations: the default compaction policy first
/// fires after about 5,900 inserted rows (a quarter of each shard's live
/// points), which takes some 5,000 operations of the mix.
const RW_MIN_OPS: usize = 6_000;

/// A second seed named for claims: a change is tuned on other seeds and
/// its claim must also hold here.
pub const HELD_OUT_SEED: u64 = 9_001;

// Salts separating the independent random streams drawn from one seed.
const QUERY_SALT: u64 = 0x5155_4552_5953_4554;
const MIX_SALT: u64 = 0x4D49_585F_504C_414E;
pub const PICK_SALT: u64 = 0x5049_434B_5F49_4453;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    YahooOoc,
    P53Wide,
    NetflixRw,
}

/// One client operation of a plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Search with a uniformly drawn live row as the query.
    Query,
    /// `insert_batch` of the next [`INSERT_BATCH`] held-out rows.
    Insert,
    /// `delete` of a uniformly drawn live id.
    Delete,
    /// One synchronous `compact()` pass under the default policy.
    Compact,
}

/// Static description of a workload.
pub struct Spec {
    pub dataset: DatasetSpec,
    pub shards: usize,
    pub page_size: usize,
    pub pool_pages: usize,
    /// Size of the fixed query set of a read workload (0 for `netflix-rw`,
    /// whose queries are drawn from the live set as it runs).
    pub queries: usize,
    /// Index builds per run; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::YahooOoc, Workload::P53Wide, Workload::NetflixRw];

    pub fn name(self) -> &'static str {
        match self {
            Workload::YahooOoc => "yahoo-ooc",
            Workload::P53Wide => "p53-wide",
            Workload::NetflixRw => "netflix-rw",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_read(self) -> bool {
        self != Workload::NetflixRw
    }

    pub fn spec(self) -> Spec {
        match self {
            // Disk-resident regime: a ~62 MB page file behind a 4 MB pool.
            Workload::YahooOoc => Spec {
                dataset: DatasetSpec::yahoo().with_n(40_000),
                shards: 1,
                page_size: 4096,
                pool_pages: 1024,
                queries: 2000,
                setup_reps: 7,
            },
            // Wide rows, fully cached: the SQ8 screen and rescore dominate.
            Workload::P53Wide => Spec {
                dataset: DatasetSpec::p53().with_n(3_000),
                shards: 1,
                page_size: 65_536,
                pool_pages: 4096,
                queries: 800,
                setup_reps: 7,
            },
            // Paper-scale Netflix, four norm-range shards, durable writes.
            Workload::NetflixRw => Spec {
                dataset: DatasetSpec::netflix(),
                shards: 4,
                page_size: 4096,
                pool_pages: 1024,
                queries: 0,
                setup_reps: 7,
            },
        }
    }

    /// Insert batches the held-out stream has room for: a quarter of the
    /// operations (the mix draws 15%). It depends on `--seconds` only, so
    /// the generated rows are the same for every seed.
    fn stream_batches(self, seconds: u64) -> usize {
        if self.is_read() {
            0
        } else {
            rw_ops(seconds) / 4
        }
    }

    /// The netflix-rw operation plan (empty for the read workloads): an
    /// 80/15/5 query/insert/delete mix with a `compact()` every
    /// [`COMPACT_EVERY`] operations. An insert drawn after the stream is
    /// used up becomes a query.
    pub fn plan(self, seed: u64, seconds: u64) -> Vec<Op> {
        if self.is_read() {
            return Vec::new();
        }
        let n_ops = rw_ops(seconds);
        let cap = self.stream_batches(seconds);
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ MIX_SALT);
        let mut inserts = 0;
        let mut ops = Vec::with_capacity(n_ops + n_ops / COMPACT_EVERY);
        for i in 1..=n_ops {
            ops.push(match rng.below(100) {
                80..=94 if inserts < cap => {
                    inserts += 1;
                    Op::Insert
                }
                95.. => Op::Delete,
                _ => Op::Query,
            });
            if i % COMPACT_EVERY == 0 {
                ops.push(Op::Compact);
            }
        }
        ops
    }
}

fn rw_ops(seconds: u64) -> usize {
    (RW_OPS_PER_SECOND * seconds as usize).max(RW_MIN_OPS)
}

/// Generated inputs of one run.
pub struct Inputs {
    /// Base rows (global ids `0..n_base`) followed by the held-out insert
    /// stream, in insertion order: row `i` is global id `i` once inserted.
    pub rows: Matrix,
    pub n_base: usize,
    /// Fixed query set of a read workload: rows sampled from the base data.
    pub queries: Matrix,
}

impl Inputs {
    /// The dataset is fixed per workload (the shape's `DatasetSpec` seed),
    /// like the paper's real datasets; `seed` draws the query sample here
    /// and the operation sequence in the plan.
    pub fn generate(w: Workload, spec: &Spec, seed: u64, seconds: u64) -> Self {
        let n_base = spec.dataset.n;
        let stream = w.stream_batches(seconds) * INSERT_BATCH;
        let mut ds = spec.dataset.clone().with_n(n_base + stream);
        ds.n_queries = 0;
        let rows = ds.generate().data;
        let picks =
            Xoshiro256pp::seed_from_u64(seed ^ QUERY_SALT).sample_indices(n_base, spec.queries);
        let queries = rows.gather(&picks);
        Inputs {
            rows,
            n_base,
            queries,
        }
    }
}

impl Spec {
    /// Library defaults apart from the workload's shard count, page size
    /// and pool size.
    pub fn config(&self) -> ShardedConfig {
        let mut config = ShardedConfig::builder().shards(self.shards).build();
        config.base.page_size = self.page_size;
        config.base.pool_pages = self.pool_pages;
        config.validate();
        config
    }
}
