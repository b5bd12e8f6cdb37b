//! Deltas of the process-global metrics registry, read from outside the
//! program around each public call.

use promips::obs::{CounterId, Registry};

macro_rules! counters {
    ($($field:ident => $id:ident),+ $(,)?) => {
        /// Values of the registry counters the benchmark reads.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Counters {
            $(pub $field: u64,)+
        }

        impl Counters {
            pub fn read() -> Self {
                let reg = Registry::global();
                Self { $($field: reg.counter(CounterId::$id).get(),)+ }
            }

            /// Field-wise `self - earlier` (counters are monotonic).
            pub fn since(&self, earlier: &Self) -> Self {
                Self { $($field: self.$field - earlier.$field,)+ }
            }

            pub fn add(&mut self, other: &Self) {
                $(self.$field += other.$field;)+
            }
        }
    };
}

counters! {
    queries => Queries,
    sampled => QueriesSampled,
    scanned => QueryScanned,
    screened => QueryScreened,
    verified => QueryVerified,
    searched => ShardsSearched,
    pruned => ShardsPruned,
    page_reads => PageReads,
    cache_hits => PageCacheHits,
    cache_misses => PageCacheMisses,
    page_writes => PageWrites,
    fsyncs => IoFsyncs,
    io_retries => IoRetries,
    wal_appends => WalAppends,
    wal_syncs => WalSyncs,
    compactions => Compactions,
}
