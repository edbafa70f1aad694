//! The search-at-scale experiment: greedy search over generated
//! mega-schemas at 1×/10×/100× IMDB-equivalent size, sequential vs
//! work-stealing candidate evaluation (DESIGN.md §13).
//! JSON-lines records — wall clock, steal counts, worker occupancy, and
//! per-scale speedup summaries — land in `BENCH_search.json`, or the
//! path in `$LEGODB_BENCH_JSON` when set.

#![forbid(unsafe_code)]
fn main() {
    print!(
        "{}",
        legodb_bench::harness::timed_experiment(
            "search_scale",
            legodb_bench::harness::search_scale
        )
    );
}
