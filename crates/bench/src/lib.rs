//! Benchmark harness for the Smart Refresh reproduction.
//!
//! The `benches/` directory holds two `harness = false` timing targets:
//!
//! * `micro` — plain-timing micro-benchmarks of the hot components (counter
//!   array, stagger walk, pending queue, DRAM command layer, workload
//!   generation, stacked-DRAM L3 cache, controller access path);
//! * `perf_trajectory` — wall-clock timings of the campaigns and the
//!   conformance tooling, written as a `BENCH_*.json` trajectory point.
//!
//! The evaluation figures (Figs 6–18) come from `smart-refresh figures`;
//! every other table, figure argument, ablation and campaign is a pinned
//! study behind `smart-refresh study`.
