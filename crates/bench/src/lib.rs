//! Shared helpers for the benchmark harness.
//!
//! The `benches/` directory holds two kinds of targets:
//!
//! * `micro` — plain-timing micro-benchmarks of the hot components (counter
//!   array, stagger walk, pending queue, DRAM command layer, workload
//!   generation, stacked-DRAM L3 cache, controller access path);
//! * `fig*` / `abl_*` — `harness = false` binaries that regenerate the
//!   paper's tables and motivation/stagger/correctness figures or run an
//!   ablation, printing paper-vs-measured tables. The evaluation figures
//!   (Figs 6–18) come from `smart-refresh figures`.

/// Standard mini-module used by ablation benches: large enough to show the
/// effects, small enough to run in seconds.
pub fn mini_module() -> smartrefresh_dram::ModuleConfig {
    use smartrefresh_dram::time::Duration;
    smartrefresh_dram::ModuleConfig {
        name: "bench-mini",
        geometry: smartrefresh_dram::Geometry::new(1, 4, 1024, 32, 64),
        timing: smartrefresh_dram::TimingParams::ddr2_667().with_retention(Duration::from_ms(16)),
    }
}
