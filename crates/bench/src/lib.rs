//! Shared harness code for the experiment binaries (`src/bin/*`), each of
//! which regenerates one table or figure of the paper's evaluation (§VI).
//!
//! Run e.g. `cargo run --release -p sc-bench --bin fig09_end_to_end`.
//! Simulated experiments print *simulated seconds* from the calibrated
//! cost model (the shapes, not the authors' testbed numbers); optimizer
//! timing experiments (Figure 13) measure real wall time.

use sc_core::order::OrderScheduler;
use sc_core::select::NodeSelector;
use sc_core::{AlternatingOptimizer, Plan, ScOptimizer};
use sc_sim::{SimConfig, SimWorkload, Simulator};
use sc_workload::{DatasetSpec, PaperWorkload};

/// The §VI-F method grid: every selector+scheduler combination the paper
/// ablates, ours last.
pub fn ablation_methods() -> Vec<AlternatingOptimizer> {
    use sc_core::order::{MaDfsScheduler, SaScheduler, SeparatorScheduler};
    use sc_core::select::{GreedySelector, MkpSelector, RandomSelector, RatioSelector};
    fn sel(s: impl NodeSelector + 'static) -> Box<dyn NodeSelector> {
        Box::new(s)
    }
    fn ord(o: impl OrderScheduler + 'static) -> Box<dyn OrderScheduler> {
        Box::new(o)
    }
    vec![
        AlternatingOptimizer::new(sel(RandomSelector::default()), ord(MaDfsScheduler)),
        AlternatingOptimizer::new(sel(GreedySelector), ord(MaDfsScheduler)),
        AlternatingOptimizer::new(sel(RatioSelector), ord(MaDfsScheduler)),
        AlternatingOptimizer::new(
            sel(MkpSelector::default()),
            ord(SaScheduler {
                iterations: 10_000,
                ..Default::default()
            }),
        ),
        AlternatingOptimizer::new(sel(MkpSelector::default()), ord(SeparatorScheduler)),
        AlternatingOptimizer::new(sel(MkpSelector::default()), ord(MaDfsScheduler)),
    ]
}

/// Sums of baseline and S/C end-to-end times over the five workloads.
pub struct SuiteResult {
    /// Σ unoptimized totals.
    pub baseline_s: f64,
    /// Σ optimized totals.
    pub sc_s: f64,
}

impl SuiteResult {
    /// Aggregate speedup.
    pub fn speedup(&self) -> f64 {
        self.baseline_s / self.sc_s
    }
}

/// Runs all five paper workloads on `dataset` under `config`, optimizing
/// with the full S/C method.
pub fn run_suite(dataset: &DatasetSpec, config: &SimConfig) -> SuiteResult {
    let sim = Simulator::new(config.clone());
    let mut baseline_s = 0.0;
    let mut sc_s = 0.0;
    for w in PaperWorkload::all() {
        let built = w.build(dataset);
        let plan = sc_plan(&built, config);
        baseline_s += sim.run_unoptimized(&built).expect("valid workload").total_s;
        sc_s += sim.run(&built, &plan).expect("valid plan").total_s;
    }
    SuiteResult { baseline_s, sc_s }
}

/// Full S/C plan (MKP + MA-DFS alternating optimization) for a workload.
pub fn sc_plan(workload: &SimWorkload, config: &SimConfig) -> Plan {
    let problem = workload.problem(config).expect("valid problem");
    ScOptimizer::default()
        .optimize(&problem)
        .expect("optimizable")
}

/// Prints a header line plus an aligned separator for a simple console
/// table.
pub fn print_header(cols: &[(&str, usize)]) {
    let head: Vec<String> = cols.iter().map(|(name, w)| format!("{name:>w$}")).collect();
    println!("{}", head.join(" | "));
    let sep: Vec<String> = cols.iter().map(|(_, w)| "-".repeat(*w)).collect();
    println!("{}", sep.join("-+-"));
}

/// `"1.23x"`-style formatting used across experiment output.
pub fn speedup_cell(baseline: f64, optimized: f64) -> String {
    format!("{:.2}x", baseline / optimized)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_runs_and_sc_wins() {
        let ds = DatasetSpec::tpcds(10.0);
        let r = run_suite(&ds, &SimConfig::paper(ds.memory_budget(1.6)));
        assert!(r.baseline_s > 0.0);
        assert!(r.speedup() > 1.0);
    }

    /// Pins the paper's Figure 9 grid: per workload, the unoptimized and
    /// S/C totals (simulated seconds) and the S/C peak catalog bytes. No
    /// S/C plan falls back, every run starts nodes in plan order, and more
    /// lanes never raise the S/C peak.
    #[test]
    fn fig09_grid_is_pinned() {
        let grid = [
            (
                DatasetSpec::tpcds(100.0),
                1.6,
                [
                    (89.382868713, 54.181606860, 1_567_543_486),
                    (78.742190591, 53.046507876, 1_501_150_810),
                    (205.140910767, 166.282097026, 1_525_969_237),
                    (87.572982466, 84.853350710, 185_371_846),
                    (120.652226202, 103.439546179, 1_192_706_877),
                ],
            ),
            (
                DatasetSpec::tpcds_partitioned(100.0),
                0.8,
                [
                    (27.326543221, 12.535443715, 788_819_867),
                    (25.304077674, 13.268003636, 798_808_038),
                    (56.974082596, 39.938296920, 763_232_591),
                    (16.991944291, 15.899366620, 74_148_735),
                    (25.855877087, 16.947192695, 477_082_750),
                ],
            ),
        ];
        let close = |got: f64, want: f64| (got - want).abs() <= 1e-9 * want;
        for (dataset, mem_pct, cells) in grid {
            let config = SimConfig::paper(dataset.memory_budget(mem_pct));
            let sim = Simulator::new(config.clone());
            for (w, (base_s, sc_s, sc_peak)) in PaperWorkload::all().iter().zip(cells) {
                let cell = format!("{} / {}", dataset.label(), w.name());
                let built = w.build(&dataset);
                let base = sim.run_unoptimized(&built).expect("runs");
                let plan = sc_plan(&built, &config);
                let sc = sim.run(&built, &plan).expect("runs");
                assert!(close(base.total_s, base_s), "{cell}: {}", base.total_s);
                assert!(close(sc.total_s, sc_s), "{cell}: {}", sc.total_s);
                assert_eq!(sc.peak_memory_bytes, sc_peak, "{cell}");
                assert_eq!(sc.fallbacks(), 0, "{cell}");
                for report in [&base, &sc] {
                    assert!(
                        report
                            .nodes
                            .windows(2)
                            .all(|n| n[0].start_s <= n[1].start_s),
                        "{cell}: a node started before an earlier plan position"
                    );
                }
                // More lanes keep the one-lane admissions and never hold
                // more in the catalog.
                for lanes in [2, 4] {
                    let wide = Simulator::new(config.clone().with_lanes(lanes))
                        .run(&built, &plan)
                        .expect("runs");
                    assert!(wide.peak_memory_bytes <= sc_peak, "{cell} @ {lanes}");
                    assert_eq!(wide.fallbacks(), 0, "{cell} @ {lanes}");
                }
            }
        }
    }

    #[test]
    fn ablation_grid_shape() {
        let methods = ablation_methods();
        assert_eq!(methods.len(), 6);
        assert_eq!(methods.last().unwrap().method_name(), "MKP + MA-DFS");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(speedup_cell(10.0, 5.0), "2.00x");
        print_header(&[("a", 5), ("b", 8)]); // must not panic
    }
}
