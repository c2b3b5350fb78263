//! Workload definitions and the set-up every workload shares: generate the
//! seeded tables, load them, register the MV DAG, run the profiling
//! refresh that caches the S/C plan.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use sc::core::{CostModel, Plan, ScOptimizer};
use sc::engine::controller::RunMetrics;
use sc::engine::storage::Throttle;
use sc::engine::Table;
use sc::workload::engine_mvs::problem_from_metrics;
use sc::workload::ScenarioSpec;
use sc::ScSession;

pub type Res<T> = Result<T, String>;

/// Maps any displayable error into the benchmark's string errors.
pub fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FullCpu,
    FullDevice,
    Churn,
    ServeMixed,
}

pub const ALL: [Workload; 4] = [
    Workload::FullCpu,
    Workload::FullDevice,
    Workload::Churn,
    Workload::ServeMixed,
];

const MIB: u64 = 1 << 20;

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::FullCpu => "full_cpu",
            Workload::FullDevice => "full_device",
            Workload::Churn => "churn",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// The workload's scenario. The `full_*` and `churn` workloads run the
    /// nine-MV sales pipeline at scale 40: 22 MB of base data and a 29 MB
    /// `enriched_sales` hub. The 32 MiB budget holds the hub but not the
    /// hub plus `premium_sales`, so the knapsack has to choose.
    /// `serve_mixed` runs a quarter of that data with the budget scaled to
    /// keep the same choice. `smoke` shrinks every scale for a quick pass.
    pub fn spec(self, seed: u64, smoke: bool) -> ScenarioSpec {
        let shrink = if smoke { 0.05 } else { 1.0 };
        match self {
            Workload::FullCpu | Workload::Churn => {
                ScenarioSpec::sales_pipeline(40.0 * shrink, seed, 32 * MIB)
            }
            Workload::FullDevice => ScenarioSpec::sales_pipeline(40.0 * shrink, seed, 32 * MIB)
                .with_throttle(device_throttle())
                .with_lanes(2),
            Workload::ServeMixed => ScenarioSpec::sales_pipeline(10.0 * shrink, seed, 8 * MIB),
        }
    }
}

/// The paper's disk (§VI-A) with its read/write ratio and latency kept and
/// its bandwidth divided by 5.2, so that modeled device time dominates a
/// refresh of this data on a small host.
pub fn device_throttle() -> Throttle {
    let paper = Throttle::paper_disk();
    Throttle {
        read_bps: paper.read_bps / 5.2,
        write_bps: paper.write_bps / 5.2,
        latency_s: paper.latency_s,
    }
}

/// One set-up session with what the workloads need from its profiling run.
pub struct Rig {
    pub spec: ScenarioSpec,
    pub dir: PathBuf,
    pub session: Arc<ScSession>,
    /// Metrics of the profiling refresh (unoptimized order, every MV
    /// recomputed).
    pub profile: RunMetrics,
    /// The plan the session derived from the profile and caches.
    pub sc_plan: Plan,
    pub unopt_plan: Plan,
}

impl Rig {
    pub fn build(spec: ScenarioSpec, dir: PathBuf) -> Res<Rig> {
        let session = ScSession::from_spec(&dir, &spec).map_err(err("open session"))?;
        let report = session.refresh().map_err(err("profiling refresh"))?;
        if !report.profiled {
            return Err("the first refresh of a new session must profile".into());
        }
        let unopt_plan = report.plan.clone();
        let profile = report.metrics;
        let sc_plan = optimize(&spec, &profile)?;
        Ok(Rig {
            spec,
            dir,
            session: Arc::new(session),
            profile,
            sc_plan,
            unopt_plan,
        })
    }

    pub fn mv_names(&self) -> Vec<String> {
        self.spec.mvs.iter().map(|m| m.name.clone()).collect()
    }

    /// Stored bytes of the base tables.
    fn base_bytes(&self) -> Res<u64> {
        let disk = self.session.disk();
        self.spec
            .tables
            .table_names()
            .iter()
            .map(|t| disk.size_of(t).map_err(err("base size")))
            .sum()
    }

    /// On-disk bytes of the storage directory divided by the base bytes.
    pub fn stored_ratio(&self) -> Res<f64> {
        Ok(dir_bytes(&self.dir) as f64 / self.base_bytes()? as f64)
    }

    /// Current base tables, read through one snapshot.
    pub fn base_tables(&self) -> Res<HashMap<String, Arc<Table>>> {
        let snap = self.session.snapshot();
        self.spec
            .tables
            .table_names()
            .into_iter()
            .map(|t| {
                let table = snap.read_table(&t).map_err(err("read base"))?;
                Ok((t, Arc::new(table)))
            })
            .collect()
    }
}

/// The plan S/C Opt derives from `profile`, with the session's default
/// cost model: the same call the session makes when it caches a plan.
pub fn optimize(spec: &ScenarioSpec, profile: &RunMetrics) -> Res<Plan> {
    let problem = problem_from_metrics(
        &spec.mvs,
        profile,
        &CostModel::paper(),
        spec.config.memory_budget,
    )
    .map_err(err("optimizer problem"))?;
    ScOptimizer::default()
        .optimize(&problem)
        .map_err(err("optimize"))
}

/// Set-ups per run: at least `SETUP_MIN`, and more while their total
/// stays under `SETUP_BUDGET_S`, up to `SETUP_MAX`. Cheap set-ups thus get
/// more repetitions, which steadies their median.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 9;
const SETUP_BUDGET_S: f64 = 3.0;

/// Sets up repeatedly and keeps the last set-up, so set-up time is a
/// median. Earlier set-ups are torn down (and their directories removed)
/// before the next starts. Returns the kept value and every set-up time.
pub fn timed_setup<T>(
    root: &Path,
    mut setup: impl FnMut(PathBuf) -> Res<T>,
    mut teardown: impl FnMut(T),
) -> Res<(T, Vec<f64>)> {
    let mut times: Vec<f64> = Vec::with_capacity(SETUP_MAX);
    let mut kept = None;
    while times.len() < SETUP_MIN
        || (times.len() < SETUP_MAX && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let i = times.len();
        if let Some(prev) = kept.take() {
            teardown(prev);
            let _ = std::fs::remove_dir_all(root.join(format!("setup{}", i - 1)));
        }
        let dir = root.join(format!("setup{i}"));
        let started = Instant::now();
        kept = Some(setup(dir)?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up ran"), times))
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
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
