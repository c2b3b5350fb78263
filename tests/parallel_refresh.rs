//! Cross-crate tests for the refresh executor across lane counts: 1-lane
//! and 4-lane runs must be observationally identical (byte-for-byte MV
//! contents, drained Memory Catalog) and both must store what a
//! from-scratch recomputation produces; the whole profile → optimize →
//! refresh loop must be deterministic for a fixed dataset seed.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use sc::{RefreshReport, ScSession};
use sc_engine::plan::TableSource;
use sc_engine::{RunMetrics, Table};
use sc_workload::engine_mvs::sales_pipeline;
use sc_workload::tpcds::TinyTpcds;

fn system_with_data(budget: u64, scale: f64, lanes: usize) -> (tempfile::TempDir, ScSession) {
    let dir = tempfile::tempdir().unwrap();
    let sys = ScSession::builder()
        .storage_dir(dir.path())
        .memory_budget(budget)
        .lanes(lanes)
        .build()
        .unwrap();
    TinyTpcds::generate(scale, 42)
        .load_into(sys.disk())
        .unwrap();
    for mv in sales_pipeline() {
        sys.register_mv(mv).unwrap();
    }
    (dir, sys)
}

/// Stored files (name, bytes) backing one table.
type StoredFiles = Vec<(String, Vec<u8>)>;

/// The stored file bytes (manifest + segments) of every registered MV.
fn mv_file_bytes(sys: &ScSession) -> Vec<(String, StoredFiles)> {
    sys.mvs()
        .iter()
        .map(|mv| {
            (
                mv.name.clone(),
                sys.disk().stored_file_bytes(&mv.name).unwrap(),
            )
        })
        .collect()
}

/// Profiles (the first managed refresh), then runs the cached optimized
/// plan; returns both reports.
fn profile_then_optimize(sys: &ScSession) -> (RefreshReport, RefreshReport) {
    let profile = sys.refresh().unwrap();
    assert!(profile.profiled);
    (profile, sys.refresh().unwrap())
}

/// Every registered MV recomputed from scratch: each MV's plan executed
/// over the base tables, parents recomputed the same way, with no Memory
/// Catalog involved.
fn recomputed_from_scratch(sys: &ScSession) -> Vec<(String, Table)> {
    struct Scratch<'a> {
        sys: &'a ScSession,
        done: HashMap<String, Arc<Table>>,
    }
    impl TableSource for Scratch<'_> {
        fn table(&self, name: &str) -> sc_engine::Result<Arc<Table>> {
            match self.done.get(name) {
                Some(t) => Ok(Arc::clone(t)),
                None => self.sys.disk().read_table(name).map(Arc::new),
            }
        }
    }
    let mut scratch = Scratch {
        sys,
        done: HashMap::new(),
    };
    let graph = sys.dependency_graph().unwrap();
    let mvs = sys.mvs();
    for v in graph.kahn_order() {
        let mv = &mvs[v.index()];
        let table = mv.plan.execute(&scratch).unwrap();
        scratch.done.insert(mv.name.clone(), Arc::new(table));
    }
    mvs.iter()
        .map(|mv| (mv.name.clone(), scratch.done[&mv.name].as_ref().clone()))
        .collect()
}

/// Differential test: `lanes = 1` and `lanes = 4` refreshes of the same
/// optimized plan produce byte-identical MV tables, both equal to a
/// from-scratch recomputation, and a drained Memory Catalog.
#[test]
fn parallel_refresh_is_byte_identical_to_sequential() {
    let (_d1, seq_sys) = system_with_data(8 << 20, 0.5, 1);
    let (_d2, par_sys) = system_with_data(8 << 20, 0.5, 4);
    assert_eq!(par_sys.refresh_config().lanes, 4);

    let (_, seq_run) = profile_then_optimize(&seq_sys);
    let (_, par_run) = profile_then_optimize(&par_sys);

    // Same data, same profile → same plan on both systems.
    assert_eq!(
        seq_run.plan, par_run.plan,
        "plans must agree across lane counts"
    );
    assert!(
        seq_run.plan.flagged.count() > 0,
        "expected flagging at this budget"
    );
    assert_eq!(seq_run.nodes().len(), par_run.nodes().len());
    for (name, expected) in recomputed_from_scratch(&seq_sys) {
        for (lanes, sys) in [(1, &seq_sys), (4, &par_sys)] {
            assert_eq!(
                sys.disk().read_table(&name).unwrap(),
                expected,
                "{lanes}-lane run must store '{name}' as recomputed from scratch"
            );
        }
    }

    for ((name_a, bytes_a), (name_b, bytes_b)) in mv_file_bytes(&seq_sys)
        .into_iter()
        .zip(mv_file_bytes(&par_sys))
    {
        assert_eq!(name_a, name_b);
        assert_eq!(
            bytes_a, bytes_b,
            "MV '{name_a}' differs between 1-lane and 4-lane runs"
        );
    }
    assert!(
        seq_sys.memory().is_empty(),
        "1-lane run must drain the catalog"
    );
    assert!(
        par_sys.memory().is_empty(),
        "4-lane run must drain the catalog"
    );
}

/// A 4-lane run reports node metrics in plan order with the same row
/// counts, sizes and flag outcomes as the 1-lane run.
#[test]
fn parallel_metrics_agree_with_sequential() {
    let (_d1, seq_sys) = system_with_data(8 << 20, 0.5, 1);
    let (_d2, par_sys) = system_with_data(8 << 20, 0.5, 4);
    let (_, seq_run) = profile_then_optimize(&seq_sys);
    let (_, par_run) = profile_then_optimize(&par_sys);
    for (a, b) in seq_run.nodes().iter().zip(par_run.nodes()) {
        assert_eq!(a.name, b.name, "metrics must stay in plan order");
        assert_eq!(a.rows, b.rows, "{} row count differs", a.name);
        assert_eq!(a.output_bytes, b.output_bytes, "{} size differs", a.name);
        assert_eq!(a.flagged, b.flagged, "{} flag status differs", a.name);
    }
}

/// The node set of a run, independent of wall-clock completion order.
fn node_set(run: &RunMetrics) -> BTreeSet<(String, usize, u64, bool)> {
    run.nodes
        .iter()
        .map(|n| (n.name.clone(), n.rows, n.output_bytes, n.flagged))
        .collect()
}

/// Determinism: two systems built from the same TinyTpcds seed yield
/// identical plans and identical `RunMetrics` node sets.
#[test]
fn same_seed_yields_identical_plans_and_node_sets() {
    let (_d1, sys_a) = system_with_data(8 << 20, 0.5, 4);
    let (_d2, sys_b) = system_with_data(8 << 20, 0.5, 4);

    let (base_a, opt_a) = profile_then_optimize(&sys_a);
    let (base_b, opt_b) = profile_then_optimize(&sys_b);

    assert_eq!(opt_a.plan, opt_b.plan, "same seed must give the same plan");
    assert_eq!(node_set(&base_a.metrics), node_set(&base_b.metrics));
    assert_eq!(node_set(&opt_a.metrics), node_set(&opt_b.metrics));
    // And across a re-refresh of the same plan.
    let again = sys_a.refresh_with_plan(&opt_a.plan).unwrap();
    assert_eq!(node_set(&again), node_set(&opt_a.metrics));
}

/// A different seed changes the data (sanity check that the determinism
/// test is not vacuous).
#[test]
fn different_seed_changes_the_data() {
    let dir_a = tempfile::tempdir().unwrap();
    let dir_b = tempfile::tempdir().unwrap();
    let sys_a = ScSession::builder()
        .storage_dir(dir_a.path())
        .build()
        .unwrap();
    let sys_b = ScSession::builder()
        .storage_dir(dir_b.path())
        .build()
        .unwrap();
    TinyTpcds::generate(0.3, 42)
        .load_into(sys_a.disk())
        .unwrap();
    TinyTpcds::generate(0.3, 43)
        .load_into(sys_b.disk())
        .unwrap();
    let a = sys_a.disk().read_table("store_sales").unwrap();
    let b = sys_b.disk().read_table("store_sales").unwrap();
    assert_ne!(a, b, "different seeds must generate different fact tables");
}
