//! Per-layer measurements for the traced run. Each timed call into a
//! layer's public functions sits in a span, and the metric is computed
//! from those spans.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

use sc::core::NodeMode;
use sc::dag::NodeId;
use sc::engine::controller::RunMetrics;
use sc::engine::storage::format;
use sc::engine::Table;
use sc::sim::Simulator;

use crate::procfs::{self, IoCounters};
use crate::rig::{err, optimize, Res, Rig};
use crate::schedule::derive_seed;
use crate::serve_load::{self, LoadOutcome, LATE};
use crate::stats::{beyond, median, percentile};
use crate::trace::Tracer;
use crate::workloads::{churn_batch, encoded_bytes, wire_batches, LoopOutcome};

const MB: f64 = 1e6;
/// Repetitions of each timed layer call.
const REPS: usize = 3;
/// Probe table written through the disk catalog.
const PROBE_TABLE: &str = "perfbench_probe";
/// How long the serve probe runs on workloads without a server.
const SERVE_PROBE: Duration = Duration::from_millis(1500);
/// The serve probe's request rate. Those workloads hold four times
/// `serve_mixed`'s data, and a query costs in proportion, so they get a
/// quarter of its rate.
const PROBE_RATE: f64 = serve_load::RATE / 4.0;

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn repeat<R>(tracer: &Tracer, name: &'static str, mut f: impl FnMut() -> Res<R>) -> Res<R> {
    let mut last = None;
    for _ in 0..REPS {
        last = Some(tracer.span(name, &mut f)?);
    }
    Ok(last.expect("REPS > 0"))
}

/// Sizes of the nodes the S/C plan flags, as the profile observed them.
fn flagged_bytes(rig: &Rig) -> u64 {
    let sizes: HashMap<&str, u64> = rig
        .profile
        .nodes
        .iter()
        .map(|n| (n.name.as_str(), n.output_bytes))
        .collect();
    rig.spec
        .mvs
        .iter()
        .enumerate()
        .filter(|(i, _)| rig.sc_plan.flagged.contains(NodeId(*i)))
        .map(|(_, mv)| sizes.get(mv.name.as_str()).copied().unwrap_or(0))
        .sum()
}

/// Full refreshes under both plans, as measured by the main loop or, for
/// workloads whose loop runs no full refresh, by a pair run here.
pub struct FullPair {
    pub sc_s: f64,
    pub unopt_s: f64,
    /// A full profiling run of the current data, for the simulator mirror.
    pub profile: RunMetrics,
    /// Engine reports of S/C refreshes, when the main loop had none.
    pub sc_runs: Vec<RunMetrics>,
    pub sc_io: Vec<IoCounters>,
}

pub fn full_pair(rig: &Rig, tracer: &Tracer, lo: Option<&LoopOutcome>) -> Res<FullPair> {
    if let Some(lo) = lo {
        return Ok(FullPair {
            sc_s: med(&lo.primary_s),
            unopt_s: med(&lo.secondary_s),
            profile: rig.profile.clone(),
            sc_runs: Vec::new(),
            sc_io: Vec::new(),
        });
    }
    let session = &rig.session;
    let mut pair = FullPair {
        sc_s: 0.0,
        unopt_s: 0.0,
        profile: rig.profile.clone(),
        sc_runs: Vec::new(),
        sc_io: Vec::new(),
    };
    for _ in 0..REPS {
        pair.profile = tracer
            .span("core.refresh_unopt", || {
                session.refresh_with_plan(&rig.unopt_plan)
            })
            .map_err(err("unoptimized refresh"))?;
        let io = procfs::io();
        let sc = tracer
            .span("core.refresh_sc", || {
                session.refresh_with_plan(&rig.sc_plan)
            })
            .map_err(err("S/C refresh"))?;
        pair.sc_io.push(procfs::io().since(io));
        pair.sc_runs.push(sc);
    }
    pair.sc_s = tracer.median_s("core.refresh_sc");
    pair.unopt_s = tracer.median_s("core.refresh_unopt");
    Ok(pair)
}

/// `core`, `sim` and `controller` layers.
pub fn core(
    rig: &Rig,
    tracer: &Tracer,
    pair: &FullPair,
    runs: &[RunMetrics],
    l: &mut Layers,
) -> Res<()> {
    repeat(tracer, "core.optimize", || {
        optimize(&rig.spec, &rig.profile)
    })?;
    l.insert("core.optimize_ms", tracer.median_s("core.optimize") * 1e3);
    l.insert("core.flagged_mb", flagged_bytes(rig) as f64 / MB);
    l.insert("core.sc_speedup", ratio(pair.unopt_s, pair.sc_s));

    let mirrored = tracer
        .span("sim.mirror", || {
            rig.spec
                .mirror(rig.session.disk(), &pair.profile, rig.session.delta_store())
        })
        .map_err(err("simulator mirror"))?;
    let sim = Simulator::new(rig.spec.sim_config());
    let sim_sc = sim
        .run(&mirrored, &rig.sc_plan)
        .map_err(err("simulate S/C"))?;
    let sim_unopt = sim
        .run(&mirrored, &rig.unopt_plan)
        .map_err(err("simulate unoptimized"))?;
    l.insert("sim.refresh_sc_ratio", ratio(sim_sc.total_s, pair.sc_s));
    l.insert(
        "sim.refresh_unopt_ratio",
        ratio(sim_unopt.total_s, pair.unopt_s),
    );

    let per_run = |f: &dyn Fn(&RunMetrics) -> f64| med(&runs.iter().map(f).collect::<Vec<_>>());
    let count = |mode: fn(&sc::engine::controller::NodeMetrics) -> bool| {
        per_run(&|r| r.nodes.iter().filter(|n| mode(n)).count() as f64)
    };
    l.insert("controller.read_s", per_run(&|r| r.total_read_s()));
    l.insert("controller.compute_s", per_run(&|r| r.total_compute_s()));
    l.insert("controller.write_s", per_run(&|r| r.total_write_s()));
    l.insert("controller.drain_s", per_run(&|r| r.final_drain_s));
    let (mem, disk) = runs
        .iter()
        .flat_map(|r| &r.nodes)
        .fold((0, 0), |(m, d), n| (m + n.memory_reads, d + n.disk_reads));
    l.insert(
        "controller.memory_hit_ratio",
        ratio(mem as f64, (mem + disk) as f64),
    );
    l.insert("controller.fallbacks", count(|n| n.fell_back));
    l.insert(
        "controller.incremental_nodes",
        count(|n| n.mode == NodeMode::Incremental),
    );
    l.insert(
        "controller.appended_mb",
        per_run(&|r| r.nodes.iter().map(|n| n.appended_bytes).sum::<u64>() as f64 / MB),
    );
    l.insert(
        "memory.peak_mb",
        per_run(&|r| r.peak_memory_bytes as f64 / MB),
    );
    Ok(())
}

/// `exec` and `format` layers: kernels and the codec on the workload's
/// own tables, in memory.
pub fn exec_and_format(rig: &Rig, seed: u64, tracer: &Tracer, l: &mut Layers) -> Res<()> {
    let mut tables = rig.base_tables()?;
    let hub_mv = &rig.spec.mvs[0];
    let agg_mv = &rig.spec.mvs[1];
    let hub = repeat(tracer, "exec.hub_join", || {
        hub_mv.plan.execute(&tables).map_err(err("hub join"))
    })?;
    let hub = Arc::new(hub);
    tables.insert(hub_mv.name.clone(), Arc::clone(&hub));
    repeat(tracer, "exec.aggregate", || {
        agg_mv.plan.execute(&tables).map_err(err("aggregate"))
    })?;
    let delta = churn_batch(rig, derive_seed(seed, u64::MAX))?;
    let deltas = HashMap::from([("store_sales".to_string(), delta)]);
    repeat(tracer, "exec.delta_join", || {
        hub_mv
            .plan
            .execute_delta(&deltas, &tables)
            .map_err(err("delta join"))
    })?;
    l.insert("exec.hub_join_ms", tracer.median_s("exec.hub_join") * 1e3);
    l.insert("exec.aggregate_ms", tracer.median_s("exec.aggregate") * 1e3);
    l.insert(
        "exec.delta_join_ms",
        tracer.median_s("exec.delta_join") * 1e3,
    );

    let encoded = repeat(tracer, "format.encode", || Ok(format::encode(&hub)))?;
    let mb = encoded.len() as f64 / MB;
    let decoded: Table = repeat(tracer, "format.decode", || {
        format::decode(encoded.clone()).map_err(err("decode"))
    })?;
    if decoded != *hub {
        return Err("the hub did not survive an encode/decode round trip".into());
    }
    repeat(tracer, "format.checksum", || Ok(format::fnv1a64(&encoded)))?;
    for (metric, span) in [
        ("format.encode_mbps", "format.encode"),
        ("format.decode_mbps", "format.decode"),
        ("format.checksum_mbps", "format.checksum"),
    ] {
        l.insert(metric, ratio(mb, tracer.median_s(span)));
    }
    Ok(())
}

/// `disk` layer: the catalog's write, read, append, compact and pin paths
/// on a probe copy of `premium_sales`, through the workload's own
/// (possibly throttled) catalog.
pub fn disk(rig: &Rig, tracer: &Tracer, refresh_io: &[IoCounters], l: &mut Layers) -> Res<()> {
    let disk = rig.session.disk();
    let table = rig
        .session
        .snapshot()
        .read_table("premium_sales")
        .map_err(err("read premium_sales"))?;
    let slice = table
        .take_rows(&(0..table.num_rows().div_ceil(100)).collect::<Vec<_>>())
        .map_err(err("slice"))?;
    repeat(tracer, "disk.write_table", || {
        disk.write_table(PROBE_TABLE, &table).map_err(err("write"))
    })?;
    repeat(tracer, "disk.read_table", || {
        disk.read_table(PROBE_TABLE).map_err(err("read"))
    })?;
    repeat(tracer, "disk.append", || {
        disk.append_table(PROBE_TABLE, &slice)
            .map_err(err("append"))
    })?;
    tracer
        .span("disk.compact", || disk.compact(PROBE_TABLE))
        .map_err(err("compact"))?;
    for _ in 0..200 {
        tracer.span("disk.pin", || drop(disk.pin()));
    }
    disk.drop_table(PROBE_TABLE).map_err(err("drop probe"))?;
    for (metric, span) in [
        ("disk.write_table_ms", "disk.write_table"),
        ("disk.read_table_ms", "disk.read_table"),
        ("disk.append_ms", "disk.append"),
        ("disk.compact_ms", "disk.compact"),
    ] {
        l.insert(metric, tracer.median_s(span) * 1e3);
    }
    l.insert("disk.pin_us", tracer.median_s("disk.pin") * 1e6);
    let per_refresh = |f: fn(&IoCounters) -> u64| {
        med(&refresh_io.iter().map(|io| f(io) as f64).collect::<Vec<_>>()) / MB
    };
    l.insert("disk.rchar_per_refresh_mb", per_refresh(|io| io.rchar));
    l.insert("disk.wchar_per_refresh_mb", per_refresh(|io| io.wchar));
    Ok(())
}

/// `serve` and `gen` layers from one open-loop run.
pub fn serve(load: &LoadOutcome, l: &mut Layers) {
    for (what, n, p) in [
        ("read", load.read_us.len(), 99.0),
        ("query", load.query_us.len(), 95.0),
    ] {
        if beyond(n, p) < 10 {
            eprintln!("note: {what} p{p} has fewer than 10 samples beyond it ({n} samples)");
        }
    }
    l.insert("serve.cache_hit_ratio", load.cache_hit_ratio());
    l.insert(
        "serve.read_p99_us",
        percentile(&load.read_us, 99.0).unwrap_or(0.0),
    );
    l.insert(
        "serve.query_p95_us",
        percentile(&load.query_us, 95.0).unwrap_or(0.0),
    );
    l.insert(
        "serve.server_p99_us",
        load.server.p99_us().unwrap_or(0) as f64,
    );
    l.insert("serve.rejected", load.rejected() as f64);
    l.insert("serve.maint_ingest_s", med(&load.maint_ingest_s));
    l.insert("serve.maint_refresh_s", med(&load.maint_refresh_s));
    let late = LATE.as_secs_f64() * 1e6;
    l.insert(
        "gen.late_share",
        ratio(
            load.late_us.iter().filter(|&&u| u > late).count() as f64,
            load.late_us.len() as f64,
        ),
    );
    l.insert(
        "gen.late_p99_us",
        percentile(&load.late_us, 99.0).unwrap_or(0.0),
    );
}

/// A short open-loop serve run over a workload that has no server of its
/// own.
pub fn serve_probe(rig: &Rig, seed: u64, tracer: &Tracer) -> Res<LoadOutcome> {
    let server = serve_load::start_server(&rig.session)?;
    let deltas = wire_batches(rig, seed, 2)?;
    serve_load::run(
        &rig.session,
        server,
        SERVE_PROBE,
        deltas,
        seed,
        PROBE_RATE,
        tracer,
    )
}

/// `delta` layer: bytes `ingest` writes per batch against the batch's
/// encoded size.
pub fn delta(ingest_wchar: &[u64], ingest_encoded: &[u64], l: &mut Layers) {
    let wchar: Vec<f64> = ingest_wchar.iter().map(|&b| b as f64).collect();
    let amp: Vec<f64> = ingest_wchar
        .iter()
        .zip(ingest_encoded)
        .map(|(&w, &e)| ratio(w as f64, e as f64))
        .collect();
    l.insert("delta.ingest_wchar_mb", med(&wchar) / MB);
    l.insert("delta.ingest_write_amp", med(&amp));
}

/// One measured ingest of a batch, for workloads whose loop ingests
/// nothing locally. Returns `(wchar, encoded bytes)`.
pub fn ingest_once(rig: &Rig, seed: u64, tracer: &Tracer) -> Res<(u64, u64)> {
    let batch = churn_batch(rig, derive_seed(seed, u64::MAX - 1))?;
    let encoded = encoded_bytes(&batch)?;
    let io = procfs::io();
    tracer
        .span("delta.ingest", || {
            rig.session.ingest_delta("store_sales", batch)
        })
        .map_err(err("ingest"))?;
    Ok((procfs::io().since(io).wchar, encoded))
}
