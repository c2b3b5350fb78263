//! The timed main loop of each workload.

use std::time::{Duration, Instant};

use sc::engine::controller::RunMetrics;
use sc::engine::exec::TableDelta;
use sc::workload::updates::{generate_delta, UpdateStreamSpec};

use crate::check;
use crate::procfs::{self, IoCounters};
use crate::rig::{err, Res, Rig};
use crate::schedule::derive_seed;
use crate::trace::Tracer;

/// Share of `store_sales` each insert batch (a churn round or a wire
/// maintenance round) adds. Batches compound, and at this share a run's
/// batches grow the hub about 8 %, which keeps it inside the memory
/// budget for the whole run, so every refresh runs the same plan without
/// memory-pressure fallbacks.
pub const BATCH_FRACTION: f64 = 0.0025;
/// Churn rounds between compactions of every MV.
pub const COMPACT_EVERY: usize = 4;
/// Churn rounds per run, so every run maintains the same data sizes
/// however fast it goes (the time window still ends a slow run early).
pub const MAX_ROUNDS: usize = 32;

/// What a main loop measured.
#[derive(Debug, Default)]
pub struct LoopOutcome {
    /// Wall seconds of the workload's primary operation, each sample.
    pub primary_s: Vec<f64>,
    pub secondary_s: Vec<f64>,
    /// Primary-operation samples split by whether spans were recorded.
    pub traced_s: Vec<f64>,
    pub untraced_s: Vec<f64>,
    /// Engine reports of the primary refreshes.
    pub runs: Vec<RunMetrics>,
    /// I/O counter growth around each primary refresh.
    pub refresh_io: Vec<IoCounters>,
    /// `wchar` growth around each ingest, and the encoded batch bytes.
    pub ingest_wchar: Vec<u64>,
    pub ingest_encoded: Vec<u64>,
    pub stored_ratio: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl LoopOutcome {
    fn record(&mut self, traced: bool, secs: f64) {
        self.primary_s.push(secs);
        if traced {
            self.traced_s.push(secs);
        } else {
            self.untraced_s.push(secs);
        }
    }
}

/// Times `f`, with the I/O counter growth it caused.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, IoCounters) {
    let io = procfs::io();
    let started = Instant::now();
    let out = f();
    let secs = started.elapsed().as_secs_f64();
    (out, secs, procfs::io().since(io))
}

/// `full_cpu` / `full_device`: alternate a refresh under the cached S/C
/// plan with one under the unoptimized plan. The delta log stays empty, so
/// every MV recomputes in both. Both plans must leave byte-identical MV
/// files.
pub fn full(rig: &Rig, window: Duration, tracer: &Tracer) -> Res<LoopOutcome> {
    let mut out = LoopOutcome::default();
    let deadline = Instant::now() + window;
    let mut reference = None;
    let mut pair = 0usize;
    // At least two pairs, so the byte-identity rider compares both plans.
    while pair < 2 || Instant::now() < deadline {
        let traced = pair.is_multiple_of(2);
        out.attempted += 2;
        let (sc, secs, io) =
            timed(|| tracer.span_if(traced, "refresh.sc", || rig.session.refresh()));
        match sc {
            Ok(report) if !report.profiled && report.plan == rig.sc_plan => {
                out.record(traced, secs);
                out.refresh_io.push(io);
                out.runs.push(report.metrics);
            }
            Ok(_) => out
                .violations
                .push("the S/C refresh did not run the cached optimized plan".into()),
            Err(e) => {
                out.failed += 1;
                eprintln!("S/C refresh failed: {e}");
            }
        }
        // Digests read every MV file (through the throttle on
        // `full_device`), so only the first two pairs and the final state
        // are compared.
        let sc_files = (pair < 2).then(|| check::stored_digest(rig)).transpose()?;
        let (unopt, secs, _) = timed(|| {
            tracer.span_if(traced, "refresh.unopt", || {
                rig.session.refresh_with_plan(&rig.unopt_plan)
            })
        });
        match unopt {
            Ok(_) => out.secondary_s.push(secs),
            Err(e) => {
                out.failed += 1;
                eprintln!("unoptimized refresh failed: {e}");
            }
        }
        if let Some(sc_files) = sc_files {
            let unopt_files = check::stored_digest(rig)?;
            let reference = reference.get_or_insert_with(|| sc_files.clone());
            if sc_files != *reference || unopt_files != *reference {
                out.violations.push(format!(
                    "pair {pair}: MV files differ between the S/C and unoptimized plans"
                ));
            }
        }
        pair += 1;
    }
    if reference != Some(check::stored_digest(rig)?) {
        out.violations
            .push("the last refresh left MV files unlike the first".into());
    }
    out.stored_ratio.push(rig.stored_ratio()?);
    Ok(out)
}

/// A seeded insert batch of `BATCH_FRACTION` against the current
/// `store_sales`.
pub fn churn_batch(rig: &Rig, seed: u64) -> Res<TableDelta> {
    let base = rig
        .session
        .snapshot()
        .read_table("store_sales")
        .map_err(err("read store_sales"))?;
    Ok(generate_delta(
        &base,
        &UpdateStreamSpec::inserts(BATCH_FRACTION),
        seed,
    ))
}

/// Encoded size of a delta: what the wire and the log carry.
pub fn encoded_bytes(delta: &TableDelta) -> Res<u64> {
    let table = delta.to_table().map_err(err("encode delta"))?;
    Ok(sc::engine::storage::format::encode(&table).len() as u64)
}

/// `churn`: rounds of a `store_sales` insert batch, then an `Auto`
/// refresh, compacting every MV each `COMPACT_EVERY` rounds.
pub fn churn(rig: &Rig, seed: u64, window: Duration, tracer: &Tracer) -> Res<LoopOutcome> {
    let mut out = LoopOutcome::default();
    let deadline = Instant::now() + window;
    let mut round = 0usize;
    while round < COMPACT_EVERY || (round < MAX_ROUNDS && Instant::now() < deadline) {
        let traced = round.is_multiple_of(2);
        let delta = churn_batch(rig, derive_seed(seed, round as u64))?;
        out.ingest_encoded.push(encoded_bytes(&delta)?);
        out.attempted += 2;
        let (ingested, secs, io) = timed(|| {
            tracer.span_if(traced, "ingest", || {
                rig.session.ingest_delta("store_sales", delta)
            })
        });
        if let Err(e) = ingested {
            out.failed += 2;
            eprintln!("ingest failed: {e}");
            round += 1;
            continue;
        }
        out.secondary_s.push(secs);
        out.ingest_wchar.push(io.wchar);

        let (refreshed, secs, io) =
            timed(|| tracer.span_if(traced, "refresh.incr", || rig.session.refresh()));
        match refreshed {
            Ok(report) => {
                out.record(traced, secs);
                out.refresh_io.push(io);
                out.runs.push(report.metrics);
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("incremental refresh failed: {e}");
            }
        }
        round += 1;
        if round.is_multiple_of(COMPACT_EVERY) {
            out.stored_ratio.push(rig.stored_ratio()?);
            out.attempted += 1;
            if let Err(e) = tracer.span("compact", || rig.session.compact_mvs()) {
                out.failed += 1;
                eprintln!("compaction failed: {e}");
            }
        }
    }
    Ok(out)
}

/// The churn riders: every MV equals its recomputation and no superseded
/// file stays. They run after `peak_rss_mb` is read, since the
/// recomputation holds every MV in memory at once.
pub fn churn_violations(rig: &Rig) -> Vec<String> {
    [
        check::mvs_match_recomputation(rig),
        check::no_retained_files(rig),
    ]
    .into_iter()
    .filter_map(Result::err)
    .collect()
}

/// Seeded insert batches for wire maintenance, all drawn from the
/// `store_sales` contents at set-up (inputs are made before timing).
pub fn wire_batches(rig: &Rig, seed: u64, count: usize) -> Res<Vec<TableDelta>> {
    let base = rig
        .session
        .snapshot()
        .read_table("store_sales")
        .map_err(err("read store_sales"))?;
    Ok((0..count)
        .map(|k| {
            generate_delta(
                &base,
                &UpdateStreamSpec::inserts(BATCH_FRACTION),
                derive_seed(seed, 1_000_000 + k as u64),
            )
        })
        .collect())
}
