//! The repository benchmark: S/C against the unoptimized refresh,
//! incremental churn, and open-loop serving, end to end (`--trace 0`) and
//! per layer (`--trace 1`). It drives the library only through public
//! calls and checks every output it measures. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload full_cpu --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Storage goes under `.perfbench/`
//! in the working directory and is removed at exit; the traced run leaves
//! its per-layer metrics and spans there.

mod check;
mod probes;
mod procfs;
mod rig;
mod schedule;
mod serve_load;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use probes::Layers;
use rig::{timed_setup, Res, Rig, Workload};
use stats::median;
use trace::Tracer;

/// End-to-end metrics (`--trace 0`), with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("primary_ms", "ms"),
    ("secondary_ms", "ms"),
    ("stored_ratio", "ratio"),
];

/// Per-layer metrics (`--trace 1`), with their units.
const PER_LAYER: [(&str, &str); 40] = [
    ("core.optimize_ms", "ms"),
    ("core.flagged_mb", "MB"),
    ("core.sc_speedup", "x"),
    ("controller.read_s", "s"),
    ("controller.compute_s", "s"),
    ("controller.write_s", "s"),
    ("controller.drain_s", "s"),
    ("controller.memory_hit_ratio", "ratio"),
    ("controller.fallbacks", "count"),
    ("controller.incremental_nodes", "count"),
    ("controller.appended_mb", "MB"),
    ("memory.peak_mb", "MB"),
    ("exec.hub_join_ms", "ms"),
    ("exec.aggregate_ms", "ms"),
    ("exec.delta_join_ms", "ms"),
    ("format.encode_mbps", "MB/s"),
    ("format.decode_mbps", "MB/s"),
    ("format.checksum_mbps", "MB/s"),
    ("disk.write_table_ms", "ms"),
    ("disk.read_table_ms", "ms"),
    ("disk.append_ms", "ms"),
    ("disk.compact_ms", "ms"),
    ("disk.pin_us", "us"),
    ("disk.retained_files", "count"),
    ("disk.rchar_per_refresh_mb", "MB"),
    ("disk.wchar_per_refresh_mb", "MB"),
    ("delta.ingest_wchar_mb", "MB"),
    ("delta.ingest_write_amp", "ratio"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.read_p99_us", "us"),
    ("serve.query_p95_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.rejected", "count"),
    ("serve.maint_ingest_s", "s"),
    ("serve.maint_refresh_s", "s"),
    ("gen.late_share", "ratio"),
    ("gen.late_p99_us", "us"),
    ("sim.refresh_sc_ratio", "ratio"),
    ("sim.refresh_unopt_ratio", "ratio"),
    ("trace.overhead", "ratio"),
];

#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 20.0;
    let mut trace = false;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = match (workload, smoke) {
        (Some(w), _) => w,
        (None, true) => Workload::FullCpu,
        (None, false) => return Err("--workload is required".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        smoke,
    })
}

/// What one run reports.
#[derive(Debug)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    violations: Vec<String>,
}

impl Outcome {
    fn json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }

    fn table(&self, workload: Workload) -> String {
        let mut out = format!("{} ({} CPUs)\n", workload.name(), cpus());
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "  {name:<30} {value:>14.4} {unit}");
        }
        out
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`; a metric that could not be
/// measured is `null`.
fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() {
            format!("{value}")
        } else {
            "null".into()
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!("{{{m}}}")
}

fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Everything the main loop and the traced probes of one workload give.
struct Measured {
    setup_s: Vec<f64>,
    peak_rss_mb: f64,
    primary_ms: f64,
    secondary_ms: f64,
    stored_ratio: f64,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    layers: Layers,
}

/// The median of `samples` times `scale`; the sample count and range go
/// to standard error, to tell noise within a run from noise between runs.
fn ms(what: &str, samples: &[f64], scale: f64) -> f64 {
    let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mid = median(samples).map_or(f64::NAN, |v| v * scale);
    eprintln!(
        "{what}: {} samples, min {:.4} median {mid:.4} max {:.4} ms",
        samples.len(),
        lo * scale,
        hi * scale
    );
    mid
}

fn overhead(traced: &[f64], untraced: &[f64]) -> f64 {
    match (median(traced), median(untraced)) {
        (Some(t), Some(u)) if u > 0.0 => t / u,
        _ => f64::NAN,
    }
}

fn run_local(args: &Args, root: &Path, tracer: &Tracer) -> Res<Measured> {
    let window = Duration::from_secs_f64(args.seconds);
    let spec = args.workload.spec(args.seed, args.smoke);
    let (rig, setup_s) = timed_setup(root, |dir| Rig::build(spec.clone(), dir), drop)?;
    let lo = match args.workload {
        Workload::Churn => workloads::churn(&rig, args.seed, window, tracer)?,
        _ => workloads::full(&rig, window, tracer)?,
    };
    let peak_rss_mb = procfs::peak_rss_mb().unwrap_or(f64::NAN);
    let mut m = Measured {
        setup_s,
        peak_rss_mb,
        primary_ms: ms("primary", &lo.primary_s, 1e3),
        secondary_ms: ms("secondary", &lo.secondary_s, 1e3),
        stored_ratio: median(&lo.stored_ratio).unwrap_or(f64::NAN),
        attempted: lo.attempted,
        failed: lo.failed,
        violations: lo.violations.clone(),
        layers: Layers::new(),
    };
    if args.workload == Workload::Churn {
        m.violations.extend(workloads::churn_violations(&rig));
    }
    if tracer.enabled() {
        let l = &mut m.layers;
        let from_loop = (args.workload != Workload::Churn).then_some(&lo);
        let pair = probes::full_pair(&rig, tracer, from_loop)?;
        probes::core(&rig, tracer, &pair, &lo.runs, l)?;
        probes::exec_and_format(&rig, args.seed, tracer, l)?;
        probes::disk(&rig, tracer, &lo.refresh_io, l)?;
        let load = probes::serve_probe(&rig, args.seed, tracer)?;
        m.violations.extend(load.violations.iter().cloned());
        probes::serve(&load, l);
        if args.workload == Workload::Churn {
            probes::delta(&lo.ingest_wchar, &lo.ingest_encoded, l);
        } else {
            let (wchar, encoded) = probes::ingest_once(&rig, args.seed, tracer)?;
            probes::delta(&[wchar], &[encoded], l);
        }
        l.insert("trace.overhead", overhead(&lo.traced_s, &lo.untraced_s));
        finish_layers(&rig, l)?;
    }
    Ok(m)
}

fn run_serve(args: &Args, root: &Path, tracer: &Tracer) -> Res<Measured> {
    let window = Duration::from_secs_f64(args.seconds);
    let spec = args.workload.spec(args.seed, args.smoke);
    let ((rig, server), setup_s) = timed_setup(
        root,
        |dir| {
            let rig = Rig::build(spec.clone(), dir)?;
            let server = serve_load::start_server(&rig.session)?;
            Ok((rig, server))
        },
        |(rig, server)| {
            server.shutdown();
            drop(rig);
        },
    )?;
    let batches = (args.seconds / serve_load::MAINT_EVERY.as_secs_f64()).ceil() as usize + 1;
    let deltas = workloads::wire_batches(&rig, args.seed, batches)?;
    let load = serve_load::run(
        &rig.session,
        server,
        window,
        deltas,
        args.seed,
        serve_load::RATE,
        tracer,
    )?;
    let peak_rss_mb = procfs::peak_rss_mb().unwrap_or(f64::NAN);
    let mut m = Measured {
        setup_s,
        peak_rss_mb,
        primary_ms: ms("primary", &load.read_us, 1e-3),
        secondary_ms: ms("secondary", &load.query_us, 1e-3),
        stored_ratio: rig.stored_ratio()?,
        attempted: load.attempted,
        failed: load.failed,
        violations: load.violations.clone(),
        layers: Layers::new(),
    };
    if tracer.enabled() {
        let l = &mut m.layers;
        let pair = probes::full_pair(&rig, tracer, None)?;
        probes::core(&rig, tracer, &pair, &pair.sc_runs, l)?;
        probes::exec_and_format(&rig, args.seed, tracer, l)?;
        probes::disk(&rig, tracer, &pair.sc_io, l)?;
        probes::serve(&load, l);
        let (wchar, encoded) = probes::ingest_once(&rig, args.seed, tracer)?;
        probes::delta(&[wchar], &[encoded], l);
        l.insert(
            "trace.overhead",
            overhead(&load.read_traced_us, &load.read_untraced_us),
        );
        finish_layers(&rig, l)?;
    }
    Ok(m)
}

/// Layer figures read once everything else has run.
fn finish_layers(rig: &Rig, l: &mut Layers) -> Res<()> {
    let retained = rig
        .session
        .disk()
        .retained_file_count()
        .map_err(rig::err("retained files"))?;
    l.insert("disk.retained_files", retained as f64);
    Ok(())
}

fn run(args: &Args, root: &Path) -> Res<Outcome> {
    let tracer = Tracer::new(args.trace);
    let m = match args.workload {
        Workload::ServeMixed => run_serve(args, root, &tracer)?,
        _ => run_local(args, root, &tracer)?,
    };
    let metrics = if args.trace {
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, m.layers.get(name).copied().unwrap_or(f64::NAN), unit))
            .collect();
        let path = root
            .parent()
            .expect("the work root has a parent")
            .join(format!("spans-{}-{}.json", args.workload.name(), args.seed));
        let file = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"cpus\": {},\n\"layers\": {},\n\"spans\": {}}}\n",
            args.workload.name(),
            args.seed,
            cpus(),
            metrics_json(&layers),
            tracer.to_json()
        );
        std::fs::write(&path, file).map_err(rig::err("write spans"))?;
        layers
    } else {
        let values = [
            median(&m.setup_s).unwrap_or(f64::NAN),
            m.peak_rss_mb,
            m.primary_ms,
            m.secondary_ms,
            m.stored_ratio,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };
    Ok(Outcome {
        correct: m.violations.is_empty(),
        attempted: m.attempted.max(1),
        failed: m.failed,
        metrics,
        violations: m.violations,
    })
}

/// Runs `args` in a fresh work directory under `.perfbench/`, removed
/// afterwards whatever the outcome.
fn run_in_workdir(args: &Args) -> Res<Outcome> {
    let root = PathBuf::from(".perfbench").join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&root).map_err(rig::err("create work directory"))?;
    let out = run(args, &root);
    let _ = std::fs::remove_dir_all(&root);
    out
}

/// Every workload, untraced and traced, at a small scale for one second,
/// with its correctness riders. Fails on any violation, failed operation
/// or missing metric.
fn smoke(seed: u64) -> Result<(), String> {
    for w in rig::ALL {
        for trace in [false, true] {
            let args = Args {
                workload: w,
                seed,
                seconds: 1.0,
                trace,
                smoke: true,
            };
            let out = run_in_workdir(&args)?;
            println!("{}", out.table(w));
            if !out.correct || out.failed > 0 {
                return Err(format!(
                    "{} (trace {trace}): {} failed, violations: {:?}",
                    w.name(),
                    out.failed,
                    out.violations
                ));
            }
            if let Some((name, ..)) = out.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
                return Err(format!("{} (trace {trace}): {name} is missing", w.name()));
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <full_cpu|full_device|churn|serve_mixed> \
                 --seed <n> --seconds <s> --trace <0|1>\n       perfbench --smoke"
            );
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        return match smoke(args.seed) {
            Ok(()) => {
                println!("smoke: every workload and rider passed");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("smoke failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run_in_workdir(&args) {
        Ok(out) => {
            for v in &out.violations {
                eprintln!("correctness: {v}");
            }
            print!("{}", out.table(args.workload));
            println!("{}", out.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload churn --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Churn);
        assert_eq!((a.seed, a.seconds, a.trace, a.smoke), (7, 3.0, true, false));
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload churn --trace 2").is_err());
        assert!(args("--workload churn --seconds 0").is_err());
        assert!(args("--smoke").unwrap().smoke);
    }

    #[test]
    fn json_line_has_the_result_keys() {
        let out = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", 0.5, "s"), ("primary_ms", f64::NAN, "ms")],
            violations: vec![],
        };
        assert_eq!(
            out.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"primary_ms\": {\"value\": null, \"unit\": \"ms\"}}}"
        );
    }

    /// The metric names and units printed here are the ones
    /// `BENCHMARK.json` declares, in the same order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let declared = |section: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{section}\"")).unwrap();
            let body = &json[start..];
            let body = &body[..body.find(']').unwrap()];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\"")).unwrap() + key.len() + 2;
                        let rest = &entry[at..];
                        let open = rest.find('"').unwrap() + 1;
                        let close = open + rest[open..].find('"').unwrap();
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let code = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), code(&END_TO_END));
        assert_eq!(declared("per_layer"), code(&PER_LAYER));
        let workloads: Vec<&str> = rig::ALL.iter().map(|w| w.name()).collect();
        for w in workloads {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }
}
