//! Open-loop traffic against `sc-serve` over two connections: cached reads
//! plus a wire ingest and refresh each second on one; uncached queries on
//! the other.
//!
//! A connection answers in receipt order, so every request waits behind
//! the one before it. Reads share their connection with maintenance,
//! which stalls about a tenth of them (the read tail shows those stalls),
//! and queries get a connection of their own: a query costs some fifty
//! reads, so behind queries most reads would measure a query, and behind
//! maintenance the query median would measure queueing.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sc::engine::exec::TableDelta;
use sc::engine::expr::Expr;
use sc::engine::plan::LogicalPlan;
use sc::engine::storage::format;
use sc::engine::Table;
use sc::ScSession;
use sc_serve::{Client, MetricsSnapshot, Request, ServeConfig, Server};

use crate::check::row_multiset;
use crate::rig::{err, Res};
use crate::schedule::{query_events, read_maint_events, sleep_until, Op, READ_TABLES};
use crate::trace::Tracer;

/// Requests per second over `serve_mixed`'s data, reads and queries
/// together.
pub const RATE: f64 = 200.0;
/// Share of the requests that are uncached filter queries.
pub const QUERY_SHARE: f64 = 0.1;
/// Interval between wire maintenance rounds (ingest, then refresh).
pub const MAINT_EVERY: Duration = Duration::from_secs(1);
/// A send later than this counts toward `gen.late_share`.
pub const LATE: Duration = Duration::from_millis(1);

/// The query that bypasses the snapshot cache: a filter over the
/// premium slice, executed by the kernels on a pinned epoch.
pub fn filter_query() -> LogicalPlan {
    LogicalPlan::scan("premium_sales").filter(Expr::col("ss_sales_price").gt(Expr::lit(450.0f64)))
}

pub fn start_server(session: &Arc<ScSession>) -> Res<Server> {
    Server::start(Arc::clone(session), ServeConfig::default()).map_err(err("server start"))
}

/// What one connection's open loop measured.
#[derive(Debug, Default)]
pub struct LoadOutcome {
    /// Latency from intended send to full response, µs; failed requests
    /// are `INFINITY`.
    pub read_us: Vec<f64>,
    pub query_us: Vec<f64>,
    /// Latency of traced / untraced reads, for the tracing overhead.
    pub read_traced_us: Vec<f64>,
    pub read_untraced_us: Vec<f64>,
    /// How late each read or query send left, µs.
    pub late_us: Vec<f64>,
    pub maint_ingest_s: Vec<f64>,
    pub maint_refresh_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Server-side counters at shutdown.
    pub server: MetricsSnapshot,
    /// Correctness violations (empty when every rider passed).
    pub violations: Vec<String>,
}

impl LoadOutcome {
    pub fn cache_hit_ratio(&self) -> f64 {
        let lookups = self.server.cache_hits + self.server.cache_misses;
        self.server.cache_hits as f64 / lookups.max(1) as f64
    }

    pub fn rejected(&self) -> u64 {
        self.server.rejected_overloaded + self.server.rejected_deadline + self.server.errors
    }

    fn merge(&mut self, other: LoadOutcome) {
        self.read_us.extend(other.read_us);
        self.query_us.extend(other.query_us);
        self.read_traced_us.extend(other.read_traced_us);
        self.read_untraced_us.extend(other.read_untraced_us);
        self.late_us.extend(other.late_us);
        self.maint_ingest_s.extend(other.maint_ingest_s);
        self.maint_refresh_s.extend(other.maint_refresh_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations.extend(other.violations);
    }
}

/// Runs both connections' schedules against `server` for `window` at
/// `rate` requests per second, then checks the served state against
/// local snapshot reads and shuts the server down. `deltas` feed the
/// maintenance rounds in order; the read mix comes from `seed`.
pub fn run(
    session: &Arc<ScSession>,
    server: Server,
    window: Duration,
    deltas: Vec<TableDelta>,
    seed: u64,
    rate: f64,
    tracer: &Tracer,
) -> Res<LoadOutcome> {
    let addr = server.addr();
    let query = filter_query();
    let start = Instant::now() + Duration::from_millis(20);
    let reads = read_maint_events(seed, window, rate * (1.0 - QUERY_SHARE), MAINT_EVERY);
    let queries = query_events(window, rate * QUERY_SHARE);
    if reads
        .iter()
        .any(|(_, op)| matches!(op, Op::Maint(k) if *k >= deltas.len()))
    {
        return Err(format!("{} maintenance batches are too few", deltas.len()));
    }
    let ctx = Ctx {
        addr,
        start,
        query: &query,
        deltas: &deltas,
        tracer,
    };
    let (a, b) = std::thread::scope(|scope| {
        let readers = scope.spawn(|| drive(&ctx, &reads));
        let queriers = scope.spawn(|| drive(&ctx, &queries));
        (
            readers.join().expect("read connection thread"),
            queriers.join().expect("query connection thread"),
        )
    });
    let mut out = a?;
    out.merge(b?);

    // The served state must equal a local read of the same epoch.
    out.violations
        .extend(final_state_matches(addr, session, &query)?);
    out.server = server.shutdown();
    if let Ok(n @ 1..) = session.disk().retained_file_count() {
        out.violations
            .push(format!("{n} retained files after the server drained"));
    }
    Ok(out)
}

struct Ctx<'a> {
    addr: SocketAddr,
    start: Instant,
    query: &'a LogicalPlan,
    deltas: &'a [TableDelta],
    tracer: &'a Tracer,
}

/// Sends a read or query and waits for its whole response; returns the
/// epoch and the encoded table.
fn send_and_wait(client: &mut Client, req: Request) -> Res<(u64, Vec<u8>)> {
    client.send_request(&req).map_err(err("send"))?;
    client.recv_table_raw().map_err(err("response"))
}

/// One connection's open loop over `events`.
fn drive(ctx: &Ctx<'_>, events: &[(Duration, Op)]) -> Res<LoadOutcome> {
    let mut client = Client::connect(ctx.addr).map_err(err("connect"))?;
    let mut out = LoadOutcome::default();
    let mut last_epoch = 0u64;
    for (i, &(at, op)) in events.iter().enumerate() {
        let due = ctx.start + at;
        sleep_until(due);
        let (req, name) = match op {
            Op::Read(t) => (
                Request::ReadTable {
                    table: READ_TABLES[t].into(),
                },
                "serve.read",
            ),
            Op::Query => (
                Request::Query {
                    plan: ctx.query.clone(),
                },
                "serve.query",
            ),
            Op::Maint(k) => {
                if !maintain(ctx, &mut client, &ctx.deltas[k], &mut out) {
                    client = Client::connect(ctx.addr).map_err(err("reconnect"))?;
                }
                continue;
            }
        };
        out.attempted += 1;
        out.late_us.push(due.elapsed().as_secs_f64() * 1e6);
        let traced = i.is_multiple_of(2);
        let result = ctx
            .tracer
            .span_if(traced, name, || send_and_wait(&mut client, req));
        let latency_us = match &result {
            Ok(_) => due.elapsed().as_secs_f64() * 1e6,
            Err(_) => f64::INFINITY,
        };
        match result {
            Ok((epoch, body)) => {
                if epoch < last_epoch {
                    out.violations
                        .push(format!("epoch went back from {last_epoch} to {epoch}"));
                }
                last_epoch = epoch;
                if let Err(e) = format::decode(body.into()) {
                    out.violations.push(format!("response did not decode: {e}"));
                }
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("{name} {i} failed: {e}");
                client = Client::connect(ctx.addr).map_err(err("reconnect"))?;
            }
        }
        if matches!(op, Op::Query) {
            out.query_us.push(latency_us);
        } else {
            out.read_us.push(latency_us);
            if traced {
                out.read_traced_us.push(latency_us);
            } else {
                out.read_untraced_us.push(latency_us);
            }
        }
    }
    Ok(out)
}

/// A wire ingest of `delta` into `store_sales`, then a wire refresh, each
/// timed from its own send. Returns false when the connection failed.
fn maintain(ctx: &Ctx<'_>, client: &mut Client, delta: &TableDelta, out: &mut LoadOutcome) -> bool {
    out.attempted += 2;
    let started = Instant::now();
    let ingested = ctx
        .tracer
        .span("serve.maint_ingest", || client.ingest("store_sales", delta));
    let ingest_s = started.elapsed().as_secs_f64();
    let rows = delta.insert_rows() + delta.delete_rows();
    match ingested {
        Ok(acked) if acked as usize == rows => {}
        Ok(acked) => out.violations.push(format!(
            "wire ingest acknowledged {acked} rows, the batch had {rows}"
        )),
        Err(e) => {
            out.failed += 2;
            eprintln!("wire ingest failed: {e}");
            return false;
        }
    }
    out.maint_ingest_s.push(ingest_s);
    let started = Instant::now();
    match ctx.tracer.span("serve.maint_refresh", || client.refresh()) {
        Ok(_) => {
            out.maint_refresh_s.push(started.elapsed().as_secs_f64());
            true
        }
        Err(e) => {
            out.failed += 1;
            eprintln!("wire refresh failed: {e}");
            false
        }
    }
}

/// Reads each served MV and runs the filter query over the wire, and
/// compares them with local snapshot reads. No maintenance runs by now,
/// so both sides see the same epoch.
fn final_state_matches(
    addr: SocketAddr,
    session: &ScSession,
    query: &LogicalPlan,
) -> Res<Vec<String>> {
    let mut client = Client::connect(addr).map_err(err("check connect"))?;
    let snap = session.snapshot();
    let mut violations = Vec::new();
    let mut compare = |what: &str, epoch: u64, served: Table, local: Table| {
        if epoch != snap.epoch() {
            violations.push(format!(
                "{what} served epoch {epoch}, local epoch {}",
                snap.epoch()
            ));
        }
        if row_multiset(&served) != row_multiset(&local) {
            violations.push(format!("served {what} differs from a local snapshot read"));
        }
    };
    for table in READ_TABLES {
        let (epoch, served) = client.read_table(table).map_err(err("check read"))?;
        let local = snap.read_table(table).map_err(err("local read"))?;
        compare(table, epoch, served, local);
    }
    let (epoch, served) = client.query(query).map_err(err("check query"))?;
    let local = snap.query(query).map_err(err("local query"))?;
    compare("filter query", epoch, served, local);
    Ok(violations)
}
