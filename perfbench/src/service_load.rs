//! The service workloads: `plain-open` and `durable-routed`.
//!
//! `plain-open` talks Submit → Result to one `hqd --workers 2`;
//! `durable-routed` talks SubmitDurable → Result → Ack through `hqrouter`
//! to two `hqd --journal-dir` shards on fresh directories. An untraced run
//! measures throughput with the closed-loop driver, interleaved with the
//! serial elision; a traced run sends seeded Poisson arrivals through the
//! open-loop generator at fixed rates, then sweeps for the sustained rate.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use perfbench::closed;
use perfbench::gen::{poisson_schedule, run_point, JobPool, PointConfig, PointResult, Protocol};
use perfbench::procs::{self, Daemon};
use perfbench::stats::{median, min, quantile, sorted};
use perfbench::sweep;
use perfbench::trace::Tracer;
use pipelines::ingress::{FrameKind, IngressClient};
use pipelines::telemetry::TelemetrySnapshot;
use workloads::service::{job_lines, ServiceWorkloadConfig};
use workloads::wire::{decode_lines, encode_lines, expected_wordcount_bytes};

use crate::report::{JsonObject, Report};
use crate::{ladder, Ctx, SETUPS, WORKERS};

/// A service workload's fixed operating points.
pub struct Spec {
    pub name: &'static str,
    pub protocol: Protocol,
    /// A light load (about a tenth of the sustained rate): latency is
    /// mostly the sum of per-hop costs.
    pub low: f64,
    /// The traced latency point under load, a quarter or less of the
    /// sustained rate so that its latency is steady from run to run.
    pub high: f64,
}

pub const PLAIN: Spec = Spec {
    name: "plain-open",
    protocol: Protocol::Plain,
    low: 1000.0,
    high: 2800.0,
};

pub const DURABLE: Spec = Spec {
    name: "durable-routed",
    protocol: Protocol::Durable,
    low: 250.0,
    high: 700.0,
};

/// Submits written on one connection before it is replaced.
pub const JOBS_PER_CONN: usize = 256;
/// Distinct jobs in the seeded corpus; requests cycle through them.
pub const POOL_JOBS: usize = 1024;
/// Generator lag (p99 of send lateness) above which a fixed-rate
/// point is invalid, ms.
pub const GEN_LATE_LIMIT_MS: f64 = 1.0;
/// Windows in each fixed-rate point of a traced run.
pub const TRACED_WINDOWS: usize = 8;
/// Share of `--seconds` given to one window of the sustained-rate sweep.
pub const SWEEP_WINDOW_SHARE: f64 = 0.0085;
/// Connections of the closed-loop throughput windows and the requests
/// each keeps outstanding: 32 in all, within every shard's admission
/// bound (`--max-in-flight` plus `--max-queued`).
pub const CLOSED_CONNS: usize = 2;
pub const CLOSED_DEPTH: usize = 16;
/// Length of one closed-loop window, s.
pub const CLOSED_WINDOW_S: f64 = 1.0;
/// Jobs per worker in one serial-elision block (about a third of a
/// second).
pub const SERIAL_BLOCK_JOBS: usize = 10000;
/// Fresh stacks one untraced run measures in turn, each for an equal
/// share of `--seconds`. How fast a stack serves depends on how its
/// threads happened to start: a `durable-routed` stack ran at about 1600
/// or about 2200 jobs/s for its whole life, whatever the seed. With one
/// stack per run that luck would decide the run's figure.
pub const STACKS: usize = 5;
/// Failed rates in a row that end the sweep.
pub const SWEEP_STOP: usize = 4;
/// The sustained-rate sweep starts at this multiple of the workload's
/// `high` rate, well below its sustained rate, and climbs by
/// `SWEEP_STEP` per rate up to `SWEEP_TO` per second.
pub const SWEEP_FROM_HIGH: f64 = 2.0;
pub const SWEEP_STEP: f64 = 1.05;
pub const SWEEP_TO: f64 = 20000.0;
/// The p99 latency limit a sustained rate must meet, ms.
pub const LIMIT_MS: f64 = 50.0;
/// A fixed-rate point is invalid when, in its median window, fewer than
/// this share of requests are answered by the latency limit after the
/// window's end: the system did not keep up with the offered rate.
pub const MIN_ANSWERED_SHARE: f64 = 0.95;

/// Flags every `hqd` gets (plus the address and journal flags).
pub fn hqd_flags() -> Vec<String> {
    [
        "--workload",
        "wordcount",
        "--workers",
        "2",
        "--event-loops",
        "2",
        "--max-in-flight",
        "4",
        "--max-queued",
        "256",
        "--degree",
        "4",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Extra `hqd` flags of a durable shard.
pub const DURABLE_FLAGS: [&str; 2] = ["--fsync-batch", "64"];

/// The seeded wordcount corpus: payloads and their serial-elision bytes.
pub fn job_pool(ctx: &Ctx) -> JobPool {
    let cfg = ServiceWorkloadConfig {
        seed: ctx.subseed(1),
        ..ServiceWorkloadConfig::bench(POOL_JOBS)
    };
    let (payloads, expected) = (0..POOL_JOBS)
        .map(|j| {
            let lines = job_lines(&cfg, j);
            (encode_lines(&lines), expected_wordcount_bytes(&lines))
        })
        .unzip();
    JobPool { payloads, expected }
}

/// The daemons of one workload: the shards and, for durable, a router.
pub struct Stack {
    pub shards: Vec<Daemon>,
    pub router: Option<Daemon>,
}

impl Stack {
    /// Starts one plain `hqd`, or two durable shards behind `hqrouter`
    /// on fresh journal directories under `work_dir`.
    pub fn start(ctx: &Ctx, durable: bool, work_dir: &Path) -> std::io::Result<Stack> {
        let timeout = Duration::from_secs(30);
        let mut stack = Stack {
            shards: Vec::new(),
            router: None,
        };
        let shard_count = if durable { 2 } else { 1 };
        for i in 0..shard_count {
            let mut args = vec!["--addr".to_string(), "127.0.0.1:0".to_string()];
            args.extend(hqd_flags());
            if durable {
                let dir = work_dir.join(format!("shard{i}"));
                if dir.exists() {
                    std::fs::remove_dir_all(&dir)?;
                }
                std::fs::create_dir_all(&dir)?;
                args.push("--journal-dir".into());
                args.push(dir.display().to_string());
                args.extend(DURABLE_FLAGS.iter().map(|s| s.to_string()));
            }
            stack.shards.push(Daemon::spawn(&ctx.hqd, &args, timeout)?);
        }
        if durable {
            let mut args = vec!["--addr".to_string(), "127.0.0.1:0".to_string()];
            for shard in &stack.shards {
                args.push("--backend".into());
                args.push(shard.addr().to_string());
            }
            stack.router = Some(Daemon::spawn(&ctx.hqrouter, &args, timeout)?);
        }
        Ok(stack)
    }

    /// Where clients connect.
    pub fn entry(&self) -> SocketAddr {
        self.router.as_ref().unwrap_or(&self.shards[0]).addr()
    }

    /// Summed peak RSS of every daemon, MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        let kib: u64 = self
            .shards
            .iter()
            .chain(self.router.iter())
            .filter_map(Daemon::peak_rss_kib)
            .sum();
        kib as f64 / 1024.0
    }

    /// Drains every daemon; returns the router's drained summary lines.
    /// The journal directories stay until the caller removes `work_dir`.
    pub fn stop(mut self) -> std::io::Result<Vec<String>> {
        let router_lines = match self.router.take() {
            Some(r) => r.stop()?,
            None => Vec::new(),
        };
        for shard in self.shards.drain(..) {
            shard.stop()?;
        }
        Ok(router_lines)
    }
}

/// One closed-loop job over `client`, checked against its serial
/// elision: proves the stack serves before any timed request.
pub fn probe(
    mut client: IngressClient,
    protocol: Protocol,
    pool: &JobPool,
    id: u64,
) -> std::io::Result<()> {
    let kind = match protocol {
        Protocol::Plain => FrameKind::Submit,
        Protocol::Durable => FrameKind::SubmitDurable,
    };
    client.send(kind, id, &pool.payloads[0])?;
    let frame = client.recv()?;
    if frame.kind != FrameKind::Result || frame.body != pool.expected[0] {
        return Err(std::io::Error::other("probe job answered wrongly"));
    }
    if protocol == Protocol::Durable {
        client.ack(id)?;
    }
    Ok(())
}

/// Telemetry of every shard over one persistent connection each, so the
/// stats connections themselves do not show up in connection deltas.
pub struct ShardStats {
    clients: Vec<IngressClient>,
}

impl ShardStats {
    pub fn connect(stack: &Stack) -> std::io::Result<ShardStats> {
        let clients = stack
            .shards
            .iter()
            .map(|s| IngressClient::connect(s.addr()))
            .collect::<std::io::Result<_>>()?;
        Ok(ShardStats { clients })
    }

    pub fn snapshot(&mut self) -> std::io::Result<Vec<TelemetrySnapshot>> {
        self.clients.iter_mut().map(|c| c.stats(1)).collect()
    }
}

/// One window's summary.
pub struct Window {
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub failures: u64,
    /// Share of the window's requests answered within the latency limit
    /// after the window's end (see [`PointResult::answered_share`]).
    pub answered: f64,
}

/// Summarizes one window against the latency limit `limit_ms`.
pub fn summarize(r: &PointResult, limit_ms: f64) -> Window {
    let lat = r.ok_latencies();
    Window {
        p50_ms: quantile(&lat, 0.5) / 1e3,
        p99_ms: quantile(&lat, 0.99) / 1e3,
        failures: r.failures(),
        answered: r.answered_share(Duration::from_secs_f64(limit_ms / 1e3)),
    }
}

/// Several windows at one rate, judged together.
pub struct Point {
    pub windows: Vec<Window>,
    /// p99 of the generator's send lateness over every window, ms.
    pub late_p99_ms: f64,
    /// Median over windows of the share of requests answered by the
    /// latency limit after the window's end.
    pub answered_share: f64,
}

impl Point {
    /// The generator kept to its schedule and the system kept up with
    /// the offered rate; otherwise the point's numbers are not reported.
    pub fn valid(&self) -> bool {
        self.late_p99_ms <= GEN_LATE_LIMIT_MS && self.answered_share >= MIN_ANSWERED_SHARE
    }

    pub fn failures(&self) -> u64 {
        self.windows.iter().map(|w| w.failures).sum()
    }

    /// Median over windows of a per-window statistic.
    pub fn median_of(&self, f: impl Fn(&Window) -> f64) -> f64 {
        median(&self.windows.iter().map(f).collect::<Vec<_>>())
    }
}

/// Drives fixed-rate points and accumulates attempts and failures.
pub struct Driver<'a> {
    pub ctx: &'a Ctx,
    pub spec: &'a Spec,
    pub pool: &'a JobPool,
    pub addr: SocketAddr,
    pub windows_run: u64,
    pub connect_us: Vec<f64>,
    pub retries: u64,
    pub attempted: u64,
    pub failed: u64,
    pub mismatched: u64,
    pub errors: u64,
}

impl<'a> Driver<'a> {
    pub fn new(ctx: &'a Ctx, spec: &'a Spec, pool: &'a JobPool, addr: SocketAddr) -> Self {
        Driver {
            ctx,
            spec,
            pool,
            addr,
            windows_run: 0,
            connect_us: Vec::new(),
            retries: 0,
            attempted: 0,
            failed: 0,
            mismatched: 0,
            errors: 0,
        }
    }

    /// Runs `count` windows of `secs` at `rate`. `counted` points add
    /// to the run's attempts and failures; sustained-rate probes above
    /// `high` only add their wrong outputs. Returns the point and the
    /// raw window results.
    pub fn point(
        &mut self,
        rate: f64,
        secs: f64,
        count: usize,
        counted: bool,
        tracer: &mut Tracer,
    ) -> std::io::Result<(Point, Vec<PointResult>)> {
        let mut raw = Vec::with_capacity(count);
        let mut late = Vec::new();
        for _ in 0..count {
            self.windows_run += 1;
            let n = self.windows_run;
            let window = Duration::from_secs_f64(secs);
            let schedule = poisson_schedule(self.ctx.subseed(1000 + n), rate, window);
            let cfg = PointConfig {
                protocol: self.spec.protocol,
                jobs_per_conn: JOBS_PER_CONN,
                id_base: n << 32,
                job_offset: (self.ctx.subseed(2000 + n) % POOL_JOBS as u64) as usize,
            };
            let r = run_point(self.addr, &schedule, window, self.pool, &cfg, tracer)?;
            self.mismatched += r.mismatched;
            self.errors += r.errors;
            if counted {
                self.attempted += r.scheduled as u64;
                self.failed += r.failures();
                self.connect_us.extend_from_slice(&r.connect_us);
                self.retries += r.retries;
            }
            late.extend_from_slice(&r.late_us);
            raw.push(r);
        }
        let windows: Vec<Window> = raw.iter().map(|r| summarize(r, LIMIT_MS)).collect();
        let point = Point {
            answered_share: median(&windows.iter().map(|w| w.answered).collect::<Vec<_>>()),
            windows,
            late_p99_ms: quantile(&sorted(late), 0.99) / 1e3,
        };
        let conn = sorted(
            raw.iter()
                .flat_map(|r| r.connect_us.iter().copied())
                .collect(),
        );
        eprintln!(
            "  point {:>6.0}/s {count}x{secs:.1}s: p50 {:>7.3} ms, p99 {} ms | {} failed | \
             answered {:.3} | late p99 {:.3} ms | connect p50 {:.3} max {:.3} ms{}",
            rate,
            point.median_of(|w| w.p50_ms),
            point
                .windows
                .iter()
                .map(|w| format!("{:.2}", w.p99_ms))
                .collect::<Vec<_>>()
                .join("/"),
            point.failures(),
            point.answered_share,
            point.late_p99_ms,
            quantile(&conn, 0.5) / 1e3,
            quantile(&conn, 1.0) / 1e3,
            if point.valid() { "" } else { " [invalid]" },
        );
        Ok((point, raw))
    }

    /// A fixed-rate point that must be valid.
    pub fn fixed(
        &mut self,
        rate: f64,
        secs: f64,
        count: usize,
        tracer: &mut Tracer,
    ) -> std::io::Result<(Point, Vec<PointResult>)> {
        let (point, raw) = self.point(rate, secs, count, true, tracer)?;
        if !point.valid() {
            return Err(std::io::Error::other(format!(
                "fixed-rate point {rate}/s invalid: generator late p99 {:.3} ms (limit \
                 {GEN_LATE_LIMIT_MS}), answered {:.3} of its requests in time (minimum \
                 {MIN_ANSWERED_SHARE})",
                point.late_p99_ms, point.answered_share
            )));
        }
        Ok((point, raw))
    }

    /// The sustained rate: one or two windows per sweep rate from twice
    /// `high` up, judged by [`sweep::sustained`]. A window passes when its p99 is
    /// within the limit (which also bounds the backlog: 99% of its
    /// requests are answered by the limit after it ends) and every
    /// request is answered. A generator that falls behind its schedule is
    /// charged in the latency, which is timed from the intended send. A
    /// sweep in which no window passes makes the run invalid.
    pub fn sustained(&mut self, secs: f64) -> std::io::Result<f64> {
        let mut off = Tracer::new(false, Instant::now());
        let from = SWEEP_FROM_HIGH * self.spec.high;
        let rates = sweep::rates(from, SWEEP_STEP, SWEEP_TO);
        let rate = sweep::sustained(&rates, SWEEP_STOP, |rate| {
            // A rate fails only when a second window at it fails too, so
            // a lone stall does not read as the knee.
            for _ in 0..2 {
                let (point, _) = self.point(rate, secs, 1, false, &mut off)?;
                let w = &point.windows[0];
                if w.failures == 0 && w.p99_ms <= LIMIT_MS {
                    return Ok(true);
                }
            }
            Ok::<_, std::io::Error>(false)
        })?;
        rate.ok_or_else(|| {
            std::io::Error::other(format!(
                "no window of the sweep from {from}/s kept p99 within {LIMIT_MS} ms"
            ))
        })
    }
}

/// Sets up `times` fresh stacks (daemons, the job corpus and one checked
/// job through them), keeping the last one; returns it with the fastest
/// set-up time. The first connection is opened before the corpus is
/// made, so the router's accept poll (25 ms) overlaps corpus generation
/// instead of quantizing every set-up to its ticks.
fn set_up(
    ctx: &Ctx,
    spec: &Spec,
    work_dir: &Path,
    times: usize,
) -> std::io::Result<(Stack, JobPool, f64)> {
    let phase = Instant::now();
    let mut secs = Vec::new();
    let mut kept = None;
    for i in 0..times {
        let t = if i == 0 { ctx.started } else { Instant::now() };
        let dir = work_dir.join(format!("setup{i}"));
        let stack = Stack::start(ctx, spec.protocol == Protocol::Durable, &dir)?;
        let client = IngressClient::connect(stack.entry())?;
        let pool = job_pool(ctx);
        probe(client, spec.protocol, &pool, u64::MAX - i as u64)?;
        secs.push(t.elapsed().as_secs_f64());
        if i + 1 == times {
            kept = Some((stack, pool));
        } else {
            stack.stop()?;
        }
    }
    let (stack, pool) = kept.expect("times >= 1");
    let shown: Vec<String> = secs.iter().map(|s| format!("{s:.4}")).collect();
    eprintln!(
        "  set-ups: {} s ({:.2} s in all)",
        shown.join(" "),
        phase.elapsed().as_secs_f64()
    );
    Ok((stack, pool, min(&secs)))
}

/// Latencies of every successful request of `raw`, ascending, µs.
fn pooled(raw: &[PointResult]) -> Vec<f64> {
    sorted(raw.iter().flat_map(PointResult::ok_latencies).collect())
}

/// Runs a window at `high` while sampling the shards' journal lag every
/// 50 ms; returns the largest lag seen. The window is not judged valid or
/// invalid: it only carries the load whose lag is sampled.
fn journal_lag_max(d: &mut Driver, stats: &mut ShardStats, secs: f64) -> std::io::Result<u64> {
    let done = AtomicBool::new(false);
    let mut off = Tracer::new(false, Instant::now());
    let (point, lag_max) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut lag_max = 0u64;
            while !done.load(Ordering::SeqCst) {
                if let Ok(snaps) = stats.snapshot() {
                    let lag = snaps.iter().filter_map(|t| t.journal.map(|j| j.lag)).max();
                    lag_max = lag_max.max(lag.unwrap_or(0));
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            lag_max
        });
        let point = d.point(d.spec.high, secs, 1, true, &mut off);
        done.store(true, Ordering::SeqCst);
        (point, sampler.join().expect("lag sampler panicked"))
    });
    point?;
    Ok(lag_max)
}

/// Runs a service workload; returns the config record.
pub fn run(
    ctx: &Ctx,
    name: &str,
    report: &mut Report,
    config: JsonObject,
) -> Result<JsonObject, String> {
    let spec = if name == PLAIN.name { &PLAIN } else { &DURABLE };
    let work_dir = ctx.out.join(format!("run-{}", std::process::id()));
    let config = config
        .num("rate_low", spec.low)
        .num("rate_high", spec.high)
        .nums(
            "sweep_from_step_to",
            &[SWEEP_FROM_HIGH * spec.high, SWEEP_STEP, SWEEP_TO],
        )
        .num("sweep_stop", SWEEP_STOP as f64)
        .num("closed_conns", CLOSED_CONNS as f64)
        .num("closed_depth", CLOSED_DEPTH as f64)
        .num("closed_window_s", CLOSED_WINDOW_S)
        .num("serial_block_jobs", SERIAL_BLOCK_JOBS as f64)
        .num("stacks", STACKS as f64)
        .num("traced_windows", TRACED_WINDOWS as f64)
        .num("sweep_window_s", SWEEP_WINDOW_SHARE * ctx.seconds)
        .num("limit_p99_ms", LIMIT_MS)
        .num("jobs_per_conn", JOBS_PER_CONN as f64)
        .num("pool_jobs", POOL_JOBS as f64)
        .num("gen_late_limit_ms", GEN_LATE_LIMIT_MS)
        .strs("hqd_flags", &hqd_flags())
        .strs(
            "hqd_durable_flags",
            &DURABLE_FLAGS
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
        )
        .str("hqrouter_flags", "--backend per shard");
    let result = if ctx.trace {
        traced(ctx, spec, &work_dir, report)
    } else {
        untraced(ctx, spec, &work_dir, report)
    };
    std::fs::remove_dir_all(&work_dir).ok();
    result.map_err(|e| e.to_string())?;
    Ok(config)
}

fn untraced(ctx: &Ctx, spec: &Spec, work_dir: &Path, report: &mut Report) -> std::io::Result<()> {
    let (first, pool, setup_s) = set_up(ctx, spec, work_dir, SETUPS)?;
    let mut m = Measured::default();
    let mut rss = 0.0;
    let mut first = Some(first);
    for n in 0..STACKS {
        let stack = match first.take() {
            Some(stack) => stack,
            None => {
                let dir = work_dir.join(format!("stack{n}"));
                Stack::start(ctx, spec.protocol == Protocol::Durable, &dir)?
            }
        };
        let secs = ctx.seconds / STACKS as f64;
        let stack_rss = measure(ctx, spec, &pool, &stack, n, secs, &mut m)?;
        if n == 0 {
            rss = stack_rss;
        }
        stack.stop()?;
    }

    report.attempted = m.total.attempted;
    report.failed = m.total.failures();
    report.correct = m.total.mismatched == 0 && m.total.errors == 0;
    let service_rate = m.service_jobs as f64 / m.service_s;
    let serial_rate = m.serial_jobs as f64 / m.serial_s;
    let shown: Vec<String> = m.rates.iter().map(|r| format!("{r:.0}")).collect();
    eprintln!("  service jobs/s per window: {}", shown.join(" "));
    let rates = sorted(m.rates);
    eprintln!(
        "  {} timed rounds on {STACKS} stacks: service {service_rate:.0} jobs/s (windows p25 \
         {:.0}, p50 {:.0}, p75 {:.0}), serial elision on {WORKERS} workers {serial_rate:.0} \
         jobs/s; {} retries, {} failed",
        rates.len(),
        quantile(&rates, 0.25),
        quantile(&rates, 0.5),
        quantile(&rates, 0.75),
        m.total.retries,
        m.total.failures(),
    );
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mib", rss, "MiB");
    // The median round: a burst of load on the machine that slows one
    // window or one block moves one ratio, not the result.
    report.metric("efficiency_vs_serial", median(&m.ratios), "ratio");
    Ok(())
}

/// What the closed-loop rounds of a run add up to.
#[derive(Default)]
struct Measured {
    total: closed::Window,
    /// Seconds and successful jobs of the timed service windows.
    service_s: f64,
    service_jobs: u64,
    /// Seconds and jobs of the timed serial-elision blocks.
    serial_s: f64,
    serial_jobs: u64,
    /// Jobs per second of each timed service window.
    rates: Vec<f64>,
    /// Per timed round: the service window's jobs per second over the
    /// serial-elision block's.
    ratios: Vec<f64>,
}

/// One stack's share of a run: an untimed warm-up round, then rounds of
/// one closed-loop service window and one serial-elision block, in
/// alternating order so drift on the machine hits both alike, until
/// `secs` have passed. Returns the stack's peak RSS after the warm-up
/// round: read after the whole share, it would also hold what the
/// daemons' allocators kept from a run-dependent amount of work.
fn measure(
    ctx: &Ctx,
    spec: &Spec,
    pool: &JobPool,
    stack: &Stack,
    n: usize,
    secs: f64,
    m: &mut Measured,
) -> std::io::Result<f64> {
    let mut clients = (0..CLOSED_CONNS)
        .map(|_| IngressClient::connect(stack.entry()))
        .collect::<std::io::Result<Vec<_>>>()?;
    let mut rss = 0.0;
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let mut round = 0usize;
    while round < 2 || Instant::now() < deadline {
        let purpose = 2000 + (n * 1000 + round) as u64;
        let offset = (ctx.subseed(purpose) % POOL_JOBS as u64) as usize;
        let (mut service_rate, mut serial_rate) = (0.0, 0.0);
        for k in 0..2 {
            let t = Instant::now();
            if (k + round).is_multiple_of(2) {
                let id_base = (round as u64 + 1) << 32;
                let w = closed::run_window(
                    &mut clients,
                    spec.protocol,
                    pool,
                    id_base,
                    offset,
                    CLOSED_DEPTH,
                    CLOSED_WINDOW_S,
                )?;
                let secs = t.elapsed().as_secs_f64();
                m.total.add(&w);
                service_rate = w.ok as f64 / secs;
                if round > 0 {
                    m.service_s += secs;
                    m.service_jobs += w.ok;
                    m.rates.push(service_rate);
                }
            } else {
                serial_elision(pool, offset, SERIAL_BLOCK_JOBS);
                let secs = t.elapsed().as_secs_f64();
                let jobs = (WORKERS * SERIAL_BLOCK_JOBS) as u64;
                serial_rate = jobs as f64 / secs;
                if round > 0 {
                    m.serial_s += secs;
                    m.serial_jobs += jobs;
                }
            }
        }
        if round > 0 {
            m.ratios.push(service_rate / serial_rate);
        }
        if round == 0 {
            rss = stack.peak_rss_mib();
        }
        round += 1;
    }
    Ok(rss)
}

/// The serial elision on every worker at once, `jobs` requests each:
/// decode the payload, count words, encode the result, as the service
/// does per job, with no coordination between workers at all.
fn serial_elision(pool: &JobPool, offset: usize, jobs: usize) {
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            s.spawn(move || {
                for i in 0..jobs {
                    let job = (offset + w * jobs + i) % pool.payloads.len();
                    let lines =
                        decode_lines(&pool.payloads[job]).expect("corpus payloads are UTF-8");
                    std::hint::black_box(expected_wordcount_bytes(&lines));
                }
            });
        }
    });
}

fn traced(ctx: &Ctx, spec: &Spec, work_dir: &Path, report: &mut Report) -> std::io::Result<()> {
    let origin = Instant::now();
    let mut tracer = Tracer::new(true, origin);
    let lad = ladder::run(ctx, work_dir, &mut tracer)?;
    let (stack, pool, _) = set_up(ctx, spec, work_dir, 1)?;
    let mut d = Driver::new(ctx, spec, &pool, stack.entry());
    let mut off = Tracer::new(false, origin);
    d.point(spec.high, 0.5, 1, true, &mut off)?;
    let mut stats = ShardStats::connect(&stack)?;
    let before = stats.snapshot()?;
    let overflows_before = procs::listen_overflows();
    // Each traced point is eight windows judged by the median one, so a
    // single stall of the durable path does not void a traced run.
    let window = (ctx.seconds * 0.25).max(1.0) / TRACED_WINDOWS as f64;
    let (high, high_raw) = d.fixed(spec.high, window, TRACED_WINDOWS, &mut tracer)?;
    let after = stats.snapshot()?;
    let overflows = procs::listen_overflows().saturating_sub(overflows_before);
    let (_, low_raw) = d.fixed(spec.low, window, TRACED_WINDOWS, &mut off)?;
    // Journal lag is sampled in a window of its own, so the sampler's
    // stats traffic stays out of the counters above.
    let lag_max = match spec.protocol {
        Protocol::Durable => journal_lag_max(&mut d, &mut stats, window * 4.0)?,
        Protocol::Plain => 0,
    };
    drop(stats);
    // Last, because it leaves the durable stack slower by an amount that
    // depends on how far it climbed.
    let sustained = d.sustained(SWEEP_WINDOW_SHARE * ctx.seconds)?;
    let router_lines = stack.stop()?;

    report.attempted = d.attempted + lad.attempted;
    report.failed = d.failed;
    report.correct = d.mismatched == 0 && d.errors == 0;
    ladder::report(&lad, report);
    let counters = ladder::Counters::diff(&before, &after);
    let (high_lat, low_lat) = (pooled(&high_raw), pooled(&low_raw));
    counters.report(report, high_lat.len() as f64, lag_max);
    let connect = sorted(d.connect_us.clone());
    let retry_ratio = d.retries as f64 / d.attempted.max(1) as f64;
    report.metric("service.retry_ratio", retry_ratio, "ratio");
    report.metric(
        "ingress.connect_p50_ms",
        quantile(&connect, 0.5) / 1e3,
        "ms",
    );
    report.metric(
        "ingress.connect_p99_ms",
        quantile(&connect, 0.99) / 1e3,
        "ms",
    );
    report.metric("ingress.listen_overflows", overflows as f64, "count");
    if spec.protocol == Protocol::Durable {
        // Shard-side connections accepted per client connection the
        // router saw during the traced window.
        let clients: u64 = high_raw.iter().map(|r| r.connections).sum();
        let per_client = counters.shard_connections as f64 / clients.max(1) as f64;
        report.metric("router.backend_conns_per_client", per_client, "ratio");
        let synthesized = procs::summary_counter(&router_lines, "retries synthesized");
        report.metric(
            "router.retries_synthesized",
            synthesized.unwrap_or(0) as f64,
            "count",
        );
    }
    report.metric("load.p50_ms", quantile(&high_lat, 0.5) / 1e3, "ms");
    report.metric("load.p99_ms", quantile(&high_lat, 0.99) / 1e3, "ms");
    report.metric("load.p50_ms.low", quantile(&low_lat, 0.5) / 1e3, "ms");
    report.metric("load.p99_ms.low", quantile(&low_lat, 0.99) / 1e3, "ms");
    report.metric("gen.late_p99_ms", high.late_p99_ms, "ms");
    report.metric("load.sustained_jobs_s", sustained, "1/s");
    let spans = ctx
        .out
        .join(format!("spans-{}-seed{}.jsonl", spec.name, ctx.seed));
    tracer.write_jsonl(&spans)?;
    eprintln!(
        "  spans: {} written to {}",
        tracer.spans().len(),
        spans.display()
    );
    Ok(())
}
