//! The layer ladder: one seeded wordcount stream, one job outstanding at
//! a time, through six rungs that each add one layer:
//!
//! 1. `serial` — `wordcount_serial`;
//! 2. `scope` — the same graph built with `GraphBuilder` in one `rt.scope`;
//! 3. `submit` — `CompiledGraph::submit` then `JobHandle::wait`;
//! 4. `ingress` — `hqd` over loopback;
//! 5. `durable` — `hqd --journal-dir`, SubmitDurable → Result → Ack;
//! 6. `routed` — `hqrouter` over two durable shards.
//!
//! With no queueing, a rung's p50 minus the previous rung's is what its
//! layer adds. Spans wrap every submit, wait, send, recv and
//! `append_sync` call. The `ingress` rung also runs untraced, interleaved
//! with the traced blocks: the difference is the tracing overhead.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use perfbench::gen::{JobPool, Protocol};
use perfbench::stats::{quantile, sorted};
use perfbench::trace::Tracer;
use pipelines::graph::{Admission, GraphBuilder, Partition, ServiceConfig};
use pipelines::ingress::{FrameKind, IngressClient};
use pipelines::journal::{Journal, JournalConfig, RecordKind};
use pipelines::telemetry::{HistogramSnapshot, TelemetrySnapshot};
use swan::{MetricsSnapshot, Runtime, RuntimeConfig};
use workloads::service::{wordcount_serial, wordcount_spec};
use workloads::util::fnv1a;
use workloads::wire::decode_lines;

use crate::report::Report;
use crate::service_load::{job_pool, probe, ShardStats, Stack};
use crate::{Ctx, WORKERS};

/// Timed jobs per rung (after the warm-up).
const RUNG_JOBS: usize = 1000;
/// Untimed jobs that warm each rung first.
const WARM_JOBS: usize = 100;
/// Jobs per traced/untraced block of the `ingress` rung.
const OVERHEAD_BLOCK: usize = 100;
/// Connections in the router connect probe, per target.
const CONNECT_PROBES: usize = 100;
/// `append_sync` calls per journal probe depth.
const SYNC_PROBES: usize = 400;

/// What the ladder measured.
pub struct Ladder {
    /// `(rung, p50 µs, p99 µs)` in rung order.
    pub rungs: Vec<(&'static str, f64, f64)>,
    /// p50 of the untraced `ingress` blocks, µs.
    pub ingress_untraced_p50: f64,
    /// Server-side job latency during the `ingress` rung, µs.
    pub job_p50_us: f64,
    pub job_p99_us: f64,
    /// `append_sync` p50 at depth 1 and 8, µs.
    pub sync_d1_us: f64,
    pub sync_d8_us: f64,
    /// Connect-to-first-reply p50, router minus direct shard, ms.
    pub router_connect_added_ms: f64,
    /// Jobs run, all checked against the serial elision.
    pub attempted: u64,
}

/// A rung's outcome check failed: the output differs from the serial
/// elision.
fn wrong(rung: &str) -> std::io::Error {
    std::io::Error::other(format!(
        "ladder rung {rung}: output differs from the serial elision"
    ))
}

/// Runs the ladder on fresh daemons started under `work_dir`.
pub fn run(ctx: &Ctx, work_dir: &Path, tracer: &mut Tracer) -> std::io::Result<Ladder> {
    let pool = job_pool(ctx);
    let jobs: Vec<Vec<String>> = pool
        .payloads
        .iter()
        .map(|p| decode_lines(p).expect("corpus payloads are UTF-8"))
        .collect();
    let expected: Vec<Vec<(String, u64)>> = jobs.iter().map(|l| wordcount_serial(l)).collect();
    let total = WARM_JOBS + RUNG_JOBS;
    let job = |i: usize| i % jobs.len();
    let mut rungs = Vec::new();
    let mut attempted = 0u64;

    // 1. serial elision.
    let mut lat = Vec::with_capacity(RUNG_JOBS);
    for i in 0..total {
        let lines = jobs[job(i)].clone();
        let span = tracer.open("serial", 0, i as u64);
        let t = Instant::now();
        let out = std::hint::black_box(wordcount_serial(&lines));
        let us = t.elapsed().as_secs_f64() * 1e6;
        tracer.close(span);
        if out != expected[job(i)] {
            return Err(wrong("serial"));
        }
        if i >= WARM_JOBS {
            lat.push(us);
        }
    }
    rungs.push(summary("serial", lat));

    // 2. the graph in one scope.
    let rt = Arc::new(Runtime::new(
        RuntimeConfig::new().workers(WORKERS..=WORKERS),
    ));
    let mut lat = Vec::with_capacity(RUNG_JOBS);
    for i in 0..total {
        let lines = jobs[job(i)].clone();
        let span = tracer.open("scope", 0, i as u64);
        let t = Instant::now();
        let out = scope_wordcount(&rt, lines);
        let us = t.elapsed().as_secs_f64() * 1e6;
        tracer.close(span);
        if out != expected[job(i)] {
            return Err(wrong("scope"));
        }
        if i >= WARM_JOBS {
            lat.push(us);
        }
    }
    rungs.push(summary("scope", lat));

    // 3. the compiled service graph.
    let graph = wordcount_spec(4, 32).compile(
        Arc::clone(&rt),
        ServiceConfig {
            max_in_flight: 4,
            job_class: "wordcount".into(),
            ..ServiceConfig::default()
        },
    );
    let mut lat = Vec::with_capacity(RUNG_JOBS);
    for i in 0..total {
        let lines = jobs[job(i)].clone();
        let root = tracer.open("job", 0, i as u64);
        let t = Instant::now();
        let span = tracer.open("submit", root, i as u64);
        let handle = graph
            .submit(lines, Admission::Unbounded)
            .accepted()
            .ok_or_else(|| wrong("submit"))?;
        tracer.close(span);
        let span = tracer.open("wait", root, i as u64);
        let out = handle.wait().map_err(|_| wrong("submit"))?;
        tracer.close(span);
        let us = t.elapsed().as_secs_f64() * 1e6;
        tracer.close(root);
        if out != expected[job(i)] {
            return Err(wrong("submit"));
        }
        if i >= WARM_JOBS {
            lat.push(us);
        }
    }
    rungs.push(summary("submit", lat));
    drop(graph);
    drop(rt);
    attempted += 3 * total as u64;

    // 4–6. the daemons.
    let plain = Stack::start(ctx, false, &work_dir.join("ladder-plain"))?;
    let durable = Stack::start(ctx, true, &work_dir.join("ladder-durable"))?;
    probe(
        IngressClient::connect(plain.entry())?,
        Protocol::Plain,
        &pool,
        u64::MAX,
    )?;
    let mut stats = ShardStats::connect(&plain)?;
    let before = stats.snapshot()?;
    let (traced, untraced) = ingress_rung(plain.entry(), &pool, tracer)?;
    let after = stats.snapshot()?;
    drop(stats);
    let job_hist = Counters::diff(&before, &after).job_hist;
    rungs.push(summary("ingress", traced));
    let ingress_untraced_p50 = quantile(&sorted(untraced), 0.5);
    let shard = durable.shards[0].addr();
    rungs.push(summary(
        "durable",
        durable_rung(shard, &pool, 1 << 40, tracer)?,
    ));
    rungs.push(summary(
        "routed",
        durable_rung(durable.entry(), &pool, 2 << 40, tracer)?,
    ));
    let direct = connect_probe(shard, &pool, 3 << 40, tracer)?;
    let routed = connect_probe(durable.entry(), &pool, 4 << 40, tracer)?;
    attempted += (4 * total + 2 * CONNECT_PROBES) as u64;
    plain.stop()?;
    durable.stop()?;

    let (sync_d1_us, sync_d8_us) = journal_probe(&work_dir.join("journal-probe"), &pool, tracer)?;
    Ok(Ladder {
        rungs,
        ingress_untraced_p50,
        job_p50_us: hist_quantile(&job_hist, 0.5),
        job_p99_us: hist_quantile(&job_hist, 0.99),
        sync_d1_us,
        sync_d8_us,
        router_connect_added_ms: (routed - direct) / 1e3,
        attempted,
    })
}

fn summary(rung: &'static str, lat: Vec<f64>) -> (&'static str, f64, f64) {
    let s = sorted(lat);
    let (p50, p99) = (quantile(&s, 0.5), quantile(&s, 0.99));
    eprintln!(
        "  rung {rung:<8} p50 {p50:>9.1} µs  p99 {p99:>9.1} µs  ({} jobs)",
        s.len()
    );
    (rung, p50, p99)
}

/// The wordcount graph of `wordcount_spec(4, 32)`, built by hand in one
/// scope: tokenize, shard by word hash, count, merge by word.
fn scope_wordcount(rt: &Runtime, lines: Vec<String>) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let out_ref = &mut out;
    rt.scope(move |s| {
        GraphBuilder::on(s)
            .source_iter(lines)
            .flat_map(|line: String| {
                line.split_whitespace()
                    .map(str::to_string)
                    .collect::<Vec<_>>()
            })
            .split(4, Partition::keyed(|w: &String| fnv1a(w.as_bytes())))
            .shard(
                |_| BTreeMap::<String, u64>::new(),
                |counts, word, _emit| *counts.entry(word.value).or_insert(0) += 1,
                |counts, emit| emit.extend(counts),
            )
            .merge_by_key(32, |pair: &(String, u64)| pair.0.clone())
            .collect_into(out_ref);
    });
    out
}

/// Closed-loop plain jobs on one connection, alternating traced and
/// untraced blocks. Returns `(traced, untraced)` latencies, µs.
fn ingress_rung(
    addr: SocketAddr,
    pool: &JobPool,
    tracer: &mut Tracer,
) -> std::io::Result<(Vec<f64>, Vec<f64>)> {
    let mut client = IngressClient::connect(addr)?;
    let mut off = Tracer::new(false, tracer.origin());
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    for i in 0..WARM_JOBS + 2 * RUNG_JOBS {
        let j = i % pool.payloads.len();
        let timed = i >= WARM_JOBS;
        let on = timed && ((i - WARM_JOBS) / OVERHEAD_BLOCK).is_multiple_of(2);
        let tr = if on { &mut *tracer } else { &mut off };
        let id = i as u64 + 1;
        let t = Instant::now();
        let root = tr.open("job", 0, id);
        let span = tr.open("send", root, id);
        client.submit(id, &pool.payloads[j])?;
        tr.close(span);
        let span = tr.open("recv", root, id);
        let frame = client.recv()?;
        tr.close(span);
        tr.close(root);
        let us = t.elapsed().as_secs_f64() * 1e6;
        if frame.kind != FrameKind::Result || frame.req_id != id || frame.body != pool.expected[j] {
            return Err(wrong("ingress"));
        }
        match (timed, on) {
            (true, true) => traced.push(us),
            (true, false) => untraced.push(us),
            _ => {}
        }
    }
    Ok((traced, untraced))
}

/// Closed-loop durable jobs (SubmitDurable → Result → Ack) on one
/// connection, ids from `id_base + 1`. Returns latencies, µs.
fn durable_rung(
    addr: SocketAddr,
    pool: &JobPool,
    id_base: u64,
    tracer: &mut Tracer,
) -> std::io::Result<Vec<f64>> {
    let mut client = IngressClient::connect(addr)?;
    let mut lat = Vec::with_capacity(RUNG_JOBS);
    for i in 0..WARM_JOBS + RUNG_JOBS {
        let j = i % pool.payloads.len();
        let id = id_base + i as u64 + 1;
        let t = Instant::now();
        let root = tracer.open("job", 0, id);
        let span = tracer.open("send", root, id);
        client.submit_durable(id, &pool.payloads[j])?;
        tracer.close(span);
        let span = tracer.open("recv", root, id);
        let frame = client.recv()?;
        tracer.close(span);
        let span = tracer.open("send", root, id);
        client.ack(id)?;
        tracer.close(span);
        tracer.close(root);
        let us = t.elapsed().as_secs_f64() * 1e6;
        if frame.kind != FrameKind::Result || frame.req_id != id || frame.body != pool.expected[j] {
            return Err(wrong("durable"));
        }
        if i >= WARM_JOBS {
            lat.push(us);
        }
    }
    Ok(lat)
}

/// p50 of connect + one durable job + close, µs.
fn connect_probe(
    addr: SocketAddr,
    pool: &JobPool,
    id_base: u64,
    tracer: &mut Tracer,
) -> std::io::Result<f64> {
    let mut lat = Vec::with_capacity(CONNECT_PROBES);
    for i in 0..CONNECT_PROBES {
        let id = id_base + i as u64 + 1;
        let j = i % pool.payloads.len();
        let t = Instant::now();
        let span = tracer.open("connect", 0, id);
        let mut client = IngressClient::connect(addr)?;
        tracer.close(span);
        client.submit_durable(id, &pool.payloads[j])?;
        let frame = client.recv()?;
        client.ack(id)?;
        lat.push(t.elapsed().as_secs_f64() * 1e6);
        if frame.body != pool.expected[j] {
            return Err(wrong("connect probe"));
        }
    }
    Ok(quantile(&sorted(lat), 0.5))
}

/// `append_sync` latency straight on a `Journal` in a fresh directory,
/// with the workload's record sizes: each call journals one job's Submit
/// (appended) and Result (synced), as `hqd` does. Depth 1 is one caller;
/// depth 8 is eight concurrent callers. Returns both p50s, µs.
fn journal_probe(dir: &Path, pool: &JobPool, tracer: &mut Tracer) -> std::io::Result<(f64, f64)> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    let (journal, _) = Journal::open(JournalConfig::at(dir))?;
    let call = |id: u64, tr: &mut Tracer| -> f64 {
        let j = id as usize % pool.payloads.len();
        journal.append(RecordKind::Submit, id, &pool.payloads[j]);
        let t = Instant::now();
        let span = tr.open("append_sync", 0, id);
        journal.append_sync(RecordKind::Result, id, &pool.expected[j]);
        tr.close(span);
        t.elapsed().as_secs_f64() * 1e6
    };
    let d1: Vec<f64> = (0..SYNC_PROBES as u64)
        .map(|i| call(i + 1, tracer))
        .collect();
    let origin = tracer.origin();
    let per_thread = SYNC_PROBES / 8;
    let results: Vec<(Vec<f64>, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let call = &call;
                s.spawn(move || {
                    let mut tr = Tracer::new(true, origin);
                    let base = 1_000_000 * (t + 1);
                    let lat = (0..per_thread as u64)
                        .map(|i| call(base + i, &mut tr))
                        .collect();
                    (lat, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("journal probe thread panicked"))
            .collect()
    });
    let mut d8 = Vec::new();
    for (lat, tr) in results {
        d8.extend(lat);
        if tracer.enabled() {
            tracer.absorb(tr);
        }
    }
    drop(journal);
    std::fs::remove_dir_all(dir).ok();
    Ok((quantile(&sorted(d1), 0.5), quantile(&sorted(d8), 0.5)))
}

/// The `q`-quantile of a latency histogram, interpolated by rank inside
/// its power-of-two bucket (the bucket alone bounds it within 2×).
pub fn hist_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    let total = h.count();
    if total == 0 {
        return 0.0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &c) in h.buckets.iter().enumerate() {
        if c > 0 && seen + c >= rank {
            let (lo, hi) = HistogramSnapshot::bucket_bounds(i);
            let frac = (rank - seen) as f64 / c as f64;
            return lo as f64 + (hi - lo) as f64 * frac;
        }
        seen += c;
    }
    0.0
}

/// Before/after differences of the daemons' telemetry, summed over
/// shards.
#[derive(Default)]
pub struct Counters {
    pub jobs: u64,
    pub segments_allocated: u64,
    pub lock_acquisitions: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub sched: MetricsSnapshot,
    pub high_water_in_flight: u64,
    pub loop_wakeups: u64,
    pub bytes: u64,
    pub shard_connections: u64,
    pub appends: u64,
    pub fsyncs: u64,
    pub journal_bytes: u64,
    pub job_hist: HistogramSnapshot,
}

impl Counters {
    pub fn diff(before: &[TelemetrySnapshot], after: &[TelemetrySnapshot]) -> Counters {
        let mut c = Counters::default();
        for (b, a) in before.iter().zip(after) {
            let d = |x: u64, y: u64| y.saturating_sub(x);
            c.jobs += d(b.admission.completed, a.admission.completed);
            c.segments_allocated += d(b.queues.segments_allocated, a.queues.segments_allocated);
            c.lock_acquisitions += d(b.queues.lock_acquisitions, a.queues.lock_acquisitions);
            for (eb, ea) in b.edges.iter().zip(&a.edges) {
                c.pool_hits += d(eb.pool.hits, ea.pool.hits);
                c.pool_misses += d(eb.pool.misses, ea.pool.misses);
            }
            add_sched_delta(&mut c.sched, &b.sched, &a.sched);
            c.high_water_in_flight = c
                .high_water_in_flight
                .max(a.admission.high_water_in_flight as u64);
            if let (Some(ib), Some(ia)) = (&b.ingress, &a.ingress) {
                c.loop_wakeups += d(ib.loop_wakeups, ia.loop_wakeups);
                c.bytes += d(ib.bytes_in + ib.bytes_out, ia.bytes_in + ia.bytes_out);
                c.shard_connections += d(ib.connections, ia.connections);
            }
            if let (Some(jb), Some(ja)) = (&b.journal, &a.journal) {
                c.appends += d(jb.stats.appends, ja.stats.appends);
                c.fsyncs += d(jb.stats.fsyncs, ja.stats.fsyncs);
                c.journal_bytes += d(jb.stats.bytes_written, ja.stats.bytes_written);
            }
            let hist = |s: &TelemetrySnapshot| {
                s.latency
                    .iter()
                    .find(|l| l.class == "wordcount")
                    .map(|l| l.histogram)
                    .unwrap_or_default()
            };
            let (hb, ha) = (hist(b), hist(a));
            for i in 0..ha.buckets.len() {
                c.job_hist.buckets[i] += d(hb.buckets[i], ha.buckets[i]);
            }
        }
        c
    }
}

/// Adds `after − before` of the scheduler counters the benchmark reports
/// to `acc`.
pub fn add_sched_delta(
    acc: &mut MetricsSnapshot,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
) {
    let d = |b: u64, a: u64| a.saturating_sub(b);
    acc.tasks_executed += d(before.tasks_executed, after.tasks_executed);
    acc.steals += d(before.steals, after.steals);
    acc.steal_failures += d(before.steal_failures, after.steal_failures);
    acc.parks += d(before.parks, after.parks);
    acc.cross_group_steals += d(before.cross_group_steals, after.cross_group_steals);
}

/// Adds the `swan.*` counter metrics of scheduler deltas `sched` over a
/// phase that ran `jobs` jobs.
pub fn report_sched(report: &mut Report, sched: &MetricsSnapshot, jobs: f64) {
    let per_job = |x: u64| x as f64 / jobs.max(1.0);
    report.metric("swan.tasks_per_job", per_job(sched.tasks_executed), "count");
    report.metric("swan.steals_per_job", per_job(sched.steals), "count");
    report.metric(
        "swan.steal_success_ratio",
        sched.steals as f64 / (sched.steals + sched.steal_failures).max(1) as f64,
        "ratio",
    );
    report.metric("swan.parks_per_job", per_job(sched.parks), "count");
    report.metric(
        "swan.cross_group_steals",
        sched.cross_group_steals as f64,
        "count",
    );
}

/// Adds the ladder's rungs, per-layer deltas, tracing overhead,
/// server-side job latency and journal probe to `report`.
pub fn report(lad: &Ladder, report: &mut Report) {
    for &(rung, p50, p99) in &lad.rungs {
        report.metric(format!("ladder.{rung}.p50_us"), p50, "us");
        report.metric(format!("ladder.{rung}.p99_us"), p99, "us");
    }
    let p50 = |rung: &str| lad.rungs.iter().find(|r| r.0 == rung).map_or(0.0, |r| r.1);
    report.metric(
        "ladder.tracing_overhead_us",
        p50("ingress") - lad.ingress_untraced_p50,
        "us",
    );
    let layers = [
        ("swan.scope_added_p50_us", "scope", "serial"),
        ("service.added_p50_us", "submit", "scope"),
        ("ingress.added_p50_us", "ingress", "submit"),
        ("journal.added_p50_us", "durable", "ingress"),
        ("router.added_p50_us", "routed", "durable"),
    ];
    for (name, rung, below) in layers {
        report.metric(name, p50(rung) - p50(below), "us");
    }
    report.metric("service.job_p50_us", lad.job_p50_us, "us");
    report.metric("service.job_p99_us", lad.job_p99_us, "us");
    report.metric("journal.append_sync_p50_us.d1", lad.sync_d1_us, "us");
    report.metric("journal.append_sync_p50_us.d8", lad.sync_d8_us, "us");
    report.metric("router.connect_added_ms", lad.router_connect_added_ms, "ms");
}

impl Counters {
    /// Adds the per-job counter ratios of a workload phase that ran
    /// `jobs` jobs, plus the phase's server-side latency and journal lag.
    pub fn report(&self, report: &mut Report, jobs: f64, lag_max: u64) {
        let per_job = |x: u64| x as f64 / jobs.max(1.0);
        report.metric(
            "hyperqueue.segments_allocated_per_job",
            per_job(self.segments_allocated),
            "count",
        );
        report.metric(
            "hyperqueue.pool_hit_ratio",
            self.pool_hits as f64 / (self.pool_hits + self.pool_misses).max(1) as f64,
            "ratio",
        );
        report.metric(
            "hyperqueue.lock_acquisitions_per_job",
            per_job(self.lock_acquisitions),
            "count",
        );
        report_sched(report, &self.sched, jobs);
        report.metric(
            "service.load_job_p50_us",
            hist_quantile(&self.job_hist, 0.5),
            "us",
        );
        report.metric(
            "service.load_job_p99_us",
            hist_quantile(&self.job_hist, 0.99),
            "us",
        );
        report.metric(
            "service.high_water_in_flight",
            self.high_water_in_flight as f64,
            "count",
        );
        report.metric(
            "ingress.loop_wakeups_per_job",
            per_job(self.loop_wakeups),
            "count",
        );
        report.metric("ingress.bytes_per_job", per_job(self.bytes), "bytes");
        report.metric(
            "journal.fsyncs_per_append",
            self.fsyncs as f64 / self.appends.max(1) as f64,
            "ratio",
        );
        report.metric(
            "journal.bytes_per_job",
            per_job(self.journal_bytes),
            "bytes",
        );
        report.metric("journal.lag_max", lag_max as f64, "count");
    }
}
