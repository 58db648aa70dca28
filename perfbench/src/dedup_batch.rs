//! The `dedup-batch` workload: the paper's Fig. 11 dedup pipeline on a
//! seeded corpus. Rounds interleave the drivers in a rotating order so
//! drift on the machine hits each equally; every archive's checksum must
//! equal the serial elision's.

use std::time::{Duration, Instant};

use perfbench::stats::{median, min};
use perfbench::trace::Tracer;
use swan::{MetricsSnapshot, Runtime};
use workloads::dedup::{
    corpus, run_hyperqueue, run_pthread, run_serial, run_tbb, DedupConfig, DedupTuning,
};

use crate::report::{JsonObject, Report};
use crate::{ladder, Ctx, SETUPS, WORKERS};

/// Corpus size. 24 MiB keeps the paper's coarse/fine chunk ratio
/// (32 coarse chunks of ~210 fine chunks) while a round of every driver
/// stays near one second, so a run holds enough rounds for medians.
pub const CORPUS_MIB: usize = 24;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Driver {
    Serial,
    /// The serial elision on every worker at once, one archive each: what
    /// the machine does with no coordination between workers at all.
    SerialPerWorker,
    Hq1,
    Hq2,
    Tbb,
    Pthreads,
}

/// Runs the workload; returns the config record.
pub fn run(ctx: &Ctx, report: &mut Report, config: JsonObject) -> Result<JsonObject, String> {
    let config = config
        .num("corpus_mib", CORPUS_MIB as f64)
        .str("tbb_model", "run_tbb(threads 2, tokens 8)")
        .str(
            "pthreads_model",
            "run_pthread(DedupTuning::oversubscribed(2))",
        );
    body(ctx, report).map_err(|e| e.to_string())?;
    Ok(config)
}

fn body(ctx: &Ctx, report: &mut Report) -> std::io::Result<()> {
    let mut tracer = Tracer::new(ctx.trace, Instant::now());
    let lad = if ctx.trace {
        let work_dir = ctx.out.join(format!("run-{}", std::process::id()));
        let lad = ladder::run(ctx, &work_dir, &mut tracer)?;
        std::fs::remove_dir_all(&work_dir).ok();
        Some(lad)
    } else {
        None
    };

    // Set-up: corpus generation and runtime start, `SETUPS` times.
    let cfg = DedupConfig {
        seed: ctx.subseed(7),
        ..DedupConfig::bench(CORPUS_MIB << 20)
    };
    let mut setups = Vec::new();
    let mut kept = None;
    let mut first_archive = None;
    let mut rss_kib = 0;
    for i in 0..SETUPS {
        let t = if i == 0 { ctx.started } else { Instant::now() };
        let data = corpus(&cfg);
        let rt2 = Runtime::with_workers(WORKERS);
        setups.push(t.elapsed().as_secs_f64());
        if i == 0 && !ctx.trace {
            // Peak RSS through the first set-up and one untimed archive of
            // the hyperqueue driver. Read later, it would mostly show what
            // the allocator kept from earlier rounds, which differs from
            // run to run by tens of MiB.
            first_archive = Some(run_hyperqueue(&cfg, &data, &rt2).checksum());
            rss_kib = perfbench::procs::peak_rss_kib("/proc/self/status").unwrap_or(0);
        }
        kept = Some((data, rt2));
    }
    let (data, rt2) = kept.expect("SETUPS >= 1");
    let shown: Vec<String> = setups.iter().map(|s| format!("{s:.4}")).collect();
    eprintln!("  set-ups: {} s", shown.join(" "));
    let rt1 = Runtime::with_workers(1);
    let mib = data.len() as f64 / (1 << 20) as f64;

    let drivers: &[Driver] = if ctx.trace {
        &[
            Driver::Serial,
            Driver::Hq2,
            Driver::Tbb,
            Driver::Pthreads,
            Driver::Hq1,
        ]
    } else {
        &[Driver::SerialPerWorker, Driver::Hq2]
    };
    let budget = if ctx.trace { 0.6 } else { 1.0 } * ctx.seconds;
    let deadline = Instant::now() + Duration::from_secs_f64(budget);
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); drivers.len()];
    let mut reference = None;
    let mut swan_before = MetricsSnapshot::default();
    let mut swan_delta = MetricsSnapshot::default();
    let mut attempted = 0u64;
    let mut round = 0usize;
    // Untimed warm-up of every driver, then whole rounds until the
    // budget is spent (at least one).
    while round < 2 || Instant::now() < deadline {
        for k in 0..drivers.len() {
            let d = drivers[(k + round) % drivers.len()];
            if d == Driver::Hq2 {
                swan_before = rt2.metrics();
            }
            let span = tracer.open("archive", 0, round as u64);
            let t = Instant::now();
            let sums: Vec<u64> = match d {
                Driver::Serial => vec![run_serial(&cfg, &data).0.checksum()],
                Driver::SerialPerWorker => std::thread::scope(|s| {
                    let each: Vec<_> = (0..WORKERS)
                        .map(|_| s.spawn(|| run_serial(&cfg, &data).0.checksum()))
                        .collect();
                    each.into_iter()
                        .map(|h| h.join().expect("serial elision thread panicked"))
                        .collect()
                }),
                Driver::Hq1 => vec![run_hyperqueue(&cfg, &data, &rt1).checksum()],
                Driver::Hq2 => vec![run_hyperqueue(&cfg, &data, &rt2).checksum()],
                Driver::Tbb => vec![run_tbb(&cfg, &data, WORKERS, 4 * WORKERS).checksum()],
                Driver::Pthreads => {
                    vec![run_pthread(&cfg, &data, &DedupTuning::oversubscribed(WORKERS)).checksum()]
                }
            };
            let secs = t.elapsed().as_secs_f64();
            tracer.close(span);
            if d == Driver::Hq2 && round > 0 {
                ladder::add_sched_delta(&mut swan_delta, &swan_before, &rt2.metrics());
            }
            for sum in sums {
                attempted += 1;
                if *reference.get_or_insert(sum) != sum {
                    report.correct = false;
                    report.failed += 1;
                }
            }
            if round > 0 {
                times[drivers.iter().position(|&x| x == d).expect("listed")].push(secs);
            }
        }
        round += 1;
    }
    if let Some(sum) = first_archive {
        attempted += 1;
        if reference != Some(sum) {
            report.correct = false;
            report.failed += 1;
        }
    }
    report.attempted = attempted + lad.as_ref().map_or(0, |l| l.attempted);
    let time_of = |d: Driver| &times[drivers.iter().position(|&x| x == d).expect("listed")];
    let hq2 = time_of(Driver::Hq2);
    // Per-round ratios: each pair ran back to back.
    let ratio = |other: &[f64]| -> f64 {
        let r: Vec<f64> = other.iter().zip(hq2).map(|(o, h)| o / h).collect();
        median(&r)
    };
    if let Some(lad) = &lad {
        let serial = time_of(Driver::Serial);
        eprintln!(
            "  {} timed rounds on {mib:.0} MiB; serial {:.3}s, hyperqueue@2 {:.3}s",
            round - 1,
            median(serial),
            median(hq2)
        );
        ladder::report(lad, report);
        ladder::report_sched(report, &swan_delta, hq2.len() as f64);
        let hq1 = median(time_of(Driver::Hq1));
        report.metric(
            "hyperqueue.overhead_1w_pct",
            (hq1 / median(serial) - 1.0) * 100.0,
            "%",
        );
        report.metric("paper.batch_mib_s", mib / median(hq2), "MiB/s");
        report.metric("paper.speedup_vs_serial", ratio(serial), "x");
        report.metric("paper.hq_vs_tbb", ratio(time_of(Driver::Tbb)), "x");
        report.metric(
            "paper.hq_vs_pthreads",
            ratio(time_of(Driver::Pthreads)),
            "x",
        );
        let spans = ctx
            .out
            .join(format!("spans-dedup-batch-seed{}.jsonl", ctx.seed));
        tracer.write_jsonl(&spans)?;
    } else {
        report.metric("setup_s", min(&setups), "s");
        report.metric("peak_rss_mib", rss_kib as f64 / 1024.0, "MiB");
        let per_worker = time_of(Driver::SerialPerWorker);
        eprintln!(
            "  {} timed rounds on {mib:.0} MiB; serial elision on {WORKERS} workers \
             {:.3}s for {WORKERS} archives, hyperqueue@{WORKERS} {:.3}s for one",
            round - 1,
            median(per_worker),
            median(hq2)
        );
        // Archives per second over the serial elision's on every worker.
        report.metric(
            "efficiency_vs_serial",
            ratio(per_worker) / WORKERS as f64,
            "ratio",
        );
    }
    Ok(())
}
