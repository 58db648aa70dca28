//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload dedup-batch|plain-open|durable-routed
//!           --seed N --seconds S --trace 0|1
//!           --hqd PATH --hqrouter PATH --out DIR [--commit ID]
//! ```
//!
//! `perfbench/run.py` builds the daemons and this binary from source and
//! passes the paths; see `perfbench/README.md` for the workloads, the
//! metrics and what each one is predicted to move. With `--trace 0` the
//! run prints the end-to-end metrics; with `--trace 1` it runs the layer
//! ladder and the workload with spans and counters on and prints the
//! per-layer metrics. Human-readable lines go to stderr; stdout carries a
//! `config` line and, last, the one-line JSON result.

mod dedup_batch;
mod ladder;
mod report;
mod service_load;

use std::path::PathBuf;
use std::time::Instant;

use report::{JsonObject, Report};

/// Worker threads for every runtime and daemon in the benchmark.
pub const WORKERS: usize = 2;
/// Set-ups per untraced run; `setup_s` is the fastest. A set-up is a few
/// tens of ms of CPU work, so a burst of load on the machine slows a run
/// of set-ups in a row; the fastest one is the set-up that met none.
pub const SETUPS: usize = 21;

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub hqd: PathBuf,
    pub hqrouter: PathBuf,
    pub out: PathBuf,
    pub commit: String,
    pub started: Instant,
}

impl Ctx {
    /// A seed for one purpose, derived from the run seed.
    pub fn subseed(&self, purpose: u64) -> u64 {
        let mut x = self.seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

fn parse_args() -> Result<Ctx, String> {
    let started = Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Option<String> {
        raw.iter()
            .position(|a| a == key)
            .and_then(|i| raw.get(i + 1).cloned())
    };
    let need = |key: &str| get(key).ok_or_else(|| format!("missing {key}"));
    let workload = need("--workload")?;
    if !["dedup-batch", "plain-open", "durable-routed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = need("--seed")?
        .parse()
        .map_err(|_| "--seed expects an unsigned integer".to_string())?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|_| "--seconds expects a number".to_string())?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be within 1..=600".into());
    }
    let trace = match need("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    Ok(Ctx {
        workload,
        seed,
        seconds,
        trace,
        hqd: PathBuf::from(need("--hqd")?),
        hqrouter: PathBuf::from(need("--hqrouter")?),
        out: PathBuf::from(need("--out")?),
        commit: get("--commit").unwrap_or_else(|| "unknown".into()),
        started,
    })
}

fn main() {
    let ctx = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.out) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.out.display());
        std::process::exit(1);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut report = Report::new();
    let mut config = JsonObject::default()
        .str("workload", &ctx.workload)
        .num("seed", ctx.seed as f64)
        .num("seconds", ctx.seconds)
        .num("trace", if ctx.trace { 1.0 } else { 0.0 })
        .num("nproc", nproc as f64)
        .num("workers", WORKERS as f64)
        .str("commit", &ctx.commit);
    eprintln!(
        "perfbench: {} seed {} for {}s (trace {}), {nproc} cpus, {WORKERS} workers",
        ctx.workload, ctx.seed, ctx.seconds, ctx.trace as u8
    );
    let outcome = match ctx.workload.as_str() {
        "dedup-batch" => dedup_batch::run(&ctx, &mut report, config),
        name => service_load::run(&ctx, name, &mut report, config),
    };
    config = match outcome {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: run invalid, no result reported: {e}");
            std::process::exit(1);
        }
    };
    println!("config {}", config.finish());
    let listed = if ctx.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    println!("{}", report.to_json(listed));
}
