//! End-to-end benchmark of memlp on both clocks.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload paper-alg1 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads: `paper-alg1`, `paper-pdhg-analog`, `serve-mixed` (see
//! `README.md` beside this crate for why each exists and what it
//! bypasses). `--trace 0` measures the end-to-end metrics; `--trace 1` is
//! the separate traced run that reports the per-layer metrics and writes
//! its spans to `e2ebench/out/`. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. Host times
//! are reported in reference-host time (see [`probe`]).

mod layers;
mod probe;
mod serve;
mod solvers;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use trace::Tracer;

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solves_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("solved_frac", "ratio"),
    ("obj_rel_err_mean", "ratio"),
    ("sim_latency_ms", "ms"),
    ("sim_energy_mj", "mJ"),
    ("sim_writes", "cells"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lp.generate_ms", "ms"),
    ("lp.parse_ms", "ms"),
    ("core.iterations", "count"),
    ("core.retries", "count"),
    ("core.newton_solve_us", "us"),
    ("core.newton_mvm_us", "us"),
    ("core.update_diagonals_us", "us"),
    ("core.program_ms", "ms"),
    ("core.program_planes_ms", "ms"),
    ("core.tile_mvm_pair_us", "us"),
    ("crossbar.quantize_pair_us", "us"),
    ("linalg.factorizations", "count"),
    ("linalg.factor_flops", "flop"),
    ("linalg.factor_nnz", "count"),
    ("linalg.factor_gflops", "GFLOP/s"),
    ("linalg.norm_est_ms", "ms"),
    ("crossbar.mvm_ops", "count"),
    ("crossbar.solve_ops", "count"),
    ("crossbar.adc_samples", "count"),
    ("crossbar.dac_samples", "count"),
    ("device.setup_writes", "cells"),
    ("device.update_writes", "cells"),
    ("device.skipped_writes", "cells"),
    ("noc.transfers", "count"),
    ("noc.tiles_elided", "count"),
    ("serve.server_ms_p50", "ms"),
    ("serve.wait_ms_p50", "ms"),
    ("serve.wait_ms_tail", "ms"),
    ("serve.encode_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.warm_hit_frac", "ratio"),
    ("serve.skip_frac", "ratio"),
    ("attributed_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
];

pub const WORKLOADS: &[&str] = &["paper-alg1", "paper-pdhg-analog", "serve-mixed"];

/// What one run measured.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
    pub tracer: Option<Tracer>,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            notes: Vec::new(),
            tracer: None,
        }
    }
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "paper-alg1" => solvers::run(solvers::PAPER_ALG1, args.seed, args.seconds, args.trace),
        "paper-pdhg-analog" => solvers::run(
            solvers::PAPER_PDHG_ANALOG,
            args.seed,
            args.seconds,
            args.trace,
        ),
        _ => serve::run(args.seed, args.seconds, args.trace),
    }
}

/// Writes the span file and the layer table of a traced run under
/// `e2ebench/out/`, returning the table.
fn write_trace(args: &Args, tr: &Tracer) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let spans = dir.join(format!("{stem}.spans.jsonl"));
    std::fs::write(&spans, tr.to_jsonl())
        .map_err(|e| format!("writing {}: {e}", spans.display()))?;
    let table = tr.layer_table(layers::feeds);
    let path = dir.join(format!("{stem}.layers.txt"));
    std::fs::write(&path, &table).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(format!(
        "spans: {} ({} spans)\n{table}",
        spans.display(),
        tr.spans().len()
    ))
}

/// The result line: every metric of the run's table, by name, with unit.
fn json_line(out: &Outcome, table: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let v = *out
            .metrics
            .get(name)
            .ok_or(format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.correct && out.failed == 0,
        out.attempted,
        out.failed
    ))
}

fn main() -> ExitCode {
    // One kernel thread everywhere, the daemon's workers included: set
    // before any code reads the budget.
    std::env::set_var("MEMLP_THREADS", "1");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let result = memlp_linalg::parallel::with_threads(1, || run(&args)).and_then(|out| {
        let table = if args.trace { PER_LAYER } else { END_TO_END };
        let line = json_line(&out, table)?;
        let traced = match &out.tracer {
            Some(tr) => Some(write_trace(&args, tr)?),
            None => None,
        };
        Ok((out, line, traced))
    });
    let (out, line, traced) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "e2ebench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for n in &out.notes {
        println!("  {n}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in table {
        println!("  {name:<28} {:>16.6} {unit}", out.metrics[name]);
    }
    if let Some(t) = traced {
        print!("{t}");
    }
    println!("{line}");
    ExitCode::SUCCESS
}
