//! The solver workloads: `paper-alg1` (Algorithm 1, `CrossbarPdipSolver`)
//! and `paper-pdhg-analog` (`CrossbarPdhgSolver`), each on the paper's
//! §4.2 random-LP family at one size, 10% variation, one thread, solved
//! back to back in a closed loop.

use std::time::Instant;

use memlp_core::{
    CrossbarPdhgOptions, CrossbarPdhgSolver, CrossbarPdipSolver, CrossbarSolution,
    CrossbarSolverOptions,
};
use memlp_crossbar::{CrossbarConfig, OpCounts};
use memlp_device::CostParams;
use memlp_lp::generator::RandomLp;
use memlp_lp::{format, LpProblem, LpStatus};
use memlp_serve::ServeSolver;
use memlp_solvers::{LpSolver, NormalEqPdip, PdipOptions};

use crate::layers::{self, ServeSample};
use crate::probe::{Probe, SpanClock, Track};
use crate::stats::{self, Digest};
use crate::trace::Tracer;
use crate::Outcome;

/// Which crossbar solver a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Alg1,
    PdhgAnalog,
}

/// One solver workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub family: Family,
    /// Constraint count `m` (`n = m/3`).
    pub m: usize,
    /// Instances per pass.
    pub instances: usize,
}

pub const PAPER_ALG1: Spec = Spec {
    family: Family::Alg1,
    m: 128,
    instances: 256,
};

pub const PAPER_PDHG_ANALOG: Spec = Spec {
    family: Family::PdhgAnalog,
    m: 256,
    instances: 144,
};

/// Process variation of every instance's array, percent.
pub const VARIATION_PCT: f64 = 10.0;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// A solve fails when it is further than this from the reference,
/// measured as `|f − f*| / (1 + |f*|)`.
pub const MAX_REL_ERR: f64 = 0.10;

enum Solver {
    Alg1(CrossbarPdipSolver),
    Pdhg(CrossbarPdhgSolver),
}

impl Solver {
    fn solve(&self, lp: &LpProblem) -> CrossbarSolution {
        match self {
            Solver::Alg1(s) => s.solve(lp),
            Solver::Pdhg(s) => s.solve(lp),
        }
    }

    fn config(&self) -> CrossbarConfig {
        match self {
            Solver::Alg1(s) => *s.config(),
            Solver::Pdhg(s) => *s.config(),
        }
    }
}

/// The hardware of instance `i`: its own variation draw.
fn config(seed: u64, i: usize) -> CrossbarConfig {
    CrossbarConfig::paper_default()
        .with_variation(VARIATION_PCT)
        .with_seed(stats::mix(seed, i as u64, 2))
}

struct Instance {
    lp: LpProblem,
    solver: Solver,
}

/// Everything the timed phase needs: generated and round-tripped
/// instances, one solver per instance, after one untimed warm-up solve.
/// The clock ticks after every instance.
fn setup(
    spec: Spec,
    seed: u64,
    tr: &mut Tracer,
    clock: &mut SpanClock,
) -> Result<Vec<Instance>, String> {
    let root = tr.enter(layers::SETUP, 0);
    let mut out = Vec::with_capacity(spec.instances);
    for i in 0..spec.instances {
        let gen = RandomLp::paper(spec.m, stats::mix(seed, i as u64, 1));
        let lp = tr.time(layers::GENERATE, 0, || gen.feasible());
        let lp = tr
            .time(layers::PARSE, 0, || format::parse(&format::write(&lp)))
            .map_err(|e| format!("instance {i}: format round trip: {e}"))?;
        let cfg = config(seed, i);
        let solver = match spec.family {
            Family::Alg1 => Solver::Alg1(CrossbarPdipSolver::new(
                cfg,
                CrossbarSolverOptions::default(),
            )),
            Family::PdhgAnalog => {
                Solver::Pdhg(CrossbarPdhgSolver::new(cfg, CrossbarPdhgOptions::default()))
            }
        };
        out.push(Instance { lp, solver });
        clock.tick();
    }
    let warm = out[0].solver.solve(&out[0].lp);
    std::hint::black_box(warm);
    tr.exit(root);
    Ok(out)
}

/// The digital reference: `NormalEqPdip` (the solver that reproduces the
/// paper's Fig 5 accuracy baseline), certified to 1e-6 — four orders of
/// magnitude inside the analog noise floor the crossbar solvers reach.
pub fn reference_solver() -> NormalEqPdip {
    NormalEqPdip::new(PdipOptions {
        eps_primal: 1e-6,
        eps_dual: 1e-6,
        eps_gap: 1e-6,
        max_iterations: 500,
        ..PdipOptions::default()
    })
}

/// Reference objective per instance.
fn references(instances: &[Instance]) -> Result<Vec<f64>, String> {
    let solver = reference_solver();
    instances
        .iter()
        .enumerate()
        .map(|(i, inst)| {
            let r = solver.solve(&inst.lp);
            if r.status == LpStatus::Optimal {
                Ok(r.objective)
            } else {
                Err(format!("instance {i}: reference solve ended {}", r.status))
            }
        })
        .collect()
}

/// The simulated outputs of one solve.
#[derive(Debug, Clone)]
struct SolveRecord {
    status: LpStatus,
    degraded: bool,
    iterations: usize,
    retries: usize,
    objective: f64,
    rel_err: f64,
    counts: OpCounts,
    sim_time_s: f64,
    sim_energy_j: f64,
}

impl SolveRecord {
    fn new(sol: &CrossbarSolution, reference: f64) -> Self {
        SolveRecord {
            status: sol.solution.status,
            degraded: sol.degraded.is_some(),
            iterations: sol.solution.iterations,
            retries: sol.retries_used,
            objective: sol.solution.objective,
            rel_err: (sol.solution.objective - reference).abs() / (1.0 + reference.abs()),
            counts: sol.ledger.counts(),
            sim_time_s: sol.ledger.total_time_s(),
            sim_energy_j: sol.ledger.energy_j(&CostParams::default()),
        }
    }

    fn failed(&self) -> bool {
        self.status != LpStatus::Optimal
            || self.degraded
            || self.rel_err.is_nan()
            || self.rel_err > MAX_REL_ERR
    }
}

fn digest(pass: &[SolveRecord]) -> u64 {
    let mut d = Digest::default();
    for r in pass {
        d.str(&format!("{:?}", r.status));
        d.u64(u64::from(r.degraded));
        d.u64(r.iterations as u64);
        d.u64(r.retries as u64);
        d.f64(r.objective);
        d.counts(&r.counts);
        d.f64(r.sim_time_s);
        d.f64(r.sim_energy_j);
    }
    d.value()
}

/// The timed closed loop: whole passes over the instances, at least
/// `min_passes` of them, up to the pass boundary nearest to `seconds`. The
/// probe is read before every solve and after the last; latencies are
/// kept raw and in reference-host ms.
struct Timed {
    passes: Vec<Vec<SolveRecord>>,
    /// Per-instance wall latencies, reference-host ms (see [`crate::probe`]).
    latency_ms: Vec<Vec<f64>>,
    /// Per-instance wall latencies as the host clock read them, ms.
    raw_ms: Vec<Vec<f64>>,
    /// The probe before each solve and after the last one.
    probe: Track,
    /// Wall time of each pass, probes included, s.
    pass_s: Vec<f64>,
    wall_s: f64,
}

fn timed(instances: &[Instance], refs: &[f64], seconds: f64, min_passes: usize) -> Timed {
    let mut out = Timed {
        passes: Vec::new(),
        latency_ms: vec![Vec::new(); instances.len()],
        raw_ms: vec![Vec::new(); instances.len()],
        probe: Track::default(),
        pass_s: Vec::new(),
        wall_s: 0.0,
    };
    let mut probe = Probe::default();
    let start = Instant::now();
    loop {
        let pass_start = Instant::now();
        let mut pass = Vec::with_capacity(instances.len());
        for (i, inst) in instances.iter().enumerate() {
            out.probe.push(probe.sample());
            let t = Instant::now();
            let sol = inst.solver.solve(&inst.lp);
            out.raw_ms[i].push(t.elapsed().as_secs_f64() * 1e3);
            pass.push(SolveRecord::new(&sol, refs[i]));
        }
        out.passes.push(pass);
        let pass_s = pass_start.elapsed().as_secs_f64();
        out.pass_s.push(pass_s);
        // Stop at the pass boundary nearest to `seconds`.
        if out.passes.len() >= min_passes && start.elapsed().as_secs_f64() + pass_s / 2.0 >= seconds
        {
            break;
        }
    }
    out.probe.push(probe.sample());
    out.wall_s = start.elapsed().as_secs_f64();
    // Solve `k` in time order is pass `k / n`, instance `k % n`.
    let n = instances.len();
    for (i, raw) in out.raw_ms.iter().enumerate() {
        for (p, ms) in raw.iter().enumerate() {
            out.latency_ms[i].push(ms / out.probe.slowness(p * n + i));
        }
    }
    out
}

/// Runs a solver workload and returns its metrics.
pub fn run(spec: Spec, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    if trace {
        return run_traced(spec, seed, seconds);
    }
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut raw_setup_s = Vec::with_capacity(SETUPS);
    let mut instances = Vec::new();
    for _ in 0..SETUPS {
        let (built, raw_s, ref_s) =
            SpanClock::time(|clock| setup(spec, seed, &mut Tracer::new(), clock));
        instances = built?;
        raw_setup_s.push(raw_s);
        setup_s.push(ref_s);
    }
    let refs = references(&instances)?;
    let t = timed(&instances, &refs, seconds, 2);

    let mut out = Outcome::default();
    check_passes(&mut out, &t.passes, &[]);
    let all: Vec<f64> = t.latency_ms.iter().flatten().copied().collect();
    let per_instance: Vec<f64> = t.latency_ms.iter().map(|v| stats::median(v)).collect();
    let raw_all: Vec<f64> = t.raw_ms.iter().flatten().copied().collect();
    let raw_per_instance: Vec<f64> = t.raw_ms.iter().map(|v| stats::median(v)).collect();
    let tail = stats::tail(&per_instance);
    let pass0 = &t.passes[0];
    out.attempted = (pass0.len() * t.passes.len()) as u64;
    out.failed = (pass0.iter().filter(|r| r.failed()).count() * t.passes.len()) as u64;

    out.metric("setup_s", stats::median(&setup_s));
    // One solve at a time: the loop's rate is the inverse of the mean
    // latency. Each instance enters with its median latency, so a burst of
    // host noise does not carry the figure.
    out.metric("solves_per_s", 1e3 / stats::mean(&per_instance));
    out.metric("latency_ms_p50", stats::median(&all));
    out.metric("latency_ms_tail", tail.value);
    out.metric(
        "solved_frac",
        1.0 - out.failed as f64 / out.attempted as f64,
    );
    sim_metrics(&mut out, pass0);
    out.metric("peak_rss_mb", stats::peak_rss_mb()?);

    out.note(format!(
        "{} instances (m={}, n={}), {} passes, {} solves in {:.2} s ({:.2}/s raw)",
        pass0.len(),
        spec.m,
        spec.m / 3,
        t.passes.len(),
        out.attempted,
        t.wall_s,
        out.attempted as f64 / t.wall_s
    ));
    out.note(format!(
        "fail_frac {} ({} of {})",
        out.failed as f64 / out.attempted as f64,
        out.failed,
        out.attempted
    ));
    out.note(format!(
        "latency_ms_tail at p{:.1} of {} per-instance medians",
        tail.percentile, tail.samples
    ));
    out.note(format!(
        "host times are reference-host times (probe {:.1} us here, {} us there); raw host clock: solves_per_s {:.3}, latency_ms_p50 {:.3}, latency_ms_tail {:.3}",
        t.probe.median_us(),
        crate::probe::PROBE_REF_US,
        1e3 / stats::mean(&raw_per_instance),
        stats::median(&raw_all),
        stats::tail(&raw_per_instance).value
    ));
    out.note(format!("setup_s samples {setup_s:?} (raw {raw_setup_s:?})"));
    out.note(format!("pass_s {:?}", t.pass_s));
    Ok(out)
}

/// Checks that every pass (and every extra pass, e.g. the traced one)
/// reproduced pass 0 bitwise, and reports the digest.
fn check_passes(out: &mut Outcome, passes: &[Vec<SolveRecord>], extra: &[&[SolveRecord]]) {
    let d0 = digest(&passes[0]);
    let agree = passes
        .iter()
        .map(|p| p.as_slice())
        .chain(extra.iter().copied())
        .all(|p| digest(p) == d0);
    if !agree {
        out.correct = false;
        out.note("passes disagree: simulated outputs are not reproducible".to_string());
    }
    out.note(format!(
        "sim_digest {d0:016x} ({} passes {})",
        passes.len() + extra.len(),
        if agree { "agree" } else { "DISAGREE" }
    ));
}

/// The simulated-clock metrics and accuracy, over one pass.
fn sim_metrics(out: &mut Outcome, pass: &[SolveRecord]) {
    let per =
        |f: &dyn Fn(&SolveRecord) -> f64| stats::mean(&pass.iter().map(f).collect::<Vec<_>>());
    out.metric("obj_rel_err_mean", per(&|r| r.rel_err));
    out.metric("sim_latency_ms", per(&|r| r.sim_time_s * 1e3));
    out.metric("sim_energy_mj", per(&|r| r.sim_energy_j * 1e3));
    out.metric(
        "sim_writes",
        per(&|r| (r.counts.setup_writes + r.counts.update_writes) as f64),
    );
}

/// Per-solve means of the ledger counters, as per-layer metrics.
pub fn count_metrics(out: &mut Outcome, counts: &[OpCounts]) {
    let per = |f: &dyn Fn(&OpCounts) -> u64| {
        stats::mean(&counts.iter().map(|c| f(c) as f64).collect::<Vec<_>>())
    };
    out.metric("linalg.factorizations", per(&|c| c.factorizations));
    out.metric("linalg.factor_flops", per(&|c| c.factor_flops));
    out.metric("linalg.factor_nnz", per(&|c| c.factor_nnz));
    out.metric("crossbar.mvm_ops", per(&|c| c.mvm_ops));
    out.metric("crossbar.solve_ops", per(&|c| c.solve_ops));
    out.metric("crossbar.adc_samples", per(&|c| c.adc_samples));
    out.metric("crossbar.dac_samples", per(&|c| c.dac_samples));
    out.metric("device.setup_writes", per(&|c| c.setup_writes));
    out.metric("device.update_writes", per(&|c| c.update_writes));
    out.metric("device.skipped_writes", per(&|c| c.skipped_writes));
    out.metric("noc.transfers", per(&|c| c.noc_transfers));
    out.metric("noc.tiles_elided", per(&|c| c.tiles_elided));
}

/// Per-call medians of the replayed layer calls, from the spans.
pub fn replay_metrics(out: &mut Outcome, tr: &Tracer, flops: u64) {
    out.metric("lp.generate_ms", tr.median_us(layers::GENERATE) / 1e3);
    out.metric("lp.parse_ms", tr.median_us(layers::PARSE) / 1e3);
    out.metric("core.program_ms", tr.median_us(layers::PROGRAM) / 1e3);
    out.metric(
        "core.update_diagonals_us",
        tr.median_us(layers::UPDATE_DIAGONALS),
    );
    out.metric("core.newton_mvm_us", tr.median_us(layers::NEWTON_MVM));
    out.metric("core.newton_solve_us", tr.median_us(layers::NEWTON_SOLVE));
    out.metric(
        "core.program_planes_ms",
        tr.median_us(layers::PROGRAM_PLANES) / 1e3,
    );
    out.metric("core.tile_mvm_pair_us", tr.median_us(layers::TILE_MVM_PAIR));
    out.metric(
        "crossbar.quantize_pair_us",
        tr.median_us(layers::QUANTIZE_PAIR),
    );
    out.metric("linalg.norm_est_ms", tr.median_us(layers::NORM_EST) / 1e3);
    out.metric("serve.encode_us", tr.median_us(layers::ENCODE));
    out.metric("serve.decode_us", tr.median_us(layers::DECODE));
    let solve_s: f64 = tr.durations_us(layers::NEWTON_SOLVE).iter().sum::<f64>() / 1e6;
    out.metric(
        "linalg.factor_gflops",
        flops as f64 / solve_s.max(1e-12) / 1e9,
    );
}

/// The serving-layer per-layer metrics: latencies from `timing`, pool
/// ratios from `ratios`.
pub fn serve_metrics(out: &mut Outcome, timing: &ServeSample, ratios: &ServeSample) {
    let wait = timing.wait_ms();
    out.metric("serve.server_ms_p50", stats::median(&timing.server_ms));
    out.metric("serve.wait_ms_p50", stats::median(&wait));
    out.metric("serve.wait_ms_tail", stats::tail(&wait).value);
    out.metric(
        "serve.warm_hit_frac",
        ratios.warm as f64 / ratios.completed.max(1) as f64,
    );
    out.metric(
        "serve.skip_frac",
        ratios.skipped as f64 / (ratios.written + ratios.skipped).max(1) as f64,
    );
}

/// The traced run: one set-up, an untraced timed phase for the overhead
/// baseline, then one traced pass with every layer call replayed after
/// each solve, then every instance sent once through the daemon.
fn run_traced(spec: Spec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut tr = Tracer::new();
    let instances = setup(spec, seed, &mut tr, &mut SpanClock::default())?;
    let refs = references(&instances)?;
    let untraced = timed(&instances, &refs, seconds / 2.0, 1);

    let mut pass = Vec::with_capacity(instances.len());
    let mut flops = 0;
    for (i, inst) in instances.iter().enumerate() {
        let req = i as u64 + 1;
        let root = tr.enter(layers::REQUEST, req);
        let sol = tr.time(layers::SOLVE, req, || inst.solver.solve(&inst.lp));
        let body = layers::body_from(&sol);
        flops += layers::replay(
            &mut tr,
            req,
            &inst.lp,
            inst.solver.config(),
            &sol.solution.x,
            &sol.solution.y,
            &body,
        );
        tr.exit(root);
        pass.push(SolveRecord::new(&sol, refs[i]));
    }
    let serve_solver = match spec.family {
        Family::Alg1 => ServeSolver::Pdip,
        Family::PdhgAnalog => ServeSolver::Pdhg,
    };
    let lps: Vec<LpProblem> = instances.iter().map(|i| i.lp.clone()).collect();
    let first = instances.len() as u64 + 1;
    let served = layers::serve_replay(&mut tr, first, serve_solver, config(seed, 0), &lps)?;

    let mut out = Outcome::default();
    check_passes(&mut out, &untraced.passes, &[&pass]);
    out.attempted = (pass.len() * (untraced.passes.len() + 1)) as u64;
    out.failed = (pass.iter().filter(|r| r.failed()).count() * (untraced.passes.len() + 1)) as u64;

    let counts: Vec<OpCounts> = pass.iter().map(|r| r.counts).collect();
    count_metrics(&mut out, &counts);
    out.metric(
        "core.iterations",
        stats::mean(&pass.iter().map(|r| r.iterations as f64).collect::<Vec<_>>()),
    );
    out.metric(
        "core.retries",
        stats::mean(&pass.iter().map(|r| r.retries as f64).collect::<Vec<_>>()),
    );
    replay_metrics(&mut out, &tr, flops);
    serve_metrics(&mut out, &served, &served);

    // Attribution: per-call time × how often the solve makes that call
    // (from its ledger), against the solve's own wall time.
    let mean_count =
        |f: &dyn Fn(&SolveRecord) -> f64| stats::mean(&pass.iter().map(f).collect::<Vec<_>>());
    let attempts = mean_count(&|r| (r.retries + 1) as f64);
    let mvm_ops = mean_count(&|r| r.counts.mvm_ops as f64);
    let solve_ops = mean_count(&|r| r.counts.solve_ops as f64);
    let attributed_us = match spec.family {
        Family::Alg1 => {
            attempts * tr.median_us(layers::PROGRAM)
                + (solve_ops - attempts).max(0.0) * tr.median_us(layers::UPDATE_DIAGONALS)
                + mvm_ops * tr.median_us(layers::NEWTON_MVM)
                + solve_ops * tr.median_us(layers::NEWTON_SOLVE)
        }
        Family::PdhgAnalog => {
            attempts * (tr.median_us(layers::PROGRAM_PLANES) + tr.median_us(layers::NORM_EST))
                + mvm_ops / 2.0
                    * (tr.median_us(layers::TILE_MVM_PAIR) + tr.median_us(layers::QUANTIZE_PAIR))
        }
    };
    let solve_ms: Vec<f64> = tr
        .durations_us(layers::SOLVE)
        .iter()
        .map(|us| us / 1e3)
        .collect();
    let all_untraced: Vec<f64> = untraced.raw_ms.iter().flatten().copied().collect();
    let p50_untraced = stats::median(&all_untraced);
    out.metric(
        "attributed_frac",
        attributed_us / 1e3 / stats::mean(&solve_ms),
    );
    out.metric(
        "trace_overhead_frac",
        stats::median(&solve_ms) / p50_untraced - 1.0,
    );
    out.note(format!(
        "traced pass: {} solves, mean {:.3} ms; untraced p50 {:.3} ms over {} passes",
        pass.len(),
        stats::mean(&solve_ms),
        p50_untraced,
        untraced.passes.len()
    ));
    out.tracer = Some(tr);
    Ok(out)
}
