//! Per-layer replays for the traced run.
//!
//! After each traced solve, the public calls of every layer are replayed
//! on that solve's own instance, each inside a span, [`REPLAYS`] times so
//! the per-call time is a median. The benchmark measures from outside: it
//! calls only the crates' public API and reads counts from what the
//! program returns.

use std::hint::black_box;
use std::time::Instant;

use memlp_core::{
    AugmentedSystem, CrossbarSolution, HwContext, SignSplit, TiledMatrix, ANALOG_TILE_SIDE,
};
use memlp_crossbar::{CrossbarConfig, Phase};
use memlp_linalg::norm_est;
use memlp_lp::LpProblem;
use memlp_serve::codec::{decode_request, decode_response, encode_request, encode_response};
use memlp_serve::{
    Request, Response, ServeClient, ServeConfig, ServeSolver, Server, SolutionBody, SolveJob,
};
use memlp_solvers::pdip::{PdipOptions, PdipState};

use crate::trace::Tracer;

/// Replays of each per-layer call per traced instance.
pub const REPLAYS: usize = 3;

pub const PROGRAM: &str = "core.program";
pub const UPDATE_DIAGONALS: &str = "core.update_diagonals";
pub const NEWTON_MVM: &str = "core.newton_mvm";
pub const NEWTON_SOLVE: &str = "core.newton_solve";
pub const PROGRAM_PLANES: &str = "core.program_planes";
pub const TILE_MVM_PAIR: &str = "core.tile_mvm_pair";
pub const QUANTIZE_PAIR: &str = "crossbar.quantize_pair";
pub const NORM_EST: &str = "linalg.norm_est";
pub const ENCODE: &str = "serve.encode";
pub const DECODE: &str = "serve.decode";
pub const GENERATE: &str = "lp.generate";
pub const PARSE: &str = "lp.parse";
pub const SOLVE: &str = "core.solve";
pub const CALL: &str = "serve.call";
pub const REQUEST: &str = "request";
pub const SETUP: &str = "setup";

/// The end-to-end metric each span's layer feeds (for the layer table).
pub fn feeds(span: &str) -> &'static str {
    match span {
        GENERATE | PARSE | SETUP => "setup_s",
        NEWTON_SOLVE | NEWTON_MVM | UPDATE_DIAGONALS | PROGRAM => {
            "latency_ms_p50 (paper-alg1, serve-mixed)"
        }
        TILE_MVM_PAIR | QUANTIZE_PAIR | NORM_EST | PROGRAM_PLANES => {
            "latency_ms_p50 (paper-pdhg-analog)"
        }
        ENCODE | DECODE | CALL => "latency_ms_p50 (serve-mixed)",
        SOLVE => "latency_ms_p50, solves_per_s",
        _ => "-",
    }
}

/// The wire job for `lp` under the pool key `family`.
pub fn job_for(lp: &LpProblem, family: &str) -> SolveJob {
    SolveJob {
        family: family.to_string(),
        rows: lp.num_constraints() as u32,
        cols: lp.num_vars() as u32,
        a: lp.a().as_slice().to_vec(),
        b: lp.b().to_vec(),
        c: lp.c().to_vec(),
        max_iters: 0,
        deadline_ticks: 0,
    }
}

/// The reply a daemon would send for `sol` (codec replays of solver
/// workloads encode this).
pub fn body_from(sol: &CrossbarSolution) -> SolutionBody {
    let c = sol.ledger.counts();
    SolutionBody {
        status: sol.solution.status,
        degraded: sol.degraded,
        objective: sol.solution.objective,
        iterations: sol.solution.iterations as u64,
        x: sol.solution.x.clone(),
        y: sol.solution.y.clone(),
        retries: sol.retries_used as u32,
        escalations: sol.recovery.escalations() as u32,
        saw_faults: sol.recovery.saw_faults(),
        used_digital: sol.recovery.used_digital_fallback(),
        cells_written: c.setup_writes + c.update_writes,
        cells_skipped: c.skipped_writes,
        warm_start: false,
        latency_us: 0,
    }
}

/// Replays every per-layer call on `lp`, each [`REPLAYS`] times inside a
/// span under request `req`. `x`/`y` are the solve's primal and dual
/// vectors (the vectors the analog drives carry); `reply` is what the
/// codec encodes. Returns the factorization flops the replayed Newton
/// solves charged, so the caller can turn the `core.newton_solve` time
/// into a flop rate.
pub fn replay(
    tr: &mut Tracer,
    req: u64,
    lp: &LpProblem,
    cfg: CrossbarConfig,
    x: &[f64],
    y: &[f64],
    reply: &SolutionBody,
) -> u64 {
    let (m, n) = (lp.num_constraints(), lp.num_vars());
    let x: Vec<f64> = if x.len() == n {
        x.to_vec()
    } else {
        vec![1.0; n]
    };
    let y: Vec<f64> = if y.len() == m {
        y.to_vec()
    } else {
        vec![1.0; m]
    };
    let opts = PdipOptions::default();
    // Two iterates to alternate between, so every diagonal rewrite
    // changes codes as it does between solver iterations.
    let states = [
        PdipState::new(lp, &opts),
        PdipState::warm_start(lp, &x, &y, opts.warm_start_floor),
    ];

    // Algorithm 1's Newton system: program on a fresh array (as every
    // solve attempt does), then the per-iteration calls.
    let mut programmed = None;
    for _ in 0..REPLAYS {
        programmed = Some(tr.time(PROGRAM, req, || {
            let mut hw = HwContext::new(cfg);
            let sys = AugmentedSystem::program(lp, &states[0], &mut hw);
            (hw, sys)
        }));
    }
    let mut flops = 0;
    if let Some((mut hw, mut sys)) = programmed {
        for k in 0..REPLAYS {
            let state = &states[(k + 1) % 2];
            tr.time(UPDATE_DIAGONALS, req, || {
                sys.update_diagonals(state, &mut hw)
            });
        }
        let state = &states[REPLAYS % 2];
        let s = sys.s_vector(state);
        let mut ms = Vec::new();
        for _ in 0..REPLAYS {
            ms = tr.time(NEWTON_MVM, req, || sys.mvm(&s, &mut hw));
        }
        let r = sys.assemble_rhs(&sys.rhs_constant(lp, state.mu(opts.delta)), &ms);
        for _ in 0..REPLAYS {
            let before = hw.ledger().counts().factor_flops;
            let dirs = tr.time(NEWTON_SOLVE, req, || sys.solve(&r, &mut hw));
            let _ = black_box(dirs);
            flops += hw.ledger().counts().factor_flops - before;
        }
    }

    // The PDHG arrays: the sign-split planes, tiled at the NoC granularity.
    let split = SignSplit::split(lp.a());
    let mut planes = None;
    for _ in 0..REPLAYS {
        planes = Some(tr.time(PROGRAM_PLANES, req, || {
            let mut hw = HwContext::new(cfg);
            let pos = hw.write_matrix_tiled(0, &split.pos, ANALOG_TILE_SIDE, Phase::Setup);
            let neg = if split.num_compensations() > 0 {
                hw.write_matrix_tiled(1, &split.neg, ANALOG_TILE_SIDE, Phase::Setup)
            } else {
                let elide = hw.config().tile_elision;
                TiledMatrix::new(&split.neg, split.neg.clone(), ANALOG_TILE_SIDE, elide)
            };
            (hw, pos, neg)
        }));
    }
    if let Some((mut hw, pos, neg)) = planes {
        let p: Vec<f64> = split.comp_cols.iter().map(|&j| -x[j]).collect();
        let mut ax = Vec::new();
        let mut aty = Vec::new();
        for _ in 0..REPLAYS {
            (ax, aty) = tr.time(TILE_MVM_PAIR, req, || {
                let mut ax = pos.matvec(&x);
                let mut aty = pos.matvec_transposed(&y);
                if !p.is_empty() {
                    for (a, e) in ax.iter_mut().zip(neg.matvec(&p)) {
                        *a += e;
                    }
                    let back = neg.matvec_transposed(&y);
                    for (r, &j) in split.comp_cols.iter().enumerate() {
                        aty[j] -= back[r];
                    }
                }
                (ax, aty)
            });
        }
        for _ in 0..REPLAYS {
            let q = tr.time(QUANTIZE_PAIR, req, || {
                (hw.dac(&x), hw.adc(&ax), hw.dac(&y), hw.adc(&aty))
            });
            black_box(q);
        }
    }

    for _ in 0..REPLAYS {
        let est = tr.time(NORM_EST, req, || norm_est::spectral_norm(lp.sparse_a()));
        black_box(est);
    }

    let request = Request::Solve(job_for(lp, "replay"));
    let response = Response::Solution(reply.clone());
    let mut frames = (Vec::new(), Vec::new());
    for _ in 0..REPLAYS {
        frames = tr.time(ENCODE, req, || {
            (encode_request(&request), encode_response(&response))
        });
    }
    for _ in 0..REPLAYS {
        let decoded = tr.time(DECODE, req, || {
            (decode_request(&frames.0), decode_response(&frames.1))
        });
        let _ = black_box(decoded);
    }
    flops
}

/// What a run of requests saw through the daemon.
#[derive(Debug, Default, Clone)]
pub struct ServeSample {
    /// Client-side latency per completed request, ms.
    pub client_ms: Vec<f64>,
    /// Server-side latency (`SolutionBody::latency_us`) per request, ms.
    pub server_ms: Vec<f64>,
    pub completed: u64,
    pub warm: u64,
    pub written: u64,
    pub skipped: u64,
}

impl ServeSample {
    pub fn push(&mut self, client_ms: f64, body: &SolutionBody) {
        self.client_ms.push(client_ms);
        self.server_ms.push(body.latency_us as f64 / 1e3);
        self.completed += 1;
        self.warm += u64::from(body.warm_start);
        self.written += body.cells_written;
        self.skipped += body.cells_skipped;
    }

    /// Client latency minus server latency: queue, codec and socket.
    pub fn wait_ms(&self) -> Vec<f64> {
        self.client_ms
            .iter()
            .zip(&self.server_ms)
            .map(|(c, s)| (c - s).max(0.0))
            .collect()
    }
}

/// Sends every instance once, cold, through an in-process daemon running
/// `solver` on `cfg`: the serving layer's cost for this workload's own
/// problems. Each request is a span under its own request id.
pub fn serve_replay(
    tr: &mut Tracer,
    first_req: u64,
    solver: ServeSolver,
    cfg: CrossbarConfig,
    lps: &[LpProblem],
) -> Result<ServeSample, String> {
    let config = ServeConfig::default()
        .with_crossbar(cfg)
        .with_solver(solver);
    let server = Server::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr().to_string();
    let mut sample = ServeSample::default();
    {
        let mut client = ServeClient::connect(&addr).map_err(|e| format!("connect: {e}"))?;
        for (i, lp) in lps.iter().enumerate() {
            let job = job_for(lp, &format!("replay-{i}"));
            let req = first_req + i as u64;
            let t = Instant::now();
            let resp = tr.time(CALL, req, || client.solve(job));
            let client_ms = t.elapsed().as_secs_f64() * 1e3;
            match resp {
                Ok(Response::Solution(body)) => sample.push(client_ms, &body),
                Ok(other) => return Err(format!("serve replay: unexpected reply {other:?}")),
                Err(e) => return Err(format!("serve replay: {e}")),
            }
        }
    }
    server.shutdown();
    Ok(sample)
}
