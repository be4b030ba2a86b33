//! The `serve-mixed` workload: an in-process `memlp-serve` daemon (one
//! worker, the default Algorithm 1 family) driven over loopback by two
//! closed-loop clients.
//!
//! Each client owns four families of m = 48. A family opens with a fresh
//! problem; after that, every block of eight requests holds one fresh `A`
//! at a seeded position, which forces re-programming and drops the warm
//! iterate, and seven warm repeats of the family's current problem with
//! `b` scaled by a seeded factor in [1, 1.05] (a scaled feasible `b` stays
//! feasible: `f·x₀` satisfies it).
//!
//! Passes: the clients step through the schedule in lock-step passes. A
//! pass opens every family on a fresh pool key (the tag carries the pass
//! number), so every pass starts from the same daemon state and replays
//! bitwise; the pool's LRU only ever retires the previous pass's idle
//! families. Pass 0's opening request of each family is part of set-up.
//! Each family is owned by one client and the worker serves a family's
//! requests in order, so no result depends on how the clients interleave.
//!
//! The process is confined to one CPU before the daemon starts, so the
//! worker and both clients hand requests to each other by local context
//! switches: on a shared host, waking an idle virtual CPU costs a
//! host-dependent delay that would otherwise enter every request.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use memlp_core::{Budget, CrossbarPdipSolver};
use memlp_crossbar::OpCounts;
use memlp_device::CostParams;
use memlp_lp::generator::RandomLp;
use memlp_lp::{format, LpProblem, LpStatus};
use memlp_serve::{
    occupancy_fingerprint, problem_fingerprint, ContextPool, FamilyKey, Request, Response,
    ServeClient, ServeConfig, Server, ServerHandle, SolutionBody,
};
use memlp_solvers::LpSolver;

use crate::layers::{self, ServeSample};
use crate::probe::{self, Probe, SpanClock, Track};
use crate::solvers::{self, MAX_REL_ERR, SETUPS};
use crate::stats::{self, Digest};
use crate::trace::Tracer;
use crate::Outcome;

const CLIENTS: usize = 2;
const FAMILIES_PER_CLIENT: usize = 4;
const M: usize = 48;
/// Blocks of eight requests per family per pass, each with one fresh `A`.
const BLOCKS: usize = 32;
/// Requests per family per pass: the opener plus the blocks.
const ROUNDS: usize = 1 + 8 * BLOCKS;
/// Largest factor a warm repeat scales `b` by.
const B_SCALE_MAX: f64 = 1.05;
/// Requests a client sends between two probe readings; the clients meet
/// for each reading, so the daemon is idle while it runs.
const SEGMENT: usize = 32;
/// Requests of a family planned between two set-up clock ticks.
const TICK_EVERY: usize = 16;
/// Re-sends of a request the daemon sheds before it counts as failed.
const SHED_RETRIES: usize = 3;

/// One request of the schedule.
struct Slot {
    /// Global family index (client `c` owns `c·4 .. c·4+4`).
    family: usize,
    lp: LpProblem,
    reference: f64,
}

/// The per-client request order of one pass (round-major: round 0 of
/// each of the client's families, then round 1, ...). The first
/// `FAMILIES_PER_CLIENT` slots are the families' opening requests.
struct Plan {
    clients: Vec<Vec<Slot>>,
}

impl Plan {
    fn slots(&self) -> usize {
        self.clients.iter().map(Vec::len).sum()
    }
}

/// The schedule of one pass. Every request problem takes the format round
/// trip, as a client reading LP files would. The clock ticks every
/// [`TICK_EVERY`] requests.
fn plan(seed: u64, tr: &mut Tracer, clock: &mut SpanClock) -> Result<Plan, String> {
    let mut per_family: Vec<Vec<LpProblem>> = Vec::new();
    for g in 0..CLIENTS * FAMILIES_PER_CLIENT {
        let fresh_at: Vec<usize> = (0..BLOCKS)
            .map(|k| 1 + 8 * k + (stats::mix(seed, g as u64, 1000 + k as u64) % 8) as usize)
            .collect();
        let mut current: Option<LpProblem> = None;
        let mut reqs = Vec::with_capacity(ROUNDS);
        for j in 0..ROUNDS {
            let what = format!("family {g} round {j}");
            let lp = match &current {
                Some(base) if !fresh_at.contains(&j) => {
                    let f =
                        1.0 + (B_SCALE_MAX - 1.0) * stats::unit(seed, g as u64, 2000 + j as u64);
                    let b: Vec<f64> = base.b().iter().map(|v| v * f).collect();
                    LpProblem::new(base.a().clone(), b, base.c().to_vec())
                        .map_err(|e| format!("{what}: {e}"))?
                }
                // The family's first problem, or a fresh `A`.
                _ => {
                    let gen = RandomLp::paper(M, stats::mix(seed, g as u64, j as u64 + 1));
                    let lp = tr.time(layers::GENERATE, 0, || gen.feasible());
                    current = Some(lp.clone());
                    lp
                }
            };
            let lp = tr
                .time(layers::PARSE, 0, || format::parse(&format::write(&lp)))
                .map_err(|e| format!("{what}: format round trip: {e}"))?;
            reqs.push(lp);
            if j % TICK_EVERY == 0 {
                clock.tick();
            }
        }
        per_family.push(reqs);
    }
    let clients = (0..CLIENTS)
        .map(|c| {
            (0..ROUNDS)
                .flat_map(|j| {
                    (0..FAMILIES_PER_CLIENT).map(move |f| (j, c * FAMILIES_PER_CLIENT + f))
                })
                .map(|(j, g)| Slot {
                    family: g,
                    lp: per_family[g][j].clone(),
                    reference: f64::NAN,
                })
                .collect()
        })
        .collect();
    Ok(Plan { clients })
}

fn references(plan: &mut Plan) -> Result<(), String> {
    let solver = solvers::reference_solver();
    for slot in plan.clients.iter_mut().flatten() {
        let r = solver.solve(&slot.lp);
        if r.status != LpStatus::Optimal {
            return Err(format!(
                "family {}: reference solve ended {}",
                slot.family, r.status
            ));
        }
        slot.reference = r.objective;
    }
    Ok(())
}

fn tag(pass: usize, family: usize) -> String {
    format!("p{pass}-g{family}")
}

fn config() -> ServeConfig {
    ServeConfig::default()
}

/// One client exchange, re-sent after the daemon's backoff hint when shed.
fn call(client: &mut ServeClient, req: &Request) -> Result<SolutionBody, String> {
    for _ in 0..=SHED_RETRIES {
        match client.call(req) {
            Ok(Response::Solution(body)) => return Ok(body),
            Ok(Response::Overloaded {
                retry_after_hint_ms,
                ..
            }) => std::thread::sleep(Duration::from_millis(u64::from(retry_after_hint_ms))),
            Ok(Response::Error { message }) => return Err(message),
            Ok(other) => return Err(format!("unexpected reply {other:?}")),
            Err(e) => return Err(e.to_string()),
        }
    }
    Err(format!("shed {} times", SHED_RETRIES + 1))
}

/// One answered request, checked and hashed where it arrives.
struct Answer {
    hash: u64,
    failed: bool,
    server_ms: f64,
}

fn assess(slot: &Slot, result: &Result<SolutionBody, String>) -> Answer {
    let mut d = Digest::default();
    match result {
        Ok(b) => {
            d.str(&format!("{:?}/{:?}", b.status, b.degraded));
            d.f64(b.objective);
            d.u64(b.iterations);
            d.f64s(&b.x);
            d.f64s(&b.y);
            d.u64(u64::from(b.retries));
            d.u64(u64::from(b.escalations));
            d.u64(u64::from(b.saw_faults));
            d.u64(u64::from(b.used_digital));
            d.u64(b.cells_written);
            d.u64(b.cells_skipped);
            d.u64(u64::from(b.warm_start));
            let err = (b.objective - slot.reference).abs() / (1.0 + slot.reference.abs());
            Answer {
                hash: d.value(),
                failed: b.status != LpStatus::Optimal
                    || b.degraded.is_some()
                    || err.is_nan()
                    || err > MAX_REL_ERR,
                server_ms: b.latency_us as f64 / 1e3,
            }
        }
        Err(e) => {
            d.str(e);
            Answer {
                hash: d.value(),
                failed: true,
                server_ms: 0.0,
            }
        }
    }
}

struct Daemon {
    server: ServerHandle,
    clients: Vec<ServeClient>,
}

impl Daemon {
    fn stop(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

/// The opening requests of pass 0, answered during set-up:
/// `(client, slot, result)`.
type Openers = Vec<(usize, usize, Result<SolutionBody, String>)>;

/// Set-up: the schedule (generation and format round trip), the daemon
/// and its client connections, and pass 0's opening request of every
/// family, which fabricates that family's array. The clock ticks through
/// planning and after every opener.
fn setup(
    seed: u64,
    tr: &mut Tracer,
    clock: &mut SpanClock,
) -> Result<(Plan, Daemon, Openers), String> {
    let root = tr.enter(layers::SETUP, 0);
    let plan = plan(seed, tr, clock)?;
    let server = Server::bind("127.0.0.1:0", config()).map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr().to_string();
    let mut clients = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        clients.push(ServeClient::connect(&addr).map_err(|e| format!("connect: {e}"))?);
    }
    let mut openers = Vec::new();
    for (c, client) in clients.iter_mut().enumerate() {
        for (s, slot) in plan.clients[c].iter().enumerate().take(FAMILIES_PER_CLIENT) {
            let req = Request::Solve(layers::job_for(&slot.lp, &tag(0, slot.family)));
            let body = tr.time(layers::CALL, 0, || call(client, &req));
            openers.push((c, s, body));
            clock.tick();
        }
    }
    tr.exit(root);
    Ok((plan, Daemon { server, clients }, openers))
}

/// What one client saw over a run of passes, aggregated as replies arrive
/// so that memory grows by one latency per request and no more.
struct ClientLog {
    /// Digest of each pass's answers in slot order (from the first pass).
    pass_digests: Vec<u64>,
    /// Client latency of each request as the host clock read it, ms, by
    /// slot, with the segment (between two probe readings) it ran in.
    slot_ms: Vec<Vec<(usize, f64)>>,
    /// `(client, server)` latency of each request that did not fail, ms.
    served_ms: Vec<(f64, f64)>,
    attempted: u64,
    failed: u64,
    /// Replies of the kept passes: `(pass, slot, body)`.
    kept: Vec<(usize, usize, SolutionBody)>,
    tracer: Option<Tracer>,
}

/// What the closed loop saw.
struct Drive {
    logs: Vec<ClientLog>,
    passes: usize,
    wall_s: f64,
    /// The probe before the first segment and after every segment.
    probe: Track,
}

impl Drive {
    fn attempted(&self) -> u64 {
        self.logs.iter().map(|l| l.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.logs.iter().map(|l| l.failed).sum()
    }

    /// Client latency of every request, ms, by client and slot: raw, or
    /// in reference-host ms (see [`probe`]).
    fn slot_ms(&self, scaled: bool) -> Vec<Vec<f64>> {
        self.logs
            .iter()
            .flat_map(|l| &l.slot_ms)
            .map(|v| {
                v.iter()
                    .map(|&(seg, ms)| {
                        if scaled {
                            ms / self.probe.slowness(seg)
                        } else {
                            ms
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn sample(&self) -> ServeSample {
        let mut s = ServeSample::default();
        for &(client, server) in self.logs.iter().flat_map(|l| &l.served_ms) {
            s.client_ms.push(client);
            s.server_ms.push(server);
            s.completed += 1;
        }
        s
    }
}

/// The closed loop: every client walks its slots pass by pass. Every
/// [`SEGMENT`] requests and at each pass boundary both clients meet and one
/// of them reads the probe while the daemon is idle; at a pass boundary
/// they stop together once `seconds` have passed and `min_passes` passes
/// are done. Pass 0 skips the openers set-up answered; their hashes
/// (`opener_hashes[c]`) lead that pass's digest.
/// Replies are kept for the first pass when `keep_first` and for every
/// pass when tracing; with `trace`, every request is a span tree on its
/// client's own tracer.
fn drive(
    plan: &Plan,
    daemon: &mut Daemon,
    first_pass: usize,
    opener_hashes: &[Vec<u64>],
    (seconds, min_passes): (f64, usize),
    keep_first: bool,
    trace: Option<Instant>,
) -> Drive {
    let barrier = Barrier::new(CLIENTS);
    let stop = AtomicBool::new(false);
    let mut probe = Probe::default();
    let mut track = Track::default();
    track.push(probe.sample());
    let probing = Mutex::new((probe, track));
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = daemon
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (barrier, stop, probing) = (&barrier, &stop, &probing);
                scope.spawn(move || {
                    let slots = &plan.clients[c];
                    let mut log = ClientLog {
                        pass_digests: Vec::new(),
                        slot_ms: vec![Vec::new(); slots.len()],
                        served_ms: Vec::new(),
                        attempted: 0,
                        failed: 0,
                        kept: Vec::new(),
                        tracer: trace.map(Tracer::starting_at),
                    };
                    let mut pass = first_pass;
                    let mut seg = 0;
                    // Meets the other client; one of them reads the probe and,
                    // at the end of a pass (`done` passes so far), decides
                    // whether to stop.
                    let meet = |done: Option<usize>| {
                        let leader = barrier.wait().is_leader();
                        if leader {
                            let mut p = probing.lock().unwrap_or_else(|e| e.into_inner());
                            let (probe, track) = &mut *p;
                            track.push(probe.sample());
                        }
                        if let (true, Some(done)) = (leader, done) {
                            let now = start.elapsed().as_secs_f64();
                            stop.store(done >= min_passes && now >= seconds, Ordering::SeqCst);
                        }
                        barrier.wait();
                    };
                    loop {
                        let keep = trace.is_some() || (keep_first && pass == first_pass);
                        let mut digest = Digest::default();
                        let mut skip = 0;
                        if pass == 0 {
                            for &h in opener_hashes.get(c).into_iter().flatten() {
                                digest.u64(h);
                                skip += 1;
                            }
                        }
                        for (s, slot) in slots.iter().enumerate().skip(skip) {
                            let job = layers::job_for(&slot.lp, &tag(pass, slot.family));
                            let req = Request::Solve(job);
                            let id = request_id(c, pass, s);
                            let root = log.tracer.as_mut().map(|t| {
                                let root = t.enter(layers::REQUEST, id);
                                t.enter(layers::CALL, id);
                                root
                            });
                            let t = Instant::now();
                            let result = call(client, &req);
                            let client_ms = t.elapsed().as_secs_f64() * 1e3;
                            if let (Some(t), Some(root)) = (log.tracer.as_mut(), root) {
                                t.exit(root);
                            }
                            let a = assess(slot, &result);
                            digest.u64(a.hash);
                            log.slot_ms[s].push((seg, client_ms));
                            log.attempted += 1;
                            if a.failed {
                                log.failed += 1;
                            } else {
                                log.served_ms.push((client_ms, a.server_ms));
                            }
                            if let (true, Ok(body)) = (keep, result) {
                                log.kept.push((pass, s, body));
                            }
                            if (s + 1) % SEGMENT == 0 && s + 1 < slots.len() {
                                meet(None);
                                seg += 1;
                            }
                        }
                        log.pass_digests.push(digest.value());
                        meet(Some(pass + 1 - first_pass));
                        seg += 1;
                        if stop.load(Ordering::SeqCst) {
                            return log;
                        }
                        pass += 1;
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    Drive {
        passes: logs.first().map_or(0, |l| l.pass_digests.len()),
        logs,
        wall_s,
        probe: probing.into_inner().unwrap_or_else(|e| e.into_inner()).1,
    }
}

fn request_id(client: usize, pass: usize, slot: usize) -> u64 {
    1 + ((pass * CLIENTS + client) * FAMILIES_PER_CLIENT * ROUNDS + slot) as u64
}

/// What the library computes for pass 0 when it mirrors the worker: one
/// warm pool, `solve_on` with the pool's salt and warm iterate. Gives the
/// simulated-clock cost of each request (replies carry no ledger) and
/// cross-checks every served reply.
struct Mirror {
    status: LpStatus,
    iterations: u64,
    objective: f64,
    warm_start: bool,
    counts: OpCounts,
    sim_time_s: f64,
    sim_energy_j: f64,
}

fn mirror(plan: &Plan) -> Vec<Mirror> {
    let cfg = config();
    let solver = CrossbarPdipSolver::new(cfg.crossbar, cfg.options);
    let mut pool = ContextPool::new(cfg.crossbar, cfg.pool_capacity);
    let cost = CostParams::default();
    let mut out = Vec::with_capacity(plan.slots());
    for slot in plan.clients.iter().flatten() {
        let lp = &slot.lp;
        let key = FamilyKey {
            tag: tag(0, slot.family),
            rows: lp.num_constraints(),
            cols: lp.num_vars(),
            occupancy: occupancy_fingerprint(lp),
        };
        let entry = pool.entry(&key, problem_fingerprint(lp));
        let warm_start = entry.warm.is_some();
        let salt = entry.solves;
        entry.solves += 1;
        let before = *entry.hw.ledger();
        let warm = entry
            .warm
            .as_ref()
            .map(|(x, y)| (x.as_slice(), y.as_slice()));
        let sol = solver.solve_on(lp, &mut entry.hw, Budget::none(), warm, salt);
        let after = *entry.hw.ledger();
        if sol.solution.status.is_optimal() {
            entry.warm = Some((sol.solution.x.clone(), sol.solution.y.clone()));
        }
        out.push(Mirror {
            status: sol.solution.status,
            iterations: sol.solution.iterations as u64,
            objective: sol.solution.objective,
            warm_start,
            counts: stats::counts_since(&after.counts(), &before.counts()),
            sim_time_s: after.total_time_s() - before.total_time_s(),
            sim_energy_j: after.energy_j(&cost) - before.energy_j(&cost),
        });
    }
    out
}

fn agrees(m: &Mirror, b: &SolutionBody) -> bool {
    m.status == b.status
        && m.iterations == b.iterations
        && m.objective.to_bits() == b.objective.to_bits()
        && m.warm_start == b.warm_start
        && m.counts.setup_writes + m.counts.update_writes == b.cells_written
        && m.counts.skipped_writes == b.cells_skipped
}

/// Pass 0 in slot order (all clients), with the library mirror of each
/// request.
struct Checked {
    bodies: Vec<SolutionBody>,
    mirrors: Vec<Mirror>,
}

/// Checks a run: every pass of every drive must hash like pass 0, and pass
/// 0 must match the library mirror bitwise.
fn check(
    out: &mut Outcome,
    plan: &Plan,
    openers: Openers,
    drives: &[&Drive],
) -> Result<Checked, String> {
    let mut digests = Vec::new();
    for d in drives {
        for p in 0..d.passes {
            let mut digest = Digest::default();
            for log in &d.logs {
                digest.u64(log.pass_digests[p]);
            }
            digests.push(digest.value());
        }
    }
    let d0 = *digests.first().ok_or("no pass ran")?;
    let agree = digests.iter().all(|&d| d == d0);
    out.note(format!(
        "sim_digest {d0:016x} ({} passes {})",
        digests.len(),
        if agree { "agree" } else { "DISAGREE" }
    ));
    if !agree {
        out.correct = false;
        out.note("passes disagree: served results are not reproducible".to_string());
    }

    let per_client = FAMILIES_PER_CLIENT * ROUNDS;
    let mut grid: Vec<Option<SolutionBody>> = vec![None; plan.slots()];
    for (c, s, result) in openers {
        grid[c * per_client + s] = result.ok();
    }
    for (c, log) in drives[0].logs.iter().enumerate() {
        for (pass, s, body) in &log.kept {
            if *pass == 0 {
                grid[c * per_client + s] = Some(body.clone());
            }
        }
    }
    let bodies = grid
        .into_iter()
        .enumerate()
        .map(|(i, b)| b.ok_or(format!("request {i} of pass 0 has no reply")))
        .collect::<Result<Vec<_>, _>>()?;
    let mirrors = mirror(plan);
    let agreeing = bodies
        .iter()
        .zip(&mirrors)
        .filter(|(b, m)| agrees(m, b))
        .count();
    out.note(format!(
        "library mirror: {agreeing} of {} pass-0 replies agree bitwise",
        bodies.len()
    ));
    if agreeing != bodies.len() {
        out.correct = false;
    }
    Ok(Checked { bodies, mirrors })
}

fn fail_note(out: &mut Outcome) {
    out.note(format!(
        "fail_frac {} ({} of {})",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    ));
}

/// Hashes of the openers per client, in slot order.
fn opener_hashes(plan: &Plan, openers: &Openers) -> Vec<Vec<u64>> {
    let mut out = vec![Vec::new(); CLIENTS];
    for (c, s, result) in openers {
        out[*c].push(assess(&plan.clients[*c][*s], result).hash);
    }
    out
}

/// Runs `serve-mixed` and returns its metrics.
/// Confines the calling thread, and every thread it starts afterwards, to
/// the CPU it runs on now; returns that CPU.
fn pin_to_one_cpu() -> std::io::Result<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reads state.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| std::io::Error::last_os_error())?;
    let mut mask = [0u64; 16];
    let word = mask
        .get_mut(cpu / 64)
        .ok_or_else(|| std::io::Error::other(format!("CPU {cpu} beyond the mask")))?;
    *word |= 1 << (cpu % 64);
    // SAFETY: `mask` is live for the call and its byte size is passed
    // with it; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(cpu)
    } else {
        Err(std::io::Error::last_os_error())
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let pinned = pin_to_one_cpu().map_err(|e| format!("confining to one CPU: {e}"))?;
    let mut out = if trace {
        run_traced(seed, seconds)?
    } else {
        run_timed(seed, seconds)?
    };
    out.note(format!("daemon and clients confined to CPU {pinned}"));
    Ok(out)
}

fn run_timed(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut raw_setup_s = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some((_, daemon, _)) = last.take() {
            Daemon::stop(daemon);
        }
        let (built, raw_s, ref_s) = SpanClock::time(|clock| setup(seed, &mut Tracer::new(), clock));
        last = Some(built?);
        raw_setup_s.push(raw_s);
        setup_s.push(ref_s);
    }
    let (mut plan, mut daemon, openers) = last.ok_or("no set-up ran")?;
    references(&mut plan)?;
    let hashes = opener_hashes(&plan, &openers);
    let d = drive(&plan, &mut daemon, 0, &hashes, (seconds, 2), true, None);
    daemon.stop();

    let mut out = Outcome::default();
    let checked = check(&mut out, &plan, openers, &[&d])?;
    out.attempted = d.attempted();
    out.failed = d.failed();
    let slot_ms = d.slot_ms(true);
    let lat: Vec<f64> = slot_ms.iter().flatten().copied().collect();
    let medians = |slots: &[Vec<f64>]| -> Vec<f64> {
        slots
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| stats::median(v))
            .collect()
    };
    let slot_medians = medians(&slot_ms);
    let tail = stats::tail(&slot_medians);
    let raw_ms = d.slot_ms(false);
    let raw_medians = medians(&raw_ms);
    let raw_lat: Vec<f64> = raw_ms.iter().flatten().copied().collect();
    let errs: Vec<f64> = checked
        .bodies
        .iter()
        .zip(plan.clients.iter().flatten())
        .map(|(b, s)| (b.objective - s.reference).abs() / (1.0 + s.reference.abs()))
        .collect();
    let per = |f: &dyn Fn(&Mirror) -> f64| {
        stats::mean(&checked.mirrors.iter().map(f).collect::<Vec<_>>())
    };

    out.metric("setup_s", stats::median(&setup_s));
    // Little's law for a closed loop: clients ÷ mean latency, taking each
    // request slot's median latency so a burst of host noise does not
    // carry the figure.
    out.metric(
        "solves_per_s",
        CLIENTS as f64 * 1e3 / stats::mean(&slot_medians),
    );
    out.metric("latency_ms_p50", stats::median(&lat));
    out.metric("latency_ms_tail", tail.value);
    out.metric(
        "solved_frac",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.metric("obj_rel_err_mean", stats::mean(&errs));
    out.metric("sim_latency_ms", per(&|m| m.sim_time_s * 1e3));
    out.metric("sim_energy_mj", per(&|m| m.sim_energy_j * 1e3));
    out.metric(
        "sim_writes",
        per(&|m| (m.counts.setup_writes + m.counts.update_writes) as f64),
    );
    out.metric("peak_rss_mb", stats::peak_rss_mb()?);

    out.note(format!(
        "{CLIENTS} clients x {FAMILIES_PER_CLIENT} families (m={M}, n={}), {} requests per pass, {} passes, {} timed requests in {:.2} s ({:.1}/s raw)",
        M / 3,
        plan.slots(),
        d.passes,
        out.attempted,
        d.wall_s,
        out.attempted as f64 / d.wall_s
    ));
    fail_note(&mut out);
    out.note(format!(
        "latency_ms_tail at p{:.1} of {} per-request-slot medians",
        tail.percentile, tail.samples
    ));
    out.note(format!(
        "host times are reference-host times (probe {:.1} us here, {} us there); raw host clock: solves_per_s {:.3}, latency_ms_p50 {:.4}, latency_ms_tail {:.4}",
        d.probe.median_us(),
        probe::PROBE_REF_US,
        CLIENTS as f64 * 1e3 / stats::mean(&raw_medians),
        stats::median(&raw_lat),
        stats::tail(&raw_medians).value
    ));
    out.note(format!("setup_s samples {setup_s:?} (raw {raw_setup_s:?})"));
    Ok(out)
}

/// The traced run: one set-up, an untraced timed phase (the overhead
/// baseline and the serve-layer sample), one traced pass, then the
/// per-layer calls replayed on every request of the traced pass.
fn run_traced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut tr = Tracer::new();
    let (mut plan, mut daemon, openers) = setup(seed, &mut tr, &mut SpanClock::default())?;
    references(&mut plan)?;
    let hashes = opener_hashes(&plan, &openers);
    let untraced = drive(
        &plan,
        &mut daemon,
        0,
        &hashes,
        (seconds / 2.0, 1),
        true,
        None,
    );
    let origin = Some(tr.origin());
    let mut traced = drive(
        &plan,
        &mut daemon,
        untraced.passes,
        &[],
        (0.0, 1),
        false,
        origin,
    );
    daemon.stop();

    let mut out = Outcome::default();
    let checked = check(&mut out, &plan, openers, &[&untraced, &traced])?;
    out.attempted = untraced.attempted() + traced.attempted();
    out.failed = untraced.failed() + traced.failed();
    fail_note(&mut out);

    let cfg = config();
    let mut flops = 0;
    for (c, log) in traced.logs.iter_mut().enumerate() {
        if let Some(t) = log.tracer.take() {
            tr.absorb(t);
        }
        for (pass, s, body) in &log.kept {
            let id = request_id(c, *pass, *s);
            let root = tr.enter(layers::REQUEST, id);
            let lp = &plan.clients[c][*s].lp;
            flops += layers::replay(&mut tr, id, lp, cfg.crossbar, &body.x, &body.y, body);
            tr.exit(root);
        }
    }

    let counts: Vec<OpCounts> = checked.mirrors.iter().map(|m| m.counts).collect();
    solvers::count_metrics(&mut out, &counts);
    let bodies = &checked.bodies;
    out.metric(
        "core.iterations",
        stats::mean(
            &bodies
                .iter()
                .map(|b| b.iterations as f64)
                .collect::<Vec<_>>(),
        ),
    );
    out.metric(
        "core.retries",
        stats::mean(
            &bodies
                .iter()
                .map(|b| f64::from(b.retries))
                .collect::<Vec<_>>(),
        ),
    );
    solvers::replay_metrics(&mut out, &tr, flops);
    // Waits from the untraced traffic of both clients; pool ratios over
    // pass 0 (they repeat exactly).
    let untraced_sample = untraced.sample();
    let mut pass0 = ServeSample::default();
    for b in bodies {
        pass0.push(0.0, b);
    }
    solvers::serve_metrics(&mut out, &untraced_sample, &pass0);

    // Attribution: the server's own time plus the four codec calls of a
    // request (the `serve.encode` span encodes the job and the reply, the
    // `serve.decode` span decodes both), against what the client saw.
    let traced_sample = traced.sample();
    let codec_ms = (tr.median_us(layers::ENCODE) + tr.median_us(layers::DECODE)) / 1e3;
    let client = stats::mean(&traced_sample.client_ms);
    let server = stats::mean(&traced_sample.server_ms);
    out.metric("attributed_frac", (server + codec_ms) / client);
    out.metric(
        "trace_overhead_frac",
        stats::median(&traced_sample.client_ms) / stats::median(&untraced_sample.client_ms) - 1.0,
    );
    out.note(format!(
        "traced pass: {} requests, client p50 {:.3} ms; untraced p50 {:.3} ms over {} passes",
        traced_sample.completed,
        stats::median(&traced_sample.client_ms),
        stats::median(&untraced_sample.client_ms),
        untraced.passes
    ));
    out.tracer = Some(tr);
    Ok(out)
}
