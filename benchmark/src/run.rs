//! One workload run: `setup`, then twenty rounds of one window per
//! phase (→ `paced` and the traced walk when per-layer numbers are asked
//! for).
//!
//! ```text
//!  setup ×3 (median)        ┌──────────── round, ×20 ─────────────────────────────┐
//!  ┌────────────────┐       │ engine        engine       sat           rtt        │
//!  │ build+preload  │       │ seq window →  par2 window → warm-up,   → warm-up,   │
//!  │ seq, par2, srv │  →    │ SystemSim::   Parallel…::   2 conns ×    1 conn ×   │
//!  │ verified prefix│       │ run           run           32 deep      1 deep     │
//!  └────────────────┘       └─────────────────────────────────────────────────────┘
//!   setup_s; sim_* read       engine_       par2_         tput, cpu    rtt_p50_us
//!   from the prefix run       wall_mops     wall_mops     per op, ctx
//! ```
//!
//! Every wall-clock metric is the median of its twenty windows; the
//! end-to-end ones are then quoted at nominal host speed (`calib`), from
//! the reference kernel's readings before the `engine` and the `sat`
//! window of each round.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crate::adapter::{encode_ops, Counted, ParEngine, Request, RunOut, SeqEngine, SHARDS};
use crate::calib::{Reference, NOMINAL_MSTEPS};
use crate::child::{peak_rss_mb, sample_proc, ProcSample, ServerChild};
use crate::gen::{Op, OpGen, Spec, Zipf};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::model::{Model, Reply};
use crate::report::Metric;
use crate::stats::{median, percentile_sorted, Windowed, WINDOWS};
use crate::tcp::{self, closed_loop, paced, Conn, Window, CONNECTIONS};

/// Operations of the verified prefix on each engine. The simulated
/// figures are read from this run: it is the first on a fresh engine,
/// and only there does `SystemSim`'s makespan cover exactly one run.
pub const ENGINE_PREFIX_OPS: usize = 200_000;
/// Operations of the verified prefix over TCP (both connections).
pub const TCP_PREFIX_OPS: u64 = 100_000;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Frames each saturating connection keeps in flight.
pub const PIPELINE: usize = 32;
/// Operations handed to an engine per `run` call inside a window.
const CHUNK_OPS: usize = 20_000;
/// How long the reference kernel runs each time it is consulted.
const REFERENCE_SLICE: Duration = Duration::from_millis(30);

/// How `--seconds` is shared out. The socket phases get the most: they
/// are the noisiest on a shared host.
const SHARE_SEQ: f64 = 0.15;
const SHARE_PAR: f64 = 0.15;
const SHARE_SAT: f64 = 0.40;
const SHARE_RTT: f64 = 0.30;

#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    /// Measured seconds per run (warm-ups and set-up come on top).
    pub seconds: f64,
    /// Also produce the per-layer metrics.
    pub trace: bool,
    /// This executable, re-run as the child server.
    pub program: PathBuf,
}

impl Plan {
    fn window(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share / WINDOWS as f64)
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub workload: &'static str,
    pub end_to_end: Vec<Metric>,
    /// The run's median reference-kernel speed, M steps per second: what
    /// the wall-clock end-to-end metrics were quoted against.
    pub reference_msteps: f64,
    /// Empty unless the plan asked for a trace.
    pub per_layer: Vec<Metric>,
    /// Everything that is a function of the seed alone: the simulated
    /// figures and the ledger's counts. Two runs on one seed must agree on
    /// these to the last bit (`--repeat` checks it).
    pub seeded: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Everything a run measures on, as `setup` leaves it.
struct Rig {
    seq: SeqEngine,
    par: ParEngine,
    server: ServerChild,
    conns: Vec<Conn>,
    /// The engines' operation stream, continuing after the prefix.
    gen: OpGen,
    seq_prefix: Counted,
    par_prefix: RunOut,
    /// Bytes the server preload sent (to take back out of `bytes_in`).
    preload_bytes: u64,
    /// Replies of the engines' prefix runs that the model refused (the
    /// connections count their own).
    engine_prefix_failed: u64,
}

/// Counts the replies of an engine's prefix run that the model refuses.
/// `replies` feeds every (operation, reply) pair, in order, to its
/// argument.
fn check_prefix(spec: &'static Spec, replies: impl FnOnce(&mut dyn FnMut(&Op, Reply<'_>))) -> u64 {
    let (mut model, mut checker) = Model::preloaded(spec, 0, 1);
    let mut failed = 0;
    replies(&mut |op, reply| {
        let expect = model.apply(op);
        failed += u64::from(!checker.check(&expect, reply));
    });
    failed
}

/// Builds and preloads both engines and the server, then replays a
/// prefix through each with every reply checked against the model.
fn setup(spec: &'static Spec, plan: &Plan, zipf: &Option<Arc<Zipf>>) -> Result<Rig, String> {
    let (gen, ops, reqs) = engine_prefix(spec, plan, zipf);

    let mut seq = SeqEngine::preloaded(spec, plan.seed)?;
    let seq_prefix = seq.run_counted(&reqs);
    let mut engine_prefix_failed = check_prefix(spec, |f| seq.replies(&ops, f));

    let mut par = ParEngine::preloaded(spec, plan.seed, SHARDS)?;
    let par_prefix = par.run(&reqs, true);
    engine_prefix_failed += check_prefix(spec, |f| par.replies(&ops, f));

    let server = ServerChild::spawn(&plan.program, spec.adaptive.then_some(plan.seed))?;
    let preload_bytes =
        tcp::preload(server.addr, spec).map_err(|e| format!("server preload: {e}"))?;
    let mut conns = Vec::new();
    for residue in 0..CONNECTIONS {
        let seed = plan.seed ^ (0xC0_0000 + u64::from(residue));
        let mut conn = Conn::connect(server.addr, spec, seed, zipf.clone(), residue)
            .map_err(|e| format!("connect: {e}"))?;
        while conn.attempted < TCP_PREFIX_OPS / u64::from(CONNECTIONS) {
            conn.round(PIPELINE)
                .map_err(|e| format!("tcp prefix: {e}"))?;
        }
        conns.push(conn);
    }
    Ok(Rig {
        seq,
        par,
        server,
        conns,
        gen,
        seq_prefix,
        par_prefix,
        preload_bytes,
        engine_prefix_failed,
    })
}

/// One wall-clock window of an engine: feeds chunks of fresh operations
/// to `run` until the window's time is up and returns (M ops per second
/// of time spent inside `run`, operations). Generating the chunks is not
/// timed.
fn engine_window(
    mut run: impl FnMut(&[Request]) -> RunOut,
    gen: &mut OpGen,
    window: Duration,
    bufs: &mut (Vec<Op>, Vec<Request>),
    tally: &mut Tally,
) -> (f64, u64) {
    let (ops, reqs) = bufs;
    let (mut spent, mut done) = (Duration::ZERO, 0u64);
    while spent < window {
        gen.fill(CHUNK_OPS, ops);
        encode_ops(ops, reqs);
        let start = Instant::now();
        let out = run(reqs);
        spent += start.elapsed();
        done += out.ops;
        tally.attempted += out.ops;
        tally.failed += out.ops - out.answered;
    }
    (done as f64 / spent.as_secs_f64() / 1e6, done)
}

/// Operations answered / answered wrongly by the engine windows.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

fn sleep_until(at: Instant) {
    if let Some(left) = at.checked_duration_since(Instant::now()) {
        thread::sleep(left);
    }
}

/// The clock of one socket window: a short warm-up (the engines ran in
/// between, so pipelines are empty and caches cold), then `len`.
fn socket_window(len: Duration) -> Window {
    Window {
        start: Instant::now() + len / 8,
        len,
    }
}

/// What one saturation window saw.
struct SatWindow {
    ops: u64,
    server: ProcSample,
    client: ProcSample,
}

fn delta(later: ProcSample, earlier: ProcSample) -> ProcSample {
    ProcSample {
        cpu_ns: later.cpu_ns - earlier.cpu_ns,
        ctx_switches: later.ctx_switches - earlier.ctx_switches,
    }
}

/// Closed loop, one thread per connection, `PIPELINE` frames in flight
/// each. This thread only wakes at the window's edges to sample the
/// child's and its own CPU time.
fn sat_window(rig: &mut Rig, len: Duration) -> Result<SatWindow, String> {
    retry_empty("saturation", || sat_window_once(rig, len))
}

/// The host can freeze the whole VM for longer than a window. A window
/// in which nothing completed says nothing about the program, so it is
/// taken again; several in a row mean something is wrong.
fn retry_empty<T>(
    what: &str,
    mut window: impl FnMut() -> Result<Option<T>, String>,
) -> Result<T, String> {
    for _ in 0..5 {
        if let Some(measured) = window()? {
            return Ok(measured);
        }
    }
    Err(format!("five {what} windows in a row completed nothing"))
}

fn sat_window_once(rig: &mut Rig, len: Duration) -> Result<Option<SatWindow>, String> {
    let clock = socket_window(len);
    let (pid, me) = (rig.server.pid(), std::process::id());
    let (loops, server, client) = thread::scope(|scope| {
        let handles: Vec<_> = rig
            .conns
            .iter_mut()
            .map(|conn| scope.spawn(move || closed_loop(conn, PIPELINE, &clock, false)))
            .collect();
        sleep_until(clock.start);
        let before = (sample_proc(pid), sample_proc(me));
        sleep_until(clock.end());
        let after = (sample_proc(pid), sample_proc(me));
        let loops: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect();
        (loops, delta(after.0, before.0), delta(after.1, before.1))
    });
    let mut ops = 0;
    for l in loops {
        ops += l.map_err(|e| format!("sat window: {e}"))?.ops;
    }
    Ok((ops > 0).then_some(SatWindow {
        ops,
        server,
        client,
    }))
}

/// Closed loop, one connection, one frame outstanding: the time from
/// writing a request to having read its whole reply, in microseconds.
fn rtt_window(rig: &mut Rig, len: Duration) -> Result<Vec<f64>, String> {
    retry_empty("round-trip", || {
        let out = closed_loop(&mut rig.conns[0], 1, &socket_window(len), true)
            .map_err(|e| format!("rtt window: {e}"))?;
        let samples: Vec<f64> = out.rtt_ns.iter().map(|&ns| f64::from(ns) / 1e3).collect();
        Ok((!samples.is_empty()).then_some(samples))
    })
}

/// The per-window values of every wall-clock metric.
struct Measured {
    seq_wall: Windowed,
    par_wall: Windowed,
    tput: Windowed,
    cpu_us_per_op: Windowed,
    ctx_per_op: Windowed,
    cpu_util: f64,
    client_cpu_share: f64,
    rtt_p50_us: Windowed,
    rtt_p99_us: f64,
    /// Speed of the reference kernel, read twice per round.
    reference: Windowed,
    tally: Tally,
}

/// `WINDOWS` rounds of one window per phase. The phases take turns
/// instead of running one after the other so that each metric's twenty
/// windows span the whole run: the host's speed wanders over seconds,
/// and a phase measured in one stretch would catch one mood of it.
fn measure(rig: &mut Rig, plan: &Plan) -> Result<Measured, String> {
    let mut reference = Reference::default();
    let (sat_len, rtt_len) = (plan.window(SHARE_SAT), plan.window(SHARE_RTT));
    let mut bufs = (Vec::new(), Vec::new());
    let mut tally = Tally::default();
    let (mut seq, mut par, mut tput, mut cpu, mut ctx, mut rtt_medians) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let (mut seq_ops, mut par_ops, mut sat_ops) = (0, 0, 0);
    let (mut server_cpu, mut client_cpu) = (0u64, 0u64);
    let mut rtt_all = Vec::new();
    let mut speeds = Vec::new();
    for _ in 0..WINDOWS {
        speeds.push(reference.measure(REFERENCE_SLICE));
        let (mops, ops) = engine_window(
            |r| rig.seq.run(r, false),
            &mut rig.gen,
            plan.window(SHARE_SEQ),
            &mut bufs,
            &mut tally,
        );
        seq.push(mops);
        seq_ops += ops;
        let (mops, ops) = engine_window(
            |r| rig.par.run(r, false),
            &mut rig.gen,
            plan.window(SHARE_PAR),
            &mut bufs,
            &mut tally,
        );
        par.push(mops);
        par_ops += ops;

        speeds.push(reference.measure(REFERENCE_SLICE));
        let w = sat_window(rig, sat_len)?;
        tput.push(w.ops as f64 / sat_len.as_secs_f64());
        cpu.push(w.server.cpu_ns as f64 / 1e3 / w.ops as f64);
        ctx.push(w.server.ctx_switches as f64 / w.ops as f64);
        sat_ops += w.ops;
        server_cpu += w.server.cpu_ns;
        client_cpu += w.client.cpu_ns;

        let mut samples = rtt_window(rig, rtt_len)?;
        rtt_medians.push(median(&mut samples));
        rtt_all.extend(samples);
    }
    rtt_all.sort_by(f64::total_cmp);
    Ok(Measured {
        seq_wall: Windowed::of(seq, seq_ops),
        par_wall: Windowed::of(par, par_ops),
        tput: Windowed::of(tput, sat_ops),
        cpu_us_per_op: Windowed::of(cpu, sat_ops),
        ctx_per_op: Windowed::of(ctx, sat_ops),
        cpu_util: server_cpu as f64
            / (sat_len.as_secs_f64() * WINDOWS as f64 * 1e9 * SHARDS as f64),
        client_cpu_share: client_cpu as f64 / (client_cpu + server_cpu) as f64,
        rtt_p50_us: Windowed::of(rtt_medians, rtt_all.len() as u64),
        rtt_p99_us: percentile_sorted(&rtt_all, 99.0),
        reference: Windowed::of(speeds, 2 * WINDOWS as u64),
        tally,
    })
}

/// Open loop at 25 % and 50 % of the measured saturation throughput.
fn paced_phase(
    rig: &mut Rig,
    spec: &Spec,
    tput_ops_s: f64,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let mut late_all = Vec::new();
    for (label, share) in [("paced25", 0.25), ("paced50", 0.50)] {
        let frames_per_s = tput_ops_s * share / spec.keys_per_frame as f64;
        let run = paced(&mut rig.conns[1], frames_per_s, Duration::from_millis(1500))
            .map_err(|e| format!("{label}: {e}"))?;
        let mut lat: Vec<f64> = run
            .latency_ns
            .iter()
            .map(|&ns| f64::from(ns) / 1e3)
            .collect();
        if lat.is_empty() {
            return Err(format!("{label}: no reply"));
        }
        lat.sort_by(f64::total_cmp);
        out.push(Metric::new(
            format!("server.{label}_p50_us"),
            percentile_sorted(&lat, 50.0),
            "us",
        ));
        out.push(Metric::new(
            format!("server.{label}_p99_us"),
            percentile_sorted(&lat, 99.0),
            "us",
        ));
        late_all.extend(run.late_ns.iter().map(|&ns| f64::from(ns) / 1e3));
    }
    out.push(Metric::new(
        "server.paced_gen_late_us",
        median(&mut late_all),
        "us",
    ));
    Ok(())
}

/// Runs `kvd-benchmark-trace` (built next to this executable) and takes
/// over the `metric <name> <value> <unit>` lines it prints.
fn traced_walk(program: &Path, spec: &Spec, seed: u64) -> Result<Vec<Metric>, String> {
    let tracer = program.with_file_name("kvd-benchmark-trace");
    let output = Command::new(&tracer)
        .args(["--workload", spec.name, "--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("cannot run {}: {e}", tracer.display()))?;
    if !output.status.success() {
        return Err(format!("{} ended with {}", tracer.display(), output.status));
    }
    Ok(String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|line| {
            let mut t = line.split_whitespace();
            match (t.next(), t.next(), t.next(), t.next()) {
                (Some("metric"), Some(name), Some(value), Some(unit)) => {
                    Some(Metric::new(name, value.parse().ok()?, unit))
                }
                _ => None,
            }
        })
        .collect())
}

fn find(metrics: &[Metric], name: &str) -> Option<f64> {
    metrics.iter().find(|m| m.name == name).map(|m| m.value)
}

/// Puts `metrics` in the declared order and insists that each declared
/// name is there exactly once: the output contract is "every metric".
fn in_declared_order(mut metrics: Vec<Metric>, names: &[&str]) -> Result<Vec<Metric>, String> {
    let mut ordered = Vec::with_capacity(names.len());
    for name in names {
        let at = metrics
            .iter()
            .position(|m| m.name == *name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        ordered.push(metrics.swap_remove(at));
    }
    match metrics.first() {
        Some(extra) => Err(format!("metric {} is not declared", extra.name)),
        None => Ok(ordered),
    }
}

pub fn run_workload(spec: &'static Spec, plan: &Plan) -> Result<Outcome, String> {
    let zipf = OpGen::sampler(spec);

    // setup: several times over, each from nothing; the last one stays.
    let mut setup_secs = Vec::with_capacity(SETUPS);
    let mut rig = None;
    for _ in 0..SETUPS {
        drop(rig.take());
        let start = Instant::now();
        let built = setup(spec, plan, &zipf)?;
        setup_secs.push(start.elapsed().as_secs_f64());
        rig = Some(built);
    }
    let mut rig = rig.expect("at least one set-up");
    let setup_s = Windowed::of(setup_secs, SETUPS as u64);

    let m = measure(&mut rig, plan)?;
    // A rate scales with host speed and a time against it; quote both at
    // the nominal speed.
    let speed = m.reference.median / NOMINAL_MSTEPS;
    let (rate, time) = (
        |w: Windowed| w.scaled(1.0 / speed),
        |w: Windowed| w.scaled(speed),
    );

    let mut per_layer = Vec::new();
    if plan.trace {
        paced_phase(&mut rig, spec, m.tput.median, &mut per_layer)?;
    }

    if !rig.server.alive() {
        return Err("the server child died during the run".into());
    }
    let rss_mb = peak_rss_mb(rig.server.pid()).ok_or("cannot read the child's VmHWM")?;
    // Every operation answered anywhere: both engine prefixes, the
    // engine windows, and all the connections did since they opened.
    let tcp_attempted: u64 = rig.conns.iter().map(|c| c.attempted).sum();
    let tcp_failed: u64 = rig.conns.iter().map(|c| c.failed).sum();
    let attempted = 2 * ENGINE_PREFIX_OPS as u64 + m.tally.attempted + tcp_attempted;
    let failed = rig.engine_prefix_failed + m.tally.failed + tcp_failed;
    let Rig {
        server,
        conns,
        seq_prefix,
        par_prefix,
        preload_bytes,
        ..
    } = rig;
    drop(conns);
    let ledger = server.stop()?;

    let end_to_end = in_declared_order(
        vec![
            Metric::windowed("setup_s", setup_s, "s"),
            Metric::windowed("server_cpu_us_per_op", time(m.cpu_us_per_op), "us"),
            Metric::windowed("rtt_p50_us", time(m.rtt_p50_us), "us"),
            Metric::new("server_rss_mb", rss_mb, "MiB"),
            Metric::windowed("engine_wall_mops", rate(m.seq_wall), "Mops"),
            Metric::windowed("par2_wall_mops", rate(m.par_wall), "Mops"),
            Metric::new("sim_mops", seq_prefix.out.sim_mops, "sim_Mops"),
            Metric::new("sim_get_p50_us", seq_prefix.sim_get_p50_us, "sim_us"),
            Metric::new("sim_get_p95_us", seq_prefix.sim_get_p95_us, "sim_us"),
        ],
        &END_TO_END.map(|m| m.name),
    )?;

    let mut seeded = vec![
        Metric::new("sim_mops", seq_prefix.out.sim_mops, "sim_Mops"),
        Metric::new("sim_get_p50_us", seq_prefix.sim_get_p50_us, "sim_us"),
        Metric::new("sim_get_p95_us", seq_prefix.sim_get_p95_us, "sim_us"),
        Metric::new("core.par2_sim_mops", par_prefix.sim_mops, "sim_Mops"),
    ];
    seeded.extend(seq_prefix.counts.iter().cloned());

    if plan.trace {
        per_layer.extend(seq_prefix.counts);
        let count = |name: &str| ledger.get(name).copied().unwrap_or(0) as f64;
        // The child's counters span its life; take the preload back out.
        let preload_frames = f64::from(spec.population) + 1.0;
        let frames = count("frames") - preload_frames;
        let ops = tcp_attempted as f64;
        per_layer.extend([
            Metric::windowed("host.reference_msteps", m.reference, "Msteps/s"),
            // Demoted from end-to-end (README, "Demoted"); as clocked.
            Metric::windowed("server.tput_ops_s", m.tput, "1/s"),
            Metric::new("server.frames", frames, "count"),
            Metric::new("server.requests_per_frame", ops / frames, "op/frame"),
            Metric::new(
                "server.bytes_in_per_op",
                (count("bytes_in") - preload_bytes as f64) / ops,
                "B/op",
            ),
            Metric::new("server.bytes_out_per_op", count("bytes_out") / ops, "B/op"),
            Metric::new("server.protocol_errors", count("protocol_errors"), "count"),
            Metric::new("server.server_errors", count("server_errors"), "count"),
            Metric::windowed("server.ctx_switches_per_op", m.ctx_per_op, "1/op"),
            Metric::new("server.cpu_util", m.cpu_util, "ratio"),
            Metric::new("server.client_cpu_share", m.client_cpu_share, "ratio"),
            Metric::new("server.rtt_p99_us", m.rtt_p99_us, "us"),
        ]);
        per_layer.extend(traced_walk(&plan.program, spec, plan.seed)?);
        let need = |name: &str| {
            find(&per_layer, name).ok_or_else(|| format!("the traced run gave no {name}"))
        };
        // One frame's round trip, less the service time the walk
        // accounts for, is what hand-off costs: TCP, thread wake-ups and
        // the two channel hops. The walk is timed as the host is, so it
        // is set against the uncorrected round trip and engine speed.
        let handoff = m.rtt_p50_us.median - need("trace.walk_service_us")?;
        let seq_ns = 1e3 / m.seq_wall.median;
        let timing = seq_ns - need("core.execute_ns")?;
        // Worker count must not change a simulated figure.
        let single = ParEngine::preloaded(spec, plan.seed, 1)?
            .run(&engine_prefix(spec, plan, &zipf).2, false);
        let agree = single.sim_mops.to_bits() == par_prefix.sim_mops.to_bits();
        per_layer.extend([
            Metric::new("server.handoff_us", handoff, "us"),
            Metric::new("core.timing_ns", timing, "ns"),
            Metric::new(
                "core.par2_cost_ratio",
                m.seq_wall.median / m.par_wall.median,
                "ratio",
            ),
            Metric::new("core.par2_sim_mops", par_prefix.sim_mops, "sim_Mops"),
            Metric::new(
                "core.par_workers_agree",
                f64::from(u8::from(agree)),
                "count",
            ),
        ]);
        per_layer = in_declared_order(per_layer, &PER_LAYER.map(|m| m.name))?;
    }

    Ok(Outcome {
        workload: spec.name,
        end_to_end,
        reference_msteps: m.reference.median,
        per_layer,
        seeded,
        attempted,
        failed,
    })
}

/// The engines' prefix: the generator (left where the prefix ends), the
/// operations and the requests they encode to.
fn engine_prefix(
    spec: &'static Spec,
    plan: &Plan,
    zipf: &Option<Arc<Zipf>>,
) -> (OpGen, Vec<Op>, Vec<Request>) {
    let mut gen = OpGen::new(spec, plan.seed, zipf.clone());
    let (mut ops, mut reqs) = (Vec::new(), Vec::new());
    gen.fill(ENGINE_PREFIX_OPS, &mut ops);
    encode_ops(&ops, &mut reqs);
    (gen, ops, reqs)
}
