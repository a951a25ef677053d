//! `kvd-benchmark` — the gated benchmark.
//!
//! ```text
//! kvd-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of stdout is the result:
//!     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//! kvd-benchmark [--seed n] [--seconds s] [--quick]
//!     every workload, end-to-end and per-layer; tables, then one JSON
//!     document with the host fingerprint as the last line
//! kvd-benchmark --repeat N [--workload name] [--seed n] [--seconds s]
//!     N runs of every (or one) workload on seeds n, n+1, .., each metric's
//!     spread against its bound, then seed n again to show the simulated
//!     figures and counts repeat exactly; last line is the JSON evidence
//! kvd-benchmark --print-benchmark-json
//! kvd-benchmark --serve [--adaptive-seed n]      (the child server)
//! ```

use std::process::ExitCode;

use kvd_benchmark::adapter::serve_until_stdin_closes;
use kvd_benchmark::gen::{workload, Spec, WORKLOADS};
use kvd_benchmark::metrics::{benchmark_json, DEFAULT_SEED, END_TO_END, RUN_SECONDS};
use kvd_benchmark::report::{metrics_json, table, Json};
use kvd_benchmark::run::{run_workload, Outcome, Plan};
use kvd_benchmark::stats::{iqr_share, median};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    repeat: Option<usize>,
    serve: bool,
    adaptive_seed: Option<u64>,
    print_benchmark_json: bool,
}

fn parse_u64(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("not a number: {text}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        repeat: None,
        serve: false,
        adaptive_seed: None,
        print_benchmark_json: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = parse_u64(&value()?)?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be within (0, 600]".into());
                }
            }
            "--trace" => args.trace = parse_u64(&value()?)? != 0,
            "--quick" => args.quick = true,
            "--repeat" => args.repeat = Some(parse_u64(&value()?)?.max(2) as usize),
            "--serve" => args.serve = true,
            "--adaptive-seed" => args.adaptive_seed = Some(parse_u64(&value()?)?),
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn command_output(program: &str, argv: &[&str]) -> String {
    std::process::Command::new(program)
        .args(argv)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and how the numbers were taken.
fn fingerprint(args: &Args, cores: usize) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    Json::obj([
        ("nproc", Json::Int(cores as u64)),
        ("cpu", Json::Str(cpu)),
        ("kernel", Json::Str(kernel)),
        ("rustc", Json::Str(command_output("rustc", &["-V"]))),
        (
            "commit",
            Json::Str(command_output("git", &["rev-parse", "HEAD"])),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
    ])
}

fn outcome_json(o: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::Int(o.attempted)),
        ("failed", Json::Int(o.failed)),
        ("end_to_end", metrics_json(&o.end_to_end, true)),
        ("per_layer", metrics_json(&o.per_layer, true)),
    ])
}

/// The contract's single-workload run.
fn single(spec: &'static Spec, plan: &Plan) -> Result<bool, String> {
    let o = run_workload(spec, plan)?;
    let metrics = if plan.trace {
        &o.per_layer
    } else {
        &o.end_to_end
    };
    eprint!(
        "{}",
        table(&format!("{} (seed {})", o.workload, plan.seed), metrics)
    );
    let line = Json::obj([
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::Int(o.attempted)),
        ("failed", Json::Int(o.failed)),
        ("metrics", metrics_json(metrics, false)),
    ]);
    println!("{}", line.to_line());
    Ok(o.correct())
}

/// Every workload, both altitudes, tables and one document.
fn full(args: &Args, plan: &Plan, cores: usize) -> Result<bool, String> {
    let mut docs = Vec::new();
    let mut correct = true;
    for spec in &WORKLOADS {
        let o = run_workload(spec, plan)?;
        print!(
            "{}",
            table(&format!("{}: end to end", o.workload), &o.end_to_end)
        );
        print!(
            "{}",
            table(&format!("{}: per layer", o.workload), &o.per_layer)
        );
        println!("  attempted {} failed {}", o.attempted, o.failed);
        correct &= o.correct();
        docs.push((o.workload.to_string(), outcome_json(&o)));
    }
    let doc = Json::obj([
        ("quick", Json::Bool(args.quick)),
        ("host", fingerprint(args, cores)),
        ("workloads", Json::Obj(docs)),
    ]);
    println!("{}", doc.to_line());
    Ok(correct)
}

/// One row of `--repeat`: the values of one metric over the runs.
fn spread_row(name: &str, unit: &str, column: &[f64], bound: Option<f64>) -> (String, Json) {
    let (med, spread) = (median(&mut column.to_vec()), iqr_share(column));
    let mut fields = vec![("median", Json::Num(med)), ("iqr_share", Json::Num(spread))];
    let mut verdict = "";
    if let Some(bound) = bound {
        // A spread wider than the bound means a comparison against that
        // bound cannot be settled either way.
        verdict = match spread {
            s if s <= bound / 3.0 => "steady",
            s if s <= bound => "within bound",
            _ => "unresolved",
        };
        fields.push(("bound", Json::Num(bound)));
        fields.push(("verdict", Json::str(verdict)));
    }
    fields.push((
        "values",
        Json::Arr(column.iter().map(|&v| Json::Num(v)).collect()),
    ));
    let bound = bound.map_or(String::new(), |b| format!("bound {b:.3}"));
    println!("  {name:22} median {med:>14.6} {unit:<9} spread {spread:.4} {bound}  {verdict}");
    (name.to_string(), Json::obj(fields))
}

/// N runs per workload on consecutive seeds, each metric's quartile
/// spread against its bound; then the first seed again, to show that what
/// depends on the seed alone repeats to the last bit.
fn repeat(
    args: &Args,
    plan: &Plan,
    specs: &[&'static Spec],
    runs: usize,
    cores: usize,
) -> Result<bool, String> {
    let mut correct = true;
    let mut docs = Vec::new();
    for spec in specs {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let mut reference = Vec::new();
        let mut first_seeded = Vec::new();
        for i in 0..runs {
            let plan = Plan {
                seed: plan.seed + i as u64,
                ..plan.clone()
            };
            let o = run_workload(spec, &plan)?;
            correct &= o.correct();
            for (column, m) in values.iter_mut().zip(&o.end_to_end) {
                column.push(m.value);
            }
            reference.push(o.reference_msteps);
            if i == 0 {
                first_seeded = o.seeded;
            }
            eprintln!("{} run {}/{} done", spec.name, i + 1, runs);
        }
        // The seeded figures come from set-up, so short windows will do.
        let again = run_workload(
            spec,
            &Plan {
                seconds: plan.seconds / 10.0,
                ..plan.clone()
            },
        )?;
        correct &= again.correct();
        let differing: Vec<Json> = first_seeded
            .iter()
            .zip(&again.seeded)
            .filter(|(a, b)| a.value.to_bits() != b.value.to_bits())
            .map(|(a, _)| Json::str(a.name.clone()))
            .collect();
        correct &= differing.is_empty() && first_seeded.len() == again.seeded.len();

        println!("== {} ({} runs, seeds {}..)", spec.name, runs, plan.seed);
        let mut rows: Vec<(String, Json)> = END_TO_END
            .iter()
            .zip(&values)
            .map(|(decl, column)| spread_row(decl.name, decl.unit, column, Some(decl.bound)))
            .collect();
        rows.push(spread_row(
            "host.reference_msteps",
            "Msteps/s",
            &reference,
            None,
        ));
        println!(
            "  seed {} run twice: {} of {} seeded values differ",
            plan.seed,
            differing.len(),
            first_seeded.len()
        );
        rows.push((
            "same_seed".to_string(),
            Json::obj([
                ("seed", Json::Int(plan.seed)),
                ("compared", Json::Int(first_seeded.len() as u64)),
                ("differing", Json::Arr(differing)),
            ]),
        ));
        docs.push((spec.name.to_string(), Json::Obj(rows)));
    }
    let doc = Json::obj([
        ("runs", Json::Int(runs as u64)),
        ("host", fingerprint(args, cores)),
        ("workloads", Json::Obj(docs)),
    ]);
    println!("{}", doc.to_line());
    Ok(correct)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    if args.serve {
        return serve_until_stdin_closes(args.adaptive_seed)
            .map(|()| true)
            .map_err(|e| format!("serve: {e}"));
    }
    if args.print_benchmark_json {
        print!("{}", benchmark_json().to_pretty());
        return Ok(true);
    }
    // Two server shards and two load threads: fewer cores than that and
    // every number is a scheduling artefact.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        return Err(format!("needs at least 2 cores, found {cores}"));
    }
    let plan = Plan {
        seed: args.seed,
        // Quick runs shorten the windows, never their number.
        seconds: if args.quick {
            args.seconds / 10.0
        } else {
            args.seconds
        },
        trace: args.trace,
        program: std::env::current_exe()
            .map_err(|e| format!("cannot find this executable: {e}"))?,
    };
    let named = match &args.workload {
        Some(name) => Some(workload(name).ok_or_else(|| format!("unknown workload {name}"))?),
        None => None,
    };
    match (named, args.repeat) {
        (Some(spec), None) => single(spec, &plan),
        (Some(spec), Some(runs)) => repeat(&args, &plan, &[spec], runs, cores),
        (None, Some(runs)) => repeat(
            &args,
            &plan,
            &WORKLOADS.iter().collect::<Vec<_>>(),
            runs,
            cores,
        ),
        (None, None) => full(
            &args,
            &Plan {
                trace: true,
                ..plan
            },
            cores,
        ),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("kvd-benchmark: some replies were wrong");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("kvd-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
