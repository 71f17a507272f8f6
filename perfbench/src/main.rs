//! The repository benchmark's measuring engine.
//!
//! ```text
//! perfbench --workload <compile|lmbench|chaos_checked> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs the workload's operations in a closed loop on one thread and prints
//! the raw samples as one JSON object on the last line of standard output:
//! per-operation host time and simulated cycles, the set-up and boot times
//! and calibration-loop time measured right before each operation, and the
//! correctness tally. With `--trace 1` it instead splits the time
//! between untraced operations, traced ones (`hostprof` armed and
//! `KernelConfig::trace` set) and the leaf-layer probes, and adds the exact
//! layer counts. `run.py` turns this into the benchmark's metrics.

mod calib;
mod json;
mod probes;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use kernel_sim::hostprof;

use calib::Calibrator;
use json::Json;
use workload::{Input, Kind, Mode, Op, Workload};

/// Operations timed at least, however short `--seconds`.
const MIN_OPS: usize = 3;
/// Distinct failure descriptions kept in the report.
const MAX_FAILURES: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let w = value("--workload")?;
    let workload = Workload::from_name(w).ok_or_else(|| format!("unknown workload {w:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace {t:?} is not 0 or 1")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The correctness tally: every operation is compared with the first.
struct Tally {
    reference: Option<Vec<u64>>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn new() -> Self {
        Tally {
            reference: None,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    fn record(&mut self, what: &str, op: &Op) {
        self.attempted += 1;
        let reference = self.reference.get_or_insert_with(|| op.exact.clone());
        let why = match &op.error {
            Some(e) => Some(e.clone()),
            None if op.exact != *reference => {
                Some("outputs differ from the first operation's".into())
            }
            None => None,
        };
        if let Some(why) = why {
            self.failed += 1;
            let why = format!("{what}: {why}");
            if self.failures.len() < MAX_FAILURES && !self.failures.contains(&why) {
                self.failures.push(why);
            }
        }
    }
}

/// One timed operation with the measurements taken right before it.
struct Sample {
    /// The calibration loop's host nanoseconds.
    calib_ns: u64,
    /// Host nanoseconds to set the operation up: generate its inputs and
    /// boot every kernel it runs.
    setup_ns: u64,
    /// Host nanoseconds of one boot of the workload's first kernel.
    boot_ns: u64,
    op: Op,
}

/// Runs operations in `mode` until `budget` has passed (and at least
/// [`MIN_OPS`] ran), recording each in `tally`.
fn closed_loop(
    input: &Input,
    mode: Mode,
    budget: Duration,
    what: &str,
    tally: &mut Tally,
    cal: &mut Calibrator,
) -> Vec<Sample> {
    let t0 = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_OPS || t0.elapsed() < budget {
        let calib_ns = cal.ns();
        let setup_ns = workload::setup_ns(input);
        let boot_ns = workload::boot_ns(input);
        let op = workload::run_op(input, mode);
        tally.record(what, &op);
        samples.push(Sample {
            calib_ns,
            setup_ns,
            boot_ns,
            op,
        });
    }
    samples
}

fn samples_json(samples: &[Sample]) -> Json {
    let column =
        |f: &dyn Fn(&Sample) -> u64| Json::ints(&samples.iter().map(f).collect::<Vec<_>>());
    let mut o = Json::obj();
    o.set("host_ns", column(&|s| s.op.host_ns));
    o.set("sim_cycles", column(&|s| s.op.sim_cycles));
    o.set("calib_ns", column(&|s| s.calib_ns));
    o.set("setup_ns", column(&|s| s.setup_ns));
    o.set("boot_ns", column(&|s| s.boot_ns));
    let mut parts = Json::obj();
    if let Some(first) = samples.first() {
        for key in first.op.parts.keys() {
            parts.set(
                key.clone(),
                column(&|s| s.op.parts.get(key).copied().unwrap_or(0)),
            );
        }
    }
    o.set("parts_ns", parts);
    o
}

fn counts_json(op: &Op) -> Json {
    Json::Obj(
        op.counts
            .iter()
            .map(|(k, &v)| (k.clone(), Json::Int(v)))
            .collect(),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <compile|lmbench|chaos_checked> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let input = Input::generate(args.workload, args.seed);
    let mut report = Json::obj();
    report.set("workload", Json::Str(args.workload.name().into()));

    let mut cal = Calibrator::new();
    // One warm-up operation fills host caches and fixes the reference
    // outputs every later operation must repeat.
    let mut tally = Tally::new();
    let warm = workload::run_op(&input, Mode::PLAIN);
    tally.record("warm-up", &warm);
    let values = Json::Obj(
        warm.values
            .iter()
            .map(|(k, &v)| (k.clone(), Json::Num(v)))
            .collect(),
    );
    report.set("values", values);
    if let Kind::Chaos(programs) = &input.kind {
        report.set("chaos_programs", Json::Int(programs.len() as u64));
    }

    if !args.trace {
        let ops = closed_loop(&input, Mode::PLAIN, budget, "timed", &mut tally, &mut cal);
        report.set("ops", samples_json(&ops));
        if args.workload == Workload::Compile {
            let layered = workload::run_op(
                &input,
                Mode {
                    traced: false,
                    fused: false,
                },
            );
            tally.record("fused: false", &layered);
        }
    } else {
        let third = budget / 3;
        let plain = closed_loop(&input, Mode::PLAIN, third, "untraced", &mut tally, &mut cal);
        hostprof::arm();
        let traced_mode = Mode {
            traced: true,
            fused: true,
        };
        let traced = closed_loop(&input, traced_mode, third, "traced", &mut tally, &mut cal);
        hostprof::disarm();
        report.set("ops", samples_json(&plain));
        report.set("traced_ops", samples_json(&traced));
        report.set("counts", counts_json(&traced[0].op));
        let (machine, kcfg) = input.kernels()[0];
        // The probes time the hot path; injected faults are not on it.
        let kcfg = kernel_sim::KernelConfig {
            fault_injection: None,
            ..kcfg
        };
        let (samples, calib) = probes::run(machine, kcfg, third, &mut cal);
        let mut probes = Json::obj();
        for (name, ns) in samples {
            probes.set(name, Json::nums(&ns));
        }
        report.set("probe_ns", probes);
        report.set("probe_calib_ns", Json::ints(&calib));
    }

    report.set("attempted", Json::Int(tally.attempted));
    report.set("failed", Json::Int(tally.failed));
    report.set(
        "failures",
        Json::Arr(tally.failures.into_iter().map(Json::Str).collect()),
    );
    println!("{report}");
    ExitCode::SUCCESS
}
