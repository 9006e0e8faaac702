//! The graphiti benchmark: one command for the whole flow.
//!
//! ```text
//! perfbench --workload <verify-gcd|paper-suite|simulate-long> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench freeze      # rewrite kernels/*/*.gsl from the suite generators
//! ```
//!
//! Each run sets up its workload several times (the median is `setup_s`),
//! then runs whole rounds of timed operations until `--seconds` have
//! passed, checking every output against `reference`. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! and the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! derived from the benchmark's own spans (`--trace 1`, see `layers`).
//! README.md explains the workloads, the metrics and reference figures.

mod flows;
mod inputs;
mod layers;
mod reference;
mod simlong;
mod suite;
mod trace;
mod verify;

use std::time::Instant;

/// Pool width for every pooled call (the benchmark machine's core count).
const JOBS: &str = "2";
/// Set-up repetitions at the start of a run. Between timed rounds the run
/// sets up again while its set-ups since the start have taken less than
/// `SETUPS_SHARE` of the rounds' time. `setup_s` is the median of all of
/// them: cheap set-ups are measured over many repetitions, and each is
/// sampled across the whole run. On a 2-vCPU VM, `paper-suite`'s parse
/// timed back to back at the start of a fresh process took 0.51–0.99 ms
/// from run to run, and between rounds 0.60–0.80 ms.
const SETUPS_FIRST: usize = 3;
const SETUPS_SHARE: f64 = 0.1;

/// Operation counts and the first few problems found.
#[derive(Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    wrong: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Counts one operation whose output check passed or not.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.wrong += 1;
            self.note(what());
        }
    }

    /// Counts one operation that fails through a known fault of the
    /// program: failed, but no wrong output.
    pub fn fail_known(&mut self, what: &str) {
        self.attempted += 1;
        self.failed += 1;
        self.note(format!("known fault: {what}"));
    }

    /// Records a check that is not an operation of its own (for example
    /// the interpreter against the reference): a failure makes the run
    /// incorrect without changing the operation counts.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong += 1;
            self.note(what());
        }
    }

    fn note(&mut self, msg: String) {
        if self.problems.len() < 20 && !self.problems.contains(&msg) {
            self.problems.push(msg);
        }
    }
}

/// What a workload measured.
pub struct Report {
    /// Operation counts.
    pub tally: Tally,
    /// Median set-up time (s).
    pub setup_s: f64,
    /// Wall time of each timed operation (ms).
    pub op_ms: Vec<f64>,
    /// Geomean over kernels of cycles × clock period (ns), summed LUTs
    /// and FFs of the workload's transformed circuits.
    pub design: (f64, u64, u64),
    /// Figures particular to the workload, printed before the result.
    pub detail: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn new(setup_s: f64) -> Report {
        Report {
            tally: Tally::default(),
            setup_s,
            op_ms: Vec::new(),
            design: (0.0, 0, 0),
            detail: Vec::new(),
            layers: Vec::new(),
        }
    }
}

/// The median (the mean of the middle two for an even count).
pub fn median(mut xs: Vec<f64>) -> f64 {
    quantile(&mut xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs` (0 for an empty slice).
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Runs the set-up `f` repeatedly (see [`SETUPS_FIRST`]), returning the last
/// result and each repetition's time (s). In a traced run the set-up spans
/// are kept.
pub fn timed_setup<T>(
    traced: bool,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    trace::set_op(layers::SETUP);
    trace::set_enabled(traced);
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUPS_FIRST {
        let t = Instant::now();
        last = Some(std::hint::black_box(f()?));
        times.push(t.elapsed().as_secs_f64());
    }
    trace::set_enabled(false);
    Ok((last.expect("at least one set-up"), times))
}

/// Runs whole rounds until `seconds` have passed (at least one), returning
/// each round's wall time (s). Rounds are numbered from 1. After each round
/// it runs `setup` again (see [`SETUPS_SHARE`]), adding each time to
/// `setup_times`.
pub fn run_rounds<T>(
    seconds: f64,
    setup_times: &mut Vec<f64>,
    mut setup: impl FnMut() -> Result<T, String>,
    mut round: impl FnMut() -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut setup_spent = 0.0;
    while walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        trace::set_op(walls.len() as u64 + 1);
        let t = Instant::now();
        round()?;
        walls.push(t.elapsed().as_secs_f64());
        while setup_spent < SETUPS_SHARE * walls.iter().sum::<f64>() {
            let t = Instant::now();
            std::hint::black_box(setup()?);
            let dt = t.elapsed().as_secs_f64();
            setup_spent += dt;
            setup_times.push(dt);
        }
    }
    Ok(walls)
}

/// Runs `n` rounds with tracing on, returning each round's wall time (s).
pub fn run_traced(
    n: usize,
    mut round: impl FnMut() -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    trace::set_enabled(true);
    let mut walls = Vec::with_capacity(n);
    for op in 1..=n {
        trace::set_op(op as u64);
        let t = Instant::now();
        round()?;
        walls.push(t.elapsed().as_secs_f64());
    }
    trace::set_enabled(false);
    Ok(walls)
}

/// Runs `f` once with tracing on, as a probe (see [`layers::PROBE`]).
pub fn probe<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    trace::set_op(layers::PROBE);
    trace::set_enabled(true);
    let r = f();
    trace::set_enabled(false);
    r
}

/// Writes the spans out and derives the per-layer metrics from them.
fn finish_trace(
    workload: &str,
    seed: u64,
    setups: u64,
    untraced: &[f64],
    traced: &[f64],
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let spans = trace::take();
    let self_ns = trace::self_times(&spans);
    let counts = trace::take_counts();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let file = dir.join(format!("trace-{workload}-{seed}.json"));
    std::fs::write(&file, trace::to_json(&spans, &self_ns))
        .map_err(|e| format!("{}: {e}", file.display()))?;
    println!("spans written to {}", file.display());
    let overhead_s = traced.iter().sum::<f64>() - untraced.iter().sum::<f64>();
    let rec = layers::Recorded {
        spans: &spans,
        self_ns: &self_ns,
        counts: &counts,
        setups,
        rounds: traced.len() as u64,
        overhead_s,
    };
    Ok(rec.metrics())
}

/// Peak resident memory of this process (MiB), from `VmHWM`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn json_metrics(ms: &[(&str, f64, &str)]) -> String {
    let rows: Vec<String> = ms
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_number(*v)))
        .collect();
    format!("{{{}}}", rows.join(", "))
}

/// Every digit of Rust's shortest round-trip form. `+ 0.0` turns the
/// -0.0 of an empty sum into 0.0; a non-finite value prints as `NaN` or
/// `inf`, which no JSON reader accepts, so it cannot pass unnoticed.
fn json_number(v: f64) -> String {
    format!("{:?}", v + 0.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must lie in (0, 3600]".into());
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
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<String, String> {
    let report = match args.workload.as_str() {
        "verify-gcd" => verify::run(args.seed, args.seconds, args.trace)?,
        "paper-suite" => suite::run(args.seed, args.seconds, args.trace)?,
        "simulate-long" => simlong::run(args.seed, args.seconds, args.trace)?,
        other => return Err(format!("unknown workload {other}")),
    };
    for (n, v, u) in &report.detail {
        println!("{:<28} {v:>16.4} {u}", n);
    }
    for p in &report.tally.problems {
        println!("problem: {p}");
    }
    let metrics = if args.trace {
        report.layers.clone()
    } else {
        let (exec, lut, ff) = report.design;
        vec![
            ("setup_s", report.setup_s, "s"),
            ("peak_rss_mb", peak_rss_mb()?, "MiB"),
            ("op_ms.p50", median(report.op_ms.clone()), "ms"),
            ("design_exec_ns_geomean", exec, "ns"),
            ("design_lut", lut as f64, "LUT"),
            ("design_ff", ff as f64, "FF"),
        ]
    };
    let t = &report.tally;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        t.wrong == 0 && t.attempted > 0,
        t.attempted,
        t.failed,
        json_metrics(&metrics)
    ))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("freeze") {
        if let Err(e) = inputs::freeze() {
            eprintln!("freeze: {e}");
            std::process::exit(1);
        }
        return;
    }
    // Set before any pooled call reads it (no other thread exists yet).
    std::env::set_var("GRAPHITI_JOBS", JOBS);
    let result = parse_args(&argv).and_then(|a| run(&a));
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
