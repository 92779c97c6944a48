//! The repository benchmark: six workloads, end-to-end metrics from an
//! untraced run and per-layer metrics from a traced one. README.md
//! beside this file has the metric table, why each workload exists and
//! which layer metric should move which end-to-end metric.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--check]
//! ```
//!
//! * Without `--workload`, every workload runs in a child process of its
//!   own, so `peak_rss_mb` belongs to that workload alone.
//! * `--seconds` bounds the timed phase of an untraced run: the workload
//!   repeats until that much time has passed, at least [`MIN_REPS`]
//!   times. Host times are scaled to a nominal host speed measured
//!   around each phase (see `host.rs`); `multicasts_per_s` is the median
//!   repetition's.
//! * `--trace 1` reports the per-layer metrics instead.
//! * `--check` runs all six at 1/20 scale with every correctness check.
//!
//! Every run prints each metric by name with its unit and clock, and
//! ends with one JSON line holding `correct`, `attempted`, `failed` and
//! `metrics`. A failed check makes the exit code nonzero.

mod check;
mod host;
mod replica;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use mcast_obs::{Histogram, Json};

use check::{Failures, Work, DEFAULT_SEED};
use workloads::{find, measure_setup, median, Kind, Scale, SweepRun, Workload, WORKLOADS};

/// Repetitions an untraced run times at least.
pub const MIN_REPS: usize = 3;

/// Default `--seconds`: the timed phase runs exactly [`MIN_REPS`].
const DEFAULT_SECONDS: f64 = 0.0;

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--check]";

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall time or memory of the host running the benchmark.
    Host,
    /// Simulated time, exact for a seed.
    Sim,
    /// A count of work, exact for a seed.
    Count,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "simulated",
            Clock::Count => "count",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
}

/// The highest whole percentile (as a quantile, at most p99) that has
/// at least ten of `samples` beyond it.
pub fn tail_quantile(samples: u64) -> f64 {
    let pct = (100.0 * (1.0 - 10.0 / samples.max(1) as f64)).floor();
    pct.clamp(50.0, 99.0) / 100.0
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    check: bool,
}

fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        check: false,
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, &flag)?;
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                args.workload = Some(find(&name).ok_or_else(|| {
                    format!(
                        "unknown workload {name:?}; expected one of {}",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => {
                let v = value(&mut it, &flag)?;
                args.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value(&mut it, &flag)?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {v:?}"))?;
            }
            "--trace" => {
                args.traced = match value(&mut it, &flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--check" => args.check = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Formats a metric value for people; the JSON line keeps every digit.
fn human(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else if v.abs() < 0.01 {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn result_json<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl IntoIterator<Item = (&'a str, f64, &'a str)>,
) -> String {
    let body: Vec<String> = metrics
        .into_iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// What one run of one workload prints.
struct Report {
    workload: &'static str,
    mode: &'static str,
    notes: Vec<String>,
    /// The metrics of the JSON line.
    metrics: Vec<Metric>,
    /// Metrics printed for people but kept out of the JSON line.
    extra: Vec<Metric>,
    failures: Failures,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn print(&self) {
        println!("== {} [{}]", self.workload, self.mode);
        for note in &self.notes {
            println!("  {note}");
        }
        for m in self.metrics.iter().chain(&self.extra) {
            println!(
                "  {:<34} {:>16} {:<8} {}",
                m.name,
                human(m.value),
                m.unit,
                m.clock.label()
            );
        }
        for f in &self.failures.0 {
            println!("  FAILED: {f}");
        }
        println!(
            "{}",
            result_json(
                self.failures.is_empty(),
                self.attempted,
                self.failed,
                self.metrics.iter().map(|m| (m.name, m.value, m.unit)),
            )
        );
    }
}

/// One timed repetition of a workload through the library entry point.
struct Rep {
    wall_s: f64,
    completed: u64,
    attempted: u64,
    failed: u64,
    work: Work,
    hist: Histogram,
}

fn run_rep(w: &Workload, seed: u64, failures: &mut Failures) -> Option<Rep> {
    match w.kind {
        Kind::Stream(shape) => {
            let inp = shape.inputs(seed, Scale::Full);
            let t0 = Instant::now();
            let r = inp.run_library();
            let wall_s = t0.elapsed().as_secs_f64();
            failures.stream(&r, inp.messages(), shape.cap, inp.cfg.warmup);
            Some(Rep {
                wall_s,
                completed: r.completed as u64,
                attempted: inp.messages(),
                failed: inp.messages().saturating_sub(r.completed as u64),
                work: Work::of(&r),
                hist: r.latency_hist_ns,
            })
        }
        Kind::Sweep => {
            let run = SweepRun::run(seed, Scale::Full, failures)?;
            Some(Rep {
                wall_s: run.wall_s,
                completed: run.completed(),
                attempted: run.points as u64,
                failed: run.failed(),
                work: run.work(),
                hist: run.latency_hist(),
            })
        }
    }
}

/// Lowers the peak-memory mark past the reference kernel's buffer,
/// which the kernel has already returned to the system.
fn reset_peak_rss(failures: &mut Failures) {
    failures.require(host::reset_peak_rss(), || {
        "cannot reset VmHWM through /proc/self/clear_refs".into()
    });
}

fn fold_peak_rss(peak: &mut Option<f64>) {
    if let Some(p) = host::peak_rss_mib() {
        *peak = Some(peak.map_or(p, |q| q.max(p)));
    }
}

fn untraced_report(w: &Workload, seed: u64, seconds: f64) -> Report {
    let mut failures = Failures::default();
    let mut peak_rss = None;
    // Reference-kernel timings bracket every measured phase (host.rs).
    let before = host::kernel_seconds(1);
    reset_peak_rss(&mut failures);
    let setup = measure_setup(w);
    fold_peak_rss(&mut peak_rss);
    let setup_scale = host::host_scale(before, host::kernel_seconds(1));
    let mut kernel = host::kernel_seconds(w.threads());
    let mut reps: Vec<Rep> = Vec::new();
    let mut scales: Vec<f64> = Vec::new();
    let start = Instant::now();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        reset_peak_rss(&mut failures);
        let Some(rep) = run_rep(w, seed, &mut failures) else {
            break;
        };
        fold_peak_rss(&mut peak_rss);
        let after = host::kernel_seconds(w.threads());
        scales.push(host::host_scale(kernel, after));
        kernel = after;
        if let Some(first) = reps.first() {
            failures.require(first.work == rep.work, || {
                format!(
                    "repetition differs from the first: {} vs {}",
                    rep.work.to_json(),
                    first.work.to_json()
                )
            });
        }
        reps.push(rep);
    }
    failures.0.dedup();
    let mut report = Report {
        workload: w.name,
        mode: "untraced",
        notes: Vec::new(),
        metrics: Vec::new(),
        extra: Vec::new(),
        failures,
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
    };
    let Some(first) = reps.first() else {
        report.attempted = report.attempted.max(1);
        report.failed = report.failed.max(1);
        return report;
    };
    report
        .failures
        .fingerprint(w.name, Scale::Full, seed, &first.work);
    report.failures.require(peak_rss.is_some(), || {
        "VmHWM unavailable in /proc/self/status".into()
    });
    let raw: Vec<f64> = reps.iter().map(|r| r.completed as f64 / r.wall_s).collect();
    let scaled: Vec<f64> = raw.iter().zip(&scales).map(|(r, s)| r * s).collect();
    let hist = &first.hist;
    let q = tail_quantile(hist.count());
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.notes = vec![
        format!(
            "seed {seed}, {} repetitions in {:.1} s, host_cpus {cpus}",
            reps.len(),
            start.elapsed().as_secs_f64(),
        ),
        format!(
            "set-up: median {:.4e} s unscaled over {} rebuilds, host slowdown {setup_scale:.3}",
            setup.total_s, setup.rebuilds
        ),
        format!(
            "repetitions: wall (s) / host slowdown: {}",
            reps.iter()
                .zip(&scales)
                .map(|(r, s)| format!("{:.3}/{s:.3}", r.wall_s))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "unscaled multicasts_per_s: median {:.1}, fastest {:.1}",
            median(&raw),
            raw.iter().copied().fold(0.0, f64::max)
        ),
        format!(
            "latency: {} post-warmup samples, tail percentile p{:.0}",
            hist.count(),
            q * 100.0
        ),
        format!("work: {}", first.work.to_json()),
    ];
    report.metrics = vec![
        Metric {
            name: "multicasts_per_s",
            value: median(&scaled),
            unit: "1/s",
            clock: Clock::Host,
        },
        Metric {
            name: "setup_s",
            value: setup.total_s / setup_scale,
            unit: "s",
            clock: Clock::Host,
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss.unwrap_or(0.0),
            unit: "MiB",
            clock: Clock::Host,
        },
        Metric {
            name: "sim_latency_mean_us",
            value: hist.mean() / 1000.0,
            unit: "us",
            clock: Clock::Sim,
        },
    ];
    report.extra = vec![
        Metric {
            name: "failed_frac",
            value: report.failed as f64 / report.attempted.max(1) as f64,
            unit: "fraction",
            clock: Clock::Count,
        },
        Metric {
            name: "sim_latency_p50_us",
            value: hist.p50() as f64 / 1000.0,
            unit: "us",
            clock: Clock::Sim,
        },
        Metric {
            name: "sim_latency_p99_us",
            value: hist.quantile(q) as f64 / 1000.0,
            unit: "us",
            clock: Clock::Sim,
        },
    ];
    report
}

/// Where a traced run writes its raw spans: under the cargo target
/// directory, one file per workload, replaced by the next traced run.
fn spans_path(workload: &str) -> PathBuf {
    let dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    dir.join("benchmark-spans").join(format!("{workload}.json"))
}

fn traced_report(w: &Workload, seed: u64) -> Report {
    let out = traced::run_traced(w, seed);
    let mut notes = vec![format!("seed {seed}")];
    if let Some(spans) = &out.spans_json {
        let path = spans_path(w.name);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|_| std::fs::write(&path, spans));
        notes.push(match written {
            Ok(()) => format!("raw spans: {}", path.display()),
            Err(e) => format!("raw spans not written to {}: {e}", path.display()),
        });
    }
    Report {
        workload: w.name,
        mode: "traced",
        notes,
        metrics: out.metrics,
        extra: Vec::new(),
        failures: out.failures,
        attempted: out.attempted,
        failed: out.failed,
    }
}

/// Runs every workload in a child process and prints a combined JSON
/// line whose metric names are prefixed with the workload.
fn run_all(args: &Args) -> bool {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return false;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    for w in &WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{}: cannot start: {e}", w.name);
                correct = false;
                continue;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        correct &= out.status.success();
        let Some(Ok(doc)) = text.lines().last().map(Json::parse) else {
            correct = false;
            continue;
        };
        let num = |k: &str| doc.get(k).and_then(Json::as_num).unwrap_or(0.0) as u64;
        attempted += num("attempted");
        failed += num("failed");
        correct &= doc.get("correct").and_then(Json::as_bool) == Some(true);
        if let Some(Json::Obj(fields)) = doc.get("metrics") {
            for (name, m) in fields {
                let value = m.get("value").and_then(Json::as_num).unwrap_or(0.0);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                metrics.push((format!("{}.{name}", w.name), value, unit.to_string()));
            }
        }
    }
    println!(
        "{}",
        result_json(
            correct,
            attempted,
            failed,
            metrics.iter().map(|(n, v, u)| (n.as_str(), *v, u.as_str())),
        )
    );
    correct
}

/// Every workload at 1/20 scale: the every-seed checks, the
/// fingerprint at the default seed, and replica (or per-point) parity.
pub fn run_check(seed: u64) -> Vec<(&'static str, Failures)> {
    WORKLOADS
        .iter()
        .map(|w| (w.name, check_workload(w, seed)))
        .collect()
}

fn check_workload(w: &Workload, seed: u64) -> Failures {
    let mut f = Failures::default();
    match w.kind {
        Kind::Stream(shape) => {
            let inp = shape.inputs(seed, Scale::Check);
            let lib = inp.run_library();
            f.stream(&lib, inp.messages(), shape.cap, inp.cfg.warmup);
            f.fingerprint(w.name, Scale::Check, seed, &Work::of(&lib));
            let leg = traced::replica_leg(&inp, None, 0);
            traced::require_parity(&mut f, "no sink", &lib, &leg.result);
        }
        Kind::Sweep => {
            if let Some(run) = SweepRun::run(seed, Scale::Check, &mut f) {
                f.fingerprint(w.name, Scale::Check, seed, &run.work());
                let (points, _) = traced::run_points(&run.spec, &mut f);
                traced::require_point_parity(&mut f, &run.rows, &points);
            }
        }
    }
    f
}

fn run_check_mode(seed: u64) -> bool {
    let t0 = Instant::now();
    let results = run_check(seed);
    println!("== check [1/20 scale, seed {seed}]");
    for (name, f) in &results {
        println!(
            "  {name:<22} {}",
            if f.is_empty() { "ok" } else { "FAILED" }
        );
        for msg in &f.0 {
            println!("    {msg}");
        }
    }
    let failed = results.iter().filter(|(_, f)| !f.is_empty()).count() as u64;
    println!(
        "  {} workloads checked in {:.1} s",
        results.len(),
        t0.elapsed().as_secs_f64()
    );
    println!(
        "{}",
        result_json(failed == 0, results.len() as u64, failed, [])
    );
    failed == 0
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.check {
        run_check_mode(args.seed)
    } else if let Some(w) = &args.workload {
        let report = if args.traced {
            traced_report(w, args.seed)
        } else {
            untraced_report(w, args.seed, args.seconds)
        };
        report.print();
        report.failures.is_empty()
    } else {
        run_all(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_mode_passes_at_the_default_seed() {
        for (name, f) in run_check(DEFAULT_SEED) {
            assert!(f.is_empty(), "{name}: {:?}", f.0);
        }
    }

    /// If `run_dynamic_stream`'s loop changes and the replica does not,
    /// this fails instead of the per-layer numbers going silently wrong.
    #[test]
    fn replica_matches_run_dynamic_stream_on_two_seeds() {
        for w in WORKLOADS
            .iter()
            .filter(|w| matches!(w.kind, Kind::Stream(_)))
        {
            for seed in [3, 11] {
                let f = check_workload(w, seed);
                assert!(f.is_empty(), "{} seed {seed}: {:?}", w.name, f.0);
            }
        }
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(7_500), 0.99);
        assert_eq!(tail_quantile(400), 0.97);
        assert_eq!(tail_quantile(0), 0.5);
    }
}
