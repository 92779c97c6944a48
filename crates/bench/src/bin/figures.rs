//! Regenerates the dissertation's tables and figures.
//!
//! ```text
//! cargo run -p mcast-bench --release --bin figures             # everything
//! cargo run -p mcast-bench --release --bin figures -- fig7_1   # one id
//! cargo run -p mcast-bench --release --bin figures -- --smoke  # fast pass
//! cargo run -p mcast-bench --release --bin figures -- --jobs 8 # sweep threads
//! cargo run -p mcast-bench --release --bin figures -- --experiment fault_sweep --scale smoke
//! ```
//!
//! CSV output lands in `results/`, along with `BENCH_4.json` — the
//! perf trajectory of the harness itself: wall-clock per experiment,
//! simulated-flits/sec probes (with speedup against the committed
//! `BENCH_2.json` baseline), the serial-vs-parallel sweep comparison,
//! and the engine scaling block. `--jobs N` sets the parallel sweep's
//! worker count (default: all cores, or `MCAST_JOBS` /
//! `RAYON_NUM_THREADS`).

use std::path::Path;

use mcast_bench::{experiment_ids, load_baseline_probes, run_experiment, PerfRecorder, Scale};
use mcast_workload::resolve_jobs;

const USAGE: &str =
    "usage: figures [--smoke | --scale smoke|full] [--jobs <N>] [--experiment <ID>] [<ID> ...]";

/// Prints `msg`, the usage line and the experiment ids, then exits 2 —
/// before any experiment runs or `results/` is touched.
fn usage_error(msg: &str) -> ! {
    eprintln!(
        "figures: {msg}\n{USAGE}\nexperiments: {}",
        experiment_ids().join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut jobs = None;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--scale" => match it.next().map(String::as_str) {
                Some("smoke") => smoke = true,
                Some("full") => smoke = false,
                other => usage_error(&format!("--scale takes smoke or full, got {other:?}")),
            },
            "--jobs" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => jobs = Some(n),
                None => usage_error("--jobs takes a number"),
            },
            "--experiment" => match it.next() {
                Some(id) => ids.push(id.clone()),
                None => usage_error("--experiment takes an id"),
            },
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag {flag}")),
            id => ids.push(id.to_string()),
        }
    }
    let known = experiment_ids();
    if let Some(bad) = ids.iter().find(|id| !known.contains(&id.as_str())) {
        usage_error(&format!("unknown experiment id {bad:?}"));
    }
    let scale = if smoke { Scale::smoke() } else { Scale::full() };
    let ids: Vec<String> = if ids.is_empty() {
        known.into_iter().map(String::from).collect()
    } else {
        ids
    };
    let jobs = resolve_jobs(jobs);
    let out_dir = Path::new("results");
    let mut perf = PerfRecorder::new();
    // Read the committed baseline before anything touches results/.
    perf.set_baselines(load_baseline_probes(&out_dir.join("BENCH_2.json")));
    for id in &ids {
        let (tables, wall_ms) = perf.time(id, || run_experiment(id, &scale));
        for t in &tables {
            print!("{}", t.render());
            if let Err(e) = t.write_csv(out_dir) {
                eprintln!("warning: could not write {}.csv: {e}", t.id);
            }
            println!();
        }
        eprintln!("[{id}] done in {wall_ms:.1} ms");
    }
    perf.run_standard_probes(&scale);
    for p in perf.probes() {
        let speedup = p
            .speedup_vs_baseline()
            .map(|s| format!(", {s:.2}x vs baseline"))
            .unwrap_or_default();
        eprintln!(
            "[probe {}] {:.2e} simulated flits/sec ({} flits in {:.1} ms{speedup})",
            p.name, p.flits_per_sec, p.sim_flits, p.wall_ms
        );
    }
    let sw = perf.run_sweep_bench(&scale, jobs);
    eprintln!(
        "[sweep] {} points: serial {:.1} ms, parallel {:.1} ms with {} jobs \
         ({:.2}x speedup, {})",
        sw.points,
        sw.serial_wall_ms,
        sw.parallel_wall_ms,
        sw.jobs,
        sw.speedup,
        if sw.deterministic {
            "bit-identical results"
        } else {
            "RESULTS DIVERGED"
        }
    );
    for p in perf.run_engine_scale_probes(&scale) {
        eprintln!(
            "[engine-scale {}] {} nodes: {:.1} ms, {} steps, {} flit hops",
            p.name, p.nodes, p.wall_ms, p.engine_steps, p.flit_hops
        );
    }
    match perf.write_bench4(out_dir) {
        Ok(()) => eprintln!("wrote {}", out_dir.join("BENCH_4.json").display()),
        Err(e) => eprintln!("warning: could not write BENCH_4.json: {e}"),
    }
}
