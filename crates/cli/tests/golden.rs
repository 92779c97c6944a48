//! Byte-for-byte golden outputs of the `trace`, `metrics`, `run` and
//! `route` subcommands. The first three drive Poisson multicast traffic
//! through the workload crate's dynamic runner; these files pin what they
//! print and write, so a change to that runner which moves a single
//! event, latency or simulated nanosecond fails here. The `route` files
//! pin the paths of the label-routed schemes hop by hop. Regenerate a
//! file only for a deliberate output change, by running its command
//! below.

use std::path::PathBuf;
use std::process::Command;

/// (golden file under `tests/golden/`, `mcast` arguments, the file the
/// command writes that the golden holds — its stdout when `None`).
const CASES: &[(&str, &str, Option<&str>)] = &[
    (
        "metrics_mesh8x8_hotspot120.json",
        "metrics --topology mesh:8x8 --pattern hotspot --messages 120 --json true",
        None,
    ),
    (
        "metrics_cube6_uniform300_seed11.json",
        "metrics --topology cube:6 --pattern uniform --messages 300 --seed 11 --json true",
        None,
    ),
    (
        "trace_mesh8x8_hotspot120.txt",
        "trace --topology mesh:8x8 --pattern hotspot --messages 120 --out trace.json",
        None,
    ),
    (
        "latency_mesh8x8_hotspot120.csv",
        "trace --topology mesh:8x8 --pattern hotspot --messages 120 --out trace.json \
         --latency-csv latency.csv",
        Some("latency.csv"),
    ),
    (
        "latency_cube6_uniform300_seed11.csv",
        "trace --topology cube:6 --pattern uniform --messages 300 --seed 11 --out trace.json \
         --latency-csv latency.csv",
        Some("latency.csv"),
    ),
    // Every delivery instant of a k = 64 multi-path run and of a
    // lock-step dc-tree run: the trace holds one `deliver` event per
    // destination, at the first tail crossing into it.
    (
        "trace_mesh10x10_multipath_k64_messages4.json",
        "trace --topology mesh:10x10 --algorithm multi-path --dests 64 --messages 4 --seed 5 \
         --out trace.json",
        Some("trace.json"),
    ),
    (
        "trace_mesh8x8_dctree_uniform8_seed3.json",
        "trace --topology mesh:8x8 --algorithm dc-tree --pattern uniform --dests 12 \
         --messages 8 --seed 3 --out trace.json",
        Some("trace.json"),
    ),
    // The label-routed path schemes through `mcast route`: the §6.2.2
    // running example (source (3,2), Figs 6.13, 6.16 and 6.17), a
    // 12-destination multicast on a 6-cube (both on the closed-form `R`)
    // and a 3D mesh, whose labeling takes the generic `R`.
    (
        "route_mesh6x6_dual-path_example.txt",
        "route --topology mesh:6x6 --algorithm dual-path --source 15 \
         --dests 0,12,30,19,34,5,11,23,29",
        None,
    ),
    (
        "route_mesh6x6_multi-path_example.txt",
        "route --topology mesh:6x6 --algorithm multi-path --source 15 \
         --dests 0,12,30,19,34,5,11,23,29",
        None,
    ),
    (
        "route_mesh6x6_fixed-path_example.txt",
        "route --topology mesh:6x6 --algorithm fixed-path --source 15 \
         --dests 0,12,30,19,34,5,11,23,29",
        None,
    ),
    (
        "route_cube6_dual-path_k12.txt",
        "route --topology cube:6 --algorithm dual-path --source 21 \
         --dests 0,3,7,12,18,25,33,40,46,51,58,63",
        None,
    ),
    (
        "route_cube6_multi-path_k12.txt",
        "route --topology cube:6 --algorithm multi-path --source 21 \
         --dests 0,3,7,12,18,25,33,40,46,51,58,63",
        None,
    ),
    (
        "route_cube6_fixed-path_k12.txt",
        "route --topology cube:6 --algorithm fixed-path --source 21 \
         --dests 0,3,7,12,18,25,33,40,46,51,58,63",
        None,
    ),
    (
        "route_mesh3x3x3_multi-path.txt",
        "route --topology mesh:3x3x3 --algorithm multi-path --source 13 \
         --dests 0,26,7,19,22,5,2,24",
        None,
    ),
    // Zero messages inject nothing and quiesce at time zero.
    (
        "metrics_mesh8x8_messages0.txt",
        "metrics --topology mesh:8x8 --messages 0",
        None,
    ),
    (
        "trace_mesh8x8_messages0.txt",
        "trace --topology mesh:8x8 --messages 0 --out trace.json",
        None,
    ),
];

#[test]
fn trace_and_metrics_outputs_match_golden_files() {
    let goldens = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut mismatches = Vec::new();
    for (i, &(golden, args, written)) in CASES.iter().enumerate() {
        // A fresh directory per case keeps relative output paths, which
        // `trace` prints, the same on every host.
        let dir = std::env::temp_dir().join(format!("mcast_golden_{}_{i}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_mcast"))
            .args(args.split_whitespace())
            .current_dir(&dir)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "mcast {args}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let actual = match written {
            None => out.stdout,
            Some(file) => std::fs::read(dir.join(file)).unwrap(),
        };
        std::fs::remove_dir_all(&dir).unwrap();
        let expected = std::fs::read(goldens.join(golden)).unwrap();
        if actual != expected {
            mismatches.push(format!(
                "mcast {args}\n  differs from tests/golden/{golden}:\n{}",
                String::from_utf8_lossy(&actual)
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// `mcast run --spec examples/spec_stream_cube12.json --messages 300`,
/// plain and with `--engine-jobs 2`: the flag is accepted for
/// compatibility and runs the same serial engine, so both print the
/// golden bytes.
#[test]
fn run_stream_spec_matches_golden_file_with_and_without_engine_jobs() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let spec = root.join("../../examples/spec_stream_cube12.json");
    let expected =
        std::fs::read(root.join("tests/golden/run_stream_cube12_messages300.txt")).unwrap();
    for extra in [&[][..], &["--engine-jobs", "2"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_mcast"))
            .arg("run")
            .arg("--spec")
            .arg(&spec)
            .args(["--messages", "300"])
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "mcast run {extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            out.stdout == expected,
            "mcast run {extra:?} differs from tests/golden/run_stream_cube12_messages300.txt:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
