//! `figures` argument parsing, driven through the built binary: a bad
//! flag, a non-numeric `--jobs`, a bad `--scale` or an unknown
//! experiment id is a usage error (exit 2) that stops before any
//! experiment runs or `results/` is written.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_before_any_experiment_runs() {
    let dir = std::env::temp_dir().join(format!("mcast_figures_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (args, says) in [
        (
            &["--smoke", "--engine-jobs", "2"][..],
            "unknown flag --engine-jobs",
        ),
        (&["--jobs", "many", "fig2_3"][..], "--jobs takes a number"),
        (&["--jobs"][..], "--jobs takes a number"),
        (&["--scale", "huge"][..], "--scale takes smoke or full"),
        (
            &["--smoke", "fig2_3", "fig9_9"][..],
            "unknown experiment id \"fig9_9\"",
        ),
        (&["--experiment"][..], "--experiment takes an id"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(args)
            .current_dir(&dir)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "figures {args:?}: {stderr}");
        assert!(stderr.contains(says), "figures {args:?}: {stderr}");
        assert!(
            stderr.contains("usage: figures"),
            "figures {args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "figures {args:?} printed a table");
        assert!(
            !dir.join("results").exists(),
            "figures {args:?} wrote results/"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
