//! Workload generation and the Chapter 7 evaluation methodology: uniform
//! multicast sets, Poisson per-node traffic, static traffic measurement
//! (§7.1) and dynamic latency measurement with batch means (§7.2).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod conform;
pub mod dynamic;
pub mod fault_sweep;
pub mod gen;
pub mod parallel;
pub mod serve;
pub mod spec;
pub mod static_eval;
pub mod stats;

pub use conform::{
    check_scenario, registry_pairs, run_verify, scenario_for_case, shrink_scenario, RunTrace,
    VerifyFailure, VerifyReport, VerifyScenario, TOPOLOGY_POOL,
};
pub use dynamic::{
    measure_saturation_throughput, run_dynamic, run_dynamic_stream, run_dynamic_with_sink,
    DynamicConfig, DynamicResult, StreamConfig, ThroughputResult, TrafficPattern,
};
pub use fault_sweep::{run_fault_sweep, FaultSweepConfig, FaultSweepRow};
pub use gen::{MulticastGen, TrafficError, TrafficSource};
pub use parallel::{
    aggregate_sweep, default_jobs, parallel_map, replication_seed, resolve_jobs, run_dynamic_sweep,
    sweep_points, SweepAggregate, SweepConfig, SweepPoint, SweepRow,
};
pub use serve::{
    chaos_self_test, inbox_dir, render_result, spec_inbox_filename, ChaosConfig, ChaosReport,
    JobId, JobOutcome, JobServer, Journal, Ledger, RetryPolicy, ServeConfig, ServeError,
    SubmitStatus,
};
pub use spec::{ExperimentSpec, FaultSpec, PatternSpec, StoppingRule, StreamSpec};
pub use static_eval::{broadcast_additional, measure_traffic, TrafficPoint};
pub use stats::{Accumulator, BatchMeans};
