//! The supervised job-execution service behind `mcast serve`
//! (DESIGN.md §13).
//!
//! A [`JobServer`] accepts [`crate::spec::ExperimentSpec`] jobs as
//! canonical JSON text and executes each under per-job supervision:
//!
//! * **panic isolation** — every attempt runs under `catch_unwind`, so
//!   a buggy (or chaos-injected) worker panic becomes a recorded
//!   transient failure, not a dead server;
//! * **deadline + step budgets** — each attempt gets a fresh
//!   [`RunBudget`]; a supervisor thread cancels budgets past their
//!   wall-clock deadline and the engine's own step ceiling bounds the
//!   simulated work, so a runaway simulation is cancellable;
//! * **bounded retries** — transient failures back off exponentially
//!   (capped, with deterministic jitter, mirroring
//!   `mcast_sim::RecoveryPolicy`) and a bounded retry budget turns
//!   persistent failures into recorded diagnostics instead of livelock;
//! * **admission control** — submissions past the queue cap are shed
//!   with a recorded [`JobOutcome::Shed`] outcome instead of queueing
//!   unboundedly;
//! * **crash safety** — every state transition is appended to a
//!   write-ahead [`Journal`] (fsync'd JSON lines carrying the canonical
//!   spec bytes), so killing and restarting the server re-runs every
//!   incomplete job and serves completed ones from a result cache
//!   keyed by canonical spec bytes.
//!
//! The ledger invariant the whole design answers to:
//! `accepted = completed + failed-with-diagnostic + shed` — zero jobs
//! lost. [`chaos_self_test`] proves it under injected worker panics,
//! deadline stalls, and a mid-batch hard kill (`mcast serve --chaos`).

use std::collections::{BTreeMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mcast_obs::json::Json;
use mcast_obs::ServiceMetrics;
use mcast_sim::engine::RunBudget;

use crate::parallel::replication_seed;
use crate::spec::ExperimentSpec;

/// Serial number of an accepted submission (assigned in accept order,
/// durable across restarts via the journal).
pub type JobId = u64;

/// A service-layer failure (journal I/O, malformed directory).
#[derive(Debug, Clone)]
pub struct ServeError(pub String);

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ServeError {}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> ServeError {
    ServeError(format!("{what} {}: {e}", path.display()))
}

/// Retry discipline for transient job failures — the job-layer mirror
/// of `mcast_sim::RecoveryPolicy`: capped exponential backoff with
/// deterministic jitter and a bounded retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retries per job before it fails with a diagnostic.
    pub max_retries: u32,
    /// Backoff before the first retry, in ms.
    pub backoff_base_ms: u64,
    /// Backoff ceiling (the exponential doubling is capped here).
    pub backoff_cap_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_base_ms: 10,
            backoff_cap_ms: 200,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry `attempt` (1-based), in ms: base · 2^(a−1),
    /// shift-clamped and saturating like the recovery engine's, capped,
    /// and never zero.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(20);
        self.backoff_base_ms
            .saturating_mul(1u64 << shift)
            .min(self.backoff_cap_ms)
            .max(1)
    }

    /// Deterministic per-job stagger added to the backoff so jobs
    /// retried off the same incident don't hammer the workers in
    /// lock-step — same shape as the recovery engine's jitter.
    pub fn jitter_ms(&self, job: JobId, attempt: u32) -> u64 {
        let roll = replication_seed(replication_seed(0x5e2e, job), attempt as u64);
        (roll % 7) * (self.backoff_base_ms / 4).max(1)
    }
}

/// Fault-injection knobs for the built-in chaos self-test. Decisions
/// are a pure function of (seed, job, attempt), so a chaos run is
/// reproducible.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Base seed for the per-attempt fault rolls.
    pub seed: u64,
    /// Per-mille probability an attempt panics inside the worker.
    pub panic_per_mille: u32,
    /// Per-mille probability an attempt stalls past its deadline.
    pub stall_per_mille: u32,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0xc4a05,
            panic_per_mille: 200,
            stall_per_mille: 150,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChaosAction {
    None,
    Panic,
    Stall,
}

impl ChaosConfig {
    fn roll(&self, job: JobId, attempt: u32) -> ChaosAction {
        let r = replication_seed(replication_seed(self.seed, job), attempt as u64) % 1000;
        if (r as u32) < self.panic_per_mille {
            ChaosAction::Panic
        } else if (r as u32) < self.panic_per_mille + self.stall_per_mille {
            ChaosAction::Stall
        } else {
            ChaosAction::None
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Admission-control queue cap: submissions finding this many jobs
    /// already queued are shed.
    pub queue_cap: usize,
    /// Per-attempt wall-clock deadline in ms (0 = no deadline).
    pub deadline_ms: u64,
    /// Per-attempt engine-step budget (0 = unlimited).
    pub step_budget: u64,
    /// Threads each job's sweep may use (kept at 1 by default so the
    /// worker pool, not the sweep, is the parallelism unit).
    pub sweep_jobs: usize,
    /// Retry discipline for transient failures.
    pub retry: RetryPolicy,
    /// Fault injection (`None` in production).
    pub chaos: Option<ChaosConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_cap: 64,
            deadline_ms: 0,
            step_budget: 0,
            sweep_jobs: 1,
            retry: RetryPolicy::default(),
            chaos: None,
        }
    }
}

/// Terminal state of an accepted job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// The job produced a result (the canonical result text lives in
    /// the cache); `cached` marks completions served without running.
    Completed {
        /// Whether the result came straight from the cache.
        cached: bool,
    },
    /// The job failed permanently or exhausted its retry budget.
    Failed {
        /// Human-readable cause (parse error, panic message, deadline).
        diagnostic: String,
    },
    /// Admission control refused the job (`Overloaded`).
    Shed,
}

/// What `submit` did with a spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitStatus {
    /// Queued for execution.
    Queued,
    /// Shed by admission control.
    Shed,
    /// Completed immediately from the result cache.
    Cached,
}

/// The journal-derived ledger. The service's central invariant is
/// [`Ledger::balanced`]: every accepted job reaches exactly one
/// terminal state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Submissions journaled (shed included).
    pub accepted: u64,
    /// Jobs with a result.
    pub completed: u64,
    /// Jobs failed with a diagnostic.
    pub failed: u64,
    /// Jobs shed by admission control.
    pub shed: u64,
}

impl Ledger {
    /// `accepted == completed + failed + shed` — zero jobs lost or
    /// double-counted.
    pub fn balanced(&self) -> bool {
        self.accepted == self.completed + self.failed + self.shed
    }
}

impl std::fmt::Display for Ledger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "accepted={} completed={} failed={} shed={} balanced={}",
            self.accepted,
            self.completed,
            self.failed,
            self.shed,
            self.balanced()
        )
    }
}

/// Serializes a [`Json`] value on one line (no indentation) — the
/// journal is a JSON-*lines* file, one record per line, so the
/// pretty-printing canonical serializer doesn't fit here. Strings are
/// escaped by the same writer `Json::to_json` uses, so embedded spec
/// and result text (which contains newlines) stays on the line.
fn compact_json(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(x) => out.push_str(&mcast_obs::json::fmt_number(*x)),
        Json::Str(s) => {
            // Reuse the canonical escaper via a throwaway one-field value.
            let quoted = Json::Str(s.clone()).to_json();
            out.push_str(&quoted);
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                compact_json(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                compact_json(&Json::Str(k.clone()), out);
                out.push(':');
                compact_json(val, out);
            }
            out.push('}');
        }
    }
}

/// The crash-safe write-ahead journal: an append-only JSON-lines file,
/// fsync'd per record. Replay tolerates a torn final line (a crash mid
/// `write`), and the [`Journal::crash_after_appends`] hook simulates a
/// hard process kill in-process by silently dropping all further
/// appends — the chaos self-test's mid-batch kill.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Mutex<File>,
    frozen: AtomicBool,
    appends_left: AtomicU64,
}

impl Journal {
    /// Opens (creating if needed) the journal file at `path`.
    pub fn open(path: &Path) -> Result<Journal, ServeError> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err("cannot open journal", path, e))?;
        Ok(Journal {
            path: path.to_path_buf(),
            file: Mutex::new(file),
            frozen: AtomicBool::new(false),
            appends_left: AtomicU64::new(u64::MAX),
        })
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record as a single fsync'd JSON line. Returns
    /// whether the record was durably written (`false` once the
    /// journal is frozen by a simulated crash).
    fn append(&self, record: &Json) -> Result<bool, ServeError> {
        if self.frozen.load(Ordering::Relaxed) {
            return Ok(false);
        }
        let left = self.appends_left.fetch_sub(1, Ordering::Relaxed);
        if left == 0 {
            // Counter underflowed past the crash point; freeze for good.
            self.frozen.store(true, Ordering::Relaxed);
            return Ok(false);
        }
        if left == 1 {
            self.frozen.store(true, Ordering::Relaxed);
        }
        let mut line = String::new();
        compact_json(record, &mut line);
        line.push('\n');
        let mut file = self.file.lock().expect("journal lock");
        file.write_all(line.as_bytes())
            .map_err(|e| io_err("cannot append to journal", &self.path, e))?;
        file.sync_data()
            .map_err(|e| io_err("cannot fsync journal", &self.path, e))?;
        Ok(true)
    }

    /// Test hook: after `n` more successful appends the journal behaves
    /// as if the process was killed — every later append is silently
    /// lost. Replay of the on-disk prefix must still balance.
    pub fn crash_after_appends(&self, n: u64) {
        self.appends_left.store(n, Ordering::Relaxed);
    }

    /// Test hook: freeze immediately (hard kill now).
    pub fn freeze(&self) {
        self.frozen.store(true, Ordering::Relaxed);
    }

    /// Whether a simulated crash froze the journal.
    pub fn is_frozen(&self) -> bool {
        self.frozen.load(Ordering::Relaxed)
    }
}

/// One replayed journal record, already field-checked.
enum Record {
    Accept {
        job: JobId,
        spec: String,
    },
    Shed {
        job: JobId,
    },
    /// `start` / `retry` — progress markers with no replay effect.
    Progress,
    Done {
        job: JobId,
        result: String,
    },
    Fail {
        job: JobId,
        diagnostic: String,
    },
}

fn parse_record(line: &str) -> Option<Record> {
    let v = Json::parse(line).ok()?;
    let job = v.get("job")?.as_num()? as JobId;
    match v.get("rec")?.as_str()? {
        "accept" => Some(Record::Accept {
            job,
            spec: v.get("spec")?.as_str()?.to_string(),
        }),
        "shed" => Some(Record::Shed { job }),
        "start" | "retry" => Some(Record::Progress),
        "done" => Some(Record::Done {
            job,
            result: v.get("result")?.as_str()?.to_string(),
        }),
        "fail" => Some(Record::Fail {
            job,
            diagnostic: v.get("diagnostic")?.as_str()?.to_string(),
        }),
        _ => None,
    }
}

/// A queued job.
#[derive(Debug, Clone)]
struct Job {
    id: JobId,
    /// Canonical spec bytes — the cache key and the journal payload.
    spec_text: String,
}

#[derive(Debug, Default)]
struct Inner {
    pending: VecDeque<Job>,
    /// Canonical spec bytes → canonical result bytes.
    cache: BTreeMap<String, String>,
    outcomes: BTreeMap<JobId, JobOutcome>,
    next_id: JobId,
    metrics: ServiceMetrics,
}

struct WatchEntry {
    token: u64,
    budget: RunBudget,
    deadline: Instant,
}

/// Why one attempt failed, and whether it is worth retrying.
struct AttemptError {
    transient: bool,
    diagnostic: String,
}

impl AttemptError {
    fn transient(diagnostic: String) -> Self {
        AttemptError {
            transient: true,
            diagnostic,
        }
    }
    fn permanent(diagnostic: String) -> Self {
        AttemptError {
            transient: false,
            diagnostic,
        }
    }
}

/// The supervised job server. See the module docs for the design;
/// construction is [`JobServer::open`], ingestion is
/// [`JobServer::submit_text`] / [`JobServer::ingest_inbox`], execution
/// is [`JobServer::run_until_drained`].
pub struct JobServer {
    dir: PathBuf,
    journal: Journal,
    cfg: ServeConfig,
    inner: Mutex<Inner>,
    watch_token: AtomicU64,
}

/// The inbox directory `mcast submit` drops canonical specs into.
pub fn inbox_dir(dir: &Path) -> PathBuf {
    dir.join("inbox")
}

/// FNV-1a of the spec bytes — the content-addressed inbox file name,
/// so re-submitting the same spec is idempotent at the file level.
pub fn spec_inbox_filename(spec_text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in spec_text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    format!("{h:016x}.json")
}

impl JobServer {
    /// Opens a server on `dir`, creating the directory and replaying
    /// any existing journal: completed/failed/shed jobs land in the
    /// ledger and result cache, incomplete ones are re-queued.
    pub fn open(dir: &Path, cfg: ServeConfig) -> Result<JobServer, ServeError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("cannot create journal dir", dir, e))?;
        let inbox = inbox_dir(dir);
        std::fs::create_dir_all(&inbox)
            .map_err(|e| io_err("cannot create inbox dir", &inbox, e))?;
        let journal_path = dir.join("journal.log");
        let mut inner = Inner::default();
        if let Ok(text) = std::fs::read_to_string(&journal_path) {
            Self::replay(&text, &mut inner);
        }
        let journal = Journal::open(&journal_path)?;
        Ok(JobServer {
            dir: dir.to_path_buf(),
            journal,
            cfg,
            inner: Mutex::new(inner),
            watch_token: AtomicU64::new(0),
        })
    }

    /// Rebuilds in-memory state from journal text. A line that doesn't
    /// parse is ignored — the only way one arises is a torn final
    /// write, and its record was by definition not acknowledged.
    fn replay(text: &str, inner: &mut Inner) {
        let mut specs: BTreeMap<JobId, String> = BTreeMap::new();
        for line in text.lines() {
            let Some(rec) = parse_record(line) else {
                continue;
            };
            match rec {
                Record::Accept { job, spec } => {
                    inner.metrics.accepted += 1;
                    inner.next_id = inner.next_id.max(job + 1);
                    specs.insert(job, spec);
                }
                Record::Shed { job } => {
                    if !inner.outcomes.contains_key(&job) {
                        inner.metrics.shed += 1;
                        inner.outcomes.insert(job, JobOutcome::Shed);
                        specs.remove(&job);
                    }
                }
                Record::Progress => {}
                Record::Done { job, result } => {
                    if !inner.outcomes.contains_key(&job) {
                        inner.metrics.completed += 1;
                        inner
                            .outcomes
                            .insert(job, JobOutcome::Completed { cached: false });
                        if let Some(spec) = specs.remove(&job) {
                            inner.cache.insert(spec, result);
                        }
                    }
                }
                Record::Fail { job, diagnostic } => {
                    if !inner.outcomes.contains_key(&job) {
                        inner.metrics.failed += 1;
                        inner
                            .outcomes
                            .insert(job, JobOutcome::Failed { diagnostic });
                    }
                }
            }
        }
        // Whatever has an accept but no terminal record is incomplete:
        // re-queue it for the next drain.
        for (job, spec_text) in specs {
            if !inner.outcomes.contains_key(&job) {
                inner.metrics.queued += 1;
                inner.pending.push_back(Job { id: job, spec_text });
            }
        }
    }

    /// Submits one spec (as text). The text is canonicalized when it
    /// parses (so logically-identical specs share a cache key); text
    /// that doesn't parse is still accepted and will terminate as
    /// failed-with-diagnostic. Returns the job id and what happened.
    pub fn submit_text(&self, spec_text: &str) -> Result<(JobId, SubmitStatus), ServeError> {
        let canonical = match ExperimentSpec::from_json(spec_text) {
            Ok(spec) => spec.to_json(),
            Err(_) => spec_text.to_string(),
        };
        let mut inner = self.inner.lock().expect("server lock");
        let id = inner.next_id;
        inner.next_id += 1;
        inner.metrics.accepted += 1;
        self.journal.append(&Json::Obj(vec![
            ("rec".into(), Json::from("accept")),
            ("job".into(), Json::Num(id as f64)),
            ("spec".into(), Json::Str(canonical.clone())),
        ]))?;
        if let Some(result) = inner.cache.get(&canonical).cloned() {
            inner.metrics.completed += 1;
            inner.metrics.cache_hits += 1;
            inner
                .outcomes
                .insert(id, JobOutcome::Completed { cached: true });
            // Keep the cache keyed by this spec (it already is) and
            // journal the terminal state so a replay agrees.
            self.journal.append(&Json::Obj(vec![
                ("rec".into(), Json::from("done")),
                ("job".into(), Json::Num(id as f64)),
                ("result".into(), Json::Str(result)),
            ]))?;
            return Ok((id, SubmitStatus::Cached));
        }
        if inner.pending.len() >= self.cfg.queue_cap {
            inner.metrics.shed += 1;
            inner.outcomes.insert(id, JobOutcome::Shed);
            self.journal.append(&Json::Obj(vec![
                ("rec".into(), Json::from("shed")),
                ("job".into(), Json::Num(id as f64)),
            ]))?;
            return Ok((id, SubmitStatus::Shed));
        }
        inner.metrics.queued += 1;
        inner.pending.push_back(Job {
            id,
            spec_text: canonical,
        });
        Ok((id, SubmitStatus::Queued))
    }

    /// Ingests every `*.json` file from the inbox (sorted by name, so
    /// ingestion order is stable), submitting then deleting each.
    /// Returns how many were submitted.
    pub fn ingest_inbox(&self) -> Result<usize, ServeError> {
        let inbox = inbox_dir(&self.dir);
        let mut names: Vec<PathBuf> = std::fs::read_dir(&inbox)
            .map_err(|e| io_err("cannot read inbox", &inbox, e))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .collect();
        names.sort();
        let mut submitted = 0;
        for path in names {
            let text =
                std::fs::read_to_string(&path).map_err(|e| io_err("cannot read spec", &path, e))?;
            self.submit_text(&text)?;
            submitted += 1;
            // The accept record is durable; losing the file now is safe.
            std::fs::remove_file(&path).map_err(|e| io_err("cannot remove spec", &path, e))?;
        }
        Ok(submitted)
    }

    /// Runs queued jobs on the configured worker pool until the queue
    /// is empty, under full supervision (panic isolation, deadlines,
    /// budgets, retries). Returns when every queued job has reached a
    /// terminal state.
    pub fn run_until_drained(&self) {
        let stop = AtomicBool::new(false);
        let watch: Mutex<Vec<WatchEntry>> = Mutex::new(Vec::new());
        std::thread::scope(|outer| {
            if self.cfg.deadline_ms > 0 {
                outer.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        let now = Instant::now();
                        for entry in watch.lock().expect("watch lock").iter() {
                            if now >= entry.deadline {
                                entry.budget.cancel();
                            }
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                });
            }
            std::thread::scope(|workers| {
                for _ in 0..self.cfg.workers.max(1) {
                    workers.spawn(|| self.worker_loop(&watch));
                }
            });
            stop.store(true, Ordering::Relaxed);
        });
    }

    fn worker_loop(&self, watch: &Mutex<Vec<WatchEntry>>) {
        loop {
            let job = {
                let mut inner = self.inner.lock().expect("server lock");
                match inner.pending.pop_front() {
                    Some(job) => {
                        inner.metrics.queued = inner.metrics.queued.saturating_sub(1);
                        inner.metrics.running += 1;
                        job
                    }
                    None => break,
                }
            };
            self.process_job(&job, watch);
            let mut inner = self.inner.lock().expect("server lock");
            inner.metrics.running = inner.metrics.running.saturating_sub(1);
        }
    }

    /// Runs one job to a terminal state: attempt → (retry with
    /// backoff)* → done/fail, journaling every transition.
    fn process_job(&self, job: &Job, watch: &Mutex<Vec<WatchEntry>>) {
        let t0 = Instant::now();
        let mut attempt: u32 = 0;
        let outcome = loop {
            let _ = self.journal.append(&Json::Obj(vec![
                ("rec".into(), Json::from("start")),
                ("job".into(), Json::Num(job.id as f64)),
                ("attempt".into(), Json::Num(attempt as f64)),
            ]));
            let budget = if self.cfg.step_budget > 0 {
                RunBudget::with_max_steps(self.cfg.step_budget)
            } else {
                RunBudget::unlimited()
            };
            let token = self.watch_token.fetch_add(1, Ordering::Relaxed);
            if self.cfg.deadline_ms > 0 {
                watch.lock().expect("watch lock").push(WatchEntry {
                    token,
                    budget: budget.clone(),
                    deadline: Instant::now() + Duration::from_millis(self.cfg.deadline_ms),
                });
            }
            let chaos = self
                .cfg
                .chaos
                .map(|c| c.roll(job.id, attempt))
                .unwrap_or(ChaosAction::None);
            let result = catch_unwind(AssertUnwindSafe(|| {
                self.run_attempt(&job.spec_text, &budget, chaos)
            }));
            if self.cfg.deadline_ms > 0 {
                watch
                    .lock()
                    .expect("watch lock")
                    .retain(|e| e.token != token);
            }
            let result = match result {
                Ok(r) => r,
                Err(payload) => Err(AttemptError::transient(format!(
                    "worker panic: {}",
                    panic_message(&payload)
                ))),
            };
            match result {
                Ok(text) => break Ok(text),
                Err(e) if !e.transient => break Err(e.diagnostic),
                Err(e) if attempt >= self.cfg.retry.max_retries => {
                    break Err(format!(
                        "retry budget exhausted after {} attempts; last error: {}",
                        attempt + 1,
                        e.diagnostic
                    ));
                }
                Err(e) => {
                    attempt += 1;
                    let delay = self.cfg.retry.backoff_ms(attempt)
                        + self.cfg.retry.jitter_ms(job.id, attempt);
                    let _ = self.journal.append(&Json::Obj(vec![
                        ("rec".into(), Json::from("retry")),
                        ("job".into(), Json::Num(job.id as f64)),
                        ("attempt".into(), Json::Num(attempt as f64)),
                        ("backoff_ms".into(), Json::Num(delay as f64)),
                        ("reason".into(), Json::Str(e.diagnostic)),
                    ]));
                    self.inner.lock().expect("server lock").metrics.retried += 1;
                    std::thread::sleep(Duration::from_millis(delay));
                }
            }
        };
        let latency_us = t0.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let mut inner = self.inner.lock().expect("server lock");
        match outcome {
            Ok(result_text) => {
                let _ = self.journal.append(&Json::Obj(vec![
                    ("rec".into(), Json::from("done")),
                    ("job".into(), Json::Num(job.id as f64)),
                    ("result".into(), Json::Str(result_text.clone())),
                ]));
                inner.metrics.completed += 1;
                inner
                    .outcomes
                    .insert(job.id, JobOutcome::Completed { cached: false });
                inner.cache.insert(job.spec_text.clone(), result_text);
            }
            Err(diagnostic) => {
                let _ = self.journal.append(&Json::Obj(vec![
                    ("rec".into(), Json::from("fail")),
                    ("job".into(), Json::Num(job.id as f64)),
                    ("diagnostic".into(), Json::Str(diagnostic.clone())),
                ]));
                inner.metrics.failed += 1;
                inner
                    .outcomes
                    .insert(job.id, JobOutcome::Failed { diagnostic });
            }
        }
        inner.metrics.observe_latency_us(latency_us);
    }

    /// One supervised attempt: parse, validate, run the sweep under the
    /// budget, render the canonical result. Parse/validate failures are
    /// permanent; budget/deadline stops are transient.
    fn run_attempt(
        &self,
        spec_text: &str,
        budget: &RunBudget,
        chaos: ChaosAction,
    ) -> Result<String, AttemptError> {
        match chaos {
            ChaosAction::Panic => panic!("chaos: injected worker panic"),
            ChaosAction::Stall => {
                // Stall past the deadline (bounded so chaos runs end);
                // the supervisor cancels our budget while we sleep.
                let deadline = self.cfg.deadline_ms.max(1);
                std::thread::sleep(Duration::from_millis((deadline * 2).min(deadline + 500)));
            }
            ChaosAction::None => {}
        }
        let spec = ExperimentSpec::from_json(spec_text)
            .map_err(|e| AttemptError::permanent(format!("spec rejected: {e}")))?;
        let rows = spec
            .run_sweep_with_budget(self.cfg.sweep_jobs.max(1), Some(budget.clone()))
            .map_err(|e| AttemptError::permanent(format!("spec rejected: {e}")))?;
        if budget.cancelled() {
            return Err(AttemptError::transient(format!(
                "deadline exceeded ({} ms)",
                self.cfg.deadline_ms
            )));
        }
        if budget.exhausted() || rows.iter().any(|r| r.result.budget_exhausted) {
            return Err(AttemptError::transient(format!(
                "engine step budget exhausted ({} steps)",
                self.cfg.step_budget
            )));
        }
        Ok(render_result(&spec, &rows))
    }

    /// The current ledger.
    pub fn ledger(&self) -> Ledger {
        let inner = self.inner.lock().expect("server lock");
        Ledger {
            accepted: inner.metrics.accepted,
            completed: inner.metrics.completed,
            failed: inner.metrics.failed,
            shed: inner.metrics.shed,
        }
    }

    /// Terminal outcomes by job id (replayed and fresh alike).
    pub fn outcomes(&self) -> BTreeMap<JobId, JobOutcome> {
        self.inner.lock().expect("server lock").outcomes.clone()
    }

    /// The cached canonical result for a spec (the text is
    /// canonicalized the same way `submit_text` does).
    pub fn cached_result(&self, spec_text: &str) -> Option<String> {
        let canonical = match ExperimentSpec::from_json(spec_text) {
            Ok(spec) => spec.to_json(),
            Err(_) => spec_text.to_string(),
        };
        self.inner
            .lock()
            .expect("server lock")
            .cache
            .get(&canonical)
            .cloned()
    }

    /// Number of jobs waiting in the queue.
    pub fn queued(&self) -> usize {
        self.inner.lock().expect("server lock").pending.len()
    }

    /// A `service.*` metrics registry snapshot (see
    /// [`mcast_obs::ServiceMetrics::to_registry`]).
    pub fn metrics_registry(&self) -> mcast_obs::Registry {
        self.inner
            .lock()
            .expect("server lock")
            .metrics
            .to_registry()
    }

    /// The write-ahead journal (test hooks live here).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Renders a finished sweep as canonical JSON text. The engine is
/// deterministic, so the same canonical spec always renders to the same
/// bytes — which is what makes the byte-keyed result cache sound.
pub fn render_result(spec: &ExperimentSpec, rows: &[crate::parallel::SweepRow]) -> String {
    let rows_json: Vec<Json> = rows
        .iter()
        .map(|row| {
            Json::Obj(vec![
                ("scheme".into(), Json::from(row.point.scheme.as_str())),
                (
                    "mean_interarrival_ns".into(),
                    Json::Num(row.point.mean_interarrival_ns),
                ),
                ("replication".into(), Json::from(row.point.replication)),
                // Seeds may exceed 2^53; render as text to stay exact.
                ("seed".into(), Json::Str(row.point.seed.to_string())),
                (
                    "mean_latency_us".into(),
                    Json::Num(row.result.mean_latency_us),
                ),
                ("ci_us".into(), Json::Num(row.result.ci_us)),
                ("batches".into(), Json::from(row.result.batches)),
                ("measured".into(), Json::from(row.result.measured)),
                ("saturated".into(), Json::Bool(row.result.saturated)),
                ("converged".into(), Json::Bool(row.result.converged)),
                (
                    "sim_time_ns".into(),
                    Json::Num(row.result.sim_time_ns as f64),
                ),
                ("completed".into(), Json::from(row.result.completed)),
                ("flit_hops".into(), Json::Num(row.result.flit_hops as f64)),
                (
                    "engine_steps".into(),
                    Json::Num(row.result.engine_steps as f64),
                ),
            ])
        })
        .collect();
    let mut out = Json::Obj(vec![
        ("schema".into(), Json::from("mcast-serve-result-v1")),
        ("spec_name".into(), Json::from(spec.name.as_str())),
        ("rows".into(), Json::Arr(rows_json)),
    ])
    .to_json();
    out.push('\n');
    out
}

/// The chaos self-test's report card.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Specs submitted in the first (chaotic) phase.
    pub submitted: usize,
    /// Ledger replayed from the truncated journal after the kill.
    pub replayed: Ledger,
    /// Jobs the replay re-queued (incomplete at the kill).
    pub requeued: usize,
    /// Final ledger after the post-restart drain.
    pub ledger: Ledger,
    /// Re-submitted specs verified byte-identical from the cache.
    pub cache_verified: usize,
    /// Retry attempts across both phases.
    pub retried: u64,
}

impl std::fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "chaos: submitted={} requeued-after-kill={} retried={} cache-verified={} ledger: {}",
            self.submitted, self.requeued, self.retried, self.cache_verified, self.ledger
        )
    }
}

fn tiny_spec(name: &str, seed: u64, load_us: f64) -> ExperimentSpec {
    let topo = mcast_sim::registry::TopoSpec::parse("mesh:4x4").expect("static topo");
    let mut spec = ExperimentSpec::new(name, topo);
    spec.loads_us = vec![load_us];
    spec.destinations = 3;
    spec.replications = 1;
    spec.seed = seed;
    spec.stopping.warmup = 10;
    spec.stopping.batch_size = 10;
    spec.stopping.min_batches = 2;
    spec.stopping.max_batches = 3;
    spec
}

/// The built-in chaos self-test (`mcast serve --chaos`): a batch of
/// small jobs (including a poisoned spec, a duplicate, and a runaway
/// job that exceeds its step budget) runs under injected worker panics
/// and deadline stalls; mid-drain the journal is hard-killed; a second
/// server replays the truncated journal, re-runs the incomplete jobs,
/// and the ledger invariant plus byte-identical cache serving are
/// asserted. Returns the report, or the first violated invariant.
pub fn chaos_self_test(dir: &Path, seed: u64) -> Result<ChaosReport, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    // The batch, in submission order: a poisoned spec (malformed
    // JSON), a runaway (blows its step budget every attempt), eight
    // healthy tiny specs, and a duplicate of the first healthy one.
    // With `queue_cap: 8` the tail three submissions are shed, so the
    // poisoned and runaway jobs — submitted first — always run.
    let mut specs: Vec<String> = vec!["{\"name\": \"poisoned\", \"topology\":".to_string()];
    let mut runaway = tiny_spec("runaway", seed ^ 0xdead, 40.0);
    runaway.stopping.max_batches = 100_000;
    runaway.stopping.min_batches = 100_000;
    runaway.stopping.batch_size = 100;
    runaway.stopping.max_in_flight_per_node = 1_000_000;
    specs.push(runaway.to_json());
    for i in 0..8 {
        specs.push(
            tiny_spec(
                &format!("chaos-{i}"),
                seed ^ (i as u64),
                500.0 + 50.0 * i as f64,
            )
            .to_json(),
        );
    }
    specs.push(specs[2].clone());

    let chaos_cfg = ServeConfig {
        workers: 3,
        queue_cap: 8,
        deadline_ms: 300,
        step_budget: 2_000_000,
        retry: RetryPolicy {
            max_retries: 2,
            backoff_base_ms: 2,
            backoff_cap_ms: 20,
        },
        chaos: Some(ChaosConfig {
            seed,
            ..ChaosConfig::default()
        }),
        ..ServeConfig::default()
    };

    let server = JobServer::open(dir, chaos_cfg.clone()).map_err(|e| e.to_string())?;
    for text in &specs {
        server.submit_text(text).map_err(|e| e.to_string())?;
    }
    // Hard-kill the journal a handful of records into the drain: the
    // process "dies" mid-batch and every later record is lost.
    server.journal().crash_after_appends(6);
    server.run_until_drained();
    if !server.journal().is_frozen() {
        return Err("chaos kill never fired (journal not frozen)".into());
    }
    drop(server);

    // Simulate the torn final write a real kill can leave behind.
    {
        let path = dir.join("journal.log");
        let mut f = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| format!("cannot reopen journal: {e}"))?;
        f.write_all(b"{\"rec\":\"done\",\"job\":")
            .map_err(|e| format!("cannot append torn line: {e}"))?;
    }

    // Restart: replay the truncated journal, re-run incomplete jobs
    // without chaos, and drain fully.
    let recover_cfg = ServeConfig {
        chaos: None,
        deadline_ms: 2_000,
        ..chaos_cfg
    };
    let server = JobServer::open(dir, recover_cfg).map_err(|e| e.to_string())?;
    let replayed = server.ledger();
    let requeued = server.queued();
    server.run_until_drained();

    let ledger = server.ledger();
    if !ledger.balanced() {
        return Err(format!("ledger does not balance after recovery: {ledger}"));
    }
    if ledger.accepted != specs.len() as u64 {
        return Err(format!(
            "jobs lost: accepted {} of {} submitted",
            ledger.accepted,
            specs.len()
        ));
    }
    let outcomes = server.outcomes();
    if outcomes.len() as u64 != ledger.accepted {
        return Err(format!(
            "outcome coverage hole: {} outcomes for {} accepted jobs",
            outcomes.len(),
            ledger.accepted
        ));
    }
    if ledger.shed != 3 {
        return Err(format!(
            "admission control drift: expected 3 shed with queue_cap 8, got {}",
            ledger.shed
        ));
    }

    // Cache checks: re-submitting a completed spec must be served from
    // the cache, byte-identical to the stored result.
    let mut cache_verified = 0;
    for text in specs.iter().skip(2).take(8) {
        let Some(stored) = server.cached_result(text) else {
            continue; // shed or failed under chaos — no result to serve
        };
        let (_, status) = server.submit_text(text).map_err(|e| e.to_string())?;
        if status != SubmitStatus::Cached {
            return Err(format!("completed spec not served from cache: {status:?}"));
        }
        let served = server
            .cached_result(text)
            .ok_or("cache entry vanished on re-submit")?;
        if served != stored {
            return Err("cache re-serve is not byte-identical".into());
        }
        cache_verified += 1;
    }
    if cache_verified == 0 {
        return Err("no job survived chaos to verify the cache with".into());
    }
    let final_ledger = server.ledger();
    if !final_ledger.balanced() {
        return Err(format!(
            "ledger does not balance after cache re-serves: {final_ledger}"
        ));
    }
    let metrics = server.metrics_registry();
    let retried = match metrics.get("service.jobs.retried") {
        Some(mcast_obs::MetricValue::Counter(c)) => c.get(),
        _ => 0,
    };
    Ok(ChaosReport {
        submitted: specs.len(),
        replayed,
        requeued,
        ledger: final_ledger,
        cache_verified,
        retried,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mcast-serve-test-{}-{name}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clear test dir");
        }
        dir
    }

    #[test]
    fn compact_json_lines_parse_back() {
        let rec = Json::Obj(vec![
            ("rec".into(), Json::from("accept")),
            ("job".into(), Json::Num(3.0)),
            ("spec".into(), Json::Str("{\n  \"name\": \"x\"\n}\n".into())),
        ]);
        let mut line = String::new();
        compact_json(&rec, &mut line);
        assert!(!line.contains('\n'), "journal record must be one line");
        let back = Json::parse(&line).expect("compact record parses");
        assert_eq!(
            back.get("spec").unwrap().as_str().unwrap(),
            "{\n  \"name\": \"x\"\n}\n"
        );
    }

    #[test]
    fn backoff_mirrors_recovery_discipline() {
        let retry = RetryPolicy {
            max_retries: 8,
            backoff_base_ms: 100,
            backoff_cap_ms: 1000,
        };
        assert_eq!(retry.backoff_ms(1), 100);
        assert_eq!(retry.backoff_ms(2), 200);
        assert_eq!(retry.backoff_ms(3), 400);
        assert_eq!(retry.backoff_ms(5), 1000, "capped");
        assert_eq!(retry.backoff_ms(40), 1000, "shift clamp holds");
        // Jitter is deterministic and bounded.
        assert_eq!(retry.jitter_ms(7, 2), retry.jitter_ms(7, 2));
        assert!(retry.jitter_ms(7, 2) <= 6 * (100 / 4));
    }

    #[test]
    fn submit_run_complete_and_cache_round_trip() {
        let dir = test_dir("basic");
        let server = JobServer::open(&dir, ServeConfig::default()).unwrap();
        let spec = tiny_spec("basic", 11, 600.0).to_json();
        let (id, status) = server.submit_text(&spec).unwrap();
        assert_eq!(status, SubmitStatus::Queued);
        server.run_until_drained();
        let ledger = server.ledger();
        assert!(ledger.balanced(), "{ledger}");
        assert_eq!(ledger.completed, 1);
        assert_eq!(
            server.outcomes().get(&id),
            Some(&JobOutcome::Completed { cached: false })
        );
        let result = server.cached_result(&spec).expect("result cached");
        mcast_obs::validate_json(&result).expect("result is valid JSON");
        // Re-submit: served from cache, byte-identical.
        let (_, status) = server.submit_text(&spec).unwrap();
        assert_eq!(status, SubmitStatus::Cached);
        assert_eq!(server.cached_result(&spec).unwrap(), result);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn poisoned_spec_fails_with_diagnostic_not_retry() {
        let dir = test_dir("poison");
        let server = JobServer::open(&dir, ServeConfig::default()).unwrap();
        server.submit_text("{\"name\": \"broken\"").unwrap();
        server.run_until_drained();
        let ledger = server.ledger();
        assert!(ledger.balanced(), "{ledger}");
        assert_eq!(ledger.failed, 1);
        let outcomes = server.outcomes();
        let JobOutcome::Failed { diagnostic } = &outcomes[&0] else {
            panic!("expected failure, got {:?}", outcomes[&0]);
        };
        assert!(diagnostic.contains("spec rejected"), "{diagnostic}");
        // Permanent failures must not burn retries.
        let reg = server.metrics_registry();
        let Some(mcast_obs::MetricValue::Counter(retried)) = reg.get("service.jobs.retried") else {
            panic!("retried counter missing");
        };
        assert_eq!(retried.get(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn admission_control_sheds_past_queue_cap() {
        let dir = test_dir("shed");
        let cfg = ServeConfig {
            queue_cap: 2,
            ..ServeConfig::default()
        };
        let server = JobServer::open(&dir, cfg).unwrap();
        let mut statuses = Vec::new();
        for i in 0..4 {
            let spec = tiny_spec(&format!("shed-{i}"), i, 700.0).to_json();
            statuses.push(server.submit_text(&spec).unwrap().1);
        }
        assert_eq!(
            statuses,
            vec![
                SubmitStatus::Queued,
                SubmitStatus::Queued,
                SubmitStatus::Shed,
                SubmitStatus::Shed
            ]
        );
        server.run_until_drained();
        let ledger = server.ledger();
        assert!(ledger.balanced(), "{ledger}");
        assert_eq!(ledger.shed, 2);
        assert_eq!(ledger.completed, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_replay_requeues_incomplete_and_serves_completed() {
        let dir = test_dir("replay");
        let spec_a = tiny_spec("replay-a", 21, 600.0).to_json();
        let spec_b = tiny_spec("replay-b", 22, 650.0).to_json();
        let result_a;
        {
            let server = JobServer::open(&dir, ServeConfig::default()).unwrap();
            server.submit_text(&spec_a).unwrap();
            server.run_until_drained();
            result_a = server.cached_result(&spec_a).expect("a completed");
            // Freeze, then submit b: its accept record is lost — the
            // "crash before the accept was acknowledged" case.
            // Instead simulate the acknowledged-but-incomplete case:
            // submit b first, then freeze before it runs.
        }
        {
            let server = JobServer::open(&dir, ServeConfig::default()).unwrap();
            server.submit_text(&spec_b).unwrap();
            server.journal().freeze();
            // The server "dies" before running b: drop without drain.
        }
        let server = JobServer::open(&dir, ServeConfig::default()).unwrap();
        assert_eq!(server.queued(), 1, "incomplete job re-queued");
        assert_eq!(
            server.cached_result(&spec_a),
            Some(result_a.clone()),
            "completed job served from replayed cache"
        );
        server.run_until_drained();
        let ledger = server.ledger();
        assert!(ledger.balanced(), "{ledger}");
        assert_eq!(ledger.accepted, 2);
        assert_eq!(ledger.completed, 2);
        assert!(server.cached_result(&spec_b).is_some());
        // Determinism across the restart: a fresh server in a fresh
        // dir produces byte-identical results for the same spec.
        let dir2 = test_dir("replay2");
        let fresh = JobServer::open(&dir2, ServeConfig::default()).unwrap();
        fresh.submit_text(&spec_a).unwrap();
        fresh.run_until_drained();
        assert_eq!(fresh.cached_result(&spec_a), Some(result_a));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }

    #[test]
    fn step_budget_exhaustion_is_transient_then_fails() {
        let dir = test_dir("budget");
        let cfg = ServeConfig {
            step_budget: 5_000,
            retry: RetryPolicy {
                max_retries: 1,
                backoff_base_ms: 1,
                backoff_cap_ms: 2,
            },
            ..ServeConfig::default()
        };
        let server = JobServer::open(&dir, cfg).unwrap();
        let mut spec = tiny_spec("heavy", 31, 100.0);
        spec.stopping.max_batches = 10_000;
        spec.stopping.min_batches = 10_000;
        spec.stopping.max_in_flight_per_node = 1_000_000;
        server.submit_text(&spec.to_json()).unwrap();
        server.run_until_drained();
        let ledger = server.ledger();
        assert!(ledger.balanced(), "{ledger}");
        assert_eq!(ledger.failed, 1);
        let outcomes = server.outcomes();
        let JobOutcome::Failed { diagnostic } = &outcomes[&0] else {
            panic!("expected failure");
        };
        assert!(
            diagnostic.contains("step budget"),
            "diagnostic names the budget: {diagnostic}"
        );
        assert!(
            diagnostic.contains("retry budget exhausted"),
            "transient path retried first: {diagnostic}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_self_test_invariants_hold() {
        let dir = test_dir("chaos");
        let report = chaos_self_test(&dir, 0xc4a05).unwrap_or_else(|e| panic!("{e}"));
        assert!(report.ledger.balanced());
        assert_eq!(report.submitted, 11);
        assert!(report.cache_verified > 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
