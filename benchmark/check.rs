//! The correctness gate: the work fingerprint of a run, its exact
//! expected value at the default seed (`expected.json`), and the checks
//! that hold at every seed.

use mcast_obs::{Histogram, Json};
use mcast_workload::{DynamicResult, SweepRow};

use crate::workloads::Scale;

/// The seed `expected.json` records fingerprints for.
pub const DEFAULT_SEED: u64 = 7;

const EXPECTED: &str = include_str!("expected.json");

/// The host-independent work a run did, exact at a fixed seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Work {
    pub engine_steps: u64,
    pub flit_hops: u64,
    pub sim_ns: u64,
    pub completed: u64,
    pub hist_digest: u64,
}

fn fnv1a(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A digest of a latency histogram through its public surface: count,
/// sum, min, max and every permille quantile.
pub fn hist_digest(h: &Histogram) -> u64 {
    let mut d = [h.count(), h.sum(), h.min(), h.max()]
        .iter()
        .fold(FNV_OFFSET, |d, &w| fnv1a(d, w));
    for i in 1..1000 {
        d = fnv1a(d, h.quantile(i as f64 / 1000.0));
    }
    d
}

impl Work {
    pub fn of(r: &DynamicResult) -> Work {
        Work {
            engine_steps: r.engine_steps,
            flit_hops: r.flit_hops,
            sim_ns: r.sim_time_ns,
            completed: r.completed as u64,
            hist_digest: hist_digest(&r.latency_hist_ns),
        }
    }

    /// Sums over a sweep's points; the digest chains the points'
    /// histogram digests in canonical point order.
    pub fn of_points<'a>(results: impl IntoIterator<Item = &'a DynamicResult>) -> Work {
        let mut w = Work {
            engine_steps: 0,
            flit_hops: 0,
            sim_ns: 0,
            completed: 0,
            hist_digest: FNV_OFFSET,
        };
        for r in results {
            let p = Work::of(r);
            w.engine_steps += p.engine_steps;
            w.flit_hops += p.flit_hops;
            w.sim_ns += p.sim_ns;
            w.completed += p.completed;
            w.hist_digest = fnv1a(w.hist_digest, p.hist_digest);
        }
        w
    }

    /// The `expected.json` entry form.
    pub fn to_json(self) -> String {
        format!(
            "{{\"engine_steps\": {}, \"flit_hops\": {}, \"sim_ns\": {}, \"completed\": {}, \"hist_digest\": \"{:016x}\"}}",
            self.engine_steps, self.flit_hops, self.sim_ns, self.completed, self.hist_digest
        )
    }

    fn from_json(j: &Json) -> Option<Work> {
        let num = |k: &str| j.get(k)?.as_num().map(|x| x as u64);
        Some(Work {
            engine_steps: num("engine_steps")?,
            flit_hops: num("flit_hops")?,
            sim_ns: num("sim_ns")?,
            completed: num("completed")?,
            hist_digest: u64::from_str_radix(j.get("hist_digest")?.as_str()?, 16).ok()?,
        })
    }
}

/// The checked-in fingerprint of `workload` at the default seed.
pub fn expected(workload: &str, scale: Scale) -> Option<Work> {
    let doc = Json::parse(EXPECTED).expect("expected.json is valid JSON");
    let section = match scale {
        Scale::Full => "full",
        Scale::Check => "check",
    };
    Work::from_json(doc.get(section)?.get(workload)?)
}

/// Failed checks of one workload run, as readable messages.
#[derive(Debug, Default)]
pub struct Failures(pub Vec<String>);

impl Failures {
    pub fn require(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.0.push(msg());
        }
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Holds `work` equal to the checked-in fingerprint when `seed` is
    /// the default one.
    pub fn fingerprint(&mut self, workload: &str, scale: Scale, seed: u64, work: &Work) {
        if seed != DEFAULT_SEED {
            return;
        }
        match expected(workload, scale) {
            Some(want) => self.require(want == *work, || {
                format!(
                    "fingerprint mismatch: expected {} got {}",
                    want.to_json(),
                    work.to_json()
                )
            }),
            None => self.0.push(format!(
                "no expected.json entry; this run gives \"{workload}\": {}",
                work.to_json()
            )),
        }
    }

    /// The checks every message-bound streaming run must pass.
    pub fn stream(&mut self, r: &DynamicResult, messages: u64, cap: usize, warmup: usize) {
        self.require(!r.saturated && !r.budget_exhausted, || {
            "run stopped before draining (saturated or out of budget)".into()
        });
        self.require(r.completed as u64 == messages, || {
            format!("completed {} of {messages} injected", r.completed)
        });
        self.require(r.peak_in_flight <= cap, || {
            format!("peak in flight {} above the cap {cap}", r.peak_in_flight)
        });
        let want = r.completed.saturating_sub(warmup) as u64;
        self.require(r.latency_hist_ns.count() == want, || {
            format!(
                "histogram holds {} samples, expected completed - warmup = {want}",
                r.latency_hist_ns.count()
            )
        });
    }

    /// The checks every sweep point must pass.
    pub fn sweep(&mut self, rows: &[SweepRow], points: usize, warmup: usize) {
        self.require(rows.len() == points, || {
            format!("sweep returned {} of {points} points", rows.len())
        });
        for row in rows {
            let r = &row.result;
            self.require(!r.budget_exhausted, || {
                format!("point {:?} stopped by a budget", row.point)
            });
            let want = r.completed.saturating_sub(warmup) as u64;
            self.require(r.latency_hist_ns.count() == want, || {
                format!(
                    "point {:?}: histogram holds {} samples, expected {want}",
                    row.point,
                    r.latency_hist_ns.count()
                )
            });
        }
    }
}
