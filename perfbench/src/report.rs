//! What a run measures and how it is reported: the metric lists, one
//! operation's measurements, the failure tally and the per-layer table.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

use crate::gate::{self, mismatches, Outputs};
use crate::span::Recorder;
use crate::sys;

/// End-to-end metrics (untraced runs), in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_share", "share"),
    ("work_per_s", "1/s"),
];

/// Per-layer metrics (traced runs), in `BENCHMARK.json` order. A metric
/// of a layer or pass that a workload does not run reads 0 there.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("runner.sim_new_s", "s"),
    ("mobility.generate_s", "s"),
    ("traffic.generate_s", "s"),
    ("runner.tracker_new_s", "s"),
    ("runner.setup_unattributed_share", "share"),
    ("radio.medium_s", "s"),
    ("radio.signal_s", "s"),
    ("radio.mac_s", "s"),
    ("protocols.proto_s", "s"),
    ("trace.unattributed_share", "share"),
    ("trace.overhead_ratio", "ratio"),
    ("netsim.events", "count"),
    ("netsim.events_per_s", "1/s"),
    ("radio.transmissions", "count"),
    ("radio.collisions", "count"),
    ("radio.mac_drops", "count"),
    ("protocols.control_sent", "count"),
    ("protocols.discoveries", "count"),
    ("protocols.seqno_increments", "count"),
    ("core.max_fd_denominator", "count"),
    ("traffic.delivery_ratio", "share"),
    ("mem.proto_bytes_per_node", "B/node"),
    ("mem.mac_bytes_per_node", "B/node"),
    ("mem.channel_bytes_per_node", "B/node"),
    ("mem.spatial_bytes_per_node", "B/node"),
    ("mem.queue_bytes", "B"),
    ("mem.total_bytes_per_node", "B/node"),
    ("runner.oracle_s", "s"),
    ("runner.oracle_checks", "count"),
    ("par.mean_width", "count"),
    ("par.multi_share", "share"),
    ("par.spec_hits", "count"),
    ("par.wall_ratio", "ratio"),
    ("par.cpu_ratio", "ratio"),
    ("check.states", "count"),
    ("check.transitions", "count"),
    ("check.dedup_ratio", "share"),
    ("check.proto_s", "s"),
    ("check.canonical_s", "s"),
    ("check.other_s", "s"),
];

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Threads the benchmark may load: the host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One untraced operation: a pass over the workload's fixed list of
/// trials or checker configs. Each time is a sum over the list.
#[derive(Default)]
pub struct Op {
    /// For each item, the time from its start until its run call is
    /// entered.
    pub setups: Vec<f64>,
    /// Wall time of the run calls.
    pub run_s: f64,
    /// CPU time of the whole process during the run calls.
    pub cpu_s: f64,
    /// Units of work the run calls finished (events or distinct states).
    pub work: f64,
    /// For each item, the peak resident memory while it ran, in MiB.
    pub peaks: Vec<f64>,
    pub outputs: Outputs,
}

/// Restarts the peak-RSS mark, so that [`sys::peak_rss_mib`] read after
/// an item's run covers that item (its set-up is already resident).
/// Where the mark cannot be reset, a warning is printed once and the peak
/// covers the run so far.
pub fn reset_peak() {
    static WARNED: AtomicBool = AtomicBool::new(false);
    if let Err(e) = sys::reset_peak_rss() {
        if !WARNED.swap(true, Ordering::Relaxed) {
            eprintln!("perfbench: peak RSS covers the whole run: {e}");
        }
    }
}

/// Operations attempted and failed, with a line per failure.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Runs one operation covering `items` trials or configs, each of
    /// which counts as attempted; a panic is caught and fails them all.
    pub fn op<T>(
        &mut self,
        rec: &mut Recorder,
        what: &str,
        items: usize,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> Option<T> {
        self.attempted += items as u64;
        let span = rec.open(format!("op {what}"));
        let out = catch_unwind(AssertUnwindSafe(|| f(&mut *rec)));
        rec.close(span);
        match out {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += items as u64;
                self.failures
                    .push(format!("{what}: panicked: {}", panic_text(&*e)));
                None
            }
        }
    }

    /// Compares `actual` against `expected` on `sections`; every item
    /// (trial or config) with a differing key counts as one failure.
    pub fn agree(&mut self, what: &str, expected: &Outputs, actual: &Outputs, sections: &[&str]) {
        let found = mismatches(expected, actual, sections);
        let items: BTreeSet<&str> = found
            .iter()
            .map(|m| gate::item(m.split(':').next().unwrap_or(m)))
            .collect();
        self.failed += items.len() as u64;
        for m in found.iter().take(20) {
            self.failures.push(format!("{what}: {m}"));
        }
        if found.len() > 20 {
            self.failures
                .push(format!("{what}: {} more differences", found.len() - 20));
        }
    }

    /// Counts one failed item, described by `msg`.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.failures.push(msg);
    }

    pub fn ok_share(&self) -> f64 {
        1.0 - self.failed.min(self.attempted) as f64 / self.attempted.max(1) as f64
    }
}

fn panic_text(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// The per-layer table of a traced run, every metric present.
pub struct Layer {
    values: BTreeMap<&'static str, f64>,
}

impl Layer {
    pub fn new() -> Self {
        Layer {
            values: PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect(),
        }
    }

    /// Sets a declared per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        *self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name}")) = value;
    }

    /// Every metric's value, in [`PER_LAYER`] order.
    pub fn values(&self) -> Vec<f64> {
        PER_LAYER
            .iter()
            .map(|(name, _)| self.values[name])
            .collect()
    }
}
