//! The repository benchmark: one command, two workloads, end-to-end
//! metrics from untraced runs and per-layer metrics from traced ones.
//!
//! ```text
//! perfbench --workload dense-1k|checker-ci --seed N --seconds S --trace 0|1
//!           [--git-rev R] [--rustc V] [--write-expected]
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. The line
//! before it records the run (workload, seed, traced, host cores, git rev,
//! rustc). Spans and per-operation figures go to a record file in
//! `.bench_out/`. The exit code is 0 only when every operation ran and every
//! output matched; 1 when one did not; 2 on a usage error.
//!
//! `python3 perfbench/run.py` builds this binary and runs it; see
//! `perfbench/README.md` for the workloads.

mod checker;
mod dense;
mod gate;
mod report;
mod span;
mod stats;
mod sys;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use gate::{Gate, Outputs};
use report::{json_str, nproc, ratio, Layer, Op, Tally, END_TO_END, PER_LAYER};
use span::Recorder;
use stats::{mean, median, quartiles, tail_percentile};

/// Where each run's record file goes, relative to the repository root.
const OUT_DIR: &str = ".bench_out";

#[derive(Clone, Copy)]
enum Workload {
    Dense1k,
    CheckerCi,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::Dense1k, Workload::CheckerCi];

    fn name(self) -> &'static str {
        match self {
            Workload::Dense1k => "dense-1k",
            Workload::CheckerCi => "checker-ci",
        }
    }

    /// The output sections its runs produce and are checked on.
    fn sections(self) -> &'static [&'static str] {
        match self {
            Workload::Dense1k => &["summary", "counts", "mem"],
            Workload::CheckerCi => &["check"],
        }
    }

    /// Whether its inputs depend on the seed. The checker's config set is
    /// fixed, so its expected outputs hold at every seed.
    fn seeded(self) -> bool {
        match self {
            Workload::Dense1k => true,
            Workload::CheckerCi => false,
        }
    }

    /// One operation of an untraced run; every operation of a workload is
    /// the same work.
    fn op(self, seed: u64, rec: &mut Recorder, tally: &mut Tally) -> Option<Op> {
        match self {
            Workload::Dense1k => dense::pass(seed, rec, tally),
            Workload::CheckerCi => tally.op(rec, "checker pass", checker::configs(), checker::pass),
        }
    }

    /// The traced run: every per-layer pass once.
    fn traced(
        self,
        seed: u64,
        rec: &mut Recorder,
        tally: &mut Tally,
        layer: &mut Layer,
    ) -> Outputs {
        match self {
            Workload::Dense1k => dense::traced(seed, rec, tally, layer),
            Workload::CheckerCi => checker::traced(rec, tally, layer),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    git_rev: String,
    rustc: String,
    write_expected: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: Workload::Dense1k,
        seed: gate::GOLDEN_SEED,
        seconds: 35.0,
        trace: false,
        git_rev: "unknown".to_string(),
        rustc: "unknown".to_string(),
        write_expected: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-expected" {
            a.write_expected = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |what: &str| format!("{flag}: not {what}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                a.workload = Workload::ALL
                    .into_iter()
                    .find(|w| w.name() == value)
                    .ok_or_else(|| {
                        format!("--workload: not one of dense-1k, checker-ci: {value:?}")
                    })?
            }
            "--seed" => a.seed = value.parse().map_err(|_| num("an integer"))?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| num("a number"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(num("in (0, 600]"));
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(num("0 or 1")),
                }
            }
            "--git-rev" => a.git_rev = value,
            "--rustc" => a.rustc = value,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.write_expected && !a.trace {
        return Err(
            "--write-expected needs --trace 1 (the traced run records every output)".into(),
        );
    }
    Ok(a)
}

/// Repeats the workload's operation for `seconds`, starting another only
/// while it is expected to end inside the window (or exactly once when
/// recording expected outputs). At least one operation runs.
fn untraced(a: &Args, rec: &mut Recorder, tally: &mut Tally, gate: &mut Gate) -> Vec<Op> {
    let start = Instant::now();
    let mut ops: Vec<Op> = Vec::new();
    for k in 0.. {
        rec.set_run(k as u32);
        let t0 = Instant::now();
        if let Some(op) = a.workload.op(a.seed, rec, tally) {
            let what = format!("operation {k}");
            gate.check(&what, &op.outputs, a.workload.sections(), tally);
            ops.push(op);
        }
        if a.write_expected
            || start.elapsed().as_secs_f64() + t0.elapsed().as_secs_f64() > a.seconds
        {
            break;
        }
    }
    ops
}

/// The end-to-end metrics of an untraced run and, for the record file,
/// each operation's figures with the quartiles and tail percentile of
/// `run_s`.
///
/// Every operation of a run is the same work, so the times are those of
/// the fastest operation: other tenants of a shared host only ever add
/// time, and the fastest of identical operations carries the least of
/// it. `setup_s` is the median set-up of the run's items and
/// `peak_rss_mib` their mean peak.
fn end_to_end(ops: &[Op], tally: &Tally) -> (Vec<f64>, String) {
    let items = |f: fn(&Op) -> &[f64]| ops.iter().flat_map(f).copied().collect::<Vec<f64>>();
    let best = |f: fn(&Op) -> f64, pick: fn(f64, f64) -> f64| {
        ops.iter().map(f).reduce(pick).unwrap_or(0.0)
    };
    let med = |xs: Vec<f64>| if xs.is_empty() { 0.0 } else { median(&xs) };
    let metrics = vec![
        med(items(|o| &o.setups)),
        best(|o| o.run_s, f64::min),
        best(|o| o.cpu_s, f64::min),
        mean(&items(|o| &o.peaks)),
        tally.ok_share(),
        best(|o| ratio(o.work, o.run_s), f64::max),
    ];
    let mut record = String::from(",\n  \"ops\": [");
    for (k, o) in ops.iter().enumerate() {
        let _ = write!(
            record,
            "{}\n    {{\"setups\": {:?}, \"run_s\": {}, \"cpu_s\": {}, \"work\": {}, \
             \"peaks\": {:?}}}",
            if k > 0 { "," } else { "" },
            o.setups,
            o.run_s,
            o.cpu_s,
            o.work,
            o.peaks
        );
    }
    record.push_str("\n  ]");
    let runs: Vec<f64> = ops.iter().map(|o| o.run_s).collect();
    if runs.len() >= 2 {
        let q = quartiles(&runs);
        let _ = write!(
            record,
            ",\n  \"run_s_quartiles\": [{}, {}, {}]",
            q[0], q[1], q[2]
        );
    }
    if let Some((p, v)) = tail_percentile(&runs) {
        let _ = write!(
            record,
            ",\n  \"run_s_tail\": {{\"percentile\": {p}, \"value\": {v}}}"
        );
    }
    (metrics, record)
}

/// A JSON number; a non-finite value (a ratio of nothing) reads 0.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = a.workload;
    let golden = match gate::golden(w.name(), w.seeded().then_some(a.seed)) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let meta = format!(
        "{{\"workload\": {}, \"seed\": {}, \"traced\": {}, \"seconds\": {}, \"nproc\": {}, \
         \"git_rev\": {}, \"rustc\": {}, \"golden_seed\": {}, \"held_out_seed\": {}}}",
        json_str(w.name()),
        a.seed,
        a.trace,
        a.seconds,
        nproc(),
        json_str(&a.git_rev),
        json_str(&a.rustc),
        gate::GOLDEN_SEED,
        gate::HELD_OUT_SEED
    );
    println!("{{\"meta\": {meta}}}");

    let mut rec = Recorder::new();
    let mut tally = Tally::default();
    let mut layer = Layer::new();
    // Recording expected outputs compares nothing with the old ones: it
    // runs one untraced operation, then the traced passes,
    // which must agree with them.
    let mut gate = Gate::new(golden.as_ref().filter(|_| !a.write_expected));
    let mut ops = Vec::new();
    if !a.trace || a.write_expected {
        ops = untraced(&a, &mut rec, &mut tally, &mut gate);
    }
    if a.trace {
        let outputs = w.traced(a.seed, &mut rec, &mut tally, &mut layer);
        gate.check("traced run", &outputs, w.sections(), &mut tally);
    }
    let self_test_ok = gate.self_test_ok(w.sections());
    if !self_test_ok {
        tally
            .failures
            .push("gate self-test: an altered expected value went unreported".into());
    }
    let correct = tally.failed == 0 && self_test_ok;
    let (values, record) = if a.trace {
        (layer.values(), String::new())
    } else {
        end_to_end(&ops, &tally)
    };

    if a.write_expected && correct {
        let path = format!("{}/expected/{}.txt", env!("CARGO_MANIFEST_DIR"), w.name());
        if let Err(e) = std::fs::write(&path, gate::render(w.name(), a.seed, &gate.seen)) {
            eprintln!("perfbench: writing {path}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("perfbench: wrote {path}");
    }

    let names: Vec<(&str, &str)> = if a.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let mut metrics = String::new();
    for (k, ((name, unit), v)) in names.iter().zip(&values).enumerate() {
        let _ = write!(
            metrics,
            "{}{}: {{\"value\": {}, \"unit\": {}}}",
            if k > 0 { ", " } else { "" },
            json_str(name),
            json_num(*v),
            json_str(unit)
        );
    }
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        tally.attempted.max(1),
        tally.failed.min(tally.attempted.max(1))
    );

    for f in &tally.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    let failures: Vec<String> = tally.failures.iter().map(|f| json_str(f)).collect();
    let file = format!(
        "{OUT_DIR}/{}-seed{}-trace{}.json",
        w.name(),
        a.seed,
        u8::from(a.trace)
    );
    let body = format!(
        "{{\n  \"meta\": {meta},\n  \"result\": {result},\n  \"failures\": [{}],\n  \
         \"samples\": {}{record},\n  \"spans\": {}\n}}\n",
        failures.join(", "),
        ops.len(),
        rec.to_json()
    );
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&file, body)) {
        eprintln!("perfbench: writing {file}: {e}");
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
