//! The `dense-1k` workload: SRP trials of the `dense` family at N=1000,
//! a fixed list of them per operation.
//!
//! The benchmark drives the program only through its public entry
//! points: `SweepConfig::scenario_for`, `Sim::new`, the `Sim::run*`
//! family, and the public constructors `Sim::new` calls.

use slr_mobility::MobilityScript;
use slr_netsim::rng::stream;
use slr_netsim::time::{SimDuration, SimTime};
use slr_runner::{
    EngineKind, Family, MemReport, Metrics, MobilitySpec, PositionTracker, ProtocolKind, Scenario,
    Sim, SweepConfig, SweepParam, TopologySpec, TrialSummary,
};
use slr_traffic::TrafficScript;

use crate::gate::Outputs;
use crate::report::{nproc, ratio, reset_peak, Layer, Op, Tally};
use crate::span::Recorder;
use crate::stats::median;
use crate::sys::{cpu_s, peak_rss_mib};

/// Trials in one operation: every operation measures trials
/// `0..TRIALS` of the seed's scenario, so every run measures the same
/// list whatever its speed. One trial's cost varies by about ±15 % with
/// its route lengths and flow placement; a list of eight keeps most of
/// that out of the seed-to-seed spread.
pub const TRIALS: u64 = 8;

/// Times the set-up split is repeated; each part reports its median, so
/// a cold first call does not skew the split.
const SPLIT_REPS: usize = 3;

/// Virtual-time spacing of the loop-freedom oracle's checks, as
/// `slrsim --oracle` uses.
const ORACLE_INTERVAL_S: u64 = 1;

/// Trial `trial` of the `dense` family at N=1000 under `seed`: SRP,
/// random waypoint at 20 m/s without pauses, 40 s simulated.
fn scenario(seed: u64, trial: u64) -> Scenario {
    let cfg = SweepConfig {
        seed,
        trials: 1,
        family: Family::Dense,
        param: SweepParam::Nodes,
        values: vec![1000],
        threads: 1,
        ..SweepConfig::default()
    };
    cfg.scenario_for(ProtocolKind::Srp, 1000, trial)
}

/// A trial's name in output keys: protocol, node count, trial index.
fn item(scn: &Scenario) -> String {
    format!("{}-{}-{}", scn.protocol.name(), scn.nodes, scn.trial)
}

fn put_summary(out: &mut Outputs, id: &str, s: &TrialSummary) {
    out.insert(format!("summary.{id}"), format!("{s:?}"));
}

fn put_counts(out: &mut Outputs, id: &str, m: &Metrics) {
    let counts = [
        ("events", m.sim_events),
        ("transmissions", transmissions(m)),
        ("collisions", m.collisions),
        ("mac_drops", m.mac_drops),
        ("control_sent", m.control_sent),
        ("discoveries", m.discoveries),
        ("seqno_increments", m.seqno_increments_total),
    ];
    for (k, v) in counts {
        out.insert(format!("counts.{id}.{k}"), v.to_string());
    }
}

fn put_mem(out: &mut Outputs, id: &str, r: &MemReport) {
    let bytes = [
        ("proto_bytes", r.proto_bytes),
        ("mac_bytes", r.mac_bytes),
        ("channel_bytes", r.channel_bytes),
        ("spatial_bytes", r.spatial_bytes),
        ("queue_bytes", r.queue_bytes),
        ("metrics_bytes", r.metrics_bytes),
    ];
    for (k, v) in bytes {
        out.insert(format!("mem.{id}.{k}"), v.to_string());
    }
}

/// Frames put on the air: data frames (retries included) plus routing
/// control packets, as `bench_events` counts them.
fn transmissions(m: &Metrics) -> u64 {
    m.mac_tx_data + m.control_sent
}

/// What the plain run of a trial produced.
struct Reference {
    summary: TrialSummary,
    metrics: Metrics,
    mem: MemReport,
    run_s: f64,
    cpu_s: f64,
    outputs: Outputs,
}

/// Runs a built trial the plain way, batched engine, through
/// `Sim::run_with_mem_report` (a run plus an end-of-run capacity read).
fn run_plain(scn: &Scenario, sim: Sim, rec: &mut Recorder) -> Reference {
    let cpu0 = cpu_s();
    let ((summary, metrics, mem), run_s) = rec.time("run", |_| sim.run_with_mem_report());
    let cpu_s = cpu_s() - cpu0;
    let id = item(scn);
    let mut outputs = Outputs::new();
    put_summary(&mut outputs, &id, &summary);
    put_counts(&mut outputs, &id, &metrics);
    put_mem(&mut outputs, &id, &mem);
    Reference {
        summary,
        metrics,
        mem,
        run_s,
        cpu_s,
        outputs,
    }
}

/// One untraced operation: trials `0..TRIALS` in order, each set up by
/// `Sim::new` on its generated scenario and run plainly. Its figures are
/// sums over the trials. `None` when a trial panicked (counted in
/// `tally`), since a partial list is not comparable.
pub fn pass(seed: u64, rec: &mut Recorder, tally: &mut Tally) -> Option<Op> {
    let mut op = Op::default();
    for trial in 0..TRIALS {
        let scn = scenario(seed, trial);
        let id = item(&scn);
        let (setup_s, r, peak) = tally.op(rec, &id, 1, |rec| {
            let (sim, setup_s) = rec.time("setup", |_| Sim::new(scn));
            reset_peak();
            let r = run_plain(&scn, sim, rec);
            (setup_s, r, peak_rss_mib())
        })?;
        let s = &r.summary;
        if s.originated == 0 || s.delivered > s.originated || r.metrics.sim_events == 0 {
            tally.fail(format!(
                "{id}: implausible outputs: {} originated, {} delivered, {} events",
                s.originated, s.delivered, r.metrics.sim_events
            ));
        }
        op.setups.push(setup_s);
        op.peaks.push(peak);
        op.run_s += r.run_s;
        op.cpu_s += r.cpu_s;
        op.work += r.metrics.sim_events as f64;
        op.outputs.extend(r.outputs);
    }
    Some(op)
}

/// Wall-clock split of `Sim::new`, from the public constructors it calls
/// timed one by one on the same scenario: (sim_new, mobility, traffic,
/// tracker) seconds.
fn setup_split(scn: Scenario, rec: &mut Recorder) -> [f64; 4] {
    let master = scn.master_seed();
    let n = scn.nodes;
    let (mobility, mob_s) =
        rec.time("mobility.generate", |_| {
            match (scn.mobility, scn.topology) {
                (MobilitySpec::RandomWaypoint { .. }, TopologySpec::UniformRandom) => {
                    MobilityScript::generate(
                        n,
                        &scn.waypoint_config().expect("waypoint mobility"),
                        &mut stream(master, "mobility", 0),
                    )
                }
                (MobilitySpec::RandomWaypoint { .. }, topology) => {
                    let starts =
                        topology.positions(n, &scn.terrain, &mut stream(master, "topology", 0));
                    let mut cfg = scn.waypoint_config().expect("waypoint mobility");
                    cfg.terrain = topology.enclosing_terrain(n, scn.terrain);
                    MobilityScript::generate_from(&starts, &cfg, &mut stream(master, "mobility", 0))
                }
                (MobilitySpec::Static, topology) => MobilityScript::stationary(
                    &topology.positions(n, &scn.terrain, &mut stream(master, "topology", 0)),
                ),
            }
        });
    let (traffic, traffic_s) = rec.time("traffic.generate", |_| match scn.traffic.locality_m {
        None => {
            TrafficScript::generate(n, &scn.traffic_config(), &mut stream(master, "traffic", 0))
        }
        Some(max_dist_m) => TrafficScript::generate_local(
            &scn.traffic_config(),
            &mut stream(master, "traffic", 0),
            &mobility.positions_at(SimTime::ZERO),
            max_dist_m,
        ),
    });
    let (tracker, tracker_s) = rec.time("runner.tracker_new", |_| {
        PositionTracker::new(&mobility, scn.mac.phy.cs_range_m)
    });
    drop((mobility, traffic, tracker));
    let (sim, sim_s) = rec.time("runner.sim_new", |_| Sim::new(scn));
    drop(sim);
    [sim_s, mob_s, traffic_s, tracker_s]
}

/// The traced run: trial 0 run plainly as the reference, then the set-up
/// split and the phased, oracle and parallel passes over the same
/// scenario, each of whose outputs must equal the reference's.
pub fn traced(seed: u64, rec: &mut Recorder, tally: &mut Tally, layer: &mut Layer) -> Outputs {
    let scn = scenario(seed, 0);
    let id = item(&scn);
    let Some(r) = tally.op(rec, &id, 1, |rec| run_plain(&scn, Sim::new(scn), rec)) else {
        return Outputs::new();
    };

    let splits: Vec<[f64; 4]> = (0..SPLIT_REPS).map(|_| setup_split(scn, rec)).collect();
    let part = |k: usize| median(&splits.iter().map(|s| s[k]).collect::<Vec<_>>());
    let (sim_new, mob, traffic, tracker) = (part(0), part(1), part(2), part(3));
    layer.set("runner.sim_new_s", sim_new);
    layer.set("mobility.generate_s", mob);
    layer.set("traffic.generate_s", traffic);
    layer.set("runner.tracker_new_s", tracker);
    layer.set(
        "runner.setup_unattributed_share",
        ratio(sim_new - mob - traffic - tracker, sim_new),
    );

    // Phase attribution from the program's own probes.
    if let Some((s, m, phases, wall)) = tally.op(rec, &id, 1, |rec| {
        let sim = Sim::new(scn);
        let ((s, m, p), wall) = rec.time("phased", |_| sim.run_phased());
        (s, m, p, wall)
    }) {
        let mut theirs = Outputs::new();
        put_summary(&mut theirs, &id, &s);
        put_counts(&mut theirs, &id, &m);
        tally.agree("phased pass", &r.outputs, &theirs, &["summary", "counts"]);
        let [medium, signal, mac, proto] =
            [phases.medium, phases.signal, phases.mac, phases.proto].map(|d| d.as_secs_f64());
        layer.set("radio.medium_s", medium);
        layer.set("radio.signal_s", signal);
        layer.set("radio.mac_s", mac);
        layer.set("protocols.proto_s", proto);
        layer.set(
            "trace.unattributed_share",
            ratio(wall - medium - signal - mac - proto, wall),
        );
        layer.set("trace.overhead_ratio", ratio(wall, r.run_s));
    }

    // The loop-freedom oracle; it panics on a hard violation.
    if let Some((mut s, wall)) = tally.op(rec, &id, 1, |rec| {
        let sim = Sim::new(scn);
        let ((s, _soft), wall) = rec.time("oracle", |_| {
            sim.run_with_loop_oracle(SimDuration::from_secs(ORACLE_INTERVAL_S))
        });
        (s, wall)
    }) {
        layer.set("runner.oracle_s", wall - r.run_s);
        layer.set("runner.oracle_checks", s.oracle_checks as f64);
        s.oracle_checks = r.summary.oracle_checks;
        s.oracle_soft_violations = r.summary.oracle_soft_violations;
        let mut theirs = Outputs::new();
        put_summary(&mut theirs, &id, &s);
        tally.agree("oracle pass", &r.outputs, &theirs, &["summary"]);
    }

    // The parallel engine at nproc workers.
    if let Some((s, stats, wall, cpu)) = tally.op(rec, &id, 1, |rec| {
        let sim = Sim::new(scn)
            .with_engine(EngineKind::Parallel)
            .with_workers(nproc());
        let cpu0 = cpu_s();
        let ((s, stats), wall) = rec.time("parallel", |_| sim.run_counted());
        (s, stats, wall, cpu_s() - cpu0)
    }) {
        let mut theirs = Outputs::new();
        put_summary(&mut theirs, &id, &s);
        tally.agree("parallel pass", &r.outputs, &theirs, &["summary"]);
        layer.set("par.mean_width", stats.mean_width());
        layer.set("par.multi_share", stats.multi_share());
        layer.set("par.spec_hits", stats.spec_hits as f64);
        layer.set("par.wall_ratio", ratio(wall, r.run_s));
        layer.set("par.cpu_ratio", ratio(cpu, r.cpu_s));
    }

    let m = &r.metrics;
    layer.set("netsim.events", m.sim_events as f64);
    layer.set("netsim.events_per_s", ratio(m.sim_events as f64, r.run_s));
    layer.set("radio.transmissions", transmissions(m) as f64);
    layer.set("radio.collisions", m.collisions as f64);
    layer.set("radio.mac_drops", m.mac_drops as f64);
    layer.set("protocols.control_sent", m.control_sent as f64);
    layer.set("protocols.discoveries", m.discoveries as f64);
    layer.set(
        "protocols.seqno_increments",
        m.seqno_increments_total as f64,
    );
    layer.set(
        "core.max_fd_denominator",
        r.summary.max_fd_denominator as f64,
    );
    layer.set("traffic.delivery_ratio", r.summary.delivery_ratio);
    let per_node = |bytes: usize| ratio(bytes as f64, r.mem.nodes as f64);
    layer.set("mem.proto_bytes_per_node", per_node(r.mem.proto_bytes));
    layer.set("mem.mac_bytes_per_node", per_node(r.mem.mac_bytes));
    layer.set("mem.channel_bytes_per_node", per_node(r.mem.channel_bytes));
    layer.set("mem.spatial_bytes_per_node", per_node(r.mem.spatial_bytes));
    layer.set("mem.total_bytes_per_node", r.mem.bytes_per_node());
    layer.set("mem.queue_bytes", r.mem.queue_bytes as f64);
    r.outputs
}
