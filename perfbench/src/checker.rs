//! The `checker-ci` workload: the model checker's CI config set, explored
//! under the real SRP engine through `bfs::explore` and `Model`.

use std::cell::Cell;
use std::thread::LocalKey;
use std::time::Instant;

use slr_check::bfs::explore;
use slr_check::configs::{ci_set, make_srp, model_for, srp_model};
use slr_check::model::{Model, ModelConfig};
use slr_core::SplitLabel32;
use slr_netsim::time::SimTime;
use slr_protocols::api::{
    ControlPacket, DataPacket, NodeId, ProtoCtx, ProtoEffect, ProtoStats, RoutingProtocol,
};
use slr_protocols::model::ModelCheckable;
use slr_protocols::srp::Srp;

use crate::gate::Outputs;
use crate::report::{ratio, reset_peak, Layer, Op, Tally};
use crate::span::Recorder;
use crate::sys::{cpu_s, peak_rss_mib};

/// Distinct states each config may visit. The committed configs allow
/// 400 000 and take about 50 s together; this budget keeps one pass over
/// the set near three seconds, so a run repeats it.
pub const STATE_BUDGET: usize = 25_000;

/// Configs in one pass over the CI set.
pub fn configs() -> usize {
    ci_set().len()
}

/// The config `name` under the benchmark's state budget.
fn config(name: &str) -> ModelConfig {
    let mut cfg = model_for(name).expect("CI config is registered");
    cfg.max_states = STATE_BUDGET;
    cfg
}

fn put_result<P: ModelCheckable>(
    out: &mut Outputs,
    name: &str,
    model: &Model<'_, P>,
) -> (usize, usize) {
    let r = explore(model).expect("exploration runs");
    let outcome = match &r.violation {
        None => "clean".to_string(),
        Some(v) => format!("violation: {}", v.desc),
    };
    out.insert(format!("check.{name}.outcome"), outcome);
    out.insert(format!("check.{name}.states"), r.states.to_string());
    out.insert(
        format!("check.{name}.transitions"),
        r.transitions.to_string(),
    );
    out.insert(
        format!("check.{name}.truncated"),
        r.truncated_by_states.to_string(),
    );
    (r.states, r.transitions)
}

/// One untraced pass over the CI set. Set-up builds each config and its
/// `Model`; the run is `bfs::explore`, which also applies the config's
/// scripted prefix (it has no public way to start from a prefixed
/// state). The set is fixed, so every pass is the same work.
pub fn pass(rec: &mut Recorder) -> Op {
    let mut op = Op::default();
    for name in ci_set() {
        let span = rec.open("setup");
        let cfg = config(name);
        let model = srp_model(&cfg);
        op.setups.push(rec.close(span));
        reset_peak();
        let cpu0 = cpu_s();
        let ((states, _), run_s) = rec.time(format!("run {name}"), |_| {
            put_result(&mut op.outputs, name, &model)
        });
        op.cpu_s += cpu_s() - cpu0;
        op.run_s += run_s;
        op.work += states as f64;
        op.peaks.push(peak_rss_mib());
    }
    op
}

thread_local! {
    static PROTO_NS: Cell<u64> = const { Cell::new(0) };
    static CANONICAL_NS: Cell<u64> = const { Cell::new(0) };
}

fn timed<T>(acc: &'static LocalKey<Cell<u64>>, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    let ns = t0.elapsed().as_nanos() as u64;
    acc.with(|c| c.set(c.get() + ns));
    out
}

/// SRP with its handlers and canonical serialisation timed; every call
/// is passed through unchanged, so exploration is identical.
#[derive(Clone)]
struct Timed(Srp);

impl RoutingProtocol for Timed {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn on_start(&mut self, ctx: &mut ProtoCtx<'_>) -> Vec<ProtoEffect> {
        timed(&PROTO_NS, || self.0.on_start(ctx))
    }
    fn on_rejoin(&mut self, ctx: &mut ProtoCtx<'_>) -> Vec<ProtoEffect> {
        timed(&PROTO_NS, || self.0.on_rejoin(ctx))
    }
    fn on_data_from_app(&mut self, ctx: &mut ProtoCtx<'_>, packet: DataPacket) -> Vec<ProtoEffect> {
        timed(&PROTO_NS, || self.0.on_data_from_app(ctx, packet))
    }
    fn on_data_received(
        &mut self,
        ctx: &mut ProtoCtx<'_>,
        from: NodeId,
        packet: DataPacket,
    ) -> Vec<ProtoEffect> {
        timed(&PROTO_NS, || self.0.on_data_received(ctx, from, packet))
    }
    fn on_control_received(
        &mut self,
        ctx: &mut ProtoCtx<'_>,
        from: NodeId,
        packet: ControlPacket,
    ) -> Vec<ProtoEffect> {
        timed(&PROTO_NS, || self.0.on_control_received(ctx, from, packet))
    }
    fn on_timer(&mut self, ctx: &mut ProtoCtx<'_>, token: u64) -> Vec<ProtoEffect> {
        timed(&PROTO_NS, || self.0.on_timer(ctx, token))
    }
    fn on_link_failure(
        &mut self,
        ctx: &mut ProtoCtx<'_>,
        next_hop: NodeId,
        packet: Option<DataPacket>,
    ) -> Vec<ProtoEffect> {
        timed(&PROTO_NS, || self.0.on_link_failure(ctx, next_hop, packet))
    }
    fn stats(&self) -> ProtoStats {
        self.0.stats()
    }
    fn adversarial_actions(&self) -> u64 {
        self.0.adversarial_actions()
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self.0.as_any()
    }
    fn mem_bytes(&self) -> usize {
        self.0.mem_bytes()
    }
}

impl ModelCheckable for Timed {
    fn model_canonical(&self, now: SimTime, out: &mut Vec<u8>) {
        timed(&CANONICAL_NS, || self.0.model_canonical(now, out))
    }
    fn model_label(&self, dst: NodeId) -> SplitLabel32 {
        self.0.model_label(dst)
    }
    fn model_successors(&self, dst: NodeId, now: SimTime) -> Vec<(NodeId, SplitLabel32)> {
        self.0.model_successors(dst, now)
    }
    fn model_destinations(&self) -> Vec<NodeId> {
        self.0.model_destinations()
    }
    fn model_seqno_floor(&self, dst: NodeId) -> u64 {
        self.0.model_seqno_floor(dst)
    }
}

/// The traced run of `checker-ci`: one untraced pass as the reference,
/// then every config again through `Model::make` with the [`Timed`]
/// wrapper, whose results must match the reference exactly.
pub fn traced(rec: &mut Recorder, tally: &mut Tally, layer: &mut Layer) -> Outputs {
    let Some(base) = tally.op(rec, "checker pass", configs(), pass) else {
        return Outputs::new();
    };
    let mut traced = Outputs::new();
    let (mut states, mut transitions, mut wall) = (0, 0, 0.0);
    PROTO_NS.with(|c| c.set(0));
    CANONICAL_NS.with(|c| c.set(0));
    for name in ci_set() {
        let cfg = config(name);
        if let Some(((s, t), w)) = tally.op(rec, name, 1, |rec| {
            let model = Model {
                cfg: &cfg,
                make: &|i, c| Timed(make_srp(i, c)),
            };
            rec.time(format!("wrapped {name}"), |_| {
                put_result(&mut traced, name, &model)
            })
        }) {
            states += s;
            transitions += t;
            wall += w;
        }
    }
    tally.agree("wrapped checker", &base.outputs, &traced, &["check"]);
    let proto = PROTO_NS.with(Cell::get) as f64 * 1e-9;
    let canonical = CANONICAL_NS.with(Cell::get) as f64 * 1e-9;
    let other = wall - proto - canonical;
    layer.set("check.states", states as f64);
    layer.set("check.transitions", transitions as f64);
    layer.set(
        "check.dedup_ratio",
        ratio(states as f64, transitions as f64),
    );
    layer.set("check.proto_s", proto);
    layer.set("check.canonical_s", canonical);
    layer.set("check.other_s", other);
    layer.set("trace.overhead_ratio", ratio(wall, base.run_s));
    layer.set("trace.unattributed_share", ratio(other, wall));
    base.outputs
}
