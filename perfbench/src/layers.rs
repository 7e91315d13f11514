//! Per-layer spans of the traced run. After each `serve`, the tracer replays
//! that query's decision chain on the query's own snapshot through each
//! layer's public function and times every call as a child span of the
//! serve. Spans are folded into per-layer accumulators in memory and read out
//! when the run ends; nothing inside the program is instrumented.

use crate::workload::{Pool, SELECTIVITY_THRESHOLD};
use pbds_core::{
    apply_sketches, estimate_selectivity, Action, Engine, PbdsServer, SafetyChecker, ServedQuery,
    ServerConfig,
};
use pbds_exec::{PhysOp, PhysicalPlan, PlanMetrics};
use pbds_storage::Value;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Per-query self time of each operator class, indexed like `op_class`.
pub const OP_METRICS: [&str; 5] = [
    "exec.op_ms.scan",
    "exec.op_ms.filter",
    "exec.op_ms.aggregate",
    "exec.op_ms.join",
    "exec.op_ms.topk",
];

/// Total time and call count of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    pub total_s: f64,
    pub n: u64,
}

impl Acc {
    fn add(&mut self, s: f64) {
        self.total_s += s;
        self.n += 1;
    }

    fn merge(&mut self, o: &Acc) {
        self.total_s += o.total_s;
        self.n += o.n;
    }

    /// Mean span duration in milliseconds (`0` when never entered).
    pub fn mean_ms(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.total_s * 1e3 / self.n as f64
        }
    }
}

/// Folded spans of one traced run.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// The lazily derived artifacts of a table (statistics, ordered indexes,
    /// columnar chunks, zone map) on the first snapshot of each data epoch
    /// created during the run.
    pub first_touch: Acc,
    /// `SafetyChecker::choose_safe_attributes`, once per template.
    pub safety: Acc,
    /// `estimate_selectivity` (the selectivity gate).
    pub estimate: Acc,
    /// `SketchCatalog::find_reusable`.
    pub reuse: Acc,
    /// `apply_sketches`.
    pub instrument: Acc,
    /// `Engine::execute` of the plain and the sketch-instrumented plan.
    pub exec_plain: Acc,
    pub exec_sketch: Acc,
    /// The serve itself (the parent span).
    pub serve: Acc,
    /// Self time per operator class from `Engine::explain_analyze`.
    pub ops_s: [f64; 5],
    pub explained: u64,
    /// Replayed time of the calls on each serve's own decision chain.
    pub chain_s: f64,
    /// Queries the selectivity gate sent to plain execution.
    pub gate_plain: u64,
}

impl LayerTimes {
    pub fn merge(&mut self, o: &LayerTimes) {
        for (a, b) in [
            (&mut self.first_touch, &o.first_touch),
            (&mut self.safety, &o.safety),
            (&mut self.estimate, &o.estimate),
            (&mut self.reuse, &o.reuse),
            (&mut self.instrument, &o.instrument),
            (&mut self.exec_plain, &o.exec_plain),
            (&mut self.exec_sketch, &o.exec_sketch),
            (&mut self.serve, &o.serve),
        ] {
            a.merge(b);
        }
        for (a, b) in self.ops_s.iter_mut().zip(o.ops_s) {
            *a += b;
        }
        self.explained += o.explained;
        self.chain_s += o.chain_s;
        self.gate_plain += o.gate_plain;
    }
}

fn timed<T>(acc: &mut Acc, f: impl FnOnce() -> T) -> (T, f64) {
    let sw = Instant::now();
    let out = f();
    let s = sw.elapsed().as_secs_f64();
    acc.add(s);
    (out, s)
}

/// Per-session replay tracer.
pub struct Tracer<'s> {
    server: &'s PbdsServer,
    config: ServerConfig,
    engine: Engine,
    /// `(table, data epoch)` pairs already touched.
    seen: HashSet<(String, u64)>,
    /// Safety verdict per pool, computed on first use.
    safe: HashMap<usize, bool>,
    times: LayerTimes,
}

impl<'s> Tracer<'s> {
    /// A tracer that treats the epochs present when the run starts as seen.
    pub fn new(server: &'s PbdsServer, config: ServerConfig) -> Tracer<'s> {
        let db = server.db();
        let seen = db
            .table_names()
            .into_iter()
            .filter_map(|t| Some((t.to_string(), db.table(t).ok()?.data_epoch())))
            .collect();
        Tracer {
            server,
            config,
            engine: Engine::new(config.profile).with_parallelism(config.scan_parallelism),
            seen,
            safe: HashMap::new(),
            times: LayerTimes::default(),
        }
    }

    /// Build the derived artifacts of every table the query reads whose data
    /// epoch no earlier query touched, timing the first touch the serve
    /// would otherwise pay.
    pub fn before_serve(&mut self, pool: &Pool) {
        let db = self.server.db();
        for name in &pool.tables {
            let Ok(table) = db.table(name) else { continue };
            if self.seen.insert((name.clone(), table.data_epoch())) {
                timed(&mut self.times.first_touch, || {
                    std::hint::black_box(table.stats());
                    for column in table.indexed_columns() {
                        std::hint::black_box(table.index_on(column));
                    }
                    std::hint::black_box((table.columnar_chunks(), table.zone_map()))
                });
            }
        }
    }

    /// Replay the decision chain of one served query on its snapshot.
    pub fn after_serve(
        &mut self,
        pool_index: usize,
        pool: &Pool,
        binding: &[Value],
        served: &ServedQuery,
        serve_s: f64,
    ) {
        let t = &mut self.times;
        t.serve.add(serve_s);
        let db = &served.snapshot;
        let template = &pool.template;
        let plan = template.instantiate(binding);
        let safe = match self.safe.get(&pool_index) {
            Some(&s) => s,
            None => {
                let (attrs, _) = timed(&mut t.safety, || {
                    SafetyChecker::new(db).choose_safe_attributes(template.plan(), &[])
                });
                self.safe.insert(pool_index, attrs.is_some());
                attrs.is_some()
            }
        };
        let mut chain = 0.0;
        let mut to_run = None;
        if safe {
            let (est, s) = timed(&mut t.estimate, || estimate_selectivity(db, &plan));
            chain += s;
            if est.is_some_and(|e| e > SELECTIVITY_THRESHOLD) {
                t.gate_plain += 1;
            } else {
                let (reusable, s) = timed(&mut t.reuse, || {
                    self.server.catalog().find_reusable(db, template, binding)
                });
                chain += s;
                if let (Some(r), Action::UseSketch) = (reusable, &served.record.action) {
                    let (p, s) = timed(&mut t.instrument, || {
                        apply_sketches(&plan, &r.sketches, self.config.style)
                    });
                    chain += s;
                    to_run = Some(p);
                }
            }
        }
        let (acc, run) = match &to_run {
            Some(p) => (&mut t.exec_sketch, p),
            None => (&mut t.exec_plain, &plan),
        };
        let (_, s) = timed(acc, || self.engine.execute(db, run));
        chain += s;
        t.chain_s += chain;
        if let Ok(analyzed) = self.engine.explain_analyze(db, run) {
            op_self_times(&analyzed.physical, &analyzed.metrics, &mut 0, &mut t.ops_s);
            t.explained += 1;
        }
    }

    pub fn finish(self) -> LayerTimes {
        self.times
    }
}

fn op_class(op: &PhysOp) -> Option<usize> {
    match op {
        PhysOp::SeqScan { .. } | PhysOp::IndexRangeScan { .. } | PhysOp::ZoneMapScan { .. } => {
            Some(0)
        }
        PhysOp::Filter { .. } => Some(1),
        PhysOp::HashAggregate { .. } => Some(2),
        PhysOp::HashJoin { .. } | PhysOp::NestedLoopCross { .. } => Some(3),
        PhysOp::Sort { .. } | PhysOp::Limit { .. } => Some(4),
        _ => None,
    }
}

/// Add each operator's self time (its inclusive time minus its children's)
/// to its class; returns the subtree's inclusive time. `id` walks the
/// pre-order positions `PlanMetrics` is indexed by.
fn op_self_times(
    plan: &PhysicalPlan,
    metrics: &PlanMetrics,
    id: &mut usize,
    out: &mut [f64; 5],
) -> f64 {
    let inclusive = metrics
        .ops
        .get(*id)
        .map_or(0.0, |m| m.elapsed.as_secs_f64());
    *id += 1;
    let children: f64 = plan
        .children()
        .into_iter()
        .map(|c| op_self_times(c, metrics, id, out))
        .sum();
    if let Some(k) = op_class(&plan.op) {
        out[k] += (inclusive - children).max(0.0);
    }
    inclusive
}
