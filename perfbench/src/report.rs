//! The result line: one JSON object with the correctness verdict, the
//! operation counts and every metric by name and unit.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered metric list with a terse builder.
#[derive(Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Appends `name = value unit`.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }

    /// The metrics in insertion order.
    pub fn list(&self) -> &[Metric] {
        &self.0
    }
}

/// What one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Problems found by the checks, one line each.
    pub problems: Vec<String>,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// The end-to-end metrics (untraced runs).
    pub end_to_end: Metrics,
    /// The per-layer metrics (traced runs).
    pub per_layer: Metrics,
}

/// Renders the result line. Non-finite values are refused: JSON cannot
/// carry them and a metric that is not a number measures nothing.
pub fn render(outcome: &Outcome, metrics: &Metrics) -> Result<String, String> {
    let mut body = String::new();
    for (i, m) in metrics.list().iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        outcome.correct, outcome.attempted, outcome.failed
    ))
}

/// Per-layer figures of one traced run. Every workload reports the
/// same names; a layer a workload does not exercise reads 0.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub compose_ms: f64,
    pub prepare_ms: f64,
    pub cold_solve_ms: f64,
    pub cold_pivots: f64,
    pub warm_solve_ms: f64,
    pub warm_pivots: f64,
    pub refactorizations: f64,
    pub fill_in_nnz: f64,
    pub pricing_candidates: f64,
    pub symbolic_reuse: f64,
    pub extract_ms: f64,
    pub extractions: f64,
    pub rescue_solves: f64,
    pub rescue_ms: f64,
    pub sim_slices_per_s: f64,
    pub fit_ms: f64,
    pub epoch_quiet_ms: f64,
    pub gauge_skips: f64,
    pub epoch_shift_ms: f64,
    pub gauge_refits: f64,
    pub evictions: f64,
    pub cluster_solves: f64,
    pub held_solves: f64,
    pub warm_reloads: f64,
    pub cold_reloads: f64,
    pub pivots: f64,
    pub churn_ms: f64,
    pub checkpoint_ms: f64,
    pub snapshot_bytes: f64,
    pub restore_ms: f64,
    pub replayed_solves: f64,
}

/// Layers whose self time inside the median operation is reported.
const SELF_LAYERS: [(&str, &str); 9] = [
    ("bench", "self.bench_ms"),
    ("core", "self.core_ms"),
    ("lp", "self.lp_ms"),
    ("mdp", "self.mdp_ms"),
    ("policies", "self.policies_ms"),
    ("sim", "self.sim_ms"),
    ("trace", "self.trace_ms"),
    ("runtime", "self.runtime_ms"),
    ("snapshot", "self.snapshot_ms"),
];

impl Layers {
    /// The per-layer metric list, closed by the self-time breakdown of
    /// the traced median operation (`self.*`, summing to
    /// `trace.op_ms_p50`).
    pub fn metrics(&self, tracer: &crate::spans::Tracer) -> Metrics {
        let mut m = Metrics::default();
        m.put("core.compose_ms", self.compose_ms, "ms");
        m.put("core.prepare_ms", self.prepare_ms, "ms");
        m.put("lp.cold_solve_ms", self.cold_solve_ms, "ms");
        m.put("lp.cold_pivots", self.cold_pivots, "count");
        m.put("lp.warm_solve_ms", self.warm_solve_ms, "ms");
        m.put("lp.warm_pivots", self.warm_pivots, "count");
        m.put("lp.refactorizations", self.refactorizations, "count");
        m.put("lp.fill_in_nnz", self.fill_in_nnz, "count");
        m.put("lp.pricing_candidates", self.pricing_candidates, "count");
        m.put("lp.symbolic_reuse", self.symbolic_reuse, "count");
        m.put("mdp.extract_ms", self.extract_ms, "ms");
        m.put("mdp.extractions", self.extractions, "count");
        m.put("mdp.rescue_solves", self.rescue_solves, "count");
        m.put("mdp.rescue_ms", self.rescue_ms, "ms");
        m.put("sim.slices_per_s", self.sim_slices_per_s, "1/s");
        m.put("trace.fit_ms", self.fit_ms, "ms");
        m.put("runtime.epoch_quiet_ms", self.epoch_quiet_ms, "ms");
        m.put("runtime.gauge_skips", self.gauge_skips, "count");
        m.put("runtime.epoch_shift_ms", self.epoch_shift_ms, "ms");
        m.put("runtime.gauge_refits", self.gauge_refits, "count");
        m.put("runtime.evictions", self.evictions, "count");
        m.put("runtime.cluster_solves", self.cluster_solves, "count");
        m.put("runtime.held_solves", self.held_solves, "count");
        m.put("runtime.warm_reloads", self.warm_reloads, "count");
        m.put("runtime.cold_reloads", self.cold_reloads, "count");
        m.put("runtime.pivots", self.pivots, "count");
        m.put("runtime.churn_ms", self.churn_ms, "ms");
        m.put("snapshot.checkpoint_ms", self.checkpoint_ms, "ms");
        m.put("snapshot.bytes", self.snapshot_bytes, "bytes");
        m.put("snapshot.restore_ms", self.restore_ms, "ms");
        m.put("snapshot.replayed_solves", self.replayed_solves, "count");
        let (op_ms, layers) = tracer.median_op_breakdown();
        m.put("trace.op_ms_p50", op_ms, "ms");
        for (layer, name) in SELF_LAYERS {
            m.put(name, layers.get(layer).copied().unwrap_or(0.0), "ms");
        }
        m.put("trace.spans", tracer.spans().len() as f64, "count");
        m
    }
}
