//! The traced path: the same operations the timed loop performs, rebuilt
//! from the public steps of each layer so every step can be timed from
//! outside. Nothing here reaches into a crate's private state; a layer's
//! time is the wall time of the benchmark's call into that layer.
//!
//! Series names are the `per_layer` metric names of `BENCHMARK.json`
//! (plus a few helper series that `per_layer` in `main.rs` reduces).

use std::time::Instant;

use svc_catalog::Catalog;
use svc_cluster::{BatchPipeline, BatchRun};
use svc_core::estimate::svc_corr;
use svc_core::svc::CleanedSample;
use svc_core::{AggQuery, Estimate, SvcView};
use svc_ivm::view::{maintenance_bindings, MaterializedView};
use svc_relalg::exec::{compile, explain_analyze, ExecMode};
use svc_relalg::plan::Plan;
use svc_sampling::PushdownReport;
use svc_storage::{Database, Deltas, Table};
use svc_telemetry::OpMetrics;

use crate::stats::Series;
use crate::Res;

/// Milliseconds since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Operator classes that per-operator self time is bucketed into.
/// `aggregate_scan` is a γ that ran its fused-scan input inline (see
/// [`self_class`]); `aggregate` is a γ over a materialized input.
pub const OP_CLASSES: [&str; 8] = [
    "scan",
    "fused",
    "join_build",
    "join_probe",
    "join_anti",
    "union",
    "aggregate",
    "aggregate_scan",
];

/// The operator class of a compiled node and its child count, read from
/// its EXPLAIN label: a bare `fused-scan(t)` is a scan, a scan with fused
/// σ/Π/η ops or a `fused[..]` chain is `fused`, a join probing a leaf's
/// primary-key index is `join_probe`, a join building a hash table is
/// `join_build`, anti joins are `join_anti`, and set operations are
/// `union`.
fn classify(label: &str) -> (&'static str, usize) {
    if label.starts_with("fused-scan(") {
        (if label.ends_with(']') { "fused" } else { "scan" }, 0)
    } else if label.starts_with("fused") {
        ("fused", 1)
    } else if let Some(join) = label.strip_prefix("join:") {
        let arity = if join.contains("pk-probe(") { 1 } else { 2 };
        let class = if join.starts_with("Anti") {
            "join_anti"
        } else if arity == 1 {
            "join_probe"
        } else {
            "join_build"
        };
        (class, arity)
    } else if label.starts_with('γ') {
        ("aggregate", 1)
    } else {
        ("union", 2)
    }
}

/// Tree depths of a compiled plan's nodes, in the pre-order of its metric
/// slots, rebuilt from the labels' child counts.
fn depths(labels: &[String]) -> Vec<usize> {
    let mut out = Vec::with_capacity(labels.len());
    // Children still to visit, per open ancestor.
    let mut open: Vec<usize> = Vec::new();
    for label in labels {
        out.push(open.len());
        let arity = classify(label).1;
        if arity > 0 {
            open.push(arity);
            continue;
        }
        // A leaf closes every ancestor whose last child it completes.
        while let Some(left) = open.last_mut() {
            *left -= 1;
            if *left > 0 {
                break;
            }
            open.pop();
        }
    }
    out
}

/// Pre-order indices of the direct children of node `i`.
fn children(depth: &[usize], i: usize) -> impl Iterator<Item = usize> + '_ {
    (i + 1..depth.len())
        .take_while(move |&j| depth[j] > depth[i])
        .filter(move |&j| depth[j] == depth[i] + 1)
}

/// Self time per node in ms: the node's inclusive wall time minus its
/// children's.
fn self_ms(depth: &[usize], metrics: &[OpMetrics]) -> Vec<f64> {
    (0..depth.len())
        .map(|i| {
            let nested: u64 = children(depth, i).map(|j| metrics[j].wall_ns).sum();
            metrics[i].wall_ns.saturating_sub(nested) as f64 / 1e6
        })
        .collect()
}

/// The class node `i`'s self time is reported under. A γ directly over a
/// fused scan runs that scan inline: the scan's slot records its rows but
/// no wall time, and the scan with its σ/η kernels is timed inside γ's
/// own wall. Such a γ's self time is `aggregate_scan`, so scan and kernel
/// time under it never reads as aggregation alone.
fn self_class(labels: &[String], depth: &[usize], metrics: &[OpMetrics], i: usize) -> &'static str {
    let class = classify(&labels[i]).0;
    if class == "aggregate" && children(depth, i).any(|j| metrics[j].wall_ns == 0) {
        "aggregate_scan"
    } else {
        class
    }
}

/// The stale relation `clean_sample` binds: the stale sample when η
/// reached every stale-view scan, else the full stale view.
fn stale_binding<'a>(svc: &'a SvcView, plan: &Plan, report: &PushdownReport) -> &'a Table {
    let leaf = SvcView::stale_leaf();
    let scans = plan.leaf_tables().iter().filter(|t| **t == leaf).count();
    let sampled = report.sampled_leaves.iter().filter(|l| l.as_str() == leaf).count();
    if scans == 0 || scans == sampled {
        svc.stale_sample()
    } else {
        svc.view.table()
    }
}

/// Machine-independent counts of one metered cleaning run.
#[derive(Debug, Clone, Copy)]
pub struct CleanCounts {
    pub exec_nodes: u64,
    pub plan_nodes: u64,
    pub rows_examined: u64,
    pub rows_out: u64,
    pub vec_chunks: u64,
    pub row_batches: u64,
    pub zone_skips: u64,
    pub eta_fully_pushed: u64,
    pub cleaned_rows: u64,
}

/// Clean the sample the way `SvcView::clean_sample_with` does —
/// `cleaning_plan_with` → `maintenance_bindings` → `compile` →
/// `run_with_metrics` → `public_of` — timing each step into `l`.
/// `check_explain` additionally re-runs the plan under `explain_analyze`
/// and requires its node ids, labels and depths to match the ones the
/// self times were computed from.
pub fn clean(
    svc: &SvcView,
    db: &Database,
    deltas: &Deltas,
    catalog: Option<&Catalog>,
    l: &mut Series,
    check_explain: bool,
) -> Res<(CleanedSample, CleanCounts)> {
    let t = Instant::now();
    svc.view.build_maintenance_plan(db, deltas)?;
    let plan_build = ms(t);

    let start = Instant::now();
    let (plan, report, plan_kind) = svc.cleaning_plan_with(db, deltas, catalog)?;
    let planning = ms(start);
    let stale = stale_binding(svc, &plan, &report);

    let t = Instant::now();
    let bindings = maintenance_bindings(db, deltas, stale);
    for leaf in plan.leaf_tables() {
        bindings.table(leaf)?.columns();
    }
    let columnarize = ms(t);

    let t = Instant::now();
    let compiled = compile(&plan, &bindings)?;
    let compile_ms = ms(t);

    let sink = compiled.metrics_sink();
    let t = Instant::now();
    let canonical = compiled.run_with_metrics(&bindings, ExecMode::sequential(), &sink)?;
    let run_ms = ms(t);

    let t = Instant::now();
    let public = svc.view.public_of(&canonical)?;
    let public_ms = ms(t);

    l.push("ivm.plan_build_ms", plan_build);
    l.push("optimizer.cleaning_plan_ms", (planning - plan_build).max(0.0));
    l.push("storage.columnarize_ms", columnarize);
    l.push("exec.compile_ms", compile_ms);
    l.push("exec.run_ms", run_ms);
    l.push("core.public_of_ms", public_ms);
    l.push("clean.layers_ms", planning + columnarize + compile_ms + run_ms + public_ms);

    let labels = compiled.node_labels();
    let depth = depths(&labels);
    let metrics = sink.snapshots();
    let mut by_class = [0.0; OP_CLASSES.len()];
    for (i, own) in self_ms(&depth, &metrics).into_iter().enumerate() {
        let class = self_class(&labels, &depth, &metrics, i);
        let slot = OP_CLASSES.iter().position(|c| *c == class).expect("known class");
        by_class[slot] += own;
    }
    for (class, v) in OP_CLASSES.iter().zip(by_class) {
        l.push(&format!("exec.self_ms.{class}"), v);
    }

    if check_explain {
        let explained = explain_analyze(&plan, &bindings, None, ExecMode::sequential())?;
        let same_tree = explained.nodes.len() == labels.len()
            && explained.nodes.iter().enumerate().all(|(i, n)| {
                n.id == i
                    && n.label == labels[i]
                    && n.depth == depth[i]
                    && n.metrics.rows_out == metrics[i].rows_out
            });
        if !same_tree || !explained.table.same_contents(&canonical) {
            return Err("explain_analyze tree disagrees with the metered cleaning run".into());
        }
    }

    let counts = CleanCounts {
        exec_nodes: compiled.node_count() as u64,
        plan_nodes: plan.node_count() as u64,
        rows_examined: metrics.iter().map(|m| m.rows_in).sum(),
        rows_out: metrics[0].rows_out,
        vec_chunks: metrics.iter().map(|m| m.vec_chunks).sum(),
        row_batches: metrics.iter().map(|m| m.row_batches).sum(),
        zone_skips: metrics.iter().map(|m| m.zone_skips).sum(),
        eta_fully_pushed: u64::from(report.fully_pushed()),
        cleaned_rows: canonical.len() as u64,
    };
    Ok((CleanedSample { canonical, public, report, plan_kind }, counts))
}

/// SVC+CORR split into its three layer calls: the stale full-view answer,
/// the stale sample's public projection, and the correction estimator.
pub fn corr(svc: &SvcView, cleaned: &CleanedSample, q: &AggQuery, l: &mut Series) -> Res<Estimate> {
    let t = Instant::now();
    let stale = svc.query_stale(q)?;
    l.push("core.query_stale_ms", ms(t));
    let t = Instant::now();
    let stale_public = svc.stale_sample_public()?;
    l.push("core.stale_sample_public_ms", ms(t));
    let t = Instant::now();
    let est = svc_corr(stale, &stale_public, &cleaned.public, q, svc.config.ratio, &svc.config)?;
    l.push("core.estimate_corr_ms", ms(t));
    Ok(est)
}

/// SVC+AQP (one estimator call).
pub fn aqp(svc: &SvcView, cleaned: &CleanedSample, q: &AggQuery, l: &mut Series) -> Res<Estimate> {
    let t = Instant::now();
    let est = svc.estimate_aqp(cleaned, q)?;
    l.push("core.estimate_aqp_ms", ms(t));
    Ok(est)
}

/// Full incremental maintenance of the view (the IVM baseline).
pub fn ivm_maintain(
    view: &mut MaterializedView,
    db: &Database,
    deltas: &Deltas,
    l: &mut Series,
) -> Res<()> {
    let t = Instant::now();
    view.maintain(db, deltas)?;
    l.push("ivm.maintain_ms", ms(t));
    Ok(())
}

/// Redraw the stale sample from the full view.
pub fn resample(svc: &mut SvcView, l: &mut Series) {
    let t = Instant::now();
    svc.resample();
    l.push("sampling.resample_ms", ms(t));
}

/// Commit pending deltas to the base tables through the statistics
/// catalog.
pub fn catalog_commit(
    catalog: &mut Catalog,
    db: &mut Database,
    pending: &mut Deltas,
    l: &mut Series,
) -> Res<()> {
    let t = Instant::now();
    catalog.commit_deltas(db, pending)?;
    l.push("catalog.commit_ms", ms(t));
    Ok(())
}

/// One `BatchPipeline::maintain` call, with the pipeline's and the pool's
/// counters read before and after it.
pub fn pipeline_maintain(
    pipeline: &BatchPipeline,
    db: &Database,
    view: &mut MaterializedView,
    pending: &Deltas,
    batch: usize,
    l: &mut Series,
) -> Res<BatchRun> {
    let (m0, p0) = (pipeline.metrics(), pipeline.pool.metrics());
    let t = Instant::now();
    let run = pipeline.maintain(db, view, pending, batch)?;
    let wall = ms(t);
    let (m1, p1) = (pipeline.metrics(), pipeline.pool.metrics());
    l.push("cluster.maintain_ms", wall);
    l.push("cluster.fold_ns", (m1.fold_ns - m0.fold_ns) as f64);
    l.push("cluster.folds", (m1.folds - m0.folds) as f64);
    l.push("cluster.batches", run.batches as f64);
    l.push("cluster.plans", run.plans_evaluated as f64);
    l.push("cluster.cache_hits", (m1.cache_hits - m0.cache_hits) as f64);
    l.push("cluster.cache_misses", (m1.cache_misses - m0.cache_misses) as f64);
    l.push("pool.busy_ns", (p1.total_busy_ns() - p0.total_busy_ns()) as f64);
    l.push("pool.capacity_ns", wall * 1e6 * pipeline.pool.workers() as f64);
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depths_follow_label_arity() {
        let labels: Vec<String> = [
            "join:Inner build",
            "fused-scan(a)[ση]",
            "γ(group_cols=[0])",
            "join:Anti pk-probe(c)",
            "fused-scan(b)",
            "Union",
        ]
        .map(String::from)
        .to_vec();
        // The trailing `Union` is a second root only to show that depths
        // return to 0 once every child slot is filled.
        assert_eq!(depths(&labels), vec![0, 1, 1, 2, 3, 0]);
        let classes: Vec<_> = labels.iter().map(|l| classify(l).0).collect();
        assert_eq!(classes, ["join_build", "fused", "aggregate", "join_anti", "scan", "union"]);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let wall = |ns| OpMetrics { wall_ns: ns, ..OpMetrics::default() };
        // root(10ms) -> mid(6ms) -> leaf(4ms), root -> leaf2(1ms)
        let own = self_ms(
            &[0, 1, 2, 1],
            &[wall(10_000_000), wall(6_000_000), wall(4_000_000), wall(1_000_000)],
        );
        assert_eq!(own, vec![3.0, 2.0, 4.0, 1.0]);
    }

    #[test]
    fn aggregate_over_an_inline_scan_is_its_own_class() {
        let labels: Vec<String> = [
            "Union",
            "γ(group_cols=[0])",
            "fused-scan(a)[ση]",
            "γ(group_cols=[0])",
            "join:Inner build",
            "fused-scan(b)",
            "fused-scan(c)",
        ]
        .map(String::from)
        .to_vec();
        let depth = depths(&labels);
        assert_eq!(depth, vec![0, 1, 2, 1, 2, 3, 3]);
        let m = |wall_ns, rows_in| OpMetrics { wall_ns, rows_in, ..OpMetrics::default() };
        // The first γ ran its scan inline: the scan slot has rows but no
        // wall time, so γ's whole 5 ms is scan + kernels + aggregation.
        let metrics = [
            m(20_000_000, 10),
            m(5_000_000, 100),
            m(0, 1_000),
            m(9_000_000, 50),
            m(6_000_000, 40),
            m(2_000_000, 20),
            m(1_000_000, 20),
        ];
        assert_eq!(self_ms(&depth, &metrics), vec![6.0, 5.0, 0.0, 3.0, 3.0, 2.0, 1.0]);
        let classes: Vec<_> =
            (0..labels.len()).map(|i| self_class(&labels, &depth, &metrics, i)).collect();
        assert_eq!(
            classes,
            ["union", "aggregate_scan", "fused", "aggregate", "join_build", "scan", "scan"]
        );
    }
}
