//! Mini-batch maintenance on *real* plans — the plan-driven counterpart of
//! Figure 14 (`fig14` keeps the calibrated synthetic model):
//!
//! 1. **Throughput vs batch size**: a log/video visit view maintained by
//!    `BatchPipeline` over a stream of log deltas, with the optimizer on
//!    and off. Larger batches amortize the per-batch driver work (plan
//!    dispatch and delta binding), so throughput rises with batch size —
//!    the Figure 14a shape, now measured instead of modeled. Change tables
//!    fold into the view by key (`svc_ivm::ChangeFold`, O(|change|) per
//!    fold), so the fold no longer grows with the view and small batches
//!    stay within a few times the large-batch throughput.
//! 2. **optimize() cost vs plan depth**: the optimizer threads `Derived`
//!    types through its rule recursions (one `derive_tree` pass per sweep),
//!    so its cost grows ~linearly with plan depth. The pre-memoization cost
//!    model — re-deriving every node's subtree at every visit, exactly what
//!    each rule sweep used to do — is measured alongside as the quadratic
//!    "before" baseline.
//!
//! Writes `experiments/fig_minibatch.csv` (throughput table) and
//! `experiments/fig_minibatch.json` (both sections, for the BENCH
//! trajectory).

use std::sync::Arc;

use svc_bench::{bench_scale, median_of, time, write_json, Report};
use svc_cluster::BatchPipeline;
use svc_ivm::MaterializedView;
use svc_relalg::aggregate::{AggFunc, AggSpec};
use svc_relalg::derive::derive;
use svc_relalg::optimizer::optimize;
use svc_relalg::plan::{JoinKind, Plan};
use svc_relalg::scalar::{col, lit};
use svc_storage::{DataType, Database, Deltas, Schema, Table, Value};
use svc_telemetry::TraceRecorder;

fn build_db(base_events: usize) -> Database {
    let mut db = Database::new();
    let mut video = Table::new(
        Schema::from_pairs(&[("videoId", DataType::Int), ("duration", DataType::Float)]).unwrap(),
        &["videoId"],
    )
    .unwrap();
    for v in 0..200i64 {
        video.insert(vec![Value::Int(v), Value::Float(0.5 + (v % 11) as f64 * 0.3)]).unwrap();
    }
    let mut log = Table::new(
        Schema::from_pairs(&[("sessionId", DataType::Int), ("videoId", DataType::Int)]).unwrap(),
        &["sessionId"],
    )
    .unwrap();
    for s in 0..base_events as i64 {
        log.insert(vec![Value::Int(s), Value::Int((s * 13 + 7) % 200)]).unwrap();
    }
    db.create_table("video", video);
    db.create_table("log", log);
    db
}

fn visit_view() -> Plan {
    Plan::scan("log")
        .join(Plan::scan("video"), JoinKind::Inner, &[("videoId", "videoId")])
        .aggregate(
            &["videoId"],
            vec![
                AggSpec::count_all("visits"),
                AggSpec::new("avgDur", AggFunc::Avg, col("duration")),
            ],
        )
}

fn log_stream(db: &Database, base: i64, n: usize) -> Deltas {
    let mut deltas = Deltas::new();
    for i in 0..n as i64 {
        deltas
            .insert(db, "log", vec![Value::Int(base + i), Value::Int((i * 31 + 3) % 200)])
            .unwrap();
    }
    deltas
}

/// A depth-`d` unary chain (alternating σ / Π) over the join — the deep-plan
/// shape whose optimization cost the memoization section measures.
fn deep_plan(depth: usize) -> Plan {
    let mut plan =
        Plan::scan("log").join(Plan::scan("video"), JoinKind::Inner, &[("videoId", "videoId")]);
    for i in 0..depth {
        plan = if i % 2 == 0 {
            plan.select(col("sessionId").ge(lit(i as i64)))
        } else {
            plan.project(vec![
                ("sessionId", col("sessionId")),
                ("videoId", col("videoId")),
                ("duration", col("duration")),
            ])
        };
    }
    plan
}

/// The pre-memoization cost model of one rule sweep: call `derive` on every
/// node of the plan (each call re-derives the whole subtree) and return the
/// wall time. This is exactly the O(n²) work profile the rules had before
/// `Derived` was threaded through their recursions.
fn rederive_every_node(plan: &Plan, db: &Database) -> f64 {
    fn walk(plan: &Plan, db: &Database) {
        derive(plan, db).expect("derive");
        match plan {
            Plan::Scan { .. } => {}
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Hash { input, .. } => walk(input, db),
            Plan::Join { left, right, .. }
            | Plan::Union { left, right }
            | Plan::Intersect { left, right }
            | Plan::Difference { left, right } => {
                walk(left, db);
                walk(right, db);
            }
        }
    }
    let (_, t) = time(|| walk(plan, db));
    t
}

fn main() {
    let scale = bench_scale();
    let base_events = ((20_000.0 * scale) as usize).max(2_000);
    let stream_len = ((10_000.0 * scale) as usize).max(640);
    let db = build_db(base_events);
    let view = MaterializedView::create("visitView", visit_view(), &db).expect("view");
    let deltas = log_stream(&db, base_events as i64 + 1_000_000, stream_len);
    let workers = std::thread::available_parallelism().map(|n| n.get().clamp(2, 4)).unwrap_or(2);

    // Correctness anchor: the pipeline result must equal full recomputation.
    let expected = view.recompute_fresh(&db, &deltas).expect("recompute oracle");

    let batch_sizes: Vec<usize> =
        [32usize, 16, 8, 4, 2, 1].iter().map(|d| (stream_len / d).max(1)).collect();

    let mut report = Report::new(
        "fig_minibatch",
        &["batch_size", "rps_optimized", "rps_unoptimized", "plans_opt", "batches"],
    );
    let mut json_rows = Vec::new();
    let mut curve = Vec::new();
    for &b in &batch_sizes {
        let mut rps = [0.0f64; 2];
        let mut plans = [0usize; 2];
        let mut batches = [0usize; 2];
        for (k, optimize_plans) in [true, false].into_iter().enumerate() {
            let mut pipeline = BatchPipeline::new(workers);
            pipeline.optimize_plans = optimize_plans;
            // Best of two runs per point: a single scheduling hiccup on a
            // loaded (CI) machine must not invert the throughput ordering.
            for _ in 0..2 {
                let mut v = view.clone();
                let run = pipeline.maintain(&db, &mut v, &deltas, b).expect("maintain");
                assert!(
                    v.table().approx_same_contents(&expected, 1e-9),
                    "pipeline (optimize={optimize_plans}, batch={b}) diverged from recompute"
                );
                assert_eq!(run.fallback_batches, 0, "insert-only stream must use change tables");
                rps[k] = rps[k].max(run.throughput());
                plans[k] = run.plans_evaluated;
                batches[k] = run.batches;
            }
        }
        report.row(vec![
            b.to_string(),
            format!("{:.0}", rps[0]),
            format!("{:.0}", rps[1]),
            plans[0].to_string(),
            batches[0].to_string(),
        ]);
        json_rows.push(format!(
            "{{\"batch_size\":{b},\"rps_optimized\":{},\"rps_unoptimized\":{},\
             \"plans\":{},\"batches\":{}}}",
            rps[0], rps[1], plans[0], batches[0]
        ));
        curve.push((b, rps[0]));
    }
    report.finish("mini-batch maintenance throughput on real plans (visit view, log stream)");

    // ── traced run: chrome://tracing artifact + pipeline counters ────────
    // One more maintenance pass at a mid batch size with a span recorder
    // attached: every maintain/batch/fold/compile span lands in the ring
    // buffer and exports as `fig_minibatch_trace.json` (load it in
    // chrome://tracing or Perfetto). The pipeline's own counters cross-check
    // the run shape: one compile (cache shared within the run), one fold
    // per batch.
    {
        let tracer = Arc::new(TraceRecorder::new(4096));
        let mut traced = BatchPipeline::new(workers);
        traced.tracer = Some(tracer.clone());
        let b = (stream_len / 8).max(1);
        let mut v = view;
        let run = traced.maintain(&db, &mut v, &deltas, b).expect("traced maintain");
        assert!(
            v.table().approx_same_contents(&expected, 1e-9),
            "traced pipeline diverged from recompute"
        );
        let pm = traced.metrics();
        println!(
            "traced run at batch {b}: {} batches, {} folds, {} compiles \
             ({} cache hits), mean fold {}µs, {} spans recorded",
            run.batches,
            pm.folds,
            pm.compiles,
            pm.cache_hits,
            pm.mean_fold_ns() / 1_000,
            tracer.events().len(),
        );
        assert!(pm.folds >= run.batches as u64, "every batch folds at least once");
        assert_eq!(pm.backlog, 0, "backlog gauge must drain to zero after maintain");
        assert!(!tracer.events().is_empty(), "traced run recorded no spans");
        write_json("fig_minibatch_trace", &tracer.chrome_trace_json());
    }

    let smallest = curve.first().expect("points").1;
    let largest = curve.last().expect("points").1;
    println!(
        "throughput at batch {} vs batch {}: {:.0} vs {:.0} records/s ({:.2}x)",
        curve.last().unwrap().0,
        curve.first().unwrap().0,
        largest,
        smallest,
        largest / smallest.max(1e-9),
    );
    // curve[0] is the *largest* batch (stream/1 ... no: [32,16,...,1] divisors
    // produce ascending batch sizes). First = stream/32 (small), last = full
    // stream (large): larger batches must amortize the per-batch driver work.
    assert!(
        largest > smallest,
        "throughput must rise with batch size on real plans: {largest} vs {smallest}"
    );

    // --- optimize() cost vs plan depth: memoized vs re-derive baseline ----
    let depths = [4usize, 8, 16, 32, 64];
    let reps = 5;
    let mut depth_report =
        Report::new("fig_minibatch_depth", &["depth", "nodes", "optimize_ms", "rederive_ms"]);
    let mut depth_rows = Vec::new();
    let mut measured = Vec::new();
    for &d in &depths {
        let plan = deep_plan(d);
        let nodes = plan.node_count();
        let mut t_opt = Vec::with_capacity(reps);
        let mut t_red = Vec::with_capacity(reps);
        for _ in 0..reps {
            let (r, t) = time(|| optimize(&plan, &db).expect("optimize"));
            std::hint::black_box(r);
            t_opt.push(t);
            t_red.push(rederive_every_node(&plan, &db));
        }
        let (o, r) = (median_of(&t_opt), median_of(&t_red));
        depth_report.row(vec![
            d.to_string(),
            nodes.to_string(),
            format!("{:.4}", o * 1e3),
            format!("{:.4}", r * 1e3),
        ]);
        depth_rows.push(format!(
            "{{\"depth\":{d},\"nodes\":{nodes},\"optimize_s\":{o},\"rederive_s\":{r}}}"
        ));
        measured.push((d, o, r));
    }
    depth_report.finish("optimize() cost vs plan depth: Derived threaded (vs per-node re-derive)");

    // Growth check: from depth 8 to 64 the memoized optimizer must grow
    // strictly slower than the per-node re-derivation baseline (linear vs
    // quadratic; ratios are used so absolute machine speed cancels).
    let at = |d: usize| measured.iter().find(|&&(x, _, _)| x == d).expect("depth measured");
    let opt_growth = at(64).1 / at(8).1.max(1e-9);
    let red_growth = at(64).2 / at(8).2.max(1e-9);
    println!(
        "growth 8→64: optimize {opt_growth:.1}x, per-node re-derive {red_growth:.1}x \
         (nodes grow {:.1}x)",
        at(64).0 as f64 / at(8).0 as f64
    );
    assert!(
        opt_growth < red_growth,
        "memoized optimize() must grow slower than the quadratic re-derive baseline: \
         {opt_growth:.1}x vs {red_growth:.1}x"
    );

    let json = format!(
        "{{\"bench\":\"fig_minibatch\",\"workload\":\"visit_view_log_stream\",\
         \"base_events\":{base_events},\"stream_len\":{stream_len},\"workers\":{workers},\
         \"throughput\":[{}],\"optimize_depth\":[{}]}}\n",
        json_rows.join(","),
        depth_rows.join(",")
    );
    write_json("fig_minibatch", &json);
}
