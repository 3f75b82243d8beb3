//! The workloads. Each runs the paper's loop — deltas arrive, SVC answers
//! queries from a cleaned sample, and commits fold the deltas into the
//! materialized view — with its own data, view and mix:
//!
//! * `visit_ingest`: write-heavy, a Zipf log stream committed in
//!   250-record `BatchPipeline::maintain` calls, with a light read every
//!   8th batch.
//! * `conviva_timeline`: reads beside periodic refreshes (pipeline fold
//!   over all pending chunks, resample, catalog commit) on a γ view, with
//!   full IVM of the same deltas as the paper's baseline.
//!
//! A workload replays fixed *passes*: every pass starts from the state
//! `setup` built, so the work per pass depends on the seed only. The
//! verification pass computes every expected output with an independent
//! oracle (`recompute_fresh`); timed passes must reproduce those outputs
//! exactly.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use svc_catalog::Catalog;
use svc_cluster::{BatchPipeline, WorkerPool};
use svc_core::estimate::svc_corr;
use svc_core::query::relative_error;
use svc_core::{AggQuery, QueryAgg, SvcConfig, SvcView};
use svc_sampling::sample_by_key;
use svc_storage::{Database, Deltas, Table};
use svc_workloads::conviva::{self, ConvivaConfig};
use svc_workloads::{querygen, video};

use crate::layers::{self, ms, CleanCounts};
use crate::stats::{Json, Series};
use crate::Res;

/// Sampling ratio `m` of every workload.
const RATIO: f64 = 0.1;
/// Relative tolerance when comparing against the oracle: incremental
/// folds add floats in another order than recomputation does.
const EPS: f64 = 1e-9;
/// Worker threads of the pipeline pool.
pub const WORKERS: usize = 2;

/// The SVC configuration of every workload: ratio [`RATIO`] and the
/// default η hash seed. The seed argument varies the data, deltas and
/// queries, not the system's configuration, so the sampled share of the
/// view's keys does not swing with the seed.
fn config() -> SvcConfig {
    SvcConfig::with_ratio(RATIO)
}

/// What timed passes record.
#[derive(Debug, Default)]
pub struct Rec {
    /// Operation latencies in ms: `clean`, `aqp`, `corr`, `commit`, and
    /// the full-IVM `baseline`.
    pub ops: Series,
    /// Traced layer samples (traced passes only).
    pub layers: Series,
    /// Delta records committed.
    pub records: u64,
    /// Passes completed.
    pub passes: u64,
    /// Checked operations.
    pub attempted: u64,
    /// Operations whose output differed from the verified one.
    pub failed: u64,
}

impl Rec {
    /// Count one checked operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: output check failed: {what}");
        }
    }
}

/// The verification pass's results: exact counts, answer errors against
/// the oracle, and its own check tallies.
#[derive(Debug, Default)]
pub struct Verified {
    /// Machine-independent counts; two runs with one seed must agree.
    pub counts: BTreeMap<&'static str, u64>,
    /// Relative error of each SVC+CORR answer against the fresh view.
    pub corr_err: Vec<f64>,
    /// Relative error of each SVC+AQP answer against the fresh view.
    pub aqp_err: Vec<f64>,
    /// Check tallies of the pass.
    pub checks: Rec,
}

impl Verified {
    fn add(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    fn add_clean(&mut self, c: CleanCounts) {
        self.add("reads", 1);
        self.add("exec.nodes", c.exec_nodes);
        self.add("optimizer.plan_nodes", c.plan_nodes);
        self.add("exec.rows_examined", c.rows_examined);
        self.add("exec.rows_out", c.rows_out);
        self.add("exec.vec_chunks", c.vec_chunks);
        self.add("exec.row_batches", c.row_batches);
        self.add("exec.zone_skips", c.zone_skips);
        self.add("optimizer.eta_fully_pushed", c.eta_fully_pushed);
        self.add("core.cleaned_rows", c.cleaned_rows);
    }

    /// Count a pipeline's activity over the pass (it started cold).
    fn add_pipeline(&mut self, p: &BatchPipeline) {
        let m = p.metrics();
        self.add("cluster.folds", m.folds);
        self.add("cluster.compiles", m.compiles);
        self.add("cluster.cache_hits", m.cache_hits);
        self.add("cluster.cache_misses", m.cache_misses);
    }
}

/// The outputs a read at one point of a pass must reproduce.
#[derive(Debug)]
struct ReadExpect {
    sample: Table,
    aqp: Vec<f64>,
    corr: Vec<f64>,
}

/// Two answers agree up to float summation order (the estimators sum over
/// hash maps, whose iteration order differs between calls).
fn same_answer(a: f64, b: f64) -> bool {
    a == b || (a.is_nan() && b.is_nan()) || (a - b).abs() <= EPS * a.abs().max(b.abs()).max(1.0)
}

/// A benchmark workload.
pub trait Workload: Sized {
    /// Generate the inputs from `seed`, build the view, and warm up
    /// (column caches, first compiles).
    fn setup(seed: u64) -> Res<Self>;
    /// The oracle pass: compute and store every expected output.
    fn verify(&mut self) -> Res<Verified>;
    /// One timed pass.
    fn pass(&mut self, rec: &mut Rec, traced: bool) -> Res<()>;
    /// Input sizes, for the record.
    fn sizes(&self) -> Json;
}

/// `per_agg` random queries of each aggregate — sum, avg and count — so
/// every seed answers the same mix (their costs differ).
fn balanced_queries(
    view: &Table,
    dims: &[&str],
    measures: &[&str],
    per_agg: usize,
    rng: &mut StdRng,
) -> Res<Vec<AggQuery>> {
    let mut out = Vec::with_capacity(3 * per_agg);
    for agg in [QueryAgg::Sum, QueryAgg::Avg, QueryAgg::Count] {
        while out.iter().filter(|q: &&AggQuery| q.agg == agg).count() < per_agg {
            out.extend(
                querygen::random_queries(view, dims, measures, 1, rng)?
                    .into_iter()
                    .filter(|q| q.agg == agg),
            );
        }
    }
    Ok(out)
}

fn uint(n: usize) -> Json {
    Json::Int(n as u64)
}

/// One SVC read: clean the sample against `pending`, then answer every
/// query with AQP and CORR — untraced through the facade, traced through
/// the layer-by-layer rebuild. A traced read also runs one untraced
/// `clean_sample_with` beside the rebuild, outside the timed operation
/// and alternately before and after it, so the rebuild's layer sum can
/// be compared with the facade under the same host conditions.
#[allow(clippy::too_many_arguments)]
fn read(
    svc: &SvcView,
    db: &Database,
    pending: &Deltas,
    catalog: Option<&Catalog>,
    queries: &[AggQuery],
    expect: &ReadExpect,
    rec: &mut Rec,
    traced: bool,
) -> Res<()> {
    let paired = |rec: &mut Rec| -> Res<()> {
        let t = Instant::now();
        let cleaned = svc.clean_sample_with(db, pending, catalog)?;
        rec.layers.push("clean.untraced_ms", ms(t));
        rec.check(cleaned.canonical.same_contents(&expect.sample), "paired clean_sample");
        Ok(())
    };
    let paired_first = traced && rec.layers.get("clean.untraced_ms").len().is_multiple_of(2);
    if paired_first {
        paired(rec)?;
    }
    let t = Instant::now();
    let cleaned = if traced {
        layers::clean(svc, db, pending, catalog, &mut rec.layers, false)?.0
    } else {
        svc.clean_sample_with(db, pending, catalog)?
    };
    rec.ops.push("clean", ms(t));
    rec.check(cleaned.canonical.same_contents(&expect.sample), "cleaned sample");
    if traced && !paired_first {
        paired(rec)?;
    }
    for (i, q) in queries.iter().enumerate() {
        let t = Instant::now();
        let aqp = if traced {
            layers::aqp(svc, &cleaned, q, &mut rec.layers)?
        } else {
            svc.estimate_aqp(&cleaned, q)?
        };
        rec.ops.push("aqp", ms(t));
        let t = Instant::now();
        let corr = if traced {
            layers::corr(svc, &cleaned, q, &mut rec.layers)?
        } else {
            svc.estimate_corr(&cleaned, q)?
        };
        rec.ops.push("corr", ms(t));
        rec.check(same_answer(aqp.value, expect.aqp[i]), "SVC+AQP answer");
        rec.check(same_answer(corr.value, expect.corr[i]), "SVC+CORR answer");
    }
    Ok(())
}

/// The oracle side of [`read`]: the cleaned sample must equal the sample
/// of the freshly recomputed view, the layer-by-layer rebuild must equal
/// `clean_sample`, and the answers are scored against the fresh view.
/// CORR answers here come from the estimator called on the stale answer
/// and stale sample computed once per read; the timed passes' calls to
/// `estimate_corr` must reproduce them.
fn verify_read(
    svc: &SvcView,
    db: &Database,
    pending: &Deltas,
    catalog: Option<&Catalog>,
    queries: &[AggQuery],
    v: &mut Verified,
) -> Res<ReadExpect> {
    let fresh = svc.view.recompute_fresh(db, pending)?;
    let fresh_public = svc.view.public_of(&fresh)?;
    let oracle = sample_by_key(&fresh, svc.config.ratio, svc.config.hash_spec());
    let cleaned = svc.clean_sample_with(db, pending, catalog)?;
    let (rebuilt, counts) = layers::clean(svc, db, pending, catalog, &mut Series::default(), true)?;
    v.checks.check(
        cleaned.canonical.approx_same_contents(&oracle, EPS),
        "clean_sample != sample_by_key(recompute_fresh)",
    );
    v.checks.check(
        rebuilt.canonical.same_contents(&cleaned.canonical),
        "rebuilt cleaning != clean_sample",
    );
    v.add_clean(counts);
    v.add("core.sample_rows", svc.stale_sample().len() as u64);
    let stale_public = svc.view.public_table()?;
    let stale_sample_public = svc.stale_sample_public()?;
    let mut expect = ReadExpect { sample: cleaned.canonical.clone(), aqp: vec![], corr: vec![] };
    for q in queries {
        let truth = q.exact(&fresh_public)?;
        let aqp = svc.estimate_aqp(&cleaned, q)?.value;
        let stale = q.exact(&stale_public)?;
        let corr = svc_corr(
            stale,
            &stale_sample_public,
            &cleaned.public,
            q,
            svc.config.ratio,
            &svc.config,
        )?
        .value;
        v.aqp_err.push(relative_error(aqp, truth));
        v.corr_err.push(relative_error(corr, truth));
        expect.aqp.push(aqp);
        expect.corr.push(corr);
    }
    Ok(expect)
}

/// `visit_ingest`: `video::generate` (1.5k videos, 60k log rows, Zipf)
/// and `visit_view` (log ⋈ video, γ by videoId). A pass streams 30k
/// `log_insertions` in 250-record batches, each committed by one
/// `BatchPipeline::maintain` call plus resample and base-table apply;
/// every 8th batch is first read (cleaned against while pending).
pub struct VisitIngest {
    db: Database,
    svc: SvcView,
    batches: Vec<Deltas>,
    queries: Vec<AggQuery>,
    pipeline: BatchPipeline,
    reads: Vec<ReadExpect>,
    final_view: Option<Table>,
}

const VISIT_VIDEOS: usize = 1_500;
const VISIT_LOG_ROWS: usize = 60_000;
const VISIT_STREAM: usize = 30_000;
const VISIT_BATCH: usize = 250;
const VISIT_READ_EVERY: usize = 8;
const VISIT_QUERIES_PER_AGG: usize = 4;

impl VisitIngest {
    /// Drive one pass from the setup state. `oracle` is the verification
    /// pass: it records expected outputs instead of checking them.
    fn run(
        &mut self,
        pipeline: &BatchPipeline,
        rec: &mut Rec,
        traced: bool,
        mut oracle: Option<&mut Verified>,
    ) -> Res<()> {
        let mut db = self.db.clone();
        let mut svc = self.svc.clone();
        for (k, batch) in self.batches.iter().enumerate() {
            if k % VISIT_READ_EVERY == 0 {
                match oracle.as_deref_mut() {
                    Some(v) => {
                        self.reads.push(verify_read(&svc, &db, batch, None, &self.queries, v)?)
                    }
                    None => {
                        let expect = &self.reads[k / VISIT_READ_EVERY];
                        read(&svc, &db, batch, None, &self.queries, expect, rec, traced)?;
                    }
                }
            }
            let mut applied = batch.clone();
            let t = Instant::now();
            if traced {
                layers::pipeline_maintain(
                    pipeline,
                    &db,
                    &mut svc.view,
                    batch,
                    VISIT_BATCH,
                    &mut rec.layers,
                )?;
                layers::resample(&mut svc, &mut rec.layers);
            } else {
                pipeline.maintain(&db, &mut svc.view, batch, VISIT_BATCH)?;
                svc.resample();
            }
            applied.apply_to(&mut db)?;
            rec.ops.push("commit", ms(t));
            rec.records += batch.len() as u64;
        }
        match oracle {
            Some(v) => {
                let fresh = svc.view.recompute_fresh(&db, &Deltas::new())?;
                v.checks.check(
                    svc.view.table().approx_same_contents(&fresh, EPS),
                    "pipeline view != recompute after the stream",
                );
                self.final_view = Some(svc.view.table().clone());
            }
            None => {
                let ok =
                    self.final_view.as_ref().is_some_and(|f| svc.view.table().same_contents(f));
                rec.check(ok, "pipeline view after the stream");
            }
        }
        rec.passes += 1;
        Ok(())
    }
}

impl Workload for VisitIngest {
    fn setup(seed: u64) -> Res<Self> {
        let db = video::generate(VISIT_VIDEOS, VISIT_LOG_ROWS, 1.2, seed)?;
        let svc = SvcView::create("visit_view", video::visit_view(), &db, config())?;
        let stream = video::log_insertions(&db, VISIT_STREAM, 0.8, seed ^ 0x5EED)?;
        let rows = stream.get("log").ok_or("log stream is empty")?.insertions.rows();
        let mut batches = Vec::new();
        for chunk in rows.chunks(VISIT_BATCH) {
            let mut batch = Deltas::new();
            for row in chunk {
                batch.insert(&db, "log", row.clone())?;
            }
            batches.push(batch);
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E3779B9);
        let public = svc.view.public_table()?;
        let queries = balanced_queries(
            &public,
            &["videoId"],
            &["visitCount"],
            VISIT_QUERIES_PER_AGG,
            &mut rng,
        )?;
        let pipeline = BatchPipeline::on_pool(Arc::new(WorkerPool::new(WORKERS)));
        // Warm-up: the first batch's compile and a first cleaning.
        let cleaned = svc.clean_sample(&db, &batches[0])?;
        svc.estimate_corr(&cleaned, &queries[0])?;
        pipeline.maintain(&db, &mut svc.view.clone(), &batches[0], VISIT_BATCH)?;
        Ok(VisitIngest { db, svc, batches, queries, pipeline, reads: vec![], final_view: None })
    }

    fn verify(&mut self) -> Res<Verified> {
        let mut v = Verified::default();
        // A cold pipeline on the same pool, so compile and cache counts
        // do not depend on the warm-up.
        let cold = BatchPipeline::on_pool(self.pipeline.pool.clone());
        self.reads.clear();
        self.run(&cold, &mut Rec::default(), false, Some(&mut v))?;
        v.add_pipeline(&cold);
        Ok(v)
    }

    fn pass(&mut self, rec: &mut Rec, traced: bool) -> Res<()> {
        let pipeline = self.pipeline.clone();
        self.run(&pipeline, rec, traced, None)
    }

    fn sizes(&self) -> Json {
        Json::obj([
            ("videos", uint(VISIT_VIDEOS)),
            ("log_rows", uint(self.db.table("log").map_or(0, Table::len))),
            ("view_rows", uint(self.svc.view.len())),
            ("stream_records", uint(VISIT_STREAM)),
            ("batch_records", uint(VISIT_BATCH)),
            ("read_every_batches", uint(VISIT_READ_EVERY)),
            ("queries_per_read", uint(self.queries.len())),
            ("sample_rows", uint(self.svc.stale_sample().len())),
        ])
    }
}

/// `conviva_timeline`: the Conviva activity log (60k events) and view V2
/// (bytes per resource × date). A pass appends 30 chunks of 1k events;
/// every 10th chunk refreshes (pipeline fold over all pending deltas,
/// resample, `Catalog::commit_deltas`) after timing full IVM of the same
/// deltas on a copy of the view; the other chunks are followed by a read
/// that cleans with the catalog.
pub struct ConvivaTimeline {
    db: Database,
    svc: SvcView,
    catalog: Catalog,
    chunks: Vec<Deltas>,
    queries: Vec<AggQuery>,
    pipeline: BatchPipeline,
    reads: Vec<ReadExpect>,
    views: Vec<Table>,
}

const CONVIVA_EVENTS: usize = 60_000;
const CONVIVA_CHUNK: usize = 1_000;
const CONVIVA_CHUNKS: usize = 30;
const CONVIVA_REFRESH_EVERY: usize = 10;
const CONVIVA_QUERIES_PER_AGG: usize = 4;

impl ConvivaTimeline {
    fn run(
        &mut self,
        pipeline: &BatchPipeline,
        rec: &mut Rec,
        traced: bool,
        mut oracle: Option<&mut Verified>,
    ) -> Res<()> {
        let mut db = self.db.clone();
        let mut svc = self.svc.clone();
        let mut catalog = self.catalog.clone();
        let mut pending = Deltas::new();
        let (mut reads, mut refreshes) = (0, 0);
        for (t, chunk) in self.chunks.iter().enumerate() {
            pending.merge(chunk.clone())?;
            if (t + 1) % CONVIVA_REFRESH_EVERY != 0 {
                match oracle.as_deref_mut() {
                    Some(v) => self.reads.push(verify_read(
                        &svc,
                        &db,
                        &pending,
                        Some(&catalog),
                        &self.queries,
                        v,
                    )?),
                    None => read(
                        &svc,
                        &db,
                        &pending,
                        Some(&catalog),
                        &self.queries,
                        &self.reads[reads],
                        rec,
                        traced,
                    )?,
                }
                reads += 1;
                continue;
            }
            let fresh = match oracle {
                Some(_) => Some(svc.view.recompute_fresh(&db, &pending)?),
                None => None,
            };
            // The paper's baseline: full IVM of the same deltas, on a copy.
            let mut baseline = svc.view.clone();
            let t = Instant::now();
            if traced {
                layers::ivm_maintain(&mut baseline, &db, &pending, &mut rec.layers)?;
            } else {
                baseline.maintain(&db, &pending)?;
            }
            rec.ops.push("baseline", ms(t));
            let records = pending.len();
            let t = Instant::now();
            if traced {
                layers::pipeline_maintain(
                    pipeline,
                    &db,
                    &mut svc.view,
                    &pending,
                    records,
                    &mut rec.layers,
                )?;
                layers::resample(&mut svc, &mut rec.layers);
                layers::catalog_commit(&mut catalog, &mut db, &mut pending, &mut rec.layers)?;
            } else {
                pipeline.maintain(&db, &mut svc.view, &pending, records)?;
                svc.resample();
                catalog.commit_deltas(&mut db, &mut pending)?;
            }
            rec.ops.push("commit", ms(t));
            rec.records += records as u64;
            let baseline_agrees = baseline.table().approx_same_contents(svc.view.table(), EPS);
            match (oracle.as_deref_mut(), fresh) {
                (Some(v), Some(fresh)) => {
                    v.checks.check(
                        svc.view.table().approx_same_contents(&fresh, EPS),
                        "refreshed view != recompute",
                    );
                    v.checks.check(baseline_agrees, "full IVM != pipeline refresh");
                    self.views.push(svc.view.table().clone());
                }
                _ => {
                    rec.check(
                        svc.view.table().same_contents(&self.views[refreshes]),
                        "refreshed view",
                    );
                    rec.check(baseline_agrees, "full IVM view");
                }
            }
            refreshes += 1;
        }
        rec.passes += 1;
        Ok(())
    }
}

impl Workload for ConvivaTimeline {
    fn setup(seed: u64) -> Res<Self> {
        let cfg = ConvivaConfig { base_events: CONVIVA_EVENTS, seed, ..ConvivaConfig::default() };
        let db = conviva::generate(cfg)?;
        let v2 =
            conviva::views().into_iter().find(|v| v.id == "V2").ok_or("conviva view V2 missing")?;
        let svc = SvcView::create("V2", v2.plan, &db, config())?;
        let catalog = Catalog::build(&db);
        let chunks = (0..CONVIVA_CHUNKS)
            .map(|t| {
                let start = (CONVIVA_EVENTS + t * CONVIVA_CHUNK) as i64;
                conviva::appended_updates_at(
                    &db,
                    cfg,
                    CONVIVA_CHUNK,
                    seed.wrapping_add(t as u64),
                    start,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E3779B9);
        let public = svc.view.public_table()?;
        let queries =
            balanced_queries(&public, &v2.dims, &v2.measures, CONVIVA_QUERIES_PER_AGG, &mut rng)?;
        let pipeline = BatchPipeline::on_pool(Arc::new(WorkerPool::new(WORKERS)));
        // Warm-up: a first cleaning with the catalog and a first refresh
        // compile.
        let cleaned = svc.clean_sample_with(&db, &chunks[0], Some(&catalog))?;
        svc.estimate_corr(&cleaned, &queries[0])?;
        pipeline.maintain(&db, &mut svc.view.clone(), &chunks[0], CONVIVA_CHUNK)?;
        Ok(ConvivaTimeline {
            db,
            svc,
            catalog,
            chunks,
            queries,
            pipeline,
            reads: vec![],
            views: vec![],
        })
    }

    fn verify(&mut self) -> Res<Verified> {
        let mut v = Verified::default();
        let cold = BatchPipeline::on_pool(self.pipeline.pool.clone());
        self.reads.clear();
        self.views.clear();
        self.run(&cold, &mut Rec::default(), false, Some(&mut v))?;
        v.add_pipeline(&cold);
        Ok(v)
    }

    fn pass(&mut self, rec: &mut Rec, traced: bool) -> Res<()> {
        let pipeline = self.pipeline.clone();
        self.run(&pipeline, rec, traced, None)
    }

    fn sizes(&self) -> Json {
        Json::obj([
            ("events", uint(CONVIVA_EVENTS)),
            ("view_groups", uint(self.svc.view.len())),
            ("chunk_records", uint(CONVIVA_CHUNK)),
            ("chunks_per_pass", uint(CONVIVA_CHUNKS)),
            ("refresh_every_chunks", uint(CONVIVA_REFRESH_EVERY)),
            ("queries_per_read", uint(self.queries.len())),
            ("sample_rows", uint(self.svc.stale_sample().len())),
        ])
    }
}
