//! Maintenance strategies as relational plans.
//!
//! `maintenance_plan` compiles a (canonicalized) view definition plus the
//! current delta info into a plan `M` over the leaves
//! `{__stale, base tables, __ins.T, __del.T}` whose evaluation returns the
//! up-to-date view. Three shapes are produced:
//!
//! * **Change-table** (top-level aggregates, the method of the paper's
//!   experiments [22,23,27]): aggregate the insertion/deletion deltas into a
//!   signed *change table*, then merge it with the stale view. The paper's
//!   Example 1 writes the merge as a full outer join followed by a
//!   generalized projection with NULL-as-0; we emit the equivalent
//!   three-way form — `matched ∪ stale-only ∪ change-only` over keyed
//!   inner/anti joins — because it preserves Definition 2 keys on every
//!   node, which is exactly what the η push-down needs (Figure 3).
//! * **Delta-apply** (SPJ views): `(S ▷ ∇V) ∪ ∆V` by primary key.
//! * **Recompute** (anything else — nested aggregates, outer joins, median):
//!   the definition with every base scan replaced by its new state
//!   `(T ▷ ∇T) ∪ ∆T`. Still a plan, so sampling still pushes into it where
//!   Definition 3 allows — mirroring the paper's observation that V21/V22
//!   benefit less but still work.

use svc_storage::{Database, Field, KeyTuple, Result, Schema, StorageError, Table};

use svc_relalg::derive::{derive, Derived, LeafProvider};
use svc_relalg::optimizer::{optimize, optimize_with, CardEstimator, OptimizeReport};
use svc_relalg::plan::{JoinKind, Plan};
use svc_relalg::scalar::{col, lit, BoundExpr, Expr, Func};

use crate::canon::{Canonical, MergeRule, SVC_CNT};
use crate::delta::{derive_delta, new_state, DeltaInfo};

/// Leaf name bound to the stale view inside maintenance plans.
pub const STALE_LEAF: &str = "__stale";

/// Leaf name bound to an already-materialized signed change table inside
/// [`merge_change_plan`], the test oracle for [`ChangeFold`] (mini-batch
/// maintenance folds change tables by key, not through this plan).
pub const CHANGE_LEAF: &str = "__change";

/// Prefix of the change-table columns inside the merge: the stale column
/// `a` meets the change column `__c_a`.
const CHANGE_PREFIX: &str = "__c_";

/// Which maintenance strategy a plan implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// No deltas pending: the plan is just `Scan __stale`.
    NoOp,
    /// Signed change-table merge for aggregate views.
    ChangeTable,
    /// Keyed delta application for SPJ views.
    DeltaApply,
    /// Full re-evaluation against the new base state.
    Recompute,
}

/// Leaf resolver for maintenance plans: knows the stale view and maps
/// `__ins.T` / `__del.T` to the schema of `T`.
pub struct MaintCatalog<'a> {
    /// The base database (old state).
    pub db: &'a Database,
    /// Derived type of the stale (canonical) view.
    pub stale: Derived,
}

impl LeafProvider for MaintCatalog<'_> {
    fn leaf(&self, name: &str) -> Option<Derived> {
        // The change table has the canonical view's schema and key.
        if name == STALE_LEAF || name == CHANGE_LEAF {
            return Some(self.stale.clone());
        }
        let base =
            name.strip_prefix("__ins.").or_else(|| name.strip_prefix("__del.")).unwrap_or(name);
        // Partition-suffixed delta leaves (`__ins.T@3`) share T's schema.
        let base = match base.rsplit_once('@') {
            Some((t, p))
                if base != name && !p.is_empty() && p.bytes().all(|b| b.is_ascii_digit()) =>
            {
                t
            }
            _ => base,
        };
        self.db.leaf(base)
    }
}

fn least(a: Expr, b: Expr) -> Expr {
    Expr::Call { func: Func::Least, args: vec![a, b] }
}

fn greatest(a: Expr, b: Expr) -> Expr {
    Expr::Call { func: Func::Greatest, args: vec![a, b] }
}

fn coalesce0(e: Expr) -> Expr {
    e.coalesce(lit(0i64))
}

/// Rename every column of `plan` (whose schema is `names`) to
/// `{prefix}{name}` via a bare-column projection, keeping keys intact.
fn rename_all(plan: Plan, names: &[String], prefix: &str) -> Plan {
    Plan::Project {
        input: Box::new(plan),
        columns: names.iter().map(|n| (format!("{prefix}{n}"), col(n.clone()))).collect(),
    }
}

/// Build the maintenance plan for a canonicalized view.
pub fn maintenance_plan(
    canonical: &Canonical,
    cat: &MaintCatalog<'_>,
    info: &DeltaInfo,
) -> Result<(Plan, PlanKind)> {
    if info.is_empty() {
        return Ok((Plan::scan(STALE_LEAF), PlanKind::NoOp));
    }

    if let Some(shape) = &canonical.agg {
        if canonical.change_table_eligible(info.has_deletions()) {
            if let Ok(plan) = change_table_plan(canonical, cat, info) {
                return Ok((plan, PlanKind::ChangeTable));
            }
        }
        let _ = shape; // shape consumed inside change_table_plan
        return Ok((recompute_plan(&canonical.plan, cat, info)?, PlanKind::Recompute));
    }

    // SPJ view: keyed delta application against the stale view.
    match derive_delta(&canonical.plan, info, cat) {
        Ok(d) => {
            let mut out = Plan::scan(STALE_LEAF);
            if let Some(del) = d.del {
                let on: Vec<(String, String)> = derive(&canonical.plan, cat)?
                    .key_names()
                    .iter()
                    .map(|k| (k.to_string(), k.to_string()))
                    .collect();
                out = Plan::Join {
                    left: Box::new(out),
                    right: Box::new(del),
                    kind: JoinKind::Anti,
                    on,
                };
            }
            if let Some(ins) = d.ins {
                out = Plan::Union { left: Box::new(out), right: Box::new(ins) };
            }
            Ok((out, PlanKind::DeltaApply))
        }
        Err(_) => Ok((recompute_plan(&canonical.plan, cat, info)?, PlanKind::Recompute)),
    }
}

/// [`maintenance_plan`] followed by the standard optimizer — the form every
/// execution path evaluates. Callers that wrap the plan further (e.g. the
/// SVC cleaning path, which adds η on top before optimizing) should use the
/// raw [`maintenance_plan`] instead so each evaluated plan is optimized
/// exactly once.
pub fn optimized_maintenance_plan(
    canonical: &Canonical,
    cat: &MaintCatalog<'_>,
    info: &DeltaInfo,
) -> Result<(Plan, PlanKind, OptimizeReport)> {
    optimized_maintenance_plan_with(canonical, cat, info, None)
}

/// [`optimized_maintenance_plan`] with an optional cardinality estimator:
/// when present, the optimizer additionally reorders the maintenance
/// plan's join regions by estimated cost (base-table statistics come from
/// the `svc-catalog` crate, which implements the estimator).
pub fn optimized_maintenance_plan_with(
    canonical: &Canonical,
    cat: &MaintCatalog<'_>,
    info: &DeltaInfo,
    est: Option<&dyn CardEstimator>,
) -> Result<(Plan, PlanKind, OptimizeReport)> {
    let (plan, kind) = maintenance_plan(canonical, cat, info)?;
    let (plan, report) = match est {
        Some(est) => optimize_with(&plan, cat, est)?,
        None => optimize(&plan, cat)?,
    };
    Ok((plan, kind, report))
}

/// Canonical output column names of an aggregate view: group fields
/// followed by aggregate aliases.
struct CanonNames {
    all: Vec<String>,
    group: Vec<String>,
    agg: Vec<String>,
}

fn canon_names(canonical: &Canonical, cat: &MaintCatalog<'_>) -> Result<CanonNames> {
    let Plan::Aggregate { group_by, .. } = &canonical.plan else {
        return Err(StorageError::Invalid("canonical plan is not an aggregate".into()));
    };
    let canon_schema = derive(&canonical.plan, cat)?.schema;
    let all: Vec<String> = canon_schema.names().iter().map(|s| s.to_string()).collect();
    let group = all[..group_by.len()].to_vec();
    let agg = all[group_by.len()..].to_vec();
    Ok(CanonNames { all, group, agg })
}

/// The *signed change table* of a canonical aggregate view for the given
/// deltas, as a plan over `{base tables, __ins.T, __del.T}` — the γ half of
/// the change-table strategy, without the stale-view merge. Returns `None`
/// when the deltas cannot touch the view (every branch pruned).
pub fn change_table_expr(
    canonical: &Canonical,
    cat: &MaintCatalog<'_>,
    info: &DeltaInfo,
) -> Result<Option<Plan>> {
    change_table_expr_with(canonical, cat, info, &canon_names(canonical, cat)?)
}

/// [`change_table_expr`] with the canonical names precomputed — the batch
/// path calls this once per chunk without re-deriving the view plan.
fn change_table_expr_with(
    canonical: &Canonical,
    cat: &MaintCatalog<'_>,
    info: &DeltaInfo,
    names: &CanonNames,
) -> Result<Option<Plan>> {
    let shape = canonical
        .agg
        .as_ref()
        .ok_or_else(|| StorageError::Invalid("change table requires an aggregate view".into()))?;
    let Plan::Aggregate { aggregates, group_by, .. } = &canonical.plan else {
        return Err(StorageError::Invalid("canonical plan is not an aggregate".into()));
    };

    let d = derive_delta(&shape.input, info, cat)?;
    let gamma = |input: Plan| Plan::Aggregate {
        input: Box::new(input),
        group_by: group_by.clone(),
        aggregates: aggregates.clone(),
    };
    let negate_cols = |prefix: &str| -> Vec<(String, Expr)> {
        let mut cols: Vec<(String, Expr)> =
            names.group.iter().map(|g| (g.clone(), col(format!("{prefix}{g}")))).collect();
        for a in &names.agg {
            cols.push((a.clone(), lit(0i64).sub(col(format!("{prefix}{a}")))));
        }
        cols
    };

    Ok(match (d.ins, d.del) {
        (Some(ins), None) => Some(gamma(ins)),
        (None, Some(del)) => Some(Plan::Project {
            input: Box::new(rename_all(gamma(del), &names.all, "__d_")),
            columns: negate_cols("__d_"),
        }),
        (Some(ins), Some(del)) => {
            let gi = gamma(ins);
            let gd = rename_all(gamma(del), &names.all, "__d_");
            let on: Vec<(String, String)> =
                names.group.iter().map(|g| (g.clone(), format!("__d_{g}"))).collect();
            let on_rev: Vec<(String, String)> =
                on.iter().map(|(l, r)| (r.clone(), l.clone())).collect();

            let mut matched_cols: Vec<(String, Expr)> =
                names.group.iter().map(|g| (g.clone(), col(g.clone()))).collect();
            for a in &names.agg {
                matched_cols.push((
                    a.clone(),
                    coalesce0(col(a.clone())).sub(coalesce0(col(format!("__d_{a}")))),
                ));
            }
            let matched = Plan::Project {
                input: Box::new(Plan::Join {
                    left: Box::new(gi.clone()),
                    right: Box::new(gd.clone()),
                    kind: JoinKind::Inner,
                    on: on.clone(),
                }),
                columns: matched_cols,
            };
            let ins_only = Plan::Join {
                left: Box::new(gi.clone()),
                right: Box::new(gd.clone()),
                kind: JoinKind::Anti,
                on,
            };
            let del_only = Plan::Project {
                input: Box::new(Plan::Join {
                    left: Box::new(gd),
                    right: Box::new(gi),
                    kind: JoinKind::Anti,
                    on: on_rev,
                }),
                columns: negate_cols("__d_"),
            };
            Some(matched.union(ins_only.union(del_only)))
        }
        (None, None) => None,
    })
}

/// The merged value of every aggregate column of a group present in both
/// the stale view and the change table, as an expression over the stale
/// column `a` and the change column `__c_a` — the one definition of merge
/// semantics, bound by the merge plan and by [`ChangeFold`] alike.
fn merge_exprs(canonical: &Canonical, agg: &[String]) -> Result<Vec<(String, Expr)>> {
    let shape = canonical
        .agg
        .as_ref()
        .ok_or_else(|| StorageError::Invalid("change table requires an aggregate view".into()))?;
    agg.iter()
        .zip(shape.cols.iter().map(|c| &c.rule))
        .map(|(a, rule)| {
            let s = col(a.clone());
            let c = col(format!("{CHANGE_PREFIX}{a}"));
            let merged = match rule {
                MergeRule::Additive => coalesce0(s).add(coalesce0(c)),
                MergeRule::TakeMin => least(s, c),
                MergeRule::TakeMax => greatest(s, c),
                MergeRule::Recompute => {
                    return Err(StorageError::Invalid(
                        "non-mergeable aggregate in change-table plan".into(),
                    ))
                }
            };
            Ok((a.clone(), merged))
        })
        .collect()
}

/// The liveness predicate of a merged row: groups whose rows were all
/// deleted (superfluous rows) fail it and leave the view.
fn live_group() -> Expr {
    col(SVC_CNT).gt(lit(0i64))
}

/// Merge an arbitrary change-table-shaped plan with `Scan __stale` using the
/// canonical merge rules — the second half of the change-table strategy.
fn merge_with_stale(canonical: &Canonical, cat: &MaintCatalog<'_>, change: Plan) -> Result<Plan> {
    let names = canon_names(canonical, cat)?;

    let change_renamed = rename_all(change, &names.all, CHANGE_PREFIX);
    let stale = Plan::scan(STALE_LEAF);
    let on: Vec<(String, String)> =
        names.group.iter().map(|g| (g.clone(), format!("{CHANGE_PREFIX}{g}"))).collect();
    let on_rev: Vec<(String, String)> = on.iter().map(|(l, r)| (r.clone(), l.clone())).collect();

    let mut merged_cols: Vec<(String, Expr)> =
        names.group.iter().map(|g| (g.clone(), col(g.clone()))).collect();
    merged_cols.extend(merge_exprs(canonical, &names.agg)?);
    let matched_v = Plan::Project {
        input: Box::new(Plan::Join {
            left: Box::new(stale.clone()),
            right: Box::new(change_renamed.clone()),
            kind: JoinKind::Inner,
            on: on.clone(),
        }),
        columns: merged_cols,
    };
    let stale_only = Plan::Join {
        left: Box::new(stale.clone()),
        right: Box::new(change_renamed.clone()),
        kind: JoinKind::Anti,
        on,
    };
    let change_only = Plan::Project {
        input: Box::new(Plan::Join {
            left: Box::new(change_renamed),
            right: Box::new(stale),
            kind: JoinKind::Anti,
            on: on_rev,
        }),
        columns: names
            .all
            .iter()
            .map(|n| (n.clone(), col(format!("{CHANGE_PREFIX}{n}"))))
            .collect(),
    };

    let merged = matched_v.union(stale_only.union(change_only));
    Ok(merged.select(live_group()))
}

/// The change-table strategy for a canonical top-level aggregate: signed
/// change table over the deltas, merged with the stale view.
fn change_table_plan(
    canonical: &Canonical,
    cat: &MaintCatalog<'_>,
    info: &DeltaInfo,
) -> Result<Plan> {
    match change_table_expr(canonical, cat, info)? {
        None => Ok(Plan::scan(STALE_LEAF)),
        Some(change) => merge_with_stale(canonical, cat, change),
    }
}

/// The test oracle for [`ChangeFold`]: fold one already-materialized
/// change table (bound as [`CHANGE_LEAF`]) into the stale view (bound as
/// [`STALE_LEAF`]) as a plan — the same three-branch merge sequential
/// maintenance runs, at O(|view|) per fold.
pub fn merge_change_plan(canonical: &Canonical, cat: &MaintCatalog<'_>) -> Result<Plan> {
    merge_with_stale(canonical, cat, Plan::scan(CHANGE_LEAF))
}

/// The keyed fold of mini-batch maintenance: applies materialized signed
/// change tables to a table holding the stale view, in place, through its
/// primary-key index — O(|change|) per fold where [`merge_change_plan`]
/// rebuilds the whole view.
///
/// A change row whose group is in the view merges with it through the
/// plan's own per-column expressions (`coalesce0(s) + coalesce0(c)`,
/// `least`, `greatest`); a group new to the view takes the change row. A
/// result failing `__svc_cnt > 0` leaves the view. The contents therefore
/// equal the merge plan's bit for bit. View rows the change table does not
/// touch stay as they are, which matches the plan because a view never
/// holds a row with `__svc_cnt <= 0`: every fold drops them.
///
/// For additive merge rules folds are associative, so per-partition change
/// tables can be applied one at a time in any order.
#[derive(Debug, Clone)]
pub struct ChangeFold {
    /// Schema of the view the fold applies to.
    view: Schema,
    /// Per aggregate column: its position in the view and its merge
    /// expression, bound over the row `stale ++ change` (change columns in
    /// view order).
    merges: Vec<(usize, BoundExpr)>,
    /// [`live_group`] bound over a view row.
    live: BoundExpr,
}

impl ChangeFold {
    /// Prepare the fold for a canonical aggregate view whose materialized
    /// table has schema `view`. Errors for non-aggregate views and for
    /// views with a non-mergeable (median) column.
    pub fn new(canonical: &Canonical, view: &Schema) -> Result<ChangeFold> {
        let Plan::Aggregate { group_by, .. } = &canonical.plan else {
            return Err(StorageError::Invalid("canonical plan is not an aggregate".into()));
        };
        let names: Vec<String> = view.names().iter().map(|n| n.to_string()).collect();
        let agg = names.get(group_by.len()..).ok_or_else(|| {
            StorageError::Invalid("view schema is narrower than its group key".into())
        })?;
        let mut both = view.fields().to_vec();
        both.extend(
            view.fields().iter().map(|f| Field::new(format!("{CHANGE_PREFIX}{}", f.name), f.dtype)),
        );
        let both = Schema::new(both)?;
        let merges = merge_exprs(canonical, agg)?
            .iter()
            .map(|(a, e)| Ok((view.resolve(a)?, e.bind(&both)?)))
            .collect::<Result<_>>()?;
        Ok(ChangeFold { view: view.clone(), merges, live: live_group().bind(view)? })
    }

    /// Fold one change table into `shadow`, which holds the view. The
    /// change table must carry every view column by name and at most one
    /// row per group. On error `shadow` may hold a partial fold; callers
    /// that need atomicity fold into a copy.
    pub fn apply(&self, shadow: &mut Table, change: &Table) -> Result<()> {
        if shadow.schema() != &self.view {
            return Err(StorageError::Invalid(format!(
                "change fold prepared for [{}] applied to [{}]",
                self.view,
                shadow.schema()
            )));
        }
        // Position in the change table of each view column, and of each
        // view key column.
        let pos = self.view.fields().iter().map(|f| change.schema().resolve(&f.name));
        let pos: Vec<usize> = pos.collect::<Result<_>>()?;
        let key_pos: Vec<usize> = shadow.key().iter().map(|&k| pos[k]).collect();
        let mut both = Vec::with_capacity(2 * self.view.len());
        for change_row in change.rows() {
            let key = KeyTuple::of(change_row, &key_pos);
            // A group in the view merges in place; the expressions read
            // the row `stale ++ change` copied into `both`.
            let live = shadow.update(&key, |row| {
                both.clear();
                both.extend_from_slice(row);
                both.extend(pos.iter().map(|&i| change_row[i].clone()));
                for (at, merged) in &self.merges {
                    row[*at] = merged.eval(&both);
                }
                self.live.matches(row)
            })?;
            match live {
                Some(true) => {}
                Some(false) => {
                    shadow.delete(&key);
                }
                None => {
                    let row: Vec<_> = pos.iter().map(|&i| change_row[i].clone()).collect();
                    if self.live.matches(&row) {
                        shadow.insert(row)?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Compile a batch of delta chunks into per-partition change-table plans.
/// Chunk `p`'s plan reads its deltas through the partition-suffixed leaves
/// `__ins.T@p` / `__del.T@p`, so the whole batch shares one [`Bindings`]
/// set and can be evaluated side by side (`WorkerPool::evaluate_plans`);
/// the plans also share the change-table subtree *shape*, the multi-query
/// setting where batch evaluation amortizes optimization.
///
/// Errors when the view is not change-table eligible for a chunk's deltas
/// (min/max under deletions, median, non-aggregate views) — callers fall
/// back to sequential maintenance in that case — or when a chunk is empty
/// (partition first; `Deltas::partition` never emits empty chunks).
///
/// [`Bindings`]: svc_relalg::eval::Bindings
pub fn batch_change_plans(
    canonical: &Canonical,
    cat: &MaintCatalog<'_>,
    chunks: &[svc_storage::Deltas],
) -> Result<Vec<Plan>> {
    let names = canon_names(canonical, cat)?;
    let mut plans = Vec::with_capacity(chunks.len());
    for (p, chunk) in chunks.iter().enumerate() {
        let info = DeltaInfo::of(chunk);
        if !canonical.change_table_eligible(info.has_deletions()) {
            return Err(StorageError::Invalid(
                "batch change-table maintenance requires a change-table-eligible view".into(),
            ));
        }
        let change = change_table_expr_with(canonical, cat, &info, &names)?.ok_or_else(|| {
            StorageError::Invalid(format!("delta chunk {p} is empty; partition before batching"))
        })?;
        let suffixed = change.rename_leaves(&mut |name| {
            (name.starts_with("__ins.") || name.starts_with("__del."))
                .then(|| format!("{name}@{p}"))
        });
        plans.push(suffixed);
    }
    Ok(plans)
}

/// Recomputation expressed as a plan: every base scan becomes its new state
/// `(T ▷ ∇T) ∪ ∆T`.
pub fn recompute_plan(def: &Plan, cat: &MaintCatalog<'_>, info: &DeltaInfo) -> Result<Plan> {
    Ok(match def {
        Plan::Scan { .. } => new_state(def, info, cat)?,
        Plan::Select { input, predicate } => Plan::Select {
            input: Box::new(recompute_plan(input, cat, info)?),
            predicate: predicate.clone(),
        },
        Plan::Project { input, columns } => Plan::Project {
            input: Box::new(recompute_plan(input, cat, info)?),
            columns: columns.clone(),
        },
        Plan::Join { left, right, kind, on } => Plan::Join {
            left: Box::new(recompute_plan(left, cat, info)?),
            right: Box::new(recompute_plan(right, cat, info)?),
            kind: *kind,
            on: on.clone(),
        },
        Plan::Aggregate { input, group_by, aggregates } => Plan::Aggregate {
            input: Box::new(recompute_plan(input, cat, info)?),
            group_by: group_by.clone(),
            aggregates: aggregates.clone(),
        },
        Plan::Union { left, right } => Plan::Union {
            left: Box::new(recompute_plan(left, cat, info)?),
            right: Box::new(recompute_plan(right, cat, info)?),
        },
        Plan::Intersect { left, right } => Plan::Intersect {
            left: Box::new(recompute_plan(left, cat, info)?),
            right: Box::new(recompute_plan(right, cat, info)?),
        },
        Plan::Difference { left, right } => Plan::Difference {
            left: Box::new(recompute_plan(left, cat, info)?),
            right: Box::new(recompute_plan(right, cat, info)?),
        },
        Plan::Hash { .. } => {
            return Err(StorageError::Invalid("unexpected η node inside a view definition".into()))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use svc_storage::{DataType, Database, Schema, Table, Value};

    #[test]
    fn maint_catalog_resolves_partition_suffixed_delta_leaves() {
        let mut db = Database::new();
        let mut t = Table::new(
            Schema::from_pairs(&[("id", DataType::Int), ("x", DataType::Float)]).unwrap(),
            &["id"],
        )
        .unwrap();
        t.insert(vec![Value::Int(1), Value::Float(1.0)]).unwrap();
        db.create_table("log", t);
        let stale = db.leaf("log").unwrap();
        let cat = MaintCatalog { db: &db, stale };

        // Plain, partitioned, and special leaves all resolve.
        for name in ["log", "__ins.log", "__del.log", "__ins.log@0", "__del.log@17"] {
            let d = cat.leaf(name).unwrap_or_else(|| panic!("`{name}` must resolve"));
            assert_eq!(d.schema.names(), vec!["id", "x"], "schema of `{name}`");
        }
        assert!(cat.leaf(STALE_LEAF).is_some());
        assert!(cat.leaf(CHANGE_LEAF).is_some());
        // Non-numeric or prefix-less '@' names are not partition suffixes.
        assert!(cat.leaf("__ins.log@x7").is_none());
        assert!(cat.leaf("log@3").is_none());
        assert!(cat.leaf("__ins.missing@0").is_none());
    }

    #[test]
    fn change_fold_rejects_non_aggregate_views_and_foreign_tables() {
        use crate::canon::canonicalize;
        use svc_relalg::aggregate::AggSpec;

        let mut db = Database::new();
        let mut t = Table::new(
            Schema::from_pairs(&[("id", DataType::Int), ("x", DataType::Float)]).unwrap(),
            &["id"],
        )
        .unwrap();
        t.insert(vec![Value::Int(1), Value::Float(1.0)]).unwrap();
        db.create_table("log", t.clone());

        let spj = canonicalize(&Plan::scan("log"));
        assert!(ChangeFold::new(&spj, t.schema()).is_err(), "SPJ views have no change fold");

        let agg =
            canonicalize(&Plan::scan("log").aggregate(&["id"], vec![AggSpec::count_all("n")]));
        let view = derive(&agg.plan, &db).unwrap().schema;
        let fold = ChangeFold::new(&agg, &view).unwrap();
        // A table of another shape is not the view this fold was built for.
        let change = t.clone();
        assert!(fold.apply(&mut t, &change).is_err());
    }
}
