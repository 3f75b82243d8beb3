//! Property test: the keyed change-table fold (`ChangeFold`) lands the same
//! view, bit for bit, as the merge-plan oracle (`merge_change_plan`) when
//! both fold the same per-chunk change tables in the same order.
//!
//! Every case builds a random sequence of delta chunks against one base
//! state — the mini-batch setting, where each chunk's change table reads
//! the original base tables — and covers, by construction:
//!
//! * deletions that empty a group, which a later chunk of the same batch
//!   inserts again (group `g1 = 0`);
//! * groups that are new to the view (`g1 >= 6`);
//! * NULL aggregate inputs (`x` is NULL on a quarter of the rows and on
//!   every row of group `g1 = 5`);
//! * min/max views under insert-only deltas;
//! * multi-column group keys (`g1, g2`).
//!
//! Contents are compared with `Table::same_contents` after every fold:
//! exact, order-insensitive, no epsilon.

use proptest::prelude::*;

use stale_view_cleaning::ivm::delta::{del_leaf_at, ins_leaf_at};
use stale_view_cleaning::ivm::strategy::{
    batch_change_plans, merge_change_plan, ChangeFold, MaintCatalog, CHANGE_LEAF, STALE_LEAF,
};
use stale_view_cleaning::ivm::view::MaterializedView;
use stale_view_cleaning::relalg::aggregate::{AggFunc, AggSpec};
use stale_view_cleaning::relalg::derive::Derived;
use stale_view_cleaning::relalg::eval::Bindings;
use stale_view_cleaning::relalg::exec::compile;
use stale_view_cleaning::relalg::optimizer::optimize;
use stale_view_cleaning::relalg::plan::Plan;
use stale_view_cleaning::relalg::scalar::col;
use stale_view_cleaning::storage::{DataType, Database, Deltas, Schema, Table, Value};

const BASE_ROWS: i64 = 160;
const G2: [&str; 3] = ["a", "b", "c"];

fn x_of(id: i64, g1: i64) -> Value {
    if g1 == 5 || id % 4 == 0 {
        Value::Null
    } else {
        Value::Float(0.25 * (id % 17) as f64)
    }
}

fn row(id: i64, g1: i64) -> Vec<Value> {
    vec![
        Value::Int(id),
        Value::Int(g1),
        Value::str(G2[(id % 3) as usize]),
        x_of(id, g1),
        Value::Int(id % 11 - 3),
    ]
}

/// `t(id, g1, g2, x, y)`: base groups `g1 ∈ 0..6`.
fn fold_db() -> Database {
    let mut t = Table::new(
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("g1", DataType::Int),
            ("g2", DataType::Str),
            ("x", DataType::Float),
            ("y", DataType::Int),
        ])
        .unwrap(),
        &["id"],
    )
    .unwrap();
    for id in 0..BASE_ROWS {
        t.insert(row(id, id % 6)).unwrap();
    }
    let mut db = Database::new();
    db.create_table("t", t);
    db
}

/// Additive aggregates over a nullable input.
fn additive_view() -> Plan {
    Plan::scan("t").aggregate(
        &["g1"],
        vec![
            AggSpec::count_all("n"),
            AggSpec::new("cx", AggFunc::Count, col("x")),
            AggSpec::new("sx", AggFunc::Sum, col("x")),
            AggSpec::new("ax", AggFunc::Avg, col("x")),
        ],
    )
}

/// Additive aggregates grouped by two columns.
fn multi_key_view() -> Plan {
    Plan::scan("t").aggregate(
        &["g1", "g2"],
        vec![
            AggSpec::count_all("n"),
            AggSpec::new("sy", AggFunc::Sum, col("y")),
            AggSpec::new("ax", AggFunc::Avg, col("x")),
        ],
    )
}

/// Min/max merge rules: change-table eligible only without deletions.
fn min_max_view() -> Plan {
    Plan::scan("t").aggregate(
        &["g1"],
        vec![
            AggSpec::new("lo", AggFunc::Min, col("x")),
            AggSpec::new("hi", AggFunc::Max, col("y")),
            AggSpec::count_all("n"),
        ],
    )
}

/// A batch of `2 + ops[0] % 3` disjoint delta chunks. With `deletes`,
/// chunk 0 deletes every base row of group 0 and the last chunk inserts
/// two fresh rows of it; random ops insert rows of groups `1..8` (6 and 7
/// are new to the view) and, with `deletes`, delete unused base rows.
fn chunks(db: &Database, ops: &[(u8, u64)], deletes: bool) -> Vec<Deltas> {
    let k = 2 + (ops.first().map_or(0, |o| o.1) % 3) as usize;
    let mut out: Vec<Deltas> = (0..k).map(|_| Deltas::new()).collect();
    let mut deleted = vec![false; BASE_ROWS as usize];
    let mut next_id = 10_000i64;
    if deletes {
        for id in (0..BASE_ROWS).filter(|id| id % 6 == 0) {
            out[0].delete(db, "t", &row(id, 0)).unwrap();
            deleted[id as usize] = true;
        }
        for _ in 0..2 {
            out[k - 1].insert(db, "t", row(next_id, 0)).unwrap();
            next_id += 1;
        }
    }
    for &(op, r) in ops {
        let chunk = &mut out[(r % k as u64) as usize];
        let id = (r / 7 % BASE_ROWS as u64) as i64;
        if deletes && op % 3 == 1 && !deleted[id as usize] {
            chunk.delete(db, "t", &row(id, id % 6)).unwrap();
            deleted[id as usize] = true;
        } else {
            chunk.insert(db, "t", row(next_id, 1 + (r / 3 % 7) as i64)).unwrap();
            next_id += 1;
        }
    }
    out.retain(|c| !c.is_empty());
    out
}

/// Fold the chunks' change tables into the view through the merge plan and
/// through `ChangeFold`, comparing after every fold. Returns the final
/// folded view.
fn fold_matches_oracle(db: &Database, def: Plan, chunks: &[Deltas]) -> Table {
    let view = MaterializedView::create("v", def, db).unwrap();
    let canonical = view.canonical();
    let cat = MaintCatalog {
        db,
        stale: Derived { schema: view.table().schema().clone(), key: view.table().key().to_vec() },
    };
    let mut b = Bindings::from_database(db);
    for (p, chunk) in chunks.iter().enumerate() {
        for (name, set) in chunk.iter() {
            b.bind(ins_leaf_at(name, p), &set.insertions);
            b.bind(del_leaf_at(name, p), &set.deletions);
        }
    }
    let changes: Vec<Table> = batch_change_plans(canonical, &cat, chunks)
        .unwrap()
        .iter()
        .map(|p| compile(&optimize(p, &cat).unwrap().0, &cat).unwrap().run(&b).unwrap())
        .collect();
    // The merge plan as the pipeline used to run it: optimized, compiled
    // once, run once per change table.
    let merge =
        compile(&optimize(&merge_change_plan(canonical, &cat).unwrap(), &cat).unwrap().0, &cat)
            .unwrap();
    let fold = ChangeFold::new(canonical, view.table().schema()).unwrap();

    let mut oracle = view.table().clone();
    let mut shadow = view.table().clone();
    for (i, change) in changes.iter().enumerate() {
        let mut mb = Bindings::new();
        mb.bind(STALE_LEAF, &oracle);
        mb.bind(CHANGE_LEAF, change);
        let next = merge.run(&mb).unwrap();
        oracle = next;
        fold.apply(&mut shadow, change).unwrap();
        assert!(
            shadow.same_contents(&oracle),
            "fold {i}/{}: keyed fold diverged from the merge plan\nfold:   {:?}\noracle: {:?}",
            changes.len(),
            shadow.rows(),
            oracle.rows()
        );
    }
    shadow
}

fn has_group(view: &Table, g1: i64) -> bool {
    let at = view.schema().resolve("g1").unwrap();
    view.rows().iter().any(|r| r[at] == Value::Int(g1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn keyed_fold_matches_merge_plan_oracle(
        ops in proptest::collection::vec((0u8..3, 0u64..1_000_000), 1..50),
    ) {
        let db = fold_db();
        let batch = chunks(&db, &ops, true);
        prop_assert!(batch.len() >= 2, "group 0 must empty in one chunk and return in a later one");

        let folded = fold_matches_oracle(&db, additive_view(), &batch);
        prop_assert!(has_group(&folded, 0), "group 0 must be re-inserted by the last chunk");
        // Group 0 really empties: folding chunk 0 alone drops it.
        let emptied = fold_matches_oracle(&db, additive_view(), &batch[..1]);
        prop_assert!(!has_group(&emptied, 0), "chunk 0 must delete every row of group 0");

        fold_matches_oracle(&db, multi_key_view(), &batch);

        let inserts = chunks(&db, &ops, false);
        let folded = fold_matches_oracle(&db, min_max_view(), &inserts);
        let new_groups = inserts.iter().any(|c| {
            c.get("t").is_some_and(|s| {
                s.insertions.rows().iter().any(|r| r[1].as_i64().is_some_and(|g| g >= 6))
            })
        });
        prop_assert_eq!(new_groups, has_group(&folded, 6) || has_group(&folded, 7));
    }
}
