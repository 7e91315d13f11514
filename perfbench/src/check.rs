//! Output and durability checks, run after the measured interval.
//!
//! Every distinct `(template, binding, data epochs)` answer must be
//! bag-equal to `Engine::execute` on the database state the query was
//! served against. Retaining every snapshot of a write-heavy run would hold
//! one copy-on-write table fork per commit batch, so the check rebuilds each
//! state instead: it replays the acknowledged mutations, in submission
//! order, on a private copy of the database the interval started from, and
//! evaluates each key when the replay reaches the epochs its snapshot had.
//! The fully replayed copy is then what a recovered server must hold.

use crate::drive::{QuerySample, WriteSample};
use crate::stats::Fingerprint;
use crate::workload::Inputs;
use pbds_core::{Engine, Mutation, MutationOutcome};
use pbds_exec::CompiledExpr;
use pbds_storage::Database;
use std::collections::{BTreeMap, HashMap, HashSet};

/// `(pool index, binding index, data epochs of the template's tables)`.
type Key = (usize, usize, Vec<u64>);

pub struct OutputCheck {
    pub distinct_keys: usize,
    pub problems: Vec<String>,
    /// Rows plain execution scans, summed over the served queries.
    pub plain_rows_scanned: u64,
    /// The start state with every acknowledged mutation applied.
    pub final_db: Database,
}

/// Check every served answer; `start` is the database the measured
/// interval began with.
pub fn check_outputs(
    engine: &Engine,
    inputs: &Inputs,
    start: &Database,
    queries: &[QuerySample],
    writes: &[WriteSample],
) -> OutputCheck {
    let mut problems = Vec::new();
    let mut outcomes: Vec<Option<&MutationOutcome>> = Vec::new();
    for w in writes {
        if outcomes.len() <= w.index {
            outcomes.resize(w.index + 1, None);
        }
        outcomes[w.index] = w.outcome.as_ref();
    }

    // Replay point (number of mutations applied) of each table's data
    // epochs. Snapshots are published per commit batch, and a batch may
    // report one epoch for all of its mutations on a table, so an epoch's
    // state is the one after the *last* mutation reporting it.
    let mut point_of: HashMap<(&str, u64), usize> = HashMap::new();
    for name in start.table_names() {
        if let Ok(t) = start.table(name) {
            point_of.insert((name, t.data_epoch()), 0);
        }
    }
    for (i, o) in outcomes.iter().enumerate() {
        if let Some(o) = o {
            point_of.insert((o.table.as_str(), o.epoch), i + 1);
        }
    }

    let mut served: HashMap<Key, HashSet<Fingerprint>> = HashMap::new();
    for q in queries {
        if let Some(s) = &q.served {
            let (p, b) = inputs.events[q.event];
            served
                .entry((p, b, s.epochs.clone()))
                .or_default()
                .insert(s.fingerprint);
        }
    }
    let mut by_point: BTreeMap<usize, Vec<&Key>> = BTreeMap::new();
    for key in served.keys() {
        let tables = &inputs.pools[key.0].tables;
        let point = tables
            .iter()
            .zip(&key.2)
            .map(|(t, e)| point_of.get(&(t.as_str(), *e)).copied())
            .try_fold(0usize, |acc, p| p.map(|p| acc.max(p)));
        match point {
            Some(p) => by_point.entry(p).or_default().push(key),
            None => problems.push(format!(
                "{} was served at data epochs {:?} no acknowledged state had",
                inputs.pools[key.0].template.name(),
                key.2
            )),
        }
    }

    let mut db = start.clone();
    let mut applied = 0usize;
    let mut plain: HashMap<&Key, (Fingerprint, u64)> = HashMap::new();
    for (point, keys) in by_point {
        replay(&mut db, inputs, &outcomes, applied..point, &mut problems);
        applied = point;
        for key in keys {
            let pool = &inputs.pools[key.0];
            let plan = pool.template.instantiate(&pool.bindings[key.1]);
            match engine.execute(&db, &plan) {
                Ok(out) => {
                    let expected = Fingerprint::of(&out.relation);
                    let got = &served[key];
                    if got.iter().any(|f| *f != expected) {
                        problems.push(format!(
                            "{}{:?} at data epochs {:?}: served answer differs from plain execution",
                            pool.template.name(),
                            pool.bindings[key.1],
                            key.2
                        ));
                    }
                    plain.insert(key, (expected, out.stats.rows_scanned));
                }
                Err(e) => problems.push(format!("plain {}: {e}", pool.template.name())),
            }
        }
    }
    replay(
        &mut db,
        inputs,
        &outcomes,
        applied..outcomes.len(),
        &mut problems,
    );

    let plain_rows_scanned = queries
        .iter()
        .filter_map(|q| {
            let s = q.served.as_ref()?;
            let (p, b) = inputs.events[q.event];
            plain.get(&(p, b, s.epochs.clone())).map(|(_, rows)| *rows)
        })
        .sum();
    OutputCheck {
        distinct_keys: served.len(),
        problems,
        plain_rows_scanned,
        final_db: db,
    }
}

/// Apply the acknowledged mutations `range` of the write schedule.
fn replay(
    db: &mut Database,
    inputs: &Inputs,
    outcomes: &[Option<&MutationOutcome>],
    range: std::ops::Range<usize>,
    problems: &mut Vec<String>,
) {
    for i in range {
        let Some(outcome) = outcomes[i] else { continue };
        let (table, mutation) = &inputs.writes[i];
        let affected = match mutation {
            Mutation::Append(rows) => db.append_rows(table, rows.clone()).map(|_| rows.len()),
            Mutation::DeleteWhere(predicate) => match db.table(table) {
                Ok(t) => {
                    let compiled = CompiledExpr::compile(predicate, t.schema());
                    db.delete_where(table, |row| compiled.matches(row).unwrap_or(false))
                }
                Err(e) => Err(e),
            },
        };
        match affected {
            Ok(n) if n == outcome.rows_affected => {}
            Ok(n) => problems.push(format!(
                "mutation {i} on {table}: server affected {} rows, replay {n}",
                outcome.rows_affected
            )),
            Err(e) => problems.push(format!("mutation {i} on {table} does not replay: {e}")),
        }
    }
}

/// The recovered database must hold exactly the expected rows, in order.
pub fn check_recovered(recovered: &Database, expected: &Database) -> Vec<String> {
    expected
        .table_names()
        .into_iter()
        .filter_map(|name| {
            let want = expected.table(name).ok()?;
            match recovered.table(name) {
                Ok(got) if got.rows() == want.rows() => None,
                Ok(got) => Some(format!(
                    "recovered {name} holds {} rows, the acknowledged mutations give {}",
                    got.len(),
                    want.len()
                )),
                Err(e) => Some(format!("recovered database lacks {name}: {e}")),
            }
        })
        .collect()
}
