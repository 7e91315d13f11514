//! The measured interval: closed-loop reader sessions and, on
//! `sof-write-mix`, one open-loop writer, all driving the public serving API.

use crate::layers::{LayerTimes, Tracer};
use crate::stats::Fingerprint;
use crate::workload::{server_config, Inputs, WRITE_RATE};
use pbds_core::{Action, Mutation, MutationOutcome, MutationTicket, PbdsServer, ServedQuery};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// How often the writer polls outstanding tickets while it waits for the
/// next due time.
const POLL: Duration = Duration::from_micros(200);

/// What one served query returned, kept for the checks and counters.
pub struct Served {
    pub action: Action,
    pub rows_scanned: u64,
    pub blocks_skipped: u64,
    pub blocks_total: u64,
    pub intermediate_rows: u64,
    /// Data epochs of the template's tables in the query's own snapshot.
    pub epochs: Vec<u64>,
    pub fingerprint: Fingerprint,
}

pub struct QuerySample {
    /// Index into `Inputs::events`.
    pub event: usize,
    pub latency_s: f64,
    /// `None` when the serve failed.
    pub served: Option<Served>,
}

pub struct WriteSample {
    /// Index into `Inputs::writes`.
    pub index: usize,
    /// Due time to ticket completion; infinite for a failed mutation.
    pub ack_s: f64,
    pub outcome: Option<MutationOutcome>,
}

pub struct Measured {
    pub queries: Vec<QuerySample>,
    pub wall_s: f64,
    pub writes: Vec<WriteSample>,
    /// How late the open-loop writer submitted, at worst.
    pub max_lateness_s: f64,
    /// Time inside each `submit_mutation` call.
    pub submit_s: Vec<f64>,
    pub layers: LayerTimes,
}

/// Serve `inputs` for `seconds` with the workload's sessions (and writer).
pub fn measure(
    server: &PbdsServer,
    inputs: &Inputs,
    sessions: usize,
    seconds: f64,
    traced: bool,
) -> Measured {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..sessions)
            .map(|t| s.spawn(move || reader(server, inputs, t, sessions, deadline, traced)))
            .collect();
        let writer = (!inputs.writes.is_empty())
            .then(|| s.spawn(move || writer(server, &inputs.writes, start, deadline)));
        let mut queries = Vec::new();
        let mut layers = LayerTimes::default();
        for r in readers {
            let (q, l) = r.join().expect("reader session panicked");
            queries.extend(q);
            layers.merge(&l);
        }
        let wall_s = start.elapsed().as_secs_f64();
        let (writes, max_lateness_s, submit_s) = match writer {
            Some(w) => w.join().expect("writer panicked"),
            None => (Vec::new(), 0.0, Vec::new()),
        };
        Measured {
            queries,
            wall_s,
            writes,
            max_lateness_s,
            submit_s,
            layers,
        }
    })
}

fn reader(
    server: &PbdsServer,
    inputs: &Inputs,
    first: usize,
    stride: usize,
    deadline: Instant,
    traced: bool,
) -> (Vec<QuerySample>, LayerTimes) {
    let session = server.session();
    let mut tracer = traced.then(|| Tracer::new(server, server_config()));
    let mut out = Vec::new();
    let mut i = first;
    while Instant::now() < deadline {
        let event = i % inputs.events.len();
        let (p, b) = inputs.events[event];
        let pool = &inputs.pools[p];
        let binding = &pool.bindings[b];
        if let Some(t) = tracer.as_mut() {
            t.before_serve(pool);
        }
        let sw = Instant::now();
        let result = session.serve(&pool.template, binding);
        let latency_s = sw.elapsed().as_secs_f64();
        let served = result.ok().map(|q| {
            if let Some(t) = tracer.as_mut() {
                t.after_serve(p, pool, binding, &q, latency_s);
            }
            summarize(&q, &pool.tables)
        });
        out.push(QuerySample {
            event,
            latency_s,
            served,
        });
        i += stride;
    }
    (out, tracer.map(Tracer::finish).unwrap_or_default())
}

fn summarize(q: &ServedQuery, tables: &[String]) -> Served {
    let s = &q.record.stats;
    Served {
        action: q.record.action.clone(),
        rows_scanned: s.rows_scanned,
        blocks_skipped: s.blocks_skipped,
        blocks_total: s.blocks_total,
        intermediate_rows: s.intermediate_rows,
        epochs: tables
            .iter()
            .map(|t| q.snapshot.table(t).map_or(u64::MAX, |t| t.data_epoch()))
            .collect(),
        fingerprint: Fingerprint::of(&q.relation),
    }
}

/// Submit `writes[i]` at `start + i / WRITE_RATE` until the deadline,
/// recording each acknowledgement against its due time by polling tickets
/// from this same thread.
fn writer(
    server: &PbdsServer,
    writes: &[(String, Mutation)],
    start: Instant,
    deadline: Instant,
) -> (Vec<WriteSample>, f64, Vec<f64>) {
    let mut pending: VecDeque<(usize, Instant, MutationTicket)> = VecDeque::new();
    let mut done = Vec::new();
    let mut submit_s = Vec::new();
    let mut max_late = 0.0f64;
    let record = |i: usize, due: Instant, t: MutationTicket, done: &mut Vec<WriteSample>| {
        let result = t.wait();
        let ack_s = due.elapsed().as_secs_f64();
        done.push(match result {
            Ok(outcome) => WriteSample {
                index: i,
                ack_s,
                outcome: Some(outcome),
            },
            Err(_) => WriteSample {
                index: i,
                ack_s: f64::INFINITY,
                outcome: None,
            },
        });
    };
    for (i, (table, mutation)) in writes.iter().enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 / WRITE_RATE);
        if due >= deadline {
            break;
        }
        let now = loop {
            while pending.front().is_some_and(|(_, _, t)| t.is_complete()) {
                let (j, d, t) = pending.pop_front().expect("front exists");
                record(j, d, t, &mut done);
            }
            let now = Instant::now();
            if now >= due {
                break now;
            }
            std::thread::sleep((due - now).min(POLL));
        };
        max_late = max_late.max((now - due).as_secs_f64());
        let sw = Instant::now();
        let ticket = server.submit_mutation(table, mutation.clone());
        submit_s.push(sw.elapsed().as_secs_f64());
        pending.push_back((i, due, ticket));
    }
    for (j, d, t) in pending {
        record(j, d, t, &mut done);
    }
    (done, max_late, submit_s)
}
