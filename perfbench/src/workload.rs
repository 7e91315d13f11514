//! The three workloads: their data, query streams, write schedules and the
//! server each one is served by. Everything here is derived from the seed;
//! the program under test only ever sees the generated inputs.

use pbds_algebra::{col, lit, QueryTemplate};
use pbds_bench::datasets::{self, TpchScale};
use pbds_core::{Mutation, PbdsServer, ServerConfig, SketchCatalog, Strategy};
use pbds_storage::{Database, Row, Value};
use pbds_workloads::{sof_pools, tpch, zipf_stream, StreamSpec, TemplatePool, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::Arc;

/// Selectivity gate of the eager strategy (the server's default).
pub const SELECTIVITY_THRESHOLD: f64 = 0.75;
/// Seed of the binding pools. The pools are part of a workload's definition
/// (which parameter values its users ask for), like the dataset; the run's
/// seed draws the traffic over them and the write payloads.
const POOL_SEED: u64 = 5;
/// Zipf skew over the 12-binding pools of the Stack-Overflow stream.
const SOF_SKEW: f64 = 1.1;
const SOF_POOL: usize = 12;
/// Near-uniform skew and pool width of the TPC-H stream.
const TPCH_SKEW: f64 = 0.2;
const TPCH_POOL: usize = 32;
/// Catalog byte budget of `tpch-cold`: below what its pools would store,
/// above what the warm `sof-hot` catalog holds.
pub const TPCH_BYTE_BUDGET: usize = 2 * 1024;
/// Open-loop write rate of `sof-write-mix` (mutations per second).
pub const WRITE_RATE: f64 = 200.0;
/// One mutation in this many is a `DeleteWhere`; the rest are appends.
const DELETE_EVERY: usize = 256;
/// Last day of the TPC-H generator's order-date domain.
const TPCH_DATE_MAX: i64 = 2555;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SofHot,
    TpchCold,
    SofWriteMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::SofHot, Workload::TpchCold, Workload::SofWriteMix];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SofHot => "sof-hot",
            Workload::TpchCold => "tpch-cold",
            Workload::SofWriteMix => "sof-write-mix",
        }
    }

    /// Closed-loop reader sessions.
    pub fn sessions(self) -> usize {
        match self {
            Workload::SofHot => 2,
            Workload::TpchCold | Workload::SofWriteMix => 1,
        }
    }

    pub fn durable(self) -> bool {
        self == Workload::SofWriteMix
    }

    /// Whether set-up warms the catalog (and drains capture) before timing.
    fn warm(self) -> bool {
        self != Workload::TpchCold
    }
}

/// One template with its ranked binding pool and the tables it reads.
pub struct Pool {
    pub template: QueryTemplate,
    pub tables: Vec<String>,
    pub bindings: Vec<Vec<Value>>,
}

/// Everything a run feeds the server, generated from the seed.
pub struct Inputs {
    pub db: Arc<Database>,
    pub pools: Vec<Pool>,
    /// The query stream as `(pool index, binding index)`; sessions cycle
    /// through it until the measured interval ends.
    pub events: Vec<(usize, usize)>,
    /// The open-loop write schedule: mutation `i` is due at `i / WRITE_RATE`.
    pub writes: Vec<(String, Mutation)>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, seconds: f64) -> Inputs {
        let (db, pools, skew, events_per_s) = match workload {
            Workload::SofHot => (
                datasets::sof_db(),
                sof_pools(SOF_POOL, POOL_SEED),
                SOF_SKEW,
                1500.0,
            ),
            // The smaller Stack-Overflow database: every commit makes the
            // next read of the written table rebuild its statistics, index,
            // columnar chunks and zone map, which on `sof_db()` leaves the
            // single reader too few queries per run for a p99.
            Workload::SofWriteMix => (
                datasets::sof_small_db(),
                sof_pools(SOF_POOL, POOL_SEED),
                SOF_SKEW,
                1500.0,
            ),
            Workload::TpchCold => (
                datasets::tpch(TpchScale::Large),
                tpch_pools(POOL_SEED),
                TPCH_SKEW,
                300.0,
            ),
        };
        let stream = zipf_stream(
            &pools,
            &StreamSpec {
                queries: (events_per_s * seconds).ceil() as usize,
                skew,
                seed,
            },
        );
        let events = stream
            .iter()
            .map(|(template, binding)| {
                let p = pools
                    .iter()
                    .position(|p| p.template.name() == template.name())
                    .expect("stream template comes from a pool");
                let b = pools[p]
                    .bindings
                    .iter()
                    .position(|x| x == binding)
                    .expect("stream binding comes from its pool");
                (p, b)
            })
            .collect();
        let pools = pools
            .into_iter()
            .map(|p| Pool {
                tables: p.template.plan().tables(),
                template: p.template,
                bindings: p.bindings,
            })
            .collect();
        let writes = if workload == Workload::SofWriteMix {
            write_schedule(&db, seed, (WRITE_RATE * seconds).ceil() as usize)
        } else {
            Vec::new()
        };
        Inputs {
            db: Arc::new(db),
            pools,
            events,
            writes,
        }
    }
}

/// Pools for every TPC-H template, with bindings drawn uniformly from wide
/// ranges of each parameter's domain. `tpch-q1` keeps its date bound near
/// the end of the domain, so the selectivity gate sends it to plain
/// execution.
fn tpch_pools(seed: u64) -> Vec<TemplatePool> {
    let mut rng = StdRng::seed_from_u64(seed);
    tpch::queries()
        .into_iter()
        .map(|q| {
            let mut bindings: Vec<Vec<Value>> = Vec::new();
            for _ in 0..TPCH_POOL * 4 {
                if bindings.len() == TPCH_POOL {
                    break;
                }
                let b: Vec<i64> = match q.name.as_str() {
                    "Q1" => vec![TPCH_DATE_MAX - rng.gen_range(0..200)],
                    "Q3" => vec![rng.gen_range(0..5)],
                    "Q5" => {
                        let a = rng.gen_range(0..TPCH_DATE_MAX - 365);
                        vec![a, a + 365]
                    }
                    "Q10" | "Q15" => {
                        let a = rng.gen_range(0..TPCH_DATE_MAX - 90);
                        vec![a, a + 90]
                    }
                    "Q17" => vec![rng.gen_range(20..80)],
                    "Q18" => vec![rng.gen_range(180..260)],
                    "Q19" => {
                        let lo = rng.gen_range(1..45);
                        vec![lo, lo + rng.gen_range(2..6), rng.gen_range(1..15)]
                    }
                    "Q21" => vec![rng.gen_range(0..58)],
                    other => panic!("no binding domain for TPC-H template {other}"),
                };
                let b: Vec<Value> = b.into_iter().map(Value::Int).collect();
                if !bindings.contains(&b) {
                    bindings.push(b);
                }
            }
            TemplatePool::new(q.template, bindings)
        })
        .collect()
}

/// `n` mutations on `comments` / `posts`: small appends with fresh ids and
/// Zipf-distributed users, and every `DELETE_EVERY`-th a point delete of a
/// base comment.
fn write_schedule(db: &Database, seed: u64, n: usize) -> Vec<(String, Mutation)> {
    let len = |t: &str| db.table(t).map_or(1, |t| t.len());
    let mut rng = StdRng::seed_from_u64(seed);
    let users = Zipf::new(len("users"), 1.05);
    let base_comments = len("comments") as i64;
    let (mut next_comment, mut next_post) = (base_comments, len("posts") as i64);
    (0..n)
        .map(|i| {
            if i % DELETE_EVERY == DELETE_EVERY - 1 {
                let victim = rng.gen_range(0..base_comments);
                return (
                    "comments".to_string(),
                    Mutation::DeleteWhere(col("commentid").eq(lit(victim))),
                );
            }
            let rows = rng.gen_range(1..=4);
            let mut user = || Value::Int(users.sample(&mut rng) as i64 - 1);
            if i % 3 == 2 {
                let batch: Vec<Row> = (0..rows)
                    .map(|_| {
                        next_post += 1;
                        vec![
                            Value::Int(next_post - 1),
                            user(),
                            Value::Int(0),
                            Value::Int(1),
                        ]
                    })
                    .collect();
                ("posts".to_string(), Mutation::Append(batch))
            } else {
                let batch: Vec<Row> = (0..rows)
                    .map(|_| {
                        next_comment += 1;
                        vec![Value::Int(next_comment - 1), user(), Value::Int(1)]
                    })
                    .collect();
                ("comments".to_string(), Mutation::Append(batch))
            }
        })
        .collect()
}

/// The server configuration of every workload: the defaults, with the
/// selectivity gate spelled out so the tracer can replay it. Durable servers
/// fsync once per group-commit batch and checkpoint every 256 mutations.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        strategy: Strategy::Eager {
            selectivity_threshold: SELECTIVITY_THRESHOLD,
        },
        ..ServerConfig::default()
    }
}

/// Start the workload's server over the generated database.
pub fn start_server(
    workload: Workload,
    db: &Arc<Database>,
    dir: &Path,
) -> Result<PbdsServer, String> {
    let config = server_config();
    let db = Arc::clone(db);
    Ok(match workload {
        Workload::SofHot => PbdsServer::new(db, config),
        Workload::TpchCold => PbdsServer::with_catalog(
            db,
            Arc::new(SketchCatalog::with_byte_budget(TPCH_BYTE_BUDGET)),
            config,
        ),
        Workload::SofWriteMix => {
            PbdsServer::create(dir, db, config).map_err(|e| format!("create {dir:?}: {e}"))?
        }
    })
}

/// Warm the catalog: serve every pooled binding, let capture finish, and
/// repeat once so bindings a first-round sketch did not cover get theirs.
pub fn warm_up(workload: Workload, server: &PbdsServer, pools: &[Pool]) -> Result<(), String> {
    if !workload.warm() {
        return Ok(());
    }
    let session = server.session();
    for _ in 0..2 {
        for p in pools {
            for b in &p.bindings {
                session
                    .serve(&p.template, b)
                    .map_err(|e| format!("warm-up {}: {e}", p.template.name()))?;
            }
        }
        server.drain();
    }
    Ok(())
}
