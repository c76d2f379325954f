//! The three workloads and the seeded inputs each one sends.
//!
//! Graphs come from `csag-datasets::generator` with [`GRAPH_SEED`], so a
//! workload's graph never changes between runs; the run seed drives
//! everything sent to the server: which nodes are queried, with which
//! SEA seeds and priorities, and which update lines are written.

use csag::datasets::generator::{generate, SyntheticConfig};
use csag::datasets::{random_updates, ChurnMix};
use csag::decomp::core_decomposition;
use csag::graph::{AttributedGraph, GraphUpdate};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::time::Duration;

/// Seed of every workload graph.
pub const GRAPH_SEED: u64 = 0xC5A6_2024;
/// Cohesion parameter of every read.
pub const K: u32 = 3;
/// SEA error bound of every read.
pub const ERROR: f64 = 0.1;
/// Query node of the set-up read; no measured read uses it.
pub const SETUP_Q: u32 = 0;
/// Reads generated per second of window: more than a closed loop finishes.
const READS_PER_S: f64 = 4000.0;
/// Update lines generated per second of window on churn-wal: more than
/// the server acknowledges, even on the self-test's small graph.
const CHURN_LINES_PER_S: f64 = 4000.0;

/// How reads and writes are offered. Both shapes are closed loops that
/// keep the server busy for the whole window: on a small shared virtual
/// machine, runs that left the cores idle between requests moved by
/// 20-40% from run to run (see `perfbench/README.md`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Traffic {
    /// Five read phases with `depth` reads in flight on each of `nproc`
    /// connections, each phase followed by a fifth of `probe_writes`
    /// writes (add/remove pairs, so an even number).
    Phases { depth: usize, probe_writes: usize },
    /// One connection keeps one read in flight while update lines go out
    /// on the feed one at a time, each as soon as the one before it is
    /// acknowledged.
    Churn,
}

/// Which query nodes the reads name.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Queries {
    /// Zipf(`zipf_s`) over a fixed hot set of `set` nodes, each read with
    /// one of `seeds` SEA seeds, so identical requests recur.
    Hot { set: usize, zipf_s: f64, seeds: u64 },
    /// Every node of a fixed hot set of `set` nodes in turn (in a fresh
    /// seeded order each round), each read with one of `seeds` SEA seeds.
    Cycle { set: usize, seeds: u64 },
    /// Every read names a node no other read of the run names, in a fixed
    /// order; the run seed draws each read's SEA seed.
    Distinct,
}

/// One workload: graph size, traffic shape and the limits it is judged by.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub nodes: usize,
    pub communities: usize,
    pub traffic: Traffic,
    pub queries: Queries,
    /// Interactive, standard and batch reads in the ratio 1:2:1.
    pub mixed_priorities: bool,
    /// Serve with `--wal` (default flush policy).
    pub wal: bool,
    /// Every this many reads pins the last acknowledged epoch (0: never).
    pub pin_every: usize,
    /// WAL checkpoints a run must cover to be valid.
    pub min_checkpoints: u64,
    /// A read answered later than this counts as a miss in
    /// `read_ok_share`.
    pub latency_limit_ms: f64,
    /// Server start-ups per run; `setup_s` is their median.
    pub setup_runs: usize,
    /// Reads the traced replay repeats.
    pub trace_reads: usize,
}

/// The workload names `BENCHMARK.json` lists.
pub const NAMES: [&str; 3] = ["hot-small", "cold-large", "churn-wal"];

impl Workload {
    /// The workload called `name`, at full scale.
    pub fn named(name: &str) -> Option<Workload> {
        Some(match name {
            "hot-small" => Workload {
                name: "hot-small",
                nodes: 1500,
                communities: 12,
                traffic: Traffic::Phases {
                    depth: 4,
                    probe_writes: 2000,
                },
                queries: Queries::Hot {
                    set: 32,
                    zipf_s: 1.1,
                    seeds: 4,
                },
                mixed_priorities: true,
                wal: false,
                pin_every: 0,
                min_checkpoints: 0,
                latency_limit_ms: 50.0,
                setup_runs: 41,
                trace_reads: 2000,
            },
            "cold-large" => Workload {
                name: "cold-large",
                nodes: 50_000,
                communities: 400,
                traffic: Traffic::Phases {
                    depth: 1,
                    probe_writes: 150,
                },
                queries: Queries::Distinct,
                mixed_priorities: false,
                wal: false,
                pin_every: 0,
                min_checkpoints: 0,
                latency_limit_ms: 500.0,
                setup_runs: 5,
                trace_reads: 100,
            },
            "churn-wal" => Workload {
                name: "churn-wal",
                nodes: 50_000,
                communities: 400,
                traffic: Traffic::Churn,
                queries: Queries::Cycle { set: 32, seeds: 4 },
                mixed_priorities: false,
                wal: true,
                pin_every: 4,
                min_checkpoints: 3,
                latency_limit_ms: 1000.0,
                setup_runs: 5,
                trace_reads: 100,
            },
            _ => return None,
        })
    }

    /// The same traffic shape on a 600-node graph, for the self-test.
    pub fn tiny(mut self) -> Workload {
        self.nodes = 600;
        self.communities = 6;
        self.setup_runs = 2;
        if let Traffic::Phases { probe_writes, .. } = &mut self.traffic {
            *probe_writes = (*probe_writes).min(20);
        }
        self.trace_reads = self.trace_reads.min(100);
        self.min_checkpoints = 0;
        self
    }

    /// The workload's graph (fixed: independent of the run seed).
    pub fn graph(&self) -> AttributedGraph {
        let config = SyntheticConfig {
            nodes: self.nodes,
            communities: self.communities,
            ..Default::default()
        };
        generate(&config, GRAPH_SEED).0
    }

    /// The reads and writes of one run of `window`, drawn from `seed`.
    pub fn inputs(&self, g: &AttributedGraph, seed: u64, window: Duration) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed);
        // Query nodes keep a margin above k so no edge removal of the
        // write feed can leave one without a community.
        let coreness = core_decomposition(g);
        let eligible: Vec<u32> = (0..g.n() as u32)
            .filter(|&v| v != SETUP_Q && coreness[v as usize] >= K + 2)
            .collect();
        let secs = window.as_secs_f64();
        // More than a closed loop can finish in the window.
        let count = (READS_PER_S * secs) as usize;
        let count = match self.queries {
            Queries::Distinct => count.min(eligible.len()),
            _ => count,
        };
        let mut reads = Vec::with_capacity(count);
        let mut draw_node: DrawNode = match self.queries {
            Queries::Hot { set, zipf_s, seeds } => {
                let hot = sample(&eligible, set, GRAPH_SEED);
                let weights: Vec<f64> = (1..=hot.len())
                    .map(|r| 1.0 / (r as f64).powf(zipf_s))
                    .collect();
                let total: f64 = weights.iter().sum();
                Box::new(move |rng: &mut StdRng| {
                    let mut x = rng.gen_range(0.0..total);
                    let mut i = 0;
                    while i + 1 < weights.len() && x >= weights[i] {
                        x -= weights[i];
                        i += 1;
                    }
                    (hot[i], rng.gen_range(0..seeds))
                })
            }
            Queries::Cycle { set, seeds } => {
                let hot = sample(&eligible, set, GRAPH_SEED);
                let mut round: Vec<u32> = Vec::new();
                Box::new(move |rng: &mut StdRng| {
                    if round.is_empty() {
                        round = sample(&hot, hot.len(), rng.next_u64());
                    }
                    let q = round.pop().expect("hot set is not empty");
                    (q, rng.gen_range(0..seeds))
                })
            }
            Queries::Distinct => {
                // A fixed order keeps each run's node mix, and so its mean
                // certificate margin, comparable across seeds.
                let order = sample(&eligible, count, GRAPH_SEED ^ 0x0DD5);
                let mut next = 0usize;
                Box::new(move |rng: &mut StdRng| {
                    let q = order[next % order.len()];
                    next += 1;
                    (q, rng.next_u64() % 1_000_000)
                })
            }
        };
        for i in 0..count {
            let (q, sea_seed) = draw_node(&mut rng);
            let priority = if self.mixed_priorities {
                ["interactive", "standard", "standard", "batch"][rng.gen_range(0..4usize)]
            } else {
                "standard"
            };
            reads.push(ReadOp {
                q,
                seed: sea_seed,
                priority,
                pinned: self.pin_every > 0 && i % self.pin_every == self.pin_every - 1,
            });
        }
        let mut wrng = StdRng::seed_from_u64(seed ^ 0x003A_17E5);
        let writes = match self.traffic {
            Traffic::Churn => random_updates(
                g,
                &mut wrng,
                (CHURN_LINES_PER_S * secs) as usize,
                ChurnMix::MIXED,
            )
            .iter()
            .map(GraphUpdate::to_line)
            .collect(),
            // Probe writes come in pairs that add an absent edge and remove
            // it again, so every read phase sees the graph it started with.
            Traffic::Phases { probe_writes, .. } => (0..probe_writes / 2)
                .flat_map(|_| {
                    let (u, v) = loop {
                        let u = wrng.gen_range(0..g.n() as u32);
                        let v = wrng.gen_range(0..g.n() as u32);
                        if u != v && !g.has_edge(u, v) {
                            break (u, v);
                        }
                    };
                    [
                        GraphUpdate::AddEdge { u, v }.to_line(),
                        GraphUpdate::RemoveEdge { u, v }.to_line(),
                    ]
                })
                .collect(),
        };
        Inputs { reads, writes }
    }
}

/// Draws a read's query node and SEA seed.
type DrawNode = Box<dyn FnMut(&mut StdRng) -> (u32, u64)>;

/// `count` distinct members of `pool`, in a seeded random order.
fn sample(pool: &[u32], count: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool = pool.to_vec();
    let take = count.min(pool.len());
    for i in 0..take {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    pool.truncate(take);
    pool
}

/// One community-search read.
#[derive(Clone, Debug)]
pub struct ReadOp {
    pub q: u32,
    pub seed: u64,
    pub priority: &'static str,
    /// Pin the epoch of the last acknowledged write.
    pub pinned: bool,
}

impl ReadOp {
    /// The csag-wire request line, without its trailing newline.
    pub fn line(&self, id: usize, pin: Option<u64>) -> String {
        let mut s = format!(
            "{{\"id\":{id},\"method\":\"sea\",\"q\":{},\"k\":{K},\"error\":{ERROR},\"seed\":{},\"priority\":\"{}\"",
            self.q, self.seed, self.priority
        );
        if let Some(e) = pin {
            s.push_str(&format!(",\"epoch\":{e}"));
        }
        s.push('}');
        s
    }
}

/// Everything one run sends.
#[derive(Clone, Debug)]
pub struct Inputs {
    pub reads: Vec<ReadOp>,
    /// csag-updates lines, without their trailing newline.
    pub writes: Vec<String>,
}
