//! The traced run: the workload's inputs replayed in-process, one call
//! at a time, through each layer's public functions, with a span around
//! every call.
//!
//! Spans live in memory and are written out as JSON lines when the
//! replay ends. Children the harness cannot time from outside come from
//! what the API returns: `Response::queue_wait` and the engine's
//! `CommunityResult::timings` (prepare, S1 sampling, S2 estimation, S3
//! incremental), laid end to end inside their parent.

use crate::stats::{mean, median, quantile};
use crate::workload::{Inputs, ReadOp};
use csag::decomp::core_decomposition;
use csag::engine::{CommunityResult, CsagError, GraphStore, GraphUpdate};
use csag::graph::alloc_counter::allocation_count;
use csag::graph::io::load_graph;
use csag::graph::MutableGraph;
use csag::service::{
    parse_wire_request, response_to_json, Response, Service, ServiceConfig, Ticket,
};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The ledger check's tolerance: self times must add up to the replay's
/// wall time within this share.
pub const LEDGER_TOLERANCE: f64 = 0.05;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    /// The request the span belongs to (0: set-up).
    pub req: u64,
}

/// The in-memory span store.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> Duration {
        self.t0.elapsed()
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
        });
        (self.spans.len() - 1, out)
    }

    /// Opens a span closed later with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let t = self.now();
        self.spans.push(Span {
            name,
            start: t,
            end: t,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Records a child whose length the API reported, starting at `start`.
    pub fn derived(
        &mut self,
        name: &'static str,
        parent: usize,
        req: u64,
        start: Duration,
        len: Duration,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end: start + len,
            parent: Some(parent),
            req,
        });
        self.spans.len() - 1
    }

    fn ms(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end.saturating_sub(s.start)).as_secs_f64() * 1e3
    }

    /// Each span's self time in ms: its length minus the part of it its
    /// children cover.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut iv: Vec<(Duration, Duration)> = children[i]
                    .iter()
                    .map(|&c| {
                        (
                            self.spans[c].start.max(s.start),
                            self.spans[c].end.min(s.end),
                        )
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                iv.sort();
                let mut covered = Duration::ZERO;
                let mut reach = s.start;
                for (a, b) in iv {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end.saturating_sub(s.start).saturating_sub(covered)).as_secs_f64() * 1e3
            })
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let file =
            std::fs::File::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"req\":{}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.req
            )
            .map_err(|e| format!("writing spans: {e}"))?;
        }
        out.flush().map_err(|e| format!("writing spans: {e}"))
    }
}

/// What the traced replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    pub load_ms: f64,
    pub core_ms: f64,
    pub read_ms: Vec<f64>,
    pub prepare_ms: Vec<f64>,
    pub s1_ms: Vec<f64>,
    pub s2_ms: Vec<f64>,
    pub s3_ms: Vec<f64>,
    pub population: Vec<f64>,
    pub sample_size: Vec<f64>,
    pub rounds: Vec<f64>,
    pub parse_us: Vec<f64>,
    pub render_us: Vec<f64>,
    pub response_bytes: Vec<f64>,
    pub service_self_ms: Vec<f64>,
    pub read_allocs: Vec<f64>,
    pub cache_hit_share: f64,
    pub apply_ms: Vec<f64>,
    /// Per write: apply on a write-only store with the WAL minus apply
    /// on a write-only store without it.
    pub wal_cost_ms: Vec<f64>,
    pub snapshot_ms: Vec<f64>,
    pub coreness_changed: Vec<f64>,
    pub tables_retained: usize,
    pub tables_total: usize,
    pub write_allocs: Vec<f64>,
    pub wal_checkpoints: f64,
    pub wal_bytes_per_write: f64,
    /// Σ self time over the replay's wall time.
    pub ledger_ratio: f64,
    /// Estimated share of the wall time spent recording spans.
    pub overhead_share: f64,
    pub spans: usize,
    /// Summed self time per span name, in ms.
    pub self_by_name: BTreeMap<&'static str, f64>,
}

/// Replays `inputs` (the first `read_count` reads, then the first
/// `write_count` writes) against an in-process store built from the
/// graph file, tracing every call. Spans are written to `spans_out`.
pub fn replay(
    graph_file: &Path,
    inputs: &Inputs,
    read_count: usize,
    write_count: usize,
    wal_dir: &Path,
    spans_out: &Path,
) -> Result<Replay, String> {
    let mut tr = Tracer::new();
    let mut out = Replay::default();
    let wall_start = tr.now();

    // Set-up layers, three times each; the last graph is served.
    let mut loads = Vec::new();
    let mut cores = Vec::new();
    let mut graph = None;
    for _ in 0..3 {
        let (id, g) = tr.span("graph.io.load", None, 0, || load_graph(graph_file));
        loads.push(tr.ms(id));
        let g = g.map_err(|e| format!("loading {}: {e}", graph_file.display()))?;
        let (id, core) = tr.span("decomp.core", None, 0, || core_decomposition(&g));
        cores.push(tr.ms(id));
        std::hint::black_box(core);
        graph = Some(g);
    }
    out.load_ms = median(&loads);
    out.core_ms = median(&cores);
    let graph = Arc::new(graph.expect("loaded three times"));
    let (_, store) = tr.span("setup.store", None, 0, || {
        Arc::new(GraphStore::from_arc(Arc::clone(&graph)))
    });
    // Two write-only stores, identical but for the WAL, isolate its cost
    // from the serving store's distance-table upkeep.
    let (_, bare_store) = tr.span("setup.bare_store", None, 0, || {
        GraphStore::from_arc(Arc::clone(&graph))
    });
    let (_, wal_store) = tr.span("setup.wal_store", None, 0, || {
        GraphStore::with_wal((*graph).clone(), wal_dir)
    });
    let wal_store = wal_store.map_err(|e| format!("creating wal in {}: {e}", wal_dir.display()))?;
    let stores = Stores {
        serving: &store,
        bare: &bare_store,
        wal: &wal_store,
    };
    // One worker: calls arrive one at a time, and a single workspace
    // keeps allocation counts identical from run to run.
    let (_, service) = tr.span("setup.service", None, 0, || {
        Service::new(Arc::clone(&store), ServiceConfig::default().with_workers(1))
    });
    let (_, mut mutable) = tr.span("setup.mutable", None, 0, || {
        MutableGraph::from_graph(&graph)
    });

    for (i, op) in inputs.reads[..read_count].iter().enumerate() {
        replay_read(&mut tr, &mut out, op, i, &service, &store)?;
    }
    for (i, line) in inputs.writes[..write_count].iter().enumerate() {
        replay_write(&mut tr, &mut out, line, i, &stores, &mut mutable)?;
    }
    let wall = (tr.now() - wall_start).as_secs_f64() * 1e3;

    let m = service.metrics();
    out.cache_hit_share = m.warm_hits as f64 / m.executed.max(1) as f64;
    if let Some(status) = wal_store.wal_status() {
        out.wal_checkpoints = status.checkpoints as f64;
    }
    let log_bytes: u64 = std::fs::read_dir(wal_dir)
        .map_err(|e| format!("listing {}: {e}", wal_dir.display()))?
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().ends_with(".log"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    out.wal_bytes_per_write = log_bytes as f64 / write_count.max(1) as f64;

    out.self_by_name = self_by_name(&tr);
    let self_total: f64 = out.self_by_name.values().sum();
    out.ledger_ratio = self_total / wall;
    out.spans = tr.spans.len();
    out.overhead_share = out.spans as f64 * span_cost_ms() / wall;
    tr.write_jsonl(spans_out)?;
    if (out.ledger_ratio - 1.0).abs() > LEDGER_TOLERANCE {
        return Err(format!(
            "span ledger: self times add up to {:.4} of the traced wall time (tolerance {LEDGER_TOLERANCE})",
            out.ledger_ratio
        ));
    }
    Ok(out)
}

fn replay_read(
    tr: &mut Tracer,
    out: &mut Replay,
    op: &ReadOp,
    i: usize,
    service: &Service,
    store: &GraphStore,
) -> Result<(), String> {
    let req = i as u64 + 1;
    let root = tr.open("read", None, req);
    let pin = op.pinned.then(|| store.published_epoch());
    let line = op.line(i, pin);
    let (parse, wire) = tr.span("wire.parse", Some(root), req, || {
        parse_wire_request(&line, i)
    });
    let wire = wire.map_err(|e| format!("request {i} does not parse: {e}"))?;
    let before = allocation_count();
    let (call, resp) = tr.span("service.call", Some(root), req, || {
        service.submit(wire.request).map(poll)
    });
    let allocs = allocation_count() - before;
    let resp = resp.map_err(|e| format!("request {i} refused: {e}"))?;
    // A definitive `no_community` is a correct answer with no engine
    // timings to split; anything else ends the replay.
    let result: Option<Arc<CommunityResult>> = match &resp.outcome {
        Ok(r) => Some(Arc::clone(r)),
        Err(CsagError::NoCommunity { .. }) => None,
        Err(e) => return Err(format!("request {i} failed: {e}")),
    };
    let call_start = tr.spans[call].start;
    let queue = tr.derived("service.queue", call, req, call_start, resp.queue_wait);
    let mut engine_ms = 0.0;
    if let Some(result) = &result {
        let t = result.timings;
        engine_ms = t.total.as_secs_f64() * 1e3;
        let engine = tr.derived("engine.run", call, req, tr.spans[queue].end, t.total);
        let mut at = tr.spans[engine].start;
        for (name, len) in [
            ("engine.prepare", t.prepare),
            ("sea.s1", t.sampling),
            ("sea.s2", t.estimation),
            ("sea.s3", t.incremental),
        ] {
            tr.derived(name, engine, req, at, len);
            at += len;
        }
    }
    let (render, text) = tr.span("wire.render", Some(root), req, || {
        response_to_json(&wire.id, &resp)
    });
    tr.close(root);

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    out.read_ms.push(tr.ms(root));
    out.parse_us.push(tr.ms(parse) * 1e3);
    out.render_us.push(tr.ms(render) * 1e3);
    out.response_bytes.push(text.len() as f64);
    out.service_self_ms
        .push((tr.ms(call) - ms(resp.queue_wait) - engine_ms).max(0.0));
    out.read_allocs.push(allocs as f64);
    if let Some(result) = result {
        let t = result.timings;
        out.prepare_ms.push(ms(t.prepare));
        out.s1_ms.push(ms(t.sampling));
        out.s2_ms.push(ms(t.estimation));
        out.s3_ms.push(ms(t.incremental));
        out.population
            .push(result.provenance.population_size as f64);
        out.sample_size.push(result.provenance.sample_size as f64);
        out.rounds.push(result.provenance.rounds as f64);
    }
    Ok(())
}

/// The stores a write is applied to.
struct Stores<'a> {
    /// Serves the replayed reads, so its apply carries their tables.
    serving: &'a GraphStore,
    bare: &'a GraphStore,
    wal: &'a GraphStore,
}

fn replay_write(
    tr: &mut Tracer,
    out: &mut Replay,
    line: &str,
    i: usize,
    stores: &Stores,
    mutable: &mut MutableGraph,
) -> Result<(), String> {
    let req = 1_000_000_000 + i as u64;
    let root = tr.open("write", None, req);
    let (_, update) = tr.span("updates.parse", Some(root), req, || {
        GraphUpdate::parse_line(line)
    });
    let update = update.map_err(|e| format!("update {i} does not parse: {e}"))?;
    let batch = std::slice::from_ref(&update);
    let before = allocation_count();
    let (apply, report) = tr.span("store.apply", Some(root), req, || {
        stores.serving.apply(batch)
    });
    let allocs = allocation_count() - before;
    let report = report.map_err(|e| format!("update {i} failed: {e}"))?;
    let (apply_bare, bare) = tr.span("store.apply_bare", Some(root), req, || {
        stores.bare.apply(batch)
    });
    bare.map_err(|e| format!("update {i} failed: {e}"))?;
    let (apply_wal, logged) = tr.span("store.apply_wal", Some(root), req, || {
        stores.wal.apply(batch)
    });
    logged.map_err(|e| format!("update {i} failed with the wal: {e}"))?;
    tr.span("graph.mutable_apply", Some(root), req, || {
        mutable.apply(&update)
    })
    .1
    .map_err(|e| format!("update {i} failed on the working copy: {e}"))?;
    let (snap, g) = tr.span("graph.snapshot", Some(root), req, || mutable.snapshot());
    tr.span("graph.drop", Some(root), req, || drop(g));
    tr.close(root);

    out.apply_ms.push(tr.ms(apply));
    out.wal_cost_ms.push(tr.ms(apply_wal) - tr.ms(apply_bare));
    out.snapshot_ms.push(tr.ms(snap));
    out.coreness_changed.push(report.coreness_changed as f64);
    out.tables_retained += report.distance_tables_retained;
    out.tables_total += report.distance_tables_retained + report.distance_tables_invalidated;
    out.write_allocs.push(allocs as f64);
    Ok(())
}

/// Waits for a ticket by polling `Ticket::try_wait`. A blocking
/// `Ticket::wait` registers a waker only when the answer is not ready
/// yet, which would make the allocation count depend on timing.
fn poll(mut ticket: Ticket) -> Response {
    loop {
        match ticket.try_wait() {
            Ok(resp) => return resp,
            Err(t) => {
                ticket = t;
                std::hint::spin_loop();
            }
        }
    }
}

/// Measured cost of recording one span, in ms.
fn span_cost_ms() -> f64 {
    const N: usize = 20_000;
    let mut tr = Tracer::new();
    let root = tr.open("probe", None, 0);
    let t = Instant::now();
    for _ in 0..N {
        let (_, x) = tr.span("probe", Some(root), 0, || std::hint::black_box(1u8));
        std::hint::black_box(x);
    }
    t.elapsed().as_secs_f64() * 1e3 / N as f64
}

impl Replay {
    /// The per-layer metrics of this replay as `(name, value, unit)`.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("graph.io.load_ms", self.load_ms, "ms"),
            ("decomp.core_ms", self.core_ms, "ms"),
            ("engine.prepare_ms", median(&self.prepare_ms), "ms"),
            ("engine.cache_hit_share", self.cache_hit_share, "ratio"),
            ("engine.allocs_per_read", median(&self.read_allocs), "count"),
            ("sea.s1_ms", median(&self.s1_ms), "ms"),
            ("sea.s2_ms", median(&self.s2_ms), "ms"),
            ("sea.s3_ms", median(&self.s3_ms), "ms"),
            ("sea.population", mean(&self.population), "count"),
            ("sea.sample_size", mean(&self.sample_size), "count"),
            ("sea.rounds", mean(&self.rounds), "count"),
            ("wire.parse_us", median(&self.parse_us), "us"),
            ("wire.render_us", median(&self.render_us), "us"),
            ("wire.response_bytes", mean(&self.response_bytes), "bytes"),
            ("service.self_ms", median(&self.service_self_ms), "ms"),
            ("store.apply_p50_ms", median(&self.apply_ms), "ms"),
            ("store.apply_p99_ms", quantile(&self.apply_ms, 0.99), "ms"),
            (
                "store.coreness_changed_per_write",
                mean(&self.coreness_changed),
                "count",
            ),
            (
                "store.tables_retained_share",
                self.tables_retained as f64 / self.tables_total.max(1) as f64,
                "ratio",
            ),
            (
                "store.allocs_per_write",
                median(&self.write_allocs),
                "count",
            ),
            ("graph.snapshot_ms", median(&self.snapshot_ms), "ms"),
            ("wal.cost_ms", median(&self.wal_cost_ms), "ms"),
            ("wal.checkpoints", self.wal_checkpoints, "count"),
            ("wal.bytes_per_write", self.wal_bytes_per_write, "bytes"),
            ("trace.read_p50_ms", median(&self.read_ms), "ms"),
            ("trace.ledger_ratio", self.ledger_ratio, "ratio"),
            ("trace.overhead_share", self.overhead_share, "ratio"),
        ]
    }
}

/// Self time per span name, summed.
fn self_by_name(tr: &Tracer) -> BTreeMap<&'static str, f64> {
    let mut by = BTreeMap::new();
    for (s, ms) in tr.spans.iter().zip(tr.self_ms()) {
        *by.entry(s.name).or_insert(0.0) += ms;
    }
    by
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut tr = Tracer::new();
        let ms = Duration::from_millis;
        tr.spans.push(Span {
            name: "root",
            start: ms(0),
            end: ms(10),
            parent: None,
            req: 1,
        });
        tr.spans.push(Span {
            name: "a",
            start: ms(1),
            end: ms(4),
            parent: Some(0),
            req: 1,
        });
        tr.spans.push(Span {
            name: "b",
            start: ms(3),
            end: ms(6),
            parent: Some(0),
            req: 1,
        });
        // A child reaching past its parent only covers the overlap.
        tr.spans.push(Span {
            name: "c",
            start: ms(9),
            end: ms(12),
            parent: Some(0),
            req: 1,
        });
        let own = tr.self_ms();
        assert!(
            (own[0] - 4.0).abs() < 1e-9,
            "10 - [1,6) - [9,10) = 4, got {}",
            own[0]
        );
        assert!((own[1] - 3.0).abs() < 1e-9);
        assert!((own[3] - 3.0).abs() < 1e-9);
        let by = self_by_name(&tr);
        assert!((by["b"] - 3.0).abs() < 1e-9);
    }
}
