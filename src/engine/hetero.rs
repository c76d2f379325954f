//! Heterogeneous community search through the engine facade.
//!
//! A `(k, P)-core` of a heterogeneous graph is exactly a k-core of the
//! meta-path projection (paper §VI-A), so the engine can serve hetero
//! queries by projecting once and reusing everything the homogeneous
//! [`Engine`] already has — cached decompositions, the sharded distance
//! cache, batch execution. [`HeteroEngine`] packages that seam: it owns
//! the projection *and* the id mappings, so callers speak original
//! heterogeneous node ids end to end and never hand-roll
//! `projection.local(..)` / `projection.original(..)` translations.
//!
//! Both of the paper's §VI-A strategies live behind the same facade:
//!
//! * **project-then-query** ([`Method::Exact`], [`Method::Sea`], the
//!   baselines): the full projection is materialized *lazily on first
//!   use* and cached, then every homogeneous machine applies;
//! * **sample-then-project** ([`Method::SeaHetero`]): the native
//!   index-free SEA pipeline grows the P-neighborhood on the
//!   heterogeneous graph and only projects the sampled subset — the
//!   right tool when the full projection is too expensive to
//!   materialize. Queries answered this way never trigger the cached
//!   projection at all ([`HeteroEngine::projection_computed`] observes
//!   that).

use super::error::CsagError;
use super::query::{CommunityQuery, Method};
use super::result::CommunityResult;
use super::{sea_community_result, Engine};
use csag_core::hetero_cs::SeaHetero;
use csag_graph::{HeteroGraph, MetaPath, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// The lazily materialized projection: a homogeneous [`Engine`] plus the
/// ascending original id of every projection-local node.
struct Projected {
    engine: Engine,
    to_original: Vec<NodeId>,
}

impl Projected {
    fn build(g: &HeteroGraph, path: &MetaPath) -> Self {
        let projection = g.project(path);
        Projected {
            engine: Engine::new(projection.graph),
            to_original: projection.to_original,
        }
    }
}

/// An [`Engine`] over a meta-path projection, addressed by *original*
/// heterogeneous node ids.
///
/// ```
/// use csag::engine::{CommunityQuery, HeteroEngine, Method};
/// use csag::graph::{HeteroGraphBuilder, MetaPath};
///
/// // Three authors co-writing pairwise through three papers.
/// let mut b = HeteroGraphBuilder::new(0);
/// let (author, paper) = (b.node_type("author"), b.node_type("paper"));
/// let writes = b.edge_type("writes");
/// let a: Vec<u32> = (0..3).map(|_| b.add_node(author, &["ml"], &[])).collect();
/// let p: Vec<u32> = (0..3).map(|_| b.add_node(paper, &[], &[])).collect();
/// for (i, j) in [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)] {
///     b.add_edge(a[i], p[j], writes).unwrap();
/// }
/// let engine = HeteroEngine::project(&b.build(), &MetaPath::new(
///     vec![author, paper, author],
///     vec![writes, writes],
/// ));
/// let res = engine
///     .run(&CommunityQuery::new(Method::Exact, a[0]).with_k(2))
///     .expect("the co-author triangle is a (2,P)-core");
/// assert_eq!(res.community, a);
/// ```
pub struct HeteroEngine {
    /// The heterogeneous graph, retained only by the constructors that
    /// take (or share) ownership — [`Method::SeaHetero`] needs it at
    /// query time. [`HeteroEngine::project`] keeps its historical
    /// cost (projection only, no graph copy or retention) and serves
    /// the projection-based methods alone.
    hetero: Option<Arc<HeteroGraph>>,
    path: MetaPath,
    projected: OnceLock<Projected>,
}

impl HeteroEngine {
    /// Builds the facade over `g` under the symmetric meta-path `path`
    /// **without projecting anything yet**: the full projection is
    /// materialized lazily, on the first query that needs it.
    /// [`Method::SeaHetero`] queries sample before projecting and never
    /// need it.
    ///
    /// # Panics
    /// If the meta-path is not symmetric-typed (source type ≠ end type).
    pub fn new(g: HeteroGraph, path: MetaPath) -> Self {
        HeteroEngine::from_arc(Arc::new(g), path)
    }

    /// [`HeteroEngine::new`] over an already-shared graph (no copy).
    ///
    /// # Panics
    /// If the meta-path is not symmetric-typed.
    pub fn from_arc(g: Arc<HeteroGraph>, path: MetaPath) -> Self {
        assert!(
            path.is_symmetric_typed(),
            "community search requires a symmetric meta-path"
        );
        HeteroEngine {
            hetero: Some(g),
            path,
            projected: OnceLock::new(),
        }
    }

    /// Builds the facade and materializes the projection *eagerly* (the
    /// reusable per-graph preparation — do it once, query many times,
    /// with no first-query latency cliff).
    ///
    /// Because it only borrows `g`, this constructor keeps exactly its
    /// historical cost: it builds the projection and retains **no copy
    /// of the heterogeneous graph** — so [`Method::SeaHetero`] (which
    /// samples the original graph at query time) is *not* servable
    /// through a facade built this way and returns
    /// [`CsagError::InvalidParams`]. Use [`HeteroEngine::new`] /
    /// [`HeteroEngine::from_arc`] / [`HeteroEngine::project_arc`] when
    /// you want both strategies.
    ///
    /// # Panics
    /// If the meta-path is not symmetric-typed (source type ≠ end type),
    /// like [`HeteroGraph::project`].
    pub fn project(g: &HeteroGraph, path: &MetaPath) -> Self {
        assert!(
            path.is_symmetric_typed(),
            "community search requires a symmetric meta-path"
        );
        let engine = HeteroEngine {
            hetero: None,
            path: path.clone(),
            projected: OnceLock::new(),
        };
        engine
            .projected
            .set(Projected::build(g, path))
            .unwrap_or_else(|_| unreachable!("fresh OnceLock"));
        engine
    }

    /// [`HeteroEngine::project`] over an already-shared graph — eager
    /// projection, no graph copy, and (unlike the borrowing
    /// [`HeteroEngine::project`]) the graph stays shared so
    /// [`Method::SeaHetero`] remains servable.
    ///
    /// # Panics
    /// If the meta-path is not symmetric-typed.
    pub fn project_arc(g: Arc<HeteroGraph>, path: MetaPath) -> Self {
        let engine = HeteroEngine::from_arc(g, path);
        let _ = engine.projected();
        engine
    }

    fn projected(&self) -> &Projected {
        self.projected.get_or_init(|| {
            let g = self
                .hetero
                .as_ref()
                .expect("a facade without the graph is always built eagerly projected");
            Projected::build(g, &self.path)
        })
    }

    /// Whether the full meta-path projection has been materialized —
    /// `false` as long as only [`Method::SeaHetero`] queries (which
    /// sample before projecting) have run against a lazily built facade.
    pub fn projection_computed(&self) -> bool {
        self.projected.get().is_some()
    }

    /// The underlying heterogeneous graph, when this facade retains one
    /// (`None` for facades built with the borrowing
    /// [`HeteroEngine::project`]).
    pub fn hetero_graph(&self) -> Option<&HeteroGraph> {
        self.hetero.as_deref()
    }

    /// The meta-path this facade projects along.
    pub fn meta_path(&self) -> &MetaPath {
        &self.path
    }

    /// The underlying engine over the projected graph (projection-local
    /// ids; for cache probes and advanced use). Forces the projection.
    pub fn engine(&self) -> &Engine {
        &self.projected().engine
    }

    /// Original ids of every target-type node, ascending — the valid
    /// query nodes of this engine. Forces the projection.
    pub fn target_nodes(&self) -> &[NodeId] {
        &self.projected().to_original
    }

    /// Maps an original node id to its projection-local id, if it is a
    /// target-type node. Forces the projection.
    pub fn local(&self, original: NodeId) -> Option<NodeId> {
        let to_original = &self.projected().to_original;
        to_original
            .binary_search(&original)
            .ok()
            .map(|i| i as NodeId)
    }

    /// Maps a projection-local id back to the original graph. Forces the
    /// projection.
    pub fn original(&self, local: NodeId) -> NodeId {
        self.projected().to_original[local as usize]
    }

    /// Runs one query whose `q` (and resulting community) are original
    /// heterogeneous node ids. [`Method::SeaHetero`] dispatches to the
    /// native sample-then-project pipeline; every other method runs on
    /// the (lazily cached) full projection.
    ///
    /// # Errors
    /// [`CsagError::QueryNodeNotFound`] if `query.q` is not a target-type
    /// node of the projection; otherwise the same errors as
    /// [`Engine::run`].
    pub fn run(&self, query: &CommunityQuery) -> Result<CommunityResult, CsagError> {
        if query.method == Method::SeaHetero {
            return self.run_native(query);
        }
        let local = self.localized(query)?;
        self.projected()
            .engine
            .run(&local)
            .map(|res| self.globalize(res))
    }

    /// [`HeteroEngine::run`] over a batch, in parallel, preserving order;
    /// original ids in, original ids out. Projection-based queries share
    /// the homogeneous engine's batch machinery (per-worker workspaces);
    /// [`Method::SeaHetero`] queries fan out over the native pipeline.
    pub fn run_batch(&self, queries: &[CommunityQuery]) -> Vec<Result<CommunityResult, CsagError>> {
        // Translate up front so the engine batch stays homogeneous; a
        // non-target query node yields its error in place, and native
        // sample-then-project queries are carried through untranslated.
        enum Routed {
            Local(CommunityQuery),
            Native(usize),
            Failed(CsagError),
        }
        let routed: Vec<Routed> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                if q.method == Method::SeaHetero {
                    Routed::Native(i)
                } else {
                    match self.localized(q) {
                        Ok(local) => Routed::Local(local),
                        Err(e) => Routed::Failed(e),
                    }
                }
            })
            .collect();
        let local: Vec<CommunityQuery> = routed
            .iter()
            .filter_map(|r| match r {
                Routed::Local(q) => Some(q.clone()),
                _ => None,
            })
            .collect();
        let native_ix: Vec<usize> = routed
            .iter()
            .filter_map(|r| match r {
                Routed::Native(i) => Some(*i),
                _ => None,
            })
            .collect();
        let mut local_answers = if local.is_empty() {
            Vec::new()
        } else {
            self.projected().engine.run_batch(&local)
        }
        .into_iter();
        let mut native_answers =
            super::batch::parallel_map(&native_ix, super::batch::available_threads(), |&i| {
                self.run_native(&queries[i])
            })
            .into_iter();
        routed
            .into_iter()
            .map(|r| match r {
                Routed::Local(_) => local_answers
                    .next()
                    .expect("one engine answer per projected query")
                    .map(|res| self.globalize(res)),
                Routed::Native(_) => native_answers
                    .next()
                    .expect("one native answer per sea-hetero query"),
                Routed::Failed(e) => Err(e),
            })
            .collect()
    }

    /// The native §VI-A pipeline: grow the P-neighborhood on the
    /// heterogeneous graph, project only the sampled subset, then run
    /// the homogeneous SEA estimation on it.
    fn run_native(&self, query: &CommunityQuery) -> Result<CommunityResult, CsagError> {
        let t_total = Instant::now();
        query.validate()?;
        let hetero = self.hetero.as_ref().ok_or_else(|| {
            CsagError::invalid(
                "method sea-hetero samples the original heterogeneous graph, but this \
                 facade was built with HeteroEngine::project(&g, ..), which retains no \
                 copy of it; build with HeteroEngine::new / from_arc / project_arc",
            )
        })?;
        let solver = SeaHetero::new(hetero, self.path.clone(), query.distance_params());
        let mut rng = StdRng::seed_from_u64(query.seed);
        let r = solver.run(query.q, &query.sea_params(), &mut rng)?;
        // The solver already speaks original ids; no globalization step.
        let mut res = sea_community_result(query, r);
        res.timings.search = t_total.elapsed();
        res.timings.total = t_total.elapsed();
        Ok(res)
    }

    fn localized(&self, query: &CommunityQuery) -> Result<CommunityQuery, CsagError> {
        match self.local(query.q) {
            Some(local) => Ok(query.clone().with_query(local)),
            None => Err(CsagError::QueryNodeNotFound {
                q: query.q,
                nodes: self.projected().to_original.len(),
            }),
        }
    }

    /// Rewrites a projection-local result back into original ids.
    fn globalize(&self, mut res: CommunityResult) -> CommunityResult {
        res.q = self.original(res.q);
        for v in &mut res.community {
            *v = self.original(*v);
        }
        res.community.sort_unstable();
        res
    }
}

// The facade is shared across service workers like the homogeneous
// engine; keep that a compile-time guarantee.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<HeteroEngine>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Method;
    use csag_graph::HeteroGraphBuilder;

    /// Authors a0..a3 (+ one paper-only node) where a0,a1,a2 co-author
    /// pairwise and a3 is tied in through one shared paper with a2.
    fn toy() -> (HeteroGraph, MetaPath, Vec<NodeId>) {
        let mut b = HeteroGraphBuilder::new(1);
        let author = b.node_type("author");
        let paper = b.node_type("paper");
        let writes = b.edge_type("writes");
        let authors: Vec<NodeId> = (0..4)
            .map(|i| b.add_node(author, &["ml"], &[i as f64]))
            .collect();
        let papers: Vec<NodeId> = (0..4)
            .map(|i| b.add_node(paper, &[], &[i as f64]))
            .collect();
        // p0: a0+a1, p1: a1+a2, p2: a0+a2, p3: a2+a3.
        for (a, p) in [
            (0, 0),
            (1, 0),
            (1, 1),
            (2, 1),
            (0, 2),
            (2, 2),
            (2, 3),
            (3, 3),
        ] {
            b.add_edge(authors[a], papers[p], writes).unwrap();
        }
        let g = b.build();
        let apa = MetaPath::new(vec![author, paper, author], vec![writes, writes]);
        (g, apa, authors)
    }

    #[test]
    fn hetero_engine_speaks_original_ids() {
        let (g, apa, authors) = toy();
        let engine = HeteroEngine::project(&g, &apa);
        assert_eq!(engine.target_nodes(), authors.as_slice());
        let res = engine
            .run(&CommunityQuery::new(Method::Exact, authors[0]).with_k(2))
            .unwrap();
        assert_eq!(res.q, authors[0]);
        assert_eq!(res.community, vec![authors[0], authors[1], authors[2]]);
        // Round-trip maps agree.
        let local = engine.local(authors[2]).unwrap();
        assert_eq!(engine.original(local), authors[2]);
    }

    #[test]
    fn hetero_engine_matches_hand_rolled_projection() {
        let (g, apa, authors) = toy();
        let hetero = HeteroEngine::project(&g, &apa);
        let projection = g.project(&apa);
        let hand = Engine::new(projection.graph.clone());
        for &a in &authors {
            let through = hetero.run(&CommunityQuery::new(Method::Exact, a).with_k(2));
            let local = projection.local(a).unwrap();
            let manual = hand
                .run(&CommunityQuery::new(Method::Exact, local).with_k(2))
                .map(|r| {
                    let mut originals: Vec<NodeId> = r
                        .community
                        .iter()
                        .map(|&l| projection.original(l))
                        .collect();
                    originals.sort_unstable();
                    originals
                });
            assert_eq!(through.map(|r| r.community), manual, "author {a}");
        }
    }

    #[test]
    fn batch_interleaves_errors_in_order() {
        let (g, apa, authors) = toy();
        let engine = HeteroEngine::project(&g, &apa);
        let paper_node = 4; // first paper id — not a target-type node
        let queries = vec![
            CommunityQuery::new(Method::Exact, authors[1]).with_k(2),
            CommunityQuery::new(Method::Exact, paper_node).with_k(2),
            CommunityQuery::new(Method::Exact, authors[3]).with_k(2),
        ];
        let out = engine.run_batch(&queries);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].as_ref().unwrap().q, authors[1]);
        assert!(matches!(
            out[1],
            Err(CsagError::QueryNodeNotFound { q: 4, .. })
        ));
        // a3's only co-author is a2: no 2-core, a definitive no.
        assert!(out[2].as_ref().unwrap_err().is_no_community());
    }

    /// The facade's sample-then-project path never materializes the full
    /// projection and matches the native pipeline bit-for-bit.
    #[test]
    fn sea_hetero_runs_without_projecting() {
        let (g, apa, authors) = toy();
        let engine = HeteroEngine::new(g.clone(), apa.clone());
        assert!(!engine.projection_computed());
        let query = CommunityQuery::new(Method::SeaHetero, authors[0])
            .with_k(2)
            .with_error_bound(0.2)
            .with_seed(3);
        let res = engine.run(&query).unwrap();
        assert!(
            !engine.projection_computed(),
            "sampling before projection must not build the full projection"
        );
        assert!(res.community.contains(&authors[0]));
        assert!(res.certificate.is_some(), "SEA reports its accuracy");

        // Same parameters through the native solver: identical answer.
        let solver = SeaHetero::new(&g, apa, query.distance_params());
        let mut rng = StdRng::seed_from_u64(query.seed);
        let native = solver
            .run(authors[0], &query.sea_params(), &mut rng)
            .unwrap();
        assert_eq!(res.community, native.community);
        assert_eq!(res.delta, native.delta_star);
    }

    /// One batch can mix both §VI-A strategies; results stay in order.
    #[test]
    fn batch_mixes_native_and_projected_queries() {
        let (g, apa, authors) = toy();
        let engine = HeteroEngine::new(g, apa);
        let queries = vec![
            CommunityQuery::new(Method::SeaHetero, authors[0])
                .with_k(2)
                .with_error_bound(0.2)
                .with_seed(5),
            CommunityQuery::new(Method::Exact, authors[1]).with_k(2),
            CommunityQuery::new(Method::SeaHetero, authors[2])
                .with_k(2)
                .with_error_bound(0.2)
                .with_seed(6),
        ];
        let out = engine.run_batch(&queries);
        assert_eq!(out.len(), 3);
        for (i, res) in out.iter().enumerate() {
            let res = res.as_ref().unwrap_or_else(|e| panic!("query {i}: {e}"));
            assert!(res.community.contains(&queries[i].q));
        }
        // Each answer matches its serial twin.
        for (q, batched) in queries.iter().zip(&out) {
            let serial = engine.run(q).unwrap();
            assert_eq!(serial.community, batched.as_ref().unwrap().community);
        }
        assert!(engine.projection_computed(), "the exact query forced it");
    }

    /// A homogeneous engine rejects the hetero-native method with a
    /// pointer to the right entry point — and so does a borrowing
    /// `project(&g, ..)` facade, which retains no graph to sample.
    #[test]
    fn homogeneous_engine_rejects_sea_hetero() {
        let (g, apa, authors) = toy();
        let engine = HeteroEngine::project(&g, &apa);
        let native = CommunityQuery::new(Method::SeaHetero, authors[0])
            .with_k(2)
            .with_error_bound(0.2);
        let err = engine
            .engine()
            .run(&CommunityQuery::new(Method::SeaHetero, 0).with_k(2))
            .unwrap_err();
        assert!(matches!(err, CsagError::InvalidParams { .. }));
        assert!(err.to_string().contains("HeteroEngine"), "{err}");
        // project(&g, ..) keeps its historical cost (no graph copy), so
        // the native method is honestly unservable through it...
        assert!(engine.hetero_graph().is_none());
        let err = engine.run(&native).unwrap_err();
        assert!(err.to_string().contains("project_arc"), "{err}");
        // ...while the retaining constructors serve it for the same node.
        let engine = HeteroEngine::project_arc(Arc::new(g), apa);
        assert!(engine.projection_computed());
        assert!(engine.hetero_graph().is_some());
        assert!(engine.run(&native).is_ok());
    }
}
