//! Allocation budgets of the read and write paths: a warm SEA query and a
//! `MutableGraph` snapshot must not allocate in proportion to the token
//! dictionary or the node count.
//!
//! Both the sampled population (`Graph::induced`) and each published
//! snapshot share their parent's token interner instead of copying it, so
//! their allocation counts are independent of the vocabulary, and a
//! snapshot flattens its rows without one allocation per node.
//!
//! Keep this file at ONE `#[test]`: the allocation counter is
//! process-wide, so a concurrently running sibling test would pollute the
//! counts.

use csag::datasets::generator::{generate, SyntheticConfig};
use csag::decomp::core_decomposition;
use csag::engine::{CommunityQuery, Engine, Method};
use csag::graph::alloc_counter::{allocation_count, counting_enabled, CountingAllocator};
use csag::graph::{AttributedGraph, MutableGraph, NodeId, QueryWorkspace};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const SEED: u64 = 0xA110C;

fn graph(nodes: usize, personal_pool: usize) -> AttributedGraph {
    let config = SyntheticConfig {
        nodes,
        personal_pool,
        ..Default::default()
    };
    generate(&config, SEED).0
}

fn allocations_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocation_count();
    let out = f();
    (allocation_count() - before, out)
}

/// Allocations of one warm SEA query (its distance table already cached)
/// on `g`, with the vocabulary size for the failure message.
fn warm_sea_allocations(g: AttributedGraph) -> (u64, usize) {
    let vocabulary = g.interner().len();
    let coreness = core_decomposition(&g);
    let q = (0..g.n() as NodeId)
        .find(|&v| coreness[v as usize] >= 5)
        .expect("the generator plants cores above k");
    let engine = Engine::new(g);
    let query = CommunityQuery::new(Method::Sea, q)
        .with_k(3)
        .with_error_bound(0.1)
        .with_seed(7);
    let mut ws = QueryWorkspace::new();
    for _ in 0..3 {
        engine
            .run_with_workspace(&query, &mut ws)
            .expect("warm-up query answers");
    }
    let (allocs, result) = allocations_of(|| engine.run_with_workspace(&query, &mut ws));
    assert!(!result.expect("query answers").community.is_empty());
    (allocs, vocabulary)
}

#[test]
fn read_and_write_allocations_do_not_scale_with_dictionary_or_graph() {
    assert!(counting_enabled(), "the counting allocator is registered");

    // Read path: two graphs that differ only in the personal-token pool,
    // so one dictionary is ten times the other.
    let (small_vocab_allocs, small_vocab) = warm_sea_allocations(graph(2_000, 200));
    let (large_vocab_allocs, large_vocab) = warm_sea_allocations(graph(2_000, 2_000));
    assert!(
        large_vocab >= 5 * small_vocab,
        "vocabularies {small_vocab} vs {large_vocab} must differ by the pool factor"
    );
    assert!(
        small_vocab_allocs.abs_diff(large_vocab_allocs) <= 32,
        "a warm SEA query allocated {small_vocab_allocs} times with {small_vocab} tokens \
         but {large_vocab_allocs} times with {large_vocab} tokens"
    );
    assert!(
        large_vocab_allocs <= 200,
        "a warm SEA query allocated {large_vocab_allocs} times"
    );

    // Write path: a snapshot allocates the same handful of arenas at 1k
    // and at 20k nodes.
    let snapshot_allocations = |nodes: usize| {
        let mutable = MutableGraph::from_graph(&graph(nodes, 200));
        let (allocs, snap) = allocations_of(|| mutable.snapshot());
        assert_eq!(snap.n(), nodes);
        allocs
    };
    let small = snapshot_allocations(1_000);
    let large = snapshot_allocations(20_000);
    assert!(
        large <= small + 2,
        "snapshot allocations grew from {small} (1k nodes) to {large} (20k nodes)"
    );
}
