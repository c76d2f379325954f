//! The correctness oracle: every answered read is compared byte for byte
//! (wall-clock `timings_ms` aside) with an answer computed here, by a
//! fresh [`Engine`] over the graph as it stood at the answer's epoch.
//! Epoch `e` is the seed graph plus the first `e` acknowledged update
//! lines, replayed on a [`MutableGraph`] — not through the server's
//! incremental store — so a wrong carried-over cache or decomposition
//! shows up as a mismatch.

use crate::workload::{ERROR, K};
use csag::engine::{error_to_json, CommunityQuery, Engine, Method};
use csag::graph::{AttributedGraph, GraphUpdate, MutableGraph};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One answered read to check.
#[derive(Clone, Debug)]
pub struct Served {
    pub q: u32,
    pub seed: u64,
    /// The epoch the answer's envelope names.
    pub epoch: u64,
    /// The `result` (or typed `error`) object of the answer.
    pub body: String,
    /// The epoch a pinned read asked for.
    pub pin: Option<u64>,
}

impl Served {
    /// Whether the body is a community (not a typed error).
    pub fn is_result(&self) -> bool {
        self.body.starts_with("{\"q\":")
    }

    /// Splits an answer line into its envelope epoch and body; `None` for
    /// a refusal, which carries neither.
    pub fn parse(line: &str, q: u32, seed: u64, pin: Option<u64>) -> Option<Served> {
        let epoch = line
            .split_once(",\"epoch\":")?
            .1
            .split(',')
            .next()?
            .parse()
            .ok()?;
        let start = line
            .find(",\"result\":")
            .map(|p| p + ",\"result\":".len())
            .or_else(|| line.find(",\"error\":").map(|p| p + ",\"error\":".len()))?;
        let body = line.get(start..line.len().checked_sub(1)?)?.to_string();
        Some(Served {
            q,
            seed,
            epoch,
            body,
            pin,
        })
    }
}

/// The reference query of a read.
pub fn query(q: u32, seed: u64) -> CommunityQuery {
    CommunityQuery::new(Method::Sea, q)
        .with_k(K)
        .with_error_bound(ERROR)
        .with_seed(seed)
}

/// `result.to_json()` without its `timings_ms` member.
pub fn strip_timings(body: &str) -> String {
    const KEY: &str = ",\"timings_ms\":{";
    match body.find(KEY) {
        Some(at) => match body[at + KEY.len()..].find('}') {
            Some(end) => format!("{}{}", &body[..at], &body[at + KEY.len() + end + 1..]),
            None => body.to_string(),
        },
        None => body.to_string(),
    }
}

/// The reference body of `(q, seed)` on `engine`, stamped with `epoch`
/// (a fresh engine reports epoch 0).
fn reference(engine: &Engine, q: u32, seed: u64, epoch: u64) -> String {
    match engine.run(&query(q, seed)) {
        Ok(r) => strip_timings(&r.to_json()).replacen(
            &format!("{{\"q\":{q},\"epoch\":0,"),
            &format!("{{\"q\":{q},\"epoch\":{epoch},"),
            1,
        ),
        Err(e) => error_to_json(&e),
    }
}

/// Checks every served answer; `true` where it matches its reference and
/// honours its pin. `updates[e - 1]` is the update that produced epoch
/// `e`. Work is spread over `threads` threads.
pub fn verify(
    graph: &Arc<AttributedGraph>,
    updates: &[GraphUpdate],
    served: &[Served],
    threads: usize,
) -> Vec<bool> {
    // Distinct (q, seed) keys per epoch: identical reads share one
    // reference.
    let mut by_epoch: BTreeMap<u64, Vec<(u32, u64)>> = BTreeMap::new();
    for s in served {
        by_epoch.entry(s.epoch).or_default().push((s.q, s.seed));
    }
    for keys in by_epoch.values_mut() {
        keys.sort_unstable();
        keys.dedup();
    }
    let epochs: Vec<(u64, Vec<(u32, u64)>)> = by_epoch.into_iter().collect();
    let threads = threads.max(1);
    let refs: HashMap<(u64, u32, u64), String> = if epochs.len() == 1 {
        // One epoch: build its engine once and split the keys.
        let (epoch, keys) = &epochs[0];
        let engine = Engine::from_arc(graph_at(graph, updates, *epoch));
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&(q, seed)) = keys.get(i) else { break };
                            out.push(((*epoch, q, seed), reference(&engine, q, seed, *epoch)));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("oracle thread panicked"))
                .collect()
        })
    } else {
        // Many epochs: each thread replays the updates on its own copy
        // and answers every `threads`-th epoch.
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let epochs = &epochs;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        let mut m = MutableGraph::from_graph(graph);
                        let mut at = 0u64;
                        for (epoch, keys) in epochs.iter().skip(t).step_by(threads) {
                            for u in &updates[at as usize..*epoch as usize] {
                                m.apply(u).expect("acknowledged updates apply");
                            }
                            at = *epoch;
                            let engine = if *epoch == 0 {
                                Engine::from_arc(Arc::clone(graph))
                            } else {
                                Engine::new(m.snapshot())
                            };
                            for &(q, seed) in keys {
                                out.push(((*epoch, q, seed), reference(&engine, q, seed, *epoch)));
                            }
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("oracle thread panicked"))
                .collect()
        })
    };
    served
        .iter()
        .map(|s| {
            s.pin.is_none_or(|p| s.epoch >= p)
                && refs
                    .get(&(s.epoch, s.q, s.seed))
                    .is_some_and(|r| *r == strip_timings(&s.body))
        })
        .collect()
}

/// The graph after the first `epoch` updates.
fn graph_at(
    graph: &Arc<AttributedGraph>,
    updates: &[GraphUpdate],
    epoch: u64,
) -> Arc<AttributedGraph> {
    if epoch == 0 {
        return Arc::clone(graph);
    }
    let mut m = MutableGraph::from_graph(graph);
    for u in &updates[..epoch as usize] {
        m.apply(u).expect("acknowledged updates apply");
    }
    Arc::new(m.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_are_stripped_and_nothing_else() {
        let body = "{\"q\":1,\"epoch\":2,\"timings_ms\":{\"prepare\":0.5,\"total\":1.0},\"provenance\":{}}";
        assert_eq!(
            strip_timings(body),
            "{\"q\":1,\"epoch\":2,\"provenance\":{}}"
        );
        assert_eq!(strip_timings("{\"error\":\"x\"}"), "{\"error\":\"x\"}");
    }

    #[test]
    fn answers_split_into_epoch_and_body() {
        let line = "{\"id\":3,\"epoch\":7,\"priority\":\"standard\",\"queue_ms\":0.1,\"result\":{\"q\":1}}";
        let s = Served::parse(line, 1, 0, None).unwrap();
        assert_eq!((s.epoch, s.body.as_str()), (7, "{\"q\":1}"));
        assert!(Served::parse(
            "{\"id\":3,\"error\":{\"error\":\"overloaded\"}}",
            1,
            0,
            None
        )
        .is_none());
    }
}
