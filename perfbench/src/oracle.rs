//! Independent answers for every check the benchmark makes.
//!
//! The oracle is a sequential union-find over the graph (plus any inserted
//! edges). It shares no code with the pipelines, the index or the journal:
//! component ids are assigned by first occurrence in vertex order, which is
//! the "dense id by minimum member vertex" numbering the index promises.

use ampc_graph::{Graph, UnionFind, VertexId};
use ampc_query::Query;

/// Answers to the whole query algebra for one fixed graph.
pub struct Oracle {
    /// Dense component id of each vertex.
    comp: Vec<u32>,
    /// Size of each component, by dense id.
    size: Vec<u64>,
    /// Component sizes, largest first.
    sizes_desc: Vec<u64>,
}

impl Oracle {
    /// The oracle for `g` with `extra` edges added.
    pub fn new(g: &Graph, extra: &[(VertexId, VertexId)]) -> Oracle {
        let n = g.n();
        let mut uf = UnionFind::new(n);
        for (u, v) in g.edges().chain(extra.iter().copied()) {
            uf.union(u, v);
        }
        let mut id_of_root = vec![u32::MAX; n];
        let mut comp = Vec::with_capacity(n);
        let mut size: Vec<u64> = Vec::new();
        for v in 0..n as VertexId {
            let root = uf.find(v) as usize;
            if id_of_root[root] == u32::MAX {
                id_of_root[root] = size.len() as u32;
                size.push(0);
            }
            let id = id_of_root[root];
            size[id as usize] += 1;
            comp.push(id);
        }
        let mut sizes_desc = size.clone();
        sizes_desc.sort_unstable_by(|a, b| b.cmp(a));
        Oracle { comp, size, sizes_desc }
    }

    /// The exact answer to `q`, or `None` for an out-of-range vertex.
    pub fn answer(&self, q: Query) -> Option<u64> {
        let comp = |v: VertexId| self.comp.get(v as usize).copied();
        Some(match q {
            Query::Connected(u, v) => (comp(u)? == comp(v)?) as u64,
            Query::ComponentOf(v) => comp(v)? as u64,
            Query::ComponentSize(v) => self.size[comp(v)? as usize],
            Query::TopKSize(k) => {
                k.checked_sub(1).and_then(|i| self.sizes_desc.get(i as usize)).copied().unwrap_or(0)
            }
        })
    }
}

/// True iff every answer equals the oracle's.
pub fn exact(oracle: &Oracle, queries: &[Query], answers: &[u64]) -> bool {
    queries.len() == answers.len()
        && queries.iter().zip(answers).all(|(&q, &a)| oracle.answer(q) == Some(a))
}

/// True iff every `Connected` and `ComponentSize` answer lies between the
/// answers of `base` (before any insert) and `last` (after every insert):
/// inserts only merge components, so a reader pinned on any epoch in
/// between must see a value in that interval. Other query kinds are not
/// monotone under merges and are checked exactly by the closing pass.
pub fn within(base: &Oracle, last: &Oracle, queries: &[Query], answers: &[u64]) -> bool {
    queries.len() == answers.len()
        && queries.iter().zip(answers).all(|(&q, &a)| match q {
            Query::Connected(..) | Query::ComponentSize(_) => {
                match (base.answer(q), last.answer(q)) {
                    (Some(lo), Some(hi)) => lo <= a && a <= hi,
                    _ => false,
                }
            }
            Query::ComponentOf(_) | Query::TopKSize(_) => true,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_graph::generators::random_forest;
    use ampc_query::workload::{self, Mix};
    use ampc_query::{ComponentIndex, QueryEngine};

    fn fixture() -> (Graph, Vec<Query>) {
        let g = random_forest(4096, 64, 7);
        let idx = ComponentIndex::build(&ampc_graph::reference_components(&g));
        (g, workload::generate(&idx, Mix::Uniform, 2048, 11))
    }

    #[test]
    fn oracle_matches_the_index_on_every_query_kind() {
        let (g, queries) = fixture();
        let idx = ComponentIndex::build(&ampc_graph::reference_components(&g));
        let engine = QueryEngine::new(&idx);
        let answers: Vec<u64> = queries.iter().map(|&q| engine.answer(q)).collect();
        assert!(exact(&Oracle::new(&g, &[]), &queries, &answers));
    }

    #[test]
    fn a_corrupted_answer_fails_the_exact_check() {
        let (g, queries) = fixture();
        let oracle = Oracle::new(&g, &[]);
        let mut answers: Vec<u64> = queries.iter().map(|&q| oracle.answer(q).unwrap()).collect();
        assert!(exact(&oracle, &queries, &answers));
        answers[100] ^= 1;
        assert!(!exact(&oracle, &queries, &answers));
        assert!(!exact(&oracle, &queries, &answers[1..]));
    }

    #[test]
    fn answers_outside_the_insert_interval_fail() {
        let g = Graph::from_edges(6, &[(0, 1), (2, 3)]);
        let base = Oracle::new(&g, &[]);
        let last = Oracle::new(&g, &[(1, 2)]);
        let queries = [Query::Connected(0, 3), Query::ComponentSize(0), Query::Connected(4, 5)];
        assert!(within(&base, &last, &queries, &[0, 2, 0]));
        assert!(within(&base, &last, &queries, &[1, 4, 0]));
        assert!(!within(&base, &last, &queries, &[1, 5, 0]), "size above the final epoch");
        assert!(!within(&base, &last, &queries, &[1, 1, 0]), "size below the base epoch");
        assert!(!within(&base, &last, &queries, &[1, 4, 1]), "never-connected pair");
        let connected = [Query::Connected(0, 1)];
        assert!(!within(&base, &last, &connected, &[0]), "base-connected pair");
    }

    #[test]
    fn top_k_past_the_component_count_is_zero() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let o = Oracle::new(&g, &[]);
        assert_eq!(o.answer(Query::TopKSize(1)), Some(2));
        assert_eq!(o.answer(Query::TopKSize(2)), Some(1));
        assert_eq!(o.answer(Query::TopKSize(3)), Some(0));
        assert_eq!(o.answer(Query::TopKSize(0)), Some(0));
        assert_eq!(o.answer(Query::ComponentOf(3)), None);
    }
}
