//! The benchmark's own mirror of a served graph and a plain BFS over it:
//! the reference every sampled read answer is checked against.

use pscc_graph::V;

/// Out-adjacency lists kept in step with the delta stream.
#[derive(Clone)]
pub struct Mirror {
    adj: Vec<Vec<V>>,
}

impl Mirror {
    pub fn new(n: usize, edges: &[(V, V)]) -> Mirror {
        let mut adj = vec![Vec::new(); n];
        for &(u, v) in edges {
            adj[u as usize].push(v);
        }
        Mirror { adj }
    }

    pub fn n(&self) -> usize {
        self.adj.len()
    }

    pub fn insert(&mut self, u: V, v: V) {
        let out = &mut self.adj[u as usize];
        if !out.contains(&v) {
            out.push(v);
        }
    }

    pub fn delete(&mut self, u: V, v: V) {
        self.adj[u as usize].retain(|&w| w != v);
    }

    /// Marks every vertex reachable from `src` with `stamp`.
    fn bfs(&self, src: V, seen: &mut [u32], stamp: u32, queue: &mut Vec<V>) {
        queue.clear();
        seen[src as usize] = stamp;
        queue.push(src);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &w in &self.adj[u as usize] {
                if seen[w as usize] != stamp {
                    seen[w as usize] = stamp;
                    queue.push(w);
                }
            }
        }
    }

    /// Checks `answers[i]` = "`queries[i].1` is reachable from
    /// `queries[i].0`", one BFS per distinct source. Returns the number
    /// checked, or a description of the first wrong answer.
    pub fn check(&self, queries: &[(V, V)], answers: &[bool]) -> Result<usize, String> {
        assert_eq!(queries.len(), answers.len(), "one answer per query");
        let mut order: Vec<usize> = (0..queries.len()).collect();
        order.sort_unstable_by_key(|&i| queries[i].0);
        let mut seen = vec![0u32; self.n()];
        let mut queue = Vec::new();
        let mut stamp = 0u32;
        let mut last: Option<V> = None;
        for i in order {
            let (u, v) = queries[i];
            if last != Some(u) {
                stamp += 1;
                self.bfs(u, &mut seen, stamp, &mut queue);
                last = Some(u);
            }
            let expected = seen[v as usize] == stamp;
            if answers[i] != expected {
                return Err(format!(
                    "wrong read answer: reach({u}, {v}) served {} but BFS says {expected}",
                    answers[i]
                ));
            }
        }
        Ok(queries.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_oracle_follows_the_delta_stream() {
        // 0 → 1 → 2, 3 isolated.
        let mut m = Mirror::new(4, &[(0, 1), (1, 2)]);
        let q = [(0, 2), (2, 0), (0, 3), (1, 1)];
        assert_eq!(m.check(&q, &[true, false, false, true]), Ok(4));
        assert!(m.check(&q, &[true, true, false, true]).is_err());
        m.delete(1, 2);
        m.insert(2, 3);
        m.insert(0, 3);
        assert_eq!(m.check(&q, &[false, false, true, true]), Ok(4));
    }
}
