//! Sequential union–find with union by rank and path compression.

/// Disjoint set union over the elements `0..len`.
///
/// Supports the two operations the clustering master needs — `find` and
/// `union` — in amortized inverse-Ackermann time, plus convenience queries
/// used by reporting and quality assessment.
#[derive(Debug, Clone)]
pub struct DisjointSets {
    /// Parent pointer per element; roots point to themselves.
    parent: Vec<u32>,
    /// Upper bound on subtree height, maintained only for roots.
    rank: Vec<u8>,
    /// Number of elements in each set, maintained only for roots.
    size: Vec<u32>,
    /// Current number of disjoint sets.
    num_sets: usize,
}

impl DisjointSets {
    /// Create `len` singleton sets.
    pub fn new(len: usize) -> Self {
        assert!(len <= u32::MAX as usize, "element count exceeds u32 range");
        DisjointSets {
            parent: (0..len as u32).collect(),
            rank: vec![0; len],
            size: vec![1; len],
            num_sets: len,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets currently.
    #[inline]
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// The representative (root) of `x`'s set, with full path compression.
    ///
    /// Iterative two-pass implementation: find the root, then repoint every
    /// node on the path at it. No recursion, so deep chains cannot overflow
    /// the stack.
    pub fn find(&mut self, x: usize) -> usize {
        debug_assert!(x < self.len(), "element {x} out of range");
        let mut root = x as u32;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = x as u32;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root as usize
    }

    /// Read-only find without path compression (for `&self` contexts).
    pub fn find_immutable(&self, x: usize) -> usize {
        let mut root = x as u32;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        root as usize
    }

    /// Merge the sets containing `a` and `b`.
    ///
    /// Returns `true` if a merge happened, `false` if they were already in
    /// the same set (the signal the master uses to discard redundant pairs).
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.rank[ra] < self.rank[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        if self.rank[ra] == self.rank[rb] {
            self.rank[ra] += 1;
        }
        self.num_sets -= 1;
        true
    }

    /// Whether `a` and `b` are currently in the same set.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Size of the set containing `x`.
    pub fn set_size(&mut self, x: usize) -> usize {
        let root = self.find(x);
        self.size[root] as usize
    }

    /// A label per element: the smallest element of its set. Canonical —
    /// two structures holding the same partition label it identically,
    /// whatever union order (and so whatever roots) built them.
    pub fn labels(&mut self) -> Vec<usize> {
        let mut smallest = vec![u32::MAX; self.len()];
        (0..self.len())
            .map(|i| {
                let root = self.find(i);
                // Elements are visited in ascending order, so the first
                // one seen in a set is its smallest.
                if smallest[root] == u32::MAX {
                    smallest[root] = i as u32;
                }
                smallest[root] as usize
            })
            .collect()
    }

    /// Materialize the sets as sorted vectors of element indices, ordered by
    /// their smallest member — a canonical form convenient for tests and
    /// cluster reporting.
    pub fn clusters(&mut self) -> Vec<Vec<usize>> {
        let mut by_root: Vec<Vec<usize>> = vec![Vec::new(); self.len()];
        for i in 0..self.len() {
            let r = self.find(i);
            by_root[r].push(i);
        }
        let mut out: Vec<Vec<usize>> = by_root.into_iter().filter(|c| !c.is_empty()).collect();
        out.sort_by_key(|c| c[0]);
        out
    }

    /// Approximate heap footprint in bytes, for memory accounting.
    pub fn memory_bytes(&self) -> usize {
        self.parent.capacity() * 4 + self.rank.capacity() + self.size.capacity() * 4
    }

    /// Borrow the raw representation `(parent, rank, size, num_sets)`
    /// for serialization.
    pub fn as_raw_parts(&self) -> (&[u32], &[u8], &[u32], usize) {
        (&self.parent, &self.rank, &self.size, self.num_sets)
    }

    /// Rebuild a union–find from a previously serialized representation.
    ///
    /// Validates the invariants a malformed file could violate in ways
    /// that would otherwise send [`find`](Self::find) into an infinite
    /// loop or out of bounds: equal array lengths, in-range parent
    /// pointers, acyclic parent chains, and a root count matching
    /// `num_sets`.
    pub fn from_raw_parts(
        parent: Vec<u32>,
        rank: Vec<u8>,
        size: Vec<u32>,
        num_sets: usize,
    ) -> Result<Self, String> {
        let n = parent.len();
        if rank.len() != n || size.len() != n {
            return Err(format!(
                "array length mismatch: parent {n}, rank {}, size {}",
                rank.len(),
                size.len()
            ));
        }
        let mut roots = 0usize;
        for (i, &p) in parent.iter().enumerate() {
            if p as usize >= n {
                return Err(format!("parent[{i}] = {p} out of range 0..{n}"));
            }
            if p as usize == i {
                roots += 1;
            }
        }
        if roots != num_sets {
            return Err(format!("num_sets {num_sets} but {roots} roots present"));
        }
        // Acyclicity: walk each chain once, marking visited elements with
        // the pass number so the whole check stays O(n).
        let mut seen = vec![0u32; n];
        for start in 0..n {
            let pass = start as u32 + 1;
            let mut cur = start;
            while parent[cur] as usize != cur && seen[cur] != pass {
                if seen[cur] != 0 {
                    break; // joined a chain proven acyclic earlier
                }
                seen[cur] = pass;
                cur = parent[cur] as usize;
            }
            if parent[cur] as usize != cur && seen[cur] == pass {
                return Err(format!("parent chain from {start} contains a cycle"));
            }
        }
        Ok(DisjointSets {
            parent,
            rank,
            size,
            num_sets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn singletons_initially() {
        let mut d = DisjointSets::new(5);
        assert_eq!(d.num_sets(), 5);
        for i in 0..5 {
            assert_eq!(d.find(i), i);
            assert_eq!(d.set_size(i), 1);
        }
    }

    #[test]
    fn union_merges_and_reports() {
        let mut d = DisjointSets::new(4);
        assert!(d.union(0, 1));
        assert!(!d.union(1, 0), "already merged");
        assert!(d.same(0, 1));
        assert!(!d.same(0, 2));
        assert_eq!(d.num_sets(), 3);
        assert_eq!(d.set_size(0), 2);
        assert!(d.union(2, 3));
        assert!(d.union(0, 3));
        assert_eq!(d.num_sets(), 1);
        assert_eq!(d.set_size(1), 4);
    }

    #[test]
    fn clusters_canonical_form() {
        let mut d = DisjointSets::new(6);
        d.union(4, 1);
        d.union(2, 5);
        let clusters = d.clusters();
        assert_eq!(clusters, vec![vec![0], vec![1, 4], vec![2, 5], vec![3]]);
    }

    #[test]
    fn labels_consistent_with_same() {
        let mut d = DisjointSets::new(8);
        d.union(0, 7);
        d.union(3, 4);
        d.union(7, 3);
        let labels = d.labels();
        for a in 0..8 {
            for b in 0..8 {
                assert_eq!(labels[a] == labels[b], d.same(a, b));
            }
        }
    }

    #[test]
    fn labels_are_smallest_members_whatever_the_union_order() {
        let mut a = DisjointSets::new(6);
        a.union(4, 1);
        a.union(2, 5);
        a.union(5, 3);
        let mut b = DisjointSets::new(6);
        b.union(3, 2);
        b.union(1, 4);
        b.union(5, 2);
        assert_eq!(a.labels(), vec![0, 1, 2, 2, 1, 2]);
        assert_eq!(a.labels(), b.labels());
    }

    #[test]
    fn long_chain_compresses_without_overflow() {
        // Build a worst-case chain manually via unions in order; find on the
        // deepest element must not recurse (it's iterative) and must work.
        let n = 200_000;
        let mut d = DisjointSets::new(n);
        for i in 1..n {
            d.union(i - 1, i);
        }
        assert_eq!(d.num_sets(), 1);
        assert_eq!(d.set_size(n - 1), n);
        assert_eq!(d.find(0), d.find(n - 1));
    }

    #[test]
    fn empty_structure() {
        let mut d = DisjointSets::new(0);
        assert_eq!(d.num_sets(), 0);
        assert!(d.is_empty());
        assert!(d.clusters().is_empty());
        assert!(d.labels().is_empty());
    }

    #[test]
    fn find_immutable_agrees_with_find() {
        let mut d = DisjointSets::new(10);
        d.union(2, 9);
        d.union(9, 4);
        for i in 0..10 {
            assert_eq!(d.find_immutable(i), d.clone().find(i));
        }
    }

    /// A trivially-correct reference implementation: label vector where
    /// union rewrites all occurrences.
    struct NaiveSets(Vec<usize>);
    impl NaiveSets {
        fn new(n: usize) -> Self {
            NaiveSets((0..n).collect())
        }
        fn union(&mut self, a: usize, b: usize) {
            let (la, lb) = (self.0[a], self.0[b]);
            if la != lb {
                for l in self.0.iter_mut() {
                    if *l == lb {
                        *l = la;
                    }
                }
            }
        }
        fn same(&self, a: usize, b: usize) -> bool {
            self.0[a] == self.0[b]
        }
        fn num_sets(&self) -> usize {
            let mut labels: Vec<usize> = self.0.clone();
            labels.sort_unstable();
            labels.dedup();
            labels.len()
        }
    }

    proptest! {
        /// DSU agrees with the naive reference under arbitrary union
        /// sequences — same partition, same set count.
        #[test]
        fn matches_naive_reference(
            n in 1usize..40,
            ops in proptest::collection::vec((0usize..40, 0usize..40), 0..120),
        ) {
            let mut dsu = DisjointSets::new(n);
            let mut naive = NaiveSets::new(n);
            for (a, b) in ops {
                let (a, b) = (a % n, b % n);
                dsu.union(a, b);
                naive.union(a, b);
            }
            prop_assert_eq!(dsu.num_sets(), naive.num_sets());
            for a in 0..n {
                for b in 0..n {
                    prop_assert_eq!(dsu.same(a, b), naive.same(a, b));
                }
            }
            // Set sizes must sum to n.
            let total: usize = dsu.clusters().iter().map(|c| c.len()).sum();
            prop_assert_eq!(total, n);
        }
    }
}
