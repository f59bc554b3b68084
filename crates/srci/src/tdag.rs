//! TDAG — the augmented dyadic tree of "Practical Private Range Search
//! Revisited" (Demertzis et al., SIGMOD 2016).
//!
//! A TDAG over `[0, 2^h)` contains every *regular* dyadic node
//! `[i·2^l, (i+1)·2^l)` plus, for `l ≥ 1`, the *middle* nodes offset by half
//! a block: `[i·2^l + 2^(l-1), …)`. The middle nodes guarantee that any
//! range of length `≤ 2^l` is fully covered by a **single** node of level
//! `≤ l + 1` — the Single Range Cover (SRC) — so a range query needs exactly
//! one token, at the price of up to ~4× false positives.

/// A TDAG node: a (possibly middle-offset) dyadic range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Node {
    /// Level: the node spans `2^level` points.
    pub level: u32,
    /// Inclusive start of the covered range.
    pub start: u64,
    /// Whether this is a middle (half-offset) node.
    pub middle: bool,
}

impl Node {
    /// Inclusive end of the covered range.
    pub fn end(&self) -> u64 {
        self.start + (1u64 << self.level) - 1
    }

    /// Whether `p` falls inside this node's range.
    pub fn contains(&self, p: u64) -> bool {
        self.start <= p && p <= self.end()
    }

    /// Stable 64-bit encoding used as the SSE keyword. Levels are < 58 and
    /// starts fit the remaining bits for every domain this crate accepts.
    pub fn id(&self) -> u64 {
        ((self.level as u64) << 58) | ((self.middle as u64) << 57) | self.start
    }
}

/// A TDAG over the point domain `[0, 2^height)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tdag {
    height: u32,
}

impl Tdag {
    /// Creates a TDAG of the given height (domain `[0, 2^height)`).
    ///
    /// # Panics
    /// Panics if `height > 56` (the node encoding's limit).
    pub fn new(height: u32) -> Self {
        assert!(height <= 56, "TDAG height capped at 56");
        Tdag { height }
    }

    /// Smallest height whose domain covers `[0, n)`.
    pub fn for_size(n: u64) -> Self {
        let mut h = 0u32;
        while (1u64 << h) < n {
            h += 1;
        }
        Tdag::new(h)
    }

    /// The tree height.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of points in the domain.
    pub fn domain_size(&self) -> u64 {
        1u64 << self.height
    }

    /// All nodes containing point `p` — the keywords a data point is
    /// indexed under. At most `2·height + 1` nodes.
    ///
    /// # Panics
    /// Panics if `p` is outside the domain.
    pub fn covers_of(&self, p: u64) -> Vec<Node> {
        assert!(p < self.domain_size(), "point outside domain");
        let mut out = Vec::with_capacity(2 * self.height as usize + 1);
        for level in 0..=self.height {
            let block = 1u64 << level;
            out.push(Node {
                level,
                start: (p / block) * block,
                middle: false,
            });
            if level >= 1 {
                let half = block / 2;
                if p >= half {
                    let start = ((p - half) / block) * block + half;
                    out.push(Node {
                        level,
                        start,
                        middle: true,
                    });
                }
            }
        }
        out
    }

    /// The Single Range Cover: the smallest TDAG node fully containing
    /// `[a, b]`. Its size is at most `4·(b − a + 1)` (the SRC guarantee),
    /// except when capped by the whole domain.
    ///
    /// # Panics
    /// Panics if `a > b` or `b` is outside the domain.
    pub fn src(&self, a: u64, b: u64) -> Node {
        assert!(a <= b, "empty range");
        assert!(b < self.domain_size(), "range outside domain");
        let len = b - a + 1;
        let mut level = 64 - (len - 1).leading_zeros().min(63);
        if len == 1 {
            level = 0;
        }
        loop {
            debug_assert!(level <= self.height, "SRC search escaped the domain");
            let block = 1u64 << level;
            if a / block == b / block {
                return Node {
                    level,
                    start: (a / block) * block,
                    middle: false,
                };
            }
            if level >= 1 {
                let half = block / 2;
                if a >= half && (a - half) / block == (b - half) / block {
                    return Node {
                        level,
                        start: ((a - half) / block) * block + half,
                        middle: true,
                    };
                }
            }
            level += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_geometry() {
        let n = Node {
            level: 3,
            start: 8,
            middle: false,
        };
        assert_eq!(n.end(), 15);
        assert!(n.contains(8) && n.contains(15));
        assert!(!n.contains(7) && !n.contains(16));
    }

    #[test]
    fn ids_are_unique_across_kinds() {
        let a = Node {
            level: 1,
            start: 2,
            middle: false,
        };
        let b = Node {
            level: 1,
            start: 2,
            middle: true,
        };
        let c = Node {
            level: 2,
            start: 2,
            middle: true,
        };
        assert_ne!(a.id(), b.id());
        assert_ne!(b.id(), c.id());
    }

    #[test]
    fn covers_contain_point_and_count() {
        let t = Tdag::new(6);
        for p in [0u64, 1, 31, 32, 63] {
            let covers = t.covers_of(p);
            assert!(covers.iter().all(|n| n.contains(p)), "p={p}");
            // height+1 regular + up to height middle nodes.
            assert!(covers.len() > t.height() as usize);
            assert!(covers.len() <= 2 * t.height() as usize + 1);
            // Exactly one leaf.
            assert_eq!(covers.iter().filter(|n| n.level == 0).count(), 1);
        }
    }

    #[test]
    fn src_covers_and_is_tight() {
        let t = Tdag::new(10);
        for (a, b) in [
            (0u64, 0u64),
            (5, 9),
            (100, 227),
            (511, 513),
            (0, 1023),
            (1000, 1023),
        ] {
            let n = t.src(a, b);
            assert!(n.start <= a && b <= n.end(), "({a},{b}) → {n:?}");
            let span = 1u64 << n.level;
            let len = b - a + 1;
            assert!(
                span <= 4 * len || span == t.domain_size(),
                "SRC guarantee violated: span {span} for len {len}"
            );
        }
    }

    #[test]
    fn src_exhaustive_small_domain() {
        let t = Tdag::new(5);
        for a in 0..32u64 {
            for b in a..32 {
                let n = t.src(a, b);
                assert!(n.start <= a && b <= n.end());
                // SRC node must be one of the covers of both endpoints.
                assert!(t.covers_of(a).contains(&n));
                assert!(t.covers_of(b).contains(&n));
            }
        }
    }

    #[test]
    fn src_is_found_by_lookup_of_inserted_points() {
        // The SRC of any query must appear in covers_of(p) for every point
        // p in the query range — that is what makes single-token lookup
        // complete.
        let t = Tdag::new(8);
        for (a, b) in [(3u64, 17u64), (100, 130), (200, 255)] {
            let n = t.src(a, b);
            for p in a..=b {
                assert!(t.covers_of(p).contains(&n), "p={p} misses {n:?}");
            }
        }
    }

    #[test]
    fn for_size_rounds_up() {
        assert_eq!(Tdag::for_size(1).height(), 0);
        assert_eq!(Tdag::for_size(2).height(), 1);
        assert_eq!(Tdag::for_size(3).height(), 2);
        assert_eq!(Tdag::for_size(1024).height(), 10);
        assert_eq!(Tdag::for_size(1025).height(), 11);
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn src_out_of_domain_rejected() {
        let t = Tdag::new(4);
        let _ = t.src(0, 16);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// SRC completeness and tightness for arbitrary ranges: the cover
        /// contains the range, is bounded by the 4× guarantee, and is
        /// discoverable from every covered point's keyword set.
        #[test]
        fn src_guarantees(height in 1u32..16, a in any::<u64>(), len in any::<u64>()) {
            let t = Tdag::new(height);
            let d = t.domain_size();
            let a = a % d;
            let b = (a + len % (d - a).max(1)).min(d - 1);
            let n = t.src(a, b);
            prop_assert!(n.start <= a && b <= n.end());
            let span = 1u64 << n.level;
            prop_assert!(span <= 4 * (b - a + 1) || span == d);
            // Sample a few covered points: the SRC node must be among
            // their covers (single-token completeness).
            for p in [a, b, (a + b) / 2] {
                prop_assert!(t.covers_of(p).contains(&n), "p={p} n={n:?}");
            }
        }

        /// Point covers are exactly the nodes containing the point.
        #[test]
        fn covers_are_sound(height in 1u32..14, p in any::<u64>(), q in any::<u64>()) {
            let t = Tdag::new(height);
            let p = p % t.domain_size();
            let q = q % t.domain_size();
            let covers = t.covers_of(p);
            prop_assert!(covers.iter().all(|n| n.contains(p)));
            if p != q {
                // Nodes covering p but not q never appear in q's covers.
                let qc = t.covers_of(q);
                for n in covers.iter().filter(|n| !n.contains(q)) {
                    prop_assert!(!qc.contains(n));
                }
            }
        }
    }
}
