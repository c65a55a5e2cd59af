//! Nearest-neighbour indexes used by the LOF computation.
//!
//! Two implementations are provided behind the [`NeighborIndex`] trait:
//!
//! * [`BruteForceIndex`] — exact, works with any [`Distance`], linear scan;
//! * [`KdTreeIndex`] — exact for Minkowski metrics (Euclidean, Manhattan,
//!   Chebyshev), logarithmic-ish query time on low-dimensional data.
//!
//! The reference models built from multimedia traces have a few thousand
//! points in a few tens of dimensions, but the pmfs of short windows
//! collapse onto a handful of distinct points, each copied hundreds of
//! times. A linear scan pays for every copy on every query; the KD-tree
//! skips a clump once it holds enough neighbours no farther away.
//!
//! Both return the `k` nearest points exactly. Among equidistant points
//! each keeps the ones it meets first: the brute-force index in insertion
//! order, the KD-tree in its visit order. So on tied data the two can keep
//! different (equally near) neighbours.

mod brute;
mod kdtree;

pub use brute::BruteForceIndex;
pub use kdtree::KdTreeIndex;

use crate::{AnomalyError, Distance};

/// One neighbour returned by a k-nearest-neighbour query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the neighbour in the training set the index was built from.
    pub index: usize,
    /// Distance from the query point to this neighbour.
    pub distance: f64,
}

/// A k-nearest-neighbour index over a fixed set of points.
pub trait NeighborIndex {
    /// Number of indexed points.
    fn len(&self) -> usize;

    /// Whether the index contains no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of the indexed points.
    fn dimensions(&self) -> usize;

    /// Returns the `k` nearest indexed points to `query`, closest first.
    ///
    /// If `exclude` is `Some(i)`, the indexed point `i` is skipped — this is
    /// how LOF queries the neighbourhood of a training point without the
    /// point finding itself.
    ///
    /// Fewer than `k` neighbours are returned only if the index (minus the
    /// excluded point) holds fewer than `k` points.
    ///
    /// # Errors
    ///
    /// Returns [`AnomalyError::DimensionMismatch`] if `query` has the wrong
    /// dimensionality and [`AnomalyError::NonFiniteValue`] if it contains
    /// NaN or infinities.
    fn k_nearest(
        &self,
        query: &[f64],
        k: usize,
        exclude: Option<usize>,
    ) -> Result<Vec<Neighbor>, AnomalyError>;

    /// The distance function the index was built with.
    fn distance(&self) -> Distance;
}

/// Keeps the `k` smallest neighbours seen so far (a simple bounded
/// max-heap replacement small enough that a sorted Vec wins).
#[derive(Debug)]
pub(crate) struct BoundedNeighbors {
    k: usize,
    items: Vec<Neighbor>,
}

impl BoundedNeighbors {
    pub(crate) fn new(k: usize) -> Self {
        BoundedNeighbors {
            k,
            items: Vec::with_capacity(k + 1),
        }
    }

    /// Current worst (largest) distance kept, or `f64::INFINITY` while the
    /// collection is not yet full.
    pub(crate) fn worst_distance(&self) -> f64 {
        if self.items.len() < self.k {
            f64::INFINITY
        } else {
            self.items
                .last()
                .map(|n| n.distance)
                .unwrap_or(f64::INFINITY)
        }
    }

    /// Whether the collection holds `k` neighbours.
    pub(crate) fn is_full(&self) -> bool {
        self.items.len() >= self.k
    }

    /// Whether [`push`](Self::push) drops every candidate at `distance`
    /// or further: the collection is full and `distance` is at least the
    /// worst kept. A tie is dropped too, because it is inserted after the
    /// equal entries and then popped.
    pub(crate) fn rejects(&self, distance: f64) -> bool {
        self.is_full() && distance >= self.worst_distance()
    }

    pub(crate) fn push(&mut self, candidate: Neighbor) {
        if self.k == 0 {
            return;
        }
        let pos = self
            .items
            .partition_point(|n| n.distance <= candidate.distance);
        self.items.insert(pos, candidate);
        if self.items.len() > self.k {
            self.items.pop();
        }
    }

    pub(crate) fn into_sorted(self) -> Vec<Neighbor> {
        self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DistanceKind;

    pub(crate) fn grid_points() -> Vec<Vec<f64>> {
        let mut points = Vec::new();
        for x in 0..10 {
            for y in 0..10 {
                points.push(vec![x as f64, y as f64]);
            }
        }
        points
    }

    #[test]
    fn bounded_neighbors_keeps_k_smallest_sorted() {
        let mut bounded = BoundedNeighbors::new(3);
        for (i, d) in [5.0, 1.0, 4.0, 0.5, 9.0, 2.0].iter().enumerate() {
            bounded.push(Neighbor {
                index: i,
                distance: *d,
            });
        }
        let out = bounded.into_sorted();
        let dists: Vec<f64> = out.iter().map(|n| n.distance).collect();
        assert_eq!(dists, vec![0.5, 1.0, 2.0]);
    }

    #[test]
    fn bounded_neighbors_with_zero_k_stays_empty() {
        let mut bounded = BoundedNeighbors::new(0);
        bounded.push(Neighbor {
            index: 0,
            distance: 1.0,
        });
        assert!(bounded.into_sorted().is_empty());
    }

    #[test]
    fn worst_distance_is_infinite_until_full() {
        let mut bounded = BoundedNeighbors::new(2);
        assert_eq!(bounded.worst_distance(), f64::INFINITY);
        bounded.push(Neighbor {
            index: 0,
            distance: 1.0,
        });
        assert_eq!(bounded.worst_distance(), f64::INFINITY);
        bounded.push(Neighbor {
            index: 1,
            distance: 3.0,
        });
        assert_eq!(bounded.worst_distance(), 3.0);
    }

    #[test]
    fn brute_and_kdtree_agree_on_grid_queries() {
        let points = grid_points();
        let brute =
            BruteForceIndex::new(points.clone(), Distance::new(DistanceKind::Euclidean)).unwrap();
        let tree =
            KdTreeIndex::new(points.clone(), Distance::new(DistanceKind::Euclidean)).unwrap();
        for query in [
            vec![0.0, 0.0],
            vec![5.3, 5.7],
            vec![9.9, 0.1],
            vec![-3.0, 12.0],
        ] {
            for k in [1usize, 3, 7, 20] {
                let a = brute.k_nearest(&query, k, None).unwrap();
                let b = tree.k_nearest(&query, k, None).unwrap();
                assert_eq!(a.len(), b.len());
                for (na, nb) in a.iter().zip(&b) {
                    // Ties can be ordered differently; distances must agree.
                    assert!((na.distance - nb.distance).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn exclusion_is_honoured_by_both_indexes() {
        let points = grid_points();
        for index in [
            Box::new(BruteForceIndex::new(points.clone(), Distance::default()).unwrap())
                as Box<dyn NeighborIndex>,
            Box::new(KdTreeIndex::new(points.clone(), Distance::default()).unwrap()),
        ] {
            let neighbors = index.k_nearest(&points[42], 1, Some(42)).unwrap();
            assert_eq!(neighbors.len(), 1);
            assert_ne!(neighbors[0].index, 42);
            assert!(neighbors[0].distance > 0.0);
        }
    }
}
