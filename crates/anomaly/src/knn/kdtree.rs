use super::brute::{validate_points, validate_query};
use super::{BoundedNeighbors, Neighbor, NeighborIndex};
use crate::{AnomalyError, Distance};

/// Exact k-nearest-neighbour search backed by a KD-tree.
///
/// Pruning relies on the distance being a Minkowski metric evaluated
/// coordinate by coordinate (Euclidean, Manhattan or Chebyshev); building
/// the index with any other [`Distance`] is rejected so results are never
/// silently approximate.
///
/// A subtree is skipped only when none of its points could enter the
/// neighbour set: the set is full and a lower bound on the subtree's
/// distances (the split plane, or the subtree's bounding box) is at least
/// the worst neighbour kept. A point exactly at that distance would be
/// dropped as a tie, so results — including which of several equidistant
/// points are kept — are those of visiting every node in the same order.
/// This is what keeps the search fast on reference sets that are a few
/// clumps of identical points.
#[derive(Debug, Clone)]
pub struct KdTreeIndex {
    points: Vec<Vec<f64>>,
    nodes: Vec<Node>,
    /// Bounding boxes of the subtrees rooted at internal nodes, each as
    /// `dimensions` lower-corner then `dimensions` upper-corner coordinates.
    bounds: Vec<f64>,
    root: Option<usize>,
    dimensions: usize,
    distance: Distance,
}

#[derive(Debug, Clone)]
struct Node {
    /// Index into `points`.
    point: usize,
    /// Split axis for this node.
    axis: usize,
    left: Option<usize>,
    right: Option<usize>,
    /// Offset of this subtree's box in `bounds`; `None` for a leaf, whose
    /// box is its point.
    bounds: Option<usize>,
}

impl KdTreeIndex {
    /// Builds a KD-tree over `points`.
    ///
    /// # Errors
    ///
    /// Returns [`AnomalyError::InvalidConfig`] if the distance is not
    /// KD-tree compatible (see [`Distance::supports_kdtree`]), plus the same
    /// validation errors as [`BruteForceIndex::new`].
    ///
    /// [`BruteForceIndex::new`]: crate::BruteForceIndex::new
    pub fn new(points: Vec<Vec<f64>>, distance: Distance) -> Result<Self, AnomalyError> {
        if !distance.supports_kdtree() {
            return Err(AnomalyError::InvalidConfig(format!(
                "distance {:?} cannot be used with a KD-tree; use BruteForceIndex",
                distance.kind()
            )));
        }
        let dimensions = validate_points(&points)?;
        let mut tree = KdTreeIndex {
            nodes: Vec::with_capacity(points.len()),
            bounds: Vec::with_capacity(2 * dimensions * internal_nodes(points.len())),
            points,
            root: None,
            dimensions,
            distance,
        };
        let mut order: Vec<usize> = (0..tree.points.len()).collect();
        tree.root = tree.build(&mut order, 0);
        Ok(tree)
    }

    /// The indexed points, in insertion order.
    pub(crate) fn points(&self) -> &[Vec<f64>] {
        &self.points
    }

    fn build(&mut self, indices: &mut [usize], depth: usize) -> Option<usize> {
        if indices.is_empty() {
            return None;
        }
        let axis = depth % self.dimensions;
        indices.sort_by(|a, b| {
            self.points[*a][axis]
                .partial_cmp(&self.points[*b][axis])
                .expect("points are validated finite")
        });
        let median = indices.len() / 2;
        let point = indices[median];
        let bounds = (indices.len() > 1).then(|| self.push_bounds(indices));
        let node_index = self.nodes.len();
        self.nodes.push(Node {
            point,
            axis,
            left: None,
            right: None,
            bounds,
        });
        // Recurse on copies of the sub-slices (indices are small usizes).
        let mut left: Vec<usize> = indices[..median].to_vec();
        let mut right: Vec<usize> = indices[median + 1..].to_vec();
        let left_child = self.build(&mut left, depth + 1);
        let right_child = self.build(&mut right, depth + 1);
        self.nodes[node_index].left = left_child;
        self.nodes[node_index].right = right_child;
        Some(node_index)
    }

    /// Appends the bounding box of `indices` to `bounds`, returning its
    /// offset.
    fn push_bounds(&mut self, indices: &[usize]) -> usize {
        let start = self.bounds.len();
        let first = &self.points[indices[0]];
        self.bounds.extend_from_slice(first);
        self.bounds.extend_from_slice(first);
        let (lower, upper) = self.bounds[start..].split_at_mut(self.dimensions);
        for &index in &indices[1..] {
            for ((lo, hi), &x) in lower
                .iter_mut()
                .zip(upper.iter_mut())
                .zip(&self.points[index])
            {
                *lo = lo.min(x);
                *hi = hi.max(x);
            }
        }
        start
    }

    fn search(
        &self,
        node: Option<usize>,
        query: &[f64],
        exclude: Option<usize>,
        best: &mut BoundedNeighbors,
    ) {
        let Some(node_index) = node else { return };
        let node = &self.nodes[node_index];
        if let Some(start) = node.bounds {
            if best.is_full() {
                let (lower, upper) =
                    self.bounds[start..start + 2 * self.dimensions].split_at(self.dimensions);
                if best.rejects(self.distance.box_lower_bound(query, lower, upper)) {
                    return;
                }
            }
        }
        let point = &self.points[node.point];

        if Some(node.point) != exclude {
            let distance = self.distance.eval(query, point);
            best.push(Neighbor {
                index: node.point,
                distance,
            });
        }

        let axis = node.axis;
        let diff = query[axis] - point[axis];
        let (near, far) = if diff <= 0.0 {
            (node.left, node.right)
        } else {
            (node.right, node.left)
        };
        self.search(near, query, exclude, best);
        // Every far-side point is at least |diff| away along the split axis.
        if !best.rejects(self.distance.axis_lower_bound(diff)) {
            self.search(far, query, exclude, best);
        }
    }
}

/// How many nodes of a tree built over `len` points have children, so the
/// boxes are allocated once at their final size.
fn internal_nodes(len: usize) -> usize {
    if len < 2 {
        0
    } else {
        let left = len / 2;
        1 + internal_nodes(left) + internal_nodes(len - left - 1)
    }
}

impl NeighborIndex for KdTreeIndex {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn dimensions(&self) -> usize {
        self.dimensions
    }

    fn k_nearest(
        &self,
        query: &[f64],
        k: usize,
        exclude: Option<usize>,
    ) -> Result<Vec<Neighbor>, AnomalyError> {
        validate_query(query, self.dimensions)?;
        let mut best = BoundedNeighbors::new(k);
        self.search(self.root, query, exclude, &mut best);
        Ok(best.into_sorted())
    }

    fn distance(&self) -> Distance {
        self.distance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BruteForceIndex, DistanceKind};
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    impl KdTreeIndex {
        /// The search with every prune removed: visits every node, near
        /// side before far side, exactly as the pruned search orders them.
        fn search_unpruned(
            &self,
            node: Option<usize>,
            query: &[f64],
            exclude: Option<usize>,
            best: &mut BoundedNeighbors,
        ) {
            let Some(node_index) = node else { return };
            let node = &self.nodes[node_index];
            let point = &self.points[node.point];
            if Some(node.point) != exclude {
                best.push(Neighbor {
                    index: node.point,
                    distance: self.distance.eval(query, point),
                });
            }
            let (near, far) = if query[node.axis] - point[node.axis] <= 0.0 {
                (node.left, node.right)
            } else {
                (node.right, node.left)
            };
            self.search_unpruned(near, query, exclude, best);
            self.search_unpruned(far, query, exclude, best);
        }
    }

    fn bits(neighbors: &[Neighbor]) -> Vec<(usize, u64)> {
        neighbors
            .iter()
            .map(|n| (n.index, n.distance.to_bits()))
            .collect()
    }

    /// A cloud of `n` points drawn from at most `distinct` vectors. A
    /// vector has lattice coordinates (so distinct vectors tie too),
    /// continuous ones, or is an earlier vector with one coordinate nudged
    /// by an ulp (so distances nearly tie).
    fn duplicated_cloud(
        rng: &mut ChaCha8Rng,
        n: usize,
        distinct: usize,
        dims: usize,
    ) -> Vec<Vec<f64>> {
        let mut vectors: Vec<Vec<f64>> = Vec::with_capacity(distinct);
        while vectors.len() < distinct {
            let vector = match rng.gen_range(0..3) {
                0 if !vectors.is_empty() => {
                    let mut vector = vectors[rng.gen_range(0..vectors.len())].clone();
                    let x = &mut vector[rng.gen_range(0..dims)];
                    *x = f64::from_bits(x.to_bits() + 1);
                    vector
                }
                1 => (0..dims).map(|_| rng.gen_range(0.0..1.0)).collect(),
                _ => (0..dims)
                    .map(|_| f64::from(rng.gen_range(0u8..4)) * 0.25)
                    .collect(),
            };
            vectors.push(vector);
        }
        (0..n)
            .map(|_| vectors[rng.gen_range(0..distinct)].clone())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn kdtree_pruning_is_exact(
            seed in any::<u64>(),
            n in 1usize..300,
            distinct in 1usize..17,
            dims in 1usize..15,
            k in 1usize..26,
            metric in 0usize..3,
        ) {
            let kind = [
                DistanceKind::Euclidean,
                DistanceKind::Manhattan,
                DistanceKind::Chebyshev,
            ][metric];
            let distance = Distance::new(kind);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let points = duplicated_cloud(&mut rng, n, distinct, dims);
            let tree = KdTreeIndex::new(points.clone(), distance).unwrap();
            let brute = BruteForceIndex::new(points.clone(), distance).unwrap();
            for _ in 0..8 {
                let on_cloud = rng.gen_range(0..n);
                let (query, exclude) = match rng.gen_range(0..4) {
                    0 => (points[on_cloud].clone(), None),
                    1 => (points[on_cloud].clone(), Some(on_cloud)),
                    2 => {
                        let shift = rng.gen_range(-40.0..40.0);
                        let query = points[on_cloud].iter().map(|x| x + shift).collect();
                        (query, rng.gen_bool(0.5).then_some(on_cloud))
                    }
                    _ => (
                        (0..dims).map(|_| f64::from(rng.gen_range(0u8..8)) * 0.25).collect(),
                        None,
                    ),
                };
                let pruned = tree.k_nearest(&query, k, exclude).unwrap();
                let mut unpruned = BoundedNeighbors::new(k);
                tree.search_unpruned(tree.root, &query, exclude, &mut unpruned);
                let unpruned = unpruned.into_sorted();
                prop_assert_eq!(
                    bits(&pruned),
                    bits(&unpruned),
                    "pruned search kept different neighbours ({:?}, k={}, dims={})",
                    kind,
                    k,
                    dims
                );
                let linear = brute.k_nearest(&query, k, exclude).unwrap();
                let distances = |ns: &[Neighbor]| -> Vec<u64> {
                    ns.iter().map(|n| n.distance.to_bits()).collect()
                };
                prop_assert_eq!(distances(&pruned), distances(&linear));
            }
        }
    }

    #[test]
    fn incompatible_distance_is_rejected() {
        let result = KdTreeIndex::new(
            vec![vec![0.0, 1.0]],
            Distance::new(DistanceKind::JensenShannon),
        );
        assert!(matches!(result, Err(AnomalyError::InvalidConfig(_))));
    }

    #[test]
    fn empty_training_set_is_rejected() {
        assert!(KdTreeIndex::new(vec![], Distance::default()).is_err());
    }

    #[test]
    fn single_point_tree_answers_queries() {
        let tree = KdTreeIndex::new(vec![vec![1.0, 2.0]], Distance::default()).unwrap();
        let neighbors = tree.k_nearest(&[0.0, 0.0], 3, None).unwrap();
        assert_eq!(neighbors.len(), 1);
        assert_eq!(neighbors[0].index, 0);
        let neighbors = tree.k_nearest(&[0.0, 0.0], 3, Some(0)).unwrap();
        assert!(neighbors.is_empty());
    }

    #[test]
    fn duplicate_points_are_all_reachable() {
        let points = vec![vec![1.0, 1.0]; 5];
        let tree = KdTreeIndex::new(points, Distance::default()).unwrap();
        let neighbors = tree.k_nearest(&[1.0, 1.0], 5, None).unwrap();
        assert_eq!(neighbors.len(), 5);
        assert!(neighbors.iter().all(|n| n.distance == 0.0));
    }

    #[test]
    fn agrees_with_brute_force_on_random_clouds() {
        use rand::prelude::*;
        use rand_chacha::ChaCha8Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for dims in [1usize, 2, 3, 8] {
            for kind in [
                DistanceKind::Euclidean,
                DistanceKind::Manhattan,
                DistanceKind::Chebyshev,
            ] {
                let distance = Distance::new(kind);
                let points: Vec<Vec<f64>> = (0..200)
                    .map(|_| (0..dims).map(|_| rng.gen_range(-5.0..5.0)).collect())
                    .collect();
                let brute = BruteForceIndex::new(points.clone(), distance).unwrap();
                let tree = KdTreeIndex::new(points.clone(), distance).unwrap();
                for _ in 0..20 {
                    let query: Vec<f64> = (0..dims).map(|_| rng.gen_range(-6.0..6.0)).collect();
                    let k = rng.gen_range(1..15);
                    let a = brute.k_nearest(&query, k, None).unwrap();
                    let b = tree.k_nearest(&query, k, None).unwrap();
                    assert_eq!(a.len(), b.len());
                    for (na, nb) in a.iter().zip(&b) {
                        assert!(
                            (na.distance - nb.distance).abs() < 1e-9,
                            "kd-tree disagreed with brute force (dims={dims}, kind={kind:?})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn boxes_are_allocated_at_their_final_size() {
        for n in 1..64u32 {
            let points = (0..n)
                .map(|i| vec![f64::from(i), f64::from(i % 7)])
                .collect();
            let tree = KdTreeIndex::new(points, Distance::default()).unwrap();
            let internal = tree
                .nodes
                .iter()
                .filter(|node| node.bounds.is_some())
                .count();
            assert_eq!(tree.bounds.len(), 2 * 2 * internal);
            assert_eq!(tree.bounds.capacity(), tree.bounds.len());
        }
    }

    #[test]
    fn exposes_metadata() {
        let tree =
            KdTreeIndex::new(vec![vec![0.0, 0.0], vec![1.0, 1.0]], Distance::default()).unwrap();
        assert_eq!(tree.len(), 2);
        assert_eq!(tree.dimensions(), 2);
        assert_eq!(tree.distance().kind(), DistanceKind::Euclidean);
    }
}
