//! Benchmarks of the LOF model: fitting a reference set and scoring
//! queries, with the KD-tree and brute-force backends.
//!
//! The points here are continuous random pmfs, all distinct. Real
//! reference sets are not: the pmfs of 40 ms mm-sim windows collapse onto
//! a dozen or so distinct points, and how the search handles those
//! duplicate clumps decides the fit time. `bench_smoke`'s
//! `lof_fit_reference` measures that shape.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use lof_anomaly::{l1_normalize, LofConfig, LofModel};

/// Builds pmf-like reference points resembling 40 ms multimedia windows.
fn reference_points(n: usize, dims: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let counts: Vec<f64> = (0..dims)
                .map(|d| 10.0 + d as f64 + rng.gen_range(0.0..4.0))
                .collect();
            l1_normalize(&counts)
        })
        .collect()
}

fn bench_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("lof_fit");
    group.sample_size(10);
    for n in [500usize, 2_000, 7_500] {
        let points = reference_points(n, 14, 7);
        group.bench_with_input(BenchmarkId::new("kdtree_k20", n), &n, |bench, _| {
            bench.iter(|| {
                LofModel::fit(black_box(points.clone()), LofConfig::new(20).unwrap()).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_score(c: &mut Criterion) {
    let mut group = c.benchmark_group("lof_score");
    let points = reference_points(7_500, 14, 11);
    let kdtree = LofModel::fit(points.clone(), LofConfig::new(20).unwrap()).unwrap();
    let brute = LofModel::fit(points, LofConfig::new(20).unwrap().with_brute_force()).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let queries: Vec<Vec<f64>> = (0..64)
        .map(|_| {
            let counts: Vec<f64> = (0..14).map(|_| rng.gen_range(0.0..40.0)).collect();
            l1_normalize(&counts)
        })
        .collect();
    group.bench_function("kdtree_query_7500pts_k20", |bench| {
        let mut i = 0;
        bench.iter(|| {
            i = (i + 1) % queries.len();
            kdtree.score(black_box(&queries[i])).unwrap()
        })
    });
    group.bench_function("brute_query_7500pts_k20", |bench| {
        let mut i = 0;
        bench.iter(|| {
            i = (i + 1) % queries.len();
            brute.score(black_box(&queries[i])).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fit, bench_score);
criterion_main!(benches);
