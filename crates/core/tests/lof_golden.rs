//! Golden pin of the detector's LOF output on a paper-shaped reference set.
//!
//! The pmfs of 40 ms windows from a simulated playback collapse onto a
//! handful of distinct points, so the reference set is a few heavily
//! duplicated clumps. Which of several equidistant neighbours the index
//! keeps is then observable in the scores, and any change to the
//! neighbourhood search that is not exact down to tie order changes the
//! hash below. The constant was computed before the KD-tree gained its
//! tie-aware pruning and must never need updating for a speed change.

use std::time::Duration;

use endurance_core::{MonitorConfig, ReferenceModel, WindowPmf};
use mm_sim::{Scenario, Simulation};
use trace_model::window::{TimeWindower, Windower};

/// Reference segment: short enough to fit quickly in a debug build even
/// with an index that walks every copy of a clump.
const REFERENCE: Duration = Duration::from_secs(30);

/// Windows scored after the reference, covering the first perturbation
/// (the scenario perturbs from 300 s on).
const SCORED: std::ops::Range<Duration> = Duration::from_secs(290)..Duration::from_secs(330);

const GOLDEN: u64 = 0x2818_4932_7aef_0623;

fn fnv1a(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn lof_scores_on_a_duplicate_heavy_reference_are_pinned() {
    let scenario = Scenario::scaled_endurance(Duration::from_secs(480), 5).unwrap();
    let registry = scenario.registry().unwrap();
    let config = MonitorConfig::builder()
        .dimensions(registry.len())
        .reference_duration(REFERENCE)
        .build()
        .unwrap();
    let windows: Vec<_> = TimeWindower::new(Duration::from_millis(40))
        .unwrap()
        .windows(Simulation::new(&scenario, &registry).unwrap())
        .collect();
    let reference_len = windows
        .iter()
        .take_while(|w| Duration::from_nanos(w.start.as_nanos()) < REFERENCE)
        .count();
    let model = ReferenceModel::learn_from_windows(&windows[..reference_len], &config).unwrap();

    let mut distinct: Vec<Vec<u64>> = model
        .lof()
        .reference_points()
        .iter()
        .map(|p| p.iter().map(|x| x.to_bits()).collect())
        .collect();
    distinct.sort_unstable();
    distinct.dedup();
    assert!(
        distinct.len() <= 16,
        "{} distinct reference pmfs",
        distinct.len()
    );

    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let reference_scores = model.lof().reference_scores().unwrap();
    for score in &reference_scores {
        fnv1a(&mut hash, score.to_bits());
    }
    let mut scored = 0;
    for window in &windows {
        let start = Duration::from_nanos(window.start.as_nanos());
        if !SCORED.contains(&start) {
            continue;
        }
        let pmf = WindowPmf::from_window(window, config.dimensions, config.smoothing);
        fnv1a(&mut hash, model.score(&pmf).unwrap().to_bits());
        scored += 1;
    }
    assert_eq!(reference_scores.len(), 750);
    assert_eq!(scored, 1000);
    assert_eq!(hash, GOLDEN, "LOF output changed: {hash:#018x}");
}
