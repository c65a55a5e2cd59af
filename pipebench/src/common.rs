//! Pieces every workload shares: the per-iteration context and outcome,
//! the decision counter, cold replay with its correctness check, and
//! window-level scoring against injected ground truth.

use std::collections::BTreeMap;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use endurance_core::{DecisionObserver, WindowDecision, WindowVerdict};
use endurance_eval::{label_decisions, DelayCalibration, GroundTruth, LabeledDecision};
use endurance_obs::Registry;
use endurance_store::{SegmentCache, StoreReader};
use mm_sim::PerturbationSchedule;

use crate::metrics::Values;
use crate::sinks::EventDigest;
use crate::trace::Tracer;

/// Result type of the benchmark's fallible steps.
pub type Res<T> = Result<T, Box<dyn Error>>;

/// What an iteration runs with.
#[derive(Debug)]
pub struct Ctx {
    /// A fresh, empty directory for this iteration's store.
    pub dir: PathBuf,
    /// Span recorder (disabled on untraced iterations).
    pub tracer: Tracer,
    /// Metrics registry handed to the crates' `with_metrics` builders
    /// (`Registry::disabled()` on untraced iterations).
    pub registry: Arc<Registry>,
    /// Worker threads the program may start besides the feeding thread.
    pub workers: usize,
    /// Which of the workload's generated inputs to run.
    pub input: usize,
    /// The CPU to pin the feeding thread to once the threads the crates
    /// spawn for the workload are running (see `crate::cpus`).
    pub cpu: Option<usize>,
    /// Whether paper_endurance triages its first true-positive window.
    /// Only the first traced iteration of a run does: one artifact with
    /// the paper's 7 500-window model takes about 15 s.
    pub triage: bool,
}

/// What one iteration measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric the iteration produced.
    pub values: Values,
    /// Operations attempted (streams, lanes replayed, windows followed,
    /// artifacts triaged, ...).
    pub attempted: u64,
    /// One line per failed operation or failed check.
    pub failures: Vec<String>,
    /// Results that must repeat exactly for a seed, as bit patterns.
    pub fingerprint: Vec<(&'static str, u64)>,
    /// Wall time of the timed section, in seconds.
    pub wall_s: f64,
    /// Cold replays made; per-layer replay figures are per replay.
    pub replays: u32,
    /// Which generated input the iteration ran.
    pub input: usize,
    /// Which CPU slot its feeding thread was pinned to.
    pub cpu: usize,
}

impl Outcome {
    /// Records a check: counts it as attempted and, when `ok` is false,
    /// as failed with `message`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(message());
        }
    }
}

/// Counts every monitoring decision by verdict and keeps the decisions
/// for scoring.
#[derive(Debug, Default)]
pub struct Decisions {
    /// Every decision, in stream order.
    pub all: Vec<WindowDecision>,
    /// Windows the drift gate found similar (not LOF-scored).
    pub gate_similar: u64,
    /// Windows scored with LOF.
    pub lof_scored: u64,
    /// Windows recorded (LOF ≥ α).
    pub recorded: u64,
}

impl DecisionObserver for Decisions {
    fn on_decision(&mut self, decision: &WindowDecision) {
        match decision.verdict {
            WindowVerdict::SimilarMerged => self.gate_similar += 1,
            WindowVerdict::CheckedNormal => self.lof_scored += 1,
            WindowVerdict::Anomalous => {
                self.lof_scored += 1;
                self.recorded += 1;
            }
        }
        self.all.push(*decision);
    }
}

impl Decisions {
    /// Adds another stream's counts.
    pub fn merge_counts(&mut self, other: &Decisions) {
        self.gate_similar += other.gate_similar;
        self.lof_scored += other.lof_scored;
        self.recorded += other.recorded;
    }

    /// Sets the `core.windows_*` counters and the gate skip ratio.
    pub fn report(&self, closed: u64, values: &mut Values) {
        values.set("core.windows_closed", closed as f64);
        values.set("core.windows_gate_similar", self.gate_similar as f64);
        values.set("core.windows_lof_scored", self.lof_scored as f64);
        values.set("core.windows_recorded", self.recorded as f64);
        if closed > 0 {
            values.set(
                "core.gate_skip_ratio",
                self.gate_similar as f64 / closed as f64,
            );
        }
    }
}

/// Window-level labels of `decisions` against the anomalous intervals of
/// `schedule`, the way the repository's evaluation scores runs: buffering
/// delays are calibrated from the windows holding error events, then each
/// decision is labelled against the delayed intervals.
pub fn label(
    schedule: &PerturbationSchedule,
    decisions: &[WindowDecision],
) -> Vec<LabeledDecision> {
    let delays = DelayCalibration::from_decisions(schedule, decisions)
        .unwrap_or_else(DelayCalibration::zero);
    let truth = GroundTruth::from_schedule(schedule, delays);
    label_decisions(decisions, &truth)
}

/// What a cold replay of a store found.
#[derive(Debug, Default)]
pub struct Replay {
    /// Events replayed across every lane.
    pub events: u64,
    /// Wall time from the cold open until every lane was replayed.
    pub seconds: f64,
}

/// A replay is repeated, each time with a fresh reader, at least
/// [`MIN_REPLAYS`] times and until [`REPLAY_SECONDS`] have been spent, so
/// a small store is timed over as long a stretch as a large one (the
/// host's speed drifts within seconds); the replay time is the median.
const MIN_REPLAYS: usize = 3;
const MAX_REPLAYS: usize = 500;
const REPLAY_SECONDS: f64 = 1.0;

/// Opens `dir` cold and replays every lane, repeatedly (see
/// [`MIN_REPLAYS`]), checking each lane's events against what was
/// recorded into it (`expected`, by lane). Lanes that recorded nothing
/// may be absent from the store.
pub fn replay(
    dir: &Path,
    expected: &BTreeMap<u32, EventDigest>,
    ctx: &Ctx,
    outcome: &mut Outcome,
) -> Res<Replay> {
    let tracer = &ctx.tracer;
    let mut times = Vec::new();
    let mut replayed = BTreeMap::new();
    while times.len() < MIN_REPLAYS
        || (times.iter().sum::<f64>() < REPLAY_SECONDS && times.len() < MAX_REPLAYS)
    {
        let start = Instant::now();
        let cache = Arc::new(SegmentCache::new(dir).with_metrics(&ctx.registry));
        let reader = tracer.time("store.open", || StoreReader::open_with_cache(dir, cache))?;
        replayed.clear();
        for lane in reader.lane_ids() {
            tracer.time("store.index_load", || reader.lane_windows(lane))?;
            let events = tracer.time("store.decode", || reader.lane_events(lane))?;
            replayed.insert(lane, EventDigest::of(&events));
        }
        times.push(start.elapsed().as_secs_f64());
    }
    let seconds = crate::stats::median(&times).unwrap_or(f64::NAN);
    let mut events = 0;
    for (lane, want) in expected {
        let got = replayed.remove(lane).unwrap_or_default();
        events += got.events;
        outcome.check(got == *want, || {
            format!(
                "lane {lane}: replayed {} events (hash {:016x}), recorded {} (hash {:016x})",
                got.events, got.hash, want.events, want.hash
            )
        });
    }
    for (lane, got) in replayed {
        outcome.check(false, || {
            format!("lane {lane} replayed {} unrecorded events", got.events)
        });
    }
    outcome.replays = times.len() as u32;
    Ok(Replay { events, seconds })
}

/// Total size of the regular files in `dir`, in bytes.
pub fn dir_bytes(dir: &Path) -> Res<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Bit pattern of a float, for exact-repeat fingerprints.
pub fn bits(value: f64) -> u64 {
    value.to_bits()
}
