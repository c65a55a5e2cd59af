//! `fleet_churn`: a churning, faulted device fleet, one store lane per
//! stream, then cold replay and triage of every true-positive window.
//!
//! `FleetScenario::churn_demo` deliveries → `FleetReducer::from_model`
//! (shared curated model, learned at set-up) with a benchmark-owned sink
//! factory opening one `LaneWriter` (EDV) per stream → close every lane →
//! cold replay → `extract_window` + `minimize` for each distinct
//! true-positive window. Many short sessions and thousands of lanes load
//! core routing and store lane create/close; the small curated model
//! keeps the detector cheap.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use endurance_core::{FleetReducer, MonitorConfig, ReductionSession, ReferenceModel};
use endurance_eval::{ConfusionMatrix, WindowLabel};
use endurance_store::{CodecId, StoreConfig};
use mm_sim::{FleetEvent, FleetScenario, FleetSim, FleetTruth, Simulation, TraceHasher};
use trace_model::codec::{BinaryEncoder, TraceEncoder};
use trace_model::{StreamId, TraceEvent};

use crate::common::{bits, dir_bytes, label, replay, Ctx, Decisions, Outcome, Res};
use crate::cpus::pin_current_thread;
use crate::sinks::{close_lane, CreateLog, FleetLane};
use crate::triage::triage;

/// Devices in the fleet (each joins, lives 0.8–2.4 s and leaves).
pub const DEVICES: u32 = 1_000;

/// Reference segment of the curated-model learning run, as in the
/// repository's churn experiment: long enough for `K + 1` windows of
/// 40 ms.
const LEARN_REFERENCE: Duration = Duration::from_secs(3);

/// Length of the clean learning run; the tail past the reference segment
/// makes the session fit its model.
const LEARN_DURATION: Duration = Duration::from_secs(4);

/// The generated input of one seed.
#[derive(Debug)]
pub struct Fleet {
    deliveries: Vec<FleetEvent>,
    truth: FleetTruth,
    reference: Vec<TraceEvent>,
    monitor: MonitorConfig,
    events: u64,
    trace_hash: u64,
    input_bytes: u64,
}

impl Fleet {
    /// Simulates the fleet for `seed` (twice: the second pass only hashes
    /// its deliveries, to check the simulator is deterministic) and the
    /// clean device run the curated model is learned from.
    pub fn generate(seed: u64) -> Res<Self> {
        let scenario = FleetScenario::churn_demo(DEVICES, seed)?;
        let registry = scenario.registry()?;
        let monitor = MonitorConfig::builder()
            .dimensions(registry.len())
            .reference_duration(LEARN_REFERENCE)
            .build()?;

        let mut clean = scenario.device.clone();
        clean.name = format!("{}-reference", scenario.name);
        clean.duration = LEARN_DURATION;
        clean.reference_duration = LEARN_REFERENCE;
        clean.seed = scenario.seed;
        let reference: Vec<TraceEvent> = Simulation::new(&clean, &clean.registry()?)?.collect();

        let mut sim = FleetSim::new(&scenario)?;
        let mut hasher = TraceHasher::new();
        let mut per_stream: BTreeMap<StreamId, Vec<TraceEvent>> = BTreeMap::new();
        let deliveries: Vec<FleetEvent> = sim
            .by_ref()
            .inspect(|item| {
                if let FleetEvent::Delivery(stream, event) = item {
                    hasher.update(*stream, event);
                    per_stream.entry(*stream).or_default().push(*event);
                }
            })
            .collect();
        let truth = sim.truth().clone();
        let events = sim.deliveries();

        let mut probe = TraceHasher::new();
        for item in FleetSim::new(&scenario)? {
            if let FleetEvent::Delivery(stream, event) = item {
                probe.update(stream, &event);
            }
        }
        if probe.finish() != hasher.finish() {
            return Err(format!(
                "two simulations of seed {seed} delivered different traces \
                 ({:016x} vs {:016x})",
                hasher.finish(),
                probe.finish()
            )
            .into());
        }

        // The full input trace as ETRC binary, one block per stream in
        // timestamp order (delivery order is reordered by the faults).
        let mut input_bytes = 0;
        let mut encoded = Vec::new();
        for events in per_stream.values_mut() {
            events.sort_by_key(|event| event.timestamp);
            encoded.clear();
            BinaryEncoder::new().encode(events, &mut encoded)?;
            input_bytes += encoded.len() as u64;
        }

        Ok(Fleet {
            deliveries,
            truth,
            reference,
            monitor,
            events,
            trace_hash: hasher.finish(),
            input_bytes,
        })
    }

    /// A one-line description of the input.
    pub fn describe(&self) -> String {
        format!(
            "{DEVICES} devices, {} deliveries, {} streams, {} B as ETRC binary, \
             trace hash {:016x}",
            self.events,
            self.truth.streams.len(),
            self.input_bytes,
            self.trace_hash
        )
    }

    /// Learns the curated model from the clean device run.
    fn learn(&self) -> Res<ReferenceModel> {
        let mut session = ReductionSession::new(self.monitor.clone())?;
        session.push_batch(&self.reference)?;
        Ok(session
            .model()
            .cloned()
            .ok_or("the learning run ended before its model was fitted")?)
    }

    /// One pass: set up, ingest, close, replay, score, triage.
    pub fn iterate(&self, ctx: &Ctx) -> Res<Outcome> {
        let tracer = &ctx.tracer;
        let mut outcome = Outcome::default();
        let start = Instant::now();

        let model = self.learn()?;
        let learn_s = start.elapsed().as_secs_f64();
        let log = CreateLog::default();
        let factory = {
            let (dir, registry, tracer, log) = (
                ctx.dir.clone(),
                Arc::clone(&ctx.registry),
                tracer.clone(),
                Arc::clone(&log),
            );
            let config = StoreConfig::default().with_codec(CodecId::DeltaVarint);
            move |stream: StreamId| {
                FleetLane::create(&dir, stream.as_u32(), config, &registry, &tracer, &log)
            }
        };
        let mut fleet = FleetReducer::from_model(model.clone(), ctx.workers)?
            .with_sinks(factory)
            .with_observers(|_| Decisions::default())
            .with_metrics(Arc::clone(&ctx.registry));
        let setup_s = start.elapsed().as_secs_f64();

        let ingest_start = Instant::now();
        for item in &self.deliveries {
            match *item {
                FleetEvent::Delivery(stream, event) => {
                    tracer.time("core.push", || fleet.push(stream, event))?
                }
                FleetEvent::StreamClosed(stream) => {
                    tracer.time("core.close_stream", || fleet.close_stream(stream))?
                }
            }
        }
        let finished = tracer.time("core.finish", || fleet.finish())?;
        let mut expected = BTreeMap::new();
        let mut streams = Vec::with_capacity(finished.streams.len());
        let mut writes = Vec::new();
        for mut stream in finished.streams {
            let id = stream.stream;
            outcome.check(stream.is_ok(), || {
                format!("stream {} failed: {:?}", id.as_u32(), stream.error)
            });
            match stream.sink.take() {
                Some(FleetLane::Ready(lane)) => {
                    expected.insert(id.as_u32(), lane.digest);
                    writes.extend_from_slice(&lane.write_us);
                    close_lane(*lane, tracer)?;
                }
                Some(FleetLane::Failed(msg)) => outcome.check(false, || {
                    format!("stream {} could not open its lane: {msg}", id.as_u32())
                }),
                None => {}
            }
            streams.push((id, stream.observer.unwrap_or_default()));
        }
        let ingest_s = ingest_start.elapsed().as_secs_f64();
        // The fleet's workers start at the first push and would inherit a
        // pinned mask, so only replay and triage run pinned.
        let _pinned = pin_current_thread(ctx.cpu);
        let stored_bytes = dir_bytes(&ctx.dir)?;

        let replayed = replay(&ctx.dir, &expected, ctx, &mut outcome)?;

        // Score every stream against its injected ground truth and pick
        // the windows to triage.
        let mut confusion = ConfusionMatrix::default();
        let mut decisions = Decisions::default();
        let mut closed = 0u64;
        let mut targets: Vec<(u32, u64)> = Vec::new();
        for (stream, observed) in &streams {
            let Some(truth) = self.truth.stream(stream.as_u32()) else {
                outcome.check(false, || {
                    format!("stream {} has no ground truth", stream.as_u32())
                });
                continue;
            };
            let labeled = label(&truth.anomalous, &observed.all);
            confusion.merge(&ConfusionMatrix::from_labels(&labeled));
            decisions.merge_counts(observed);
            closed += observed.all.len() as u64;
            // One regression test per incident: the stream's first
            // true-positive window.
            if let Some(first) = labeled
                .iter()
                .find(|l| l.label == WindowLabel::TruePositive)
            {
                targets.push((stream.as_u32(), first.decision.window_id.index()));
            }
        }

        let triage = triage(&targets, &self.monitor, &model, ctx, &mut outcome)?;
        outcome.wall_s = start.elapsed().as_secs_f64();

        let lanes = log.lock().expect("create log poisoned").clone();
        let reduction = self.input_bytes as f64 / stored_bytes.max(1) as f64;
        let v = &mut outcome.values;
        v.set("setup_s", setup_s);
        v.set("ingest_events_per_s", self.events as f64 / ingest_s);
        v.set(
            "replay_events_per_s",
            replayed.events as f64 / replayed.seconds,
        );
        v.set("reduction_factor", reduction);
        v.set("quality.recall", confusion.recall());
        v.set("quality.precision", confusion.precision());
        triage.report(v);
        v.set("core.learn_s", learn_s);
        v.set("store.record_window_s", writes.iter().sum::<f64>() / 1e6);
        if let Some(summary) = crate::stats::Summary::of(&writes) {
            v.set("store.record_window_p99_us", summary.p99);
        }
        let (first, last) = decile_means_ms(&lanes);
        v.set("store.lane_create_first_decile_ms", first);
        v.set("store.lane_create_last_decile_ms", last);
        decisions.report(closed, v);
        outcome.fingerprint = vec![
            ("trace_hash", self.trace_hash),
            ("reduction_factor", bits(reduction)),
            ("recall", bits(confusion.recall())),
            ("precision", bits(confusion.precision())),
            ("artifacts", triage.artifacts),
            ("artifact_hash", triage.hash),
        ];
        Ok(outcome)
    }
}

/// Mean duration of the first and the last tenth of `calls` (in call
/// order), in milliseconds — how much a lane create slows down as the
/// store directory fills.
pub fn decile_means_ms(calls: &[Duration]) -> (f64, f64) {
    if calls.is_empty() {
        return (0.0, 0.0);
    }
    let tenth = (calls.len() / 10).max(1);
    let mean = |part: &[Duration]| {
        part.iter().map(Duration::as_secs_f64).sum::<f64>() * 1e3 / part.len() as f64
    };
    (mean(&calls[..tenth]), mean(&calls[calls.len() - tenth..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deciles_average_the_first_and_last_tenth() {
        let calls: Vec<Duration> = (1..=20).map(Duration::from_millis).collect();
        let (first, last) = decile_means_ms(&calls);
        assert!((first - 1.5).abs() < 1e-9);
        assert!((last - 19.5).abs() < 1e-9);
        assert_eq!(decile_means_ms(&[]), (0.0, 0.0));
        let (one, same) = decile_means_ms(&[Duration::from_millis(4)]);
        assert!((one - 4.0).abs() < 1e-9 && (same - 4.0).abs() < 1e-9);
    }
}
