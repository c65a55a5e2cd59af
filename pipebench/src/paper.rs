//! `paper_endurance`: the published loop on one device.
//!
//! `Scenario::scaled_endurance` with the paper's monitor parameters
//! (40 ms windows, K = 20, α = 1.2, 300 s reference learned in-stream)
//! through `ReductionSession` → `SpooledSink(LaneWriter, EDV)` → close →
//! cold replay. The detector does most of the work; the store sees only
//! the recorded windows. The first traced iteration of a run then triages
//! the device's first true-positive window (`extract_window` +
//! `minimize`); untraced iterations never do, so the end-to-end figures
//! do not carry it.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use endurance_core::{MonitorConfig, ReductionSession, SessionPhase};
use endurance_eval::{ConfusionMatrix, WindowLabel};
use endurance_store::{CodecId, SpooledSink, StoreConfig};
use mm_sim::{PerturbationSchedule, Scenario, Simulation};
use trace_model::codec::{BinaryEncoder, TraceEncoder};
use trace_model::TraceEvent;

use crate::common::{bits, dir_bytes, label, replay, Ctx, Decisions, Outcome, Res};
use crate::cpus::pin_current_thread;
use crate::sinks::{close_lane, create_lane};
use crate::stats::Summary;
use crate::triage::triage;

/// Simulated length of the endurance run: the 300 s reference segment
/// plus four of the scenario's 180 s perturbation periods.
const DURATION: Duration = Duration::from_secs(300 + 4 * 180);

/// Devices simulated per seed. How well the detector does depends on the
/// device (on some the learned reference hides the perturbations and
/// almost nothing is recorded), so a run measures several and reports
/// the median device.
pub const DEVICES: usize = 5;

/// Events per `push_batch` call — one tracing-hardware buffer.
const CHUNK: usize = 256;

/// One simulated device's trace.
#[derive(Debug)]
struct Device {
    events: Vec<TraceEvent>,
    schedule: PerturbationSchedule,
    input_bytes: u64,
}

/// The generated input of one seed.
#[derive(Debug)]
pub struct Paper {
    devices: Vec<Device>,
    monitor: MonitorConfig,
}

impl Paper {
    /// Simulates [`DEVICES`] devices for `seed` and encodes each full
    /// trace (the denominator of the reduction factor).
    pub fn generate(seed: u64) -> Res<Self> {
        let mut devices = Vec::with_capacity(DEVICES);
        let mut monitor = None;
        for device in 0..DEVICES as u64 {
            let seed = seed.wrapping_mul(DEVICES as u64).wrapping_add(device);
            let scenario = Scenario::scaled_endurance(DURATION, seed)?;
            let registry = scenario.registry()?;
            let events: Vec<TraceEvent> = Simulation::new(&scenario, &registry)?.collect();
            if monitor.is_none() {
                monitor = Some(
                    MonitorConfig::builder()
                        .dimensions(registry.len())
                        .reference_duration(scenario.reference_duration)
                        .build()?,
                );
            }
            let mut encoded = Vec::new();
            BinaryEncoder::new().encode(&events, &mut encoded)?;
            devices.push(Device {
                events,
                schedule: scenario.perturbations,
                input_bytes: encoded.len() as u64,
            });
        }
        Ok(Paper {
            devices,
            monitor: monitor.expect("at least one device"),
        })
    }

    /// How many inputs [`Paper::iterate`] cycles through.
    pub fn inputs(&self) -> usize {
        self.devices.len()
    }

    /// A one-line description of the input.
    pub fn describe(&self) -> String {
        let events: usize = self.devices.iter().map(|d| d.events.len()).sum();
        format!(
            "{DEVICES} devices, {} events each on average over {} s simulated, \
             {} perturbations each",
            events / DEVICES,
            DURATION.as_secs(),
            self.devices[0].schedule.len(),
        )
    }

    /// One pass over device `ctx.input`: set up, ingest, close, replay,
    /// score, and triage when `ctx.triage` is set.
    pub fn iterate(&self, ctx: &Ctx) -> Res<Outcome> {
        let device = &self.devices[ctx.input];
        let tracer = &ctx.tracer;
        let mut outcome = Outcome::default();
        let start = Instant::now();

        let config = StoreConfig::default().with_codec(CodecId::DeltaVarint);
        let lane = create_lane(&ctx.dir, 0, config, &ctx.registry, tracer)?;
        let mut session = ReductionSession::new(self.monitor.clone())?
            .with_sink(SpooledSink::new(lane))
            .with_observer(Decisions::default())
            .with_metrics(ctx.registry.clone());
        let setup_s = start.elapsed().as_secs_f64();
        // The spool writer thread is running: pin only the feeding thread.
        let _pinned = pin_current_thread(ctx.cpu);

        let ingest_start = Instant::now();
        let mut learn_s = 0.0;
        for chunk in device.events.chunks(CHUNK) {
            let learning = session.phase() == SessionPhase::Learning;
            let call = Instant::now();
            tracer.time("core.push", || session.push_batch(chunk))?;
            if learning && session.phase() == SessionPhase::Monitoring {
                learn_s = call.elapsed().as_secs_f64();
            }
        }
        // The session hands its learned model to no one; triage needs it.
        let model = if ctx.triage {
            session.model().cloned()
        } else {
            None
        };
        let finished = tracer.time("core.finish", || session.finish())?;
        let lane = tracer.time("store.close", || finished.sink.finish())?;
        let digest = lane.digest;
        let writes = Summary::of(&lane.write_us);
        let record_window_s = lane.write_us.iter().sum::<f64>() / 1e6;
        close_lane(lane, tracer)?;
        let ingest_s = ingest_start.elapsed().as_secs_f64();
        let stored_bytes = dir_bytes(&ctx.dir)?;

        let expected = BTreeMap::from([(0, digest)]);
        let replayed = replay(&ctx.dir, &expected, ctx, &mut outcome)?;

        let decisions = finished.observer;
        let labeled = label(&device.schedule, &decisions.all);
        let confusion = ConfusionMatrix::from_labels(&labeled);
        let closed = decisions.all.len() as u64;
        outcome.check(closed > 0, || "the session monitored no window".into());
        let triaged = match model {
            Some(model) => {
                let targets: Vec<(u32, u64)> = labeled
                    .iter()
                    .find(|l| l.label == WindowLabel::TruePositive)
                    .map(|first| (0, first.decision.window_id.index()))
                    .into_iter()
                    .collect();
                Some(triage(&targets, &self.monitor, &model, ctx, &mut outcome)?)
            }
            None => None,
        };
        outcome.wall_s = start.elapsed().as_secs_f64();

        let reduction = device.input_bytes as f64 / stored_bytes.max(1) as f64;
        let v = &mut outcome.values;
        v.set("setup_s", setup_s);
        v.set("ingest_events_per_s", device.events.len() as f64 / ingest_s);
        v.set(
            "replay_events_per_s",
            replayed.events as f64 / replayed.seconds,
        );
        v.set("reduction_factor", reduction);
        v.set("quality.recall", confusion.recall());
        v.set("quality.precision", confusion.precision());
        v.set("core.learn_s", learn_s);
        v.set("store.record_window_s", record_window_s);
        if let Some(writes) = writes {
            v.set("store.record_window_p99_us", writes.p99);
        }
        decisions.report(closed, v);
        if let Some(triaged) = &triaged {
            triaged.report(v);
        }
        outcome.fingerprint = vec![
            ("reduction_factor", bits(reduction)),
            ("recall", bits(confusion.recall())),
            ("precision", bits(confusion.precision())),
            ("recorded_events", digest.events),
            ("recorded_hash", digest.hash),
        ];
        Ok(outcome)
    }
}
