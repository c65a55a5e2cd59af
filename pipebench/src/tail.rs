//! `live_tail`: a paced writer with one live follower on the same store,
//! then a compaction pass and a cold replay.
//!
//! A high-rate mm-sim trace is cut into 40 ms windows and pre-encoded;
//! every window is recorded (the detector is bypassed) through a
//! `ServeHandle` writer (EDV) at a fixed open-loop rate, while one
//! `Subscription` follows the lane. Encode, CRC, append and rotation
//! fsync sit on the writer side; commit watermark, tail and decode on the
//! follower side. A `Compactor` merge pass and a cold replay follow.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use endurance_serve::{ServeHandle, SubscribeOptions, SubscriptionStep};
use endurance_store::{CodecId, Compactor, MaintenancePolicy, StoreConfig};
use mm_sim::{Scenario, Simulation};
use trace_model::codec::{BinaryEncoder, TraceEncoder};
use trace_model::{EventSink, RecordMeta, Timestamp, TraceEvent, WindowId};

use crate::common::{bits, dir_bytes, replay, Ctx, Outcome, Res};
use crate::cpus::pin_current_thread;
use crate::sinks::{close_lane, EventDigest, TimedSink};
use crate::stats::{Schedule, Summary};
use crate::trace::Tracer;

/// Windows written per iteration.
pub const WINDOWS: usize = 36_000;

/// Open-loop send rate, in windows per second: about half of what the
/// writer sustains flat out on a 2-core host.
pub const RATE: f64 = 12_000.0;

/// Window length, as in the paper.
const WINDOW_NS: u64 = 40_000_000;

/// Windows per segment: the writer rotates (and fsyncs) every this many
/// windows, leaving small segments for the compaction pass to merge.
const SEGMENT_WINDOWS: u64 = 1_000;

/// Segments below this size are merged by the compaction pass.
const MERGE_BELOW: u64 = 4 * 1024 * 1024;

/// The generated input of one seed.
#[derive(Debug)]
pub struct Tail {
    windows: Vec<(RecordMeta, Vec<TraceEvent>, Vec<u8>)>,
    digest: EventDigest,
    input_bytes: u64,
}

impl Tail {
    /// Simulates a high-rate trace (5 ms frames, 2 ms audio chunks) long
    /// enough for [`WINDOWS`] windows, cuts it into 40 ms windows and
    /// encodes each one as the recorder would.
    pub fn generate(seed: u64) -> Res<Self> {
        let scenario = Scenario::builder("live-tail")
            .duration(Duration::from_nanos(WINDOWS as u64 * WINDOW_NS))
            .reference_duration(Duration::ZERO)
            .frame_period(Duration::from_millis(5))
            .audio_period(Duration::from_millis(2))
            .seed(seed)
            .build()?;
        let registry = scenario.registry()?;
        let events: Vec<TraceEvent> = Simulation::new(&scenario, &registry)?.collect();
        let mut full = Vec::new();
        BinaryEncoder::new().encode(&events, &mut full)?;

        let mut windows: Vec<(RecordMeta, Vec<TraceEvent>, Vec<u8>)> = Vec::new();
        let mut rest = events.as_slice();
        while let Some(first) = rest.first() {
            let slot = first.timestamp.as_nanos() / WINDOW_NS;
            let len = rest
                .iter()
                .position(|event| event.timestamp.as_nanos() / WINDOW_NS != slot)
                .unwrap_or(rest.len());
            let (window, tail) = rest.split_at(len);
            rest = tail;
            let mut encoded = Vec::new();
            BinaryEncoder::new().encode(window, &mut encoded)?;
            let meta = RecordMeta {
                window_id: WindowId::new(windows.len() as u64),
                start: Timestamp::from_nanos(slot * WINDOW_NS),
                end: Timestamp::from_nanos((slot + 1) * WINDOW_NS),
            };
            windows.push((meta, window.to_vec(), encoded));
        }
        windows.truncate(WINDOWS);
        let mut digest = EventDigest::default();
        for (_, events, _) in &windows {
            digest.update(events);
        }
        Ok(Tail {
            windows,
            digest,
            input_bytes: full.len() as u64,
        })
    }

    /// A one-line description of the input.
    pub fn describe(&self) -> String {
        format!(
            "{} windows of 40 ms, {} events, {} B as ETRC binary, sent at {RATE} windows/s",
            self.windows.len(),
            self.digest.events,
            self.input_bytes
        )
    }

    /// One pass: set up, write paced while following, close, compact,
    /// replay.
    pub fn iterate(&self, ctx: &Ctx) -> Res<Outcome> {
        let tracer = &ctx.tracer;
        let mut outcome = Outcome::default();
        let start = Instant::now();

        let serve = ServeHandle::open(&ctx.dir)?.with_metrics(ctx.registry.clone());
        let config = StoreConfig::default()
            .with_codec(CodecId::DeltaVarint)
            .with_segment_max_windows(SEGMENT_WINDOWS);
        let writer = {
            let _span = tracer.span("store.lane_create");
            serve.create_writer(0, config)?
        };
        let mut sink = TimedSink::new(writer, tracer.clone());
        let subscription = serve.subscribe_with(
            0,
            SubscribeOptions {
                buffer: WINDOWS,
                resume_grace: Duration::from_millis(20),
            },
        );
        let setup_s = start.elapsed().as_secs_f64();

        let schedule = Schedule::new(Instant::now(), RATE);
        let follower = {
            let tracer = tracer.clone();
            std::thread::spawn(move || follow(&subscription, &schedule, &tracer))
        };
        // The follower and the subscription pump are running: pin only
        // the writing thread.
        let _pinned = pin_current_thread(ctx.cpu);
        let mut late_max = Duration::ZERO;
        for (i, (meta, events, encoded)) in self.windows.iter().enumerate() {
            late_max = late_max.max(schedule.wait_for(i as u64));
            sink.record_window(meta, events, encoded)?;
        }
        let writes = Summary::of(&sink.write_us);
        let record_window_s = sink.write_us.iter().sum::<f64>() / 1e6;
        let recorded = sink.digest;
        close_lane(sink, tracer)?;
        let ingest_s = start.elapsed().as_secs_f64() - setup_s;
        let followed = follower.join().map_err(|_| "the follower panicked")??;

        let committed = self.windows.len() as u64;
        let stats = followed.stats;
        outcome.check(stats.delivered + stats.dropped == committed, || {
            format!(
                "follower accounted {} delivered + {} dropped of {committed} committed windows",
                stats.delivered, stats.dropped
            )
        });
        outcome.check(stats.dropped == 0, || {
            format!("follower dropped {} windows", stats.dropped)
        });
        outcome.check(followed.digest == recorded, || {
            "the follower received other events than were recorded".into()
        });
        outcome.check(recorded == self.digest, || {
            "the writer recorded other events".into()
        });

        let compaction = tracer.time("store.compact", || {
            let compact_start = Instant::now();
            Compactor::new(&ctx.dir, MaintenancePolicy::merge_below(MERGE_BELOW))
                .with_metrics(&ctx.registry)
                .compact()
                .map(|report| (report, compact_start.elapsed().as_secs_f64()))
        });
        let (report, compact_s) = compaction?;
        let merged = report.lanes.iter().filter(|lane| lane.merged_runs > 0);
        let rewritten: u64 = merged.clone().map(|lane| lane.bytes_after).sum();
        let files_in: usize = report.lanes.iter().map(|lane| lane.segments_before).sum();
        let files_out: usize = report.lanes.iter().map(|lane| lane.segments_after).sum();
        outcome.check(merged.count() > 0, || {
            "the compaction pass merged nothing".into()
        });
        drop(serve);

        let stored_bytes = dir_bytes(&ctx.dir)?;
        let expected = BTreeMap::from([(0, self.digest)]);
        let replayed = replay(&ctx.dir, &expected, ctx, &mut outcome)?;
        outcome.wall_s = start.elapsed().as_secs_f64();

        let lags = Summary::of(&followed.lag_us).ok_or("the follower received nothing")?;
        let reduction = self.input_bytes as f64 / stored_bytes.max(1) as f64;
        let v = &mut outcome.values;
        v.set("setup_s", setup_s);
        v.set("ingest_events_per_s", self.digest.events as f64 / ingest_s);
        v.set(
            "replay_events_per_s",
            replayed.events as f64 / replayed.seconds,
        );
        v.set("reduction_factor", reduction);
        v.set("serve.tail_lag_p50_us", lags.p50);
        v.set("serve.tail_lag_p99_us", lags.p99);
        v.set("serve.windows_delivered", stats.delivered as f64);
        v.set("serve.windows_dropped", stats.dropped as f64);
        v.set("serve.generator_late_max_ms", late_max.as_secs_f64() * 1e3);
        v.set("store.record_window_s", record_window_s);
        if let Some(writes) = writes {
            v.set("store.record_window_p99_us", writes.p99);
        }
        v.set("store.compact_bytes_rewritten", rewritten as f64);
        v.set("store.compact_files_in", files_in as f64);
        v.set("store.compact_files_out", files_out as f64);
        if compact_s > 0.0 {
            v.set("store.compact_bytes_per_s", rewritten as f64 / compact_s);
        }
        outcome.fingerprint = vec![
            ("reduction_factor", bits(reduction)),
            ("recorded_hash", recorded.hash),
        ];
        println!("  follower lag (us): {lags}");
        Ok(outcome)
    }
}

/// What the follower thread saw.
#[derive(Debug)]
struct Followed {
    lag_us: Vec<f64>,
    digest: EventDigest,
    stats: trace_model::SubscriptionStats,
}

/// Drains the subscription until the lane ends, timing each window from
/// its scheduled send time to its receipt.
fn follow(
    subscription: &endurance_serve::Subscription,
    schedule: &Schedule,
    tracer: &Tracer,
) -> Result<Followed, String> {
    let mut lag_us = Vec::with_capacity(WINDOWS);
    let mut digest = EventDigest::default();
    loop {
        let step = {
            let _span = tracer.span("serve.recv");
            subscription.recv(Duration::from_secs(5))
        };
        match step.map_err(|err| err.to_string())? {
            SubscriptionStep::Window(window) => {
                let received = Instant::now();
                lag_us.push(
                    schedule
                        .latency(window.entry.window_id, received)
                        .as_secs_f64()
                        * 1e6,
                );
                digest.update(&window.events().map_err(|err| err.to_string())?);
            }
            SubscriptionStep::TimedOut => return Err("the follower timed out".into()),
            SubscriptionStep::Ended => break,
        }
    }
    Ok(Followed {
        lag_us,
        digest,
        stats: subscription.stats(),
    })
}
