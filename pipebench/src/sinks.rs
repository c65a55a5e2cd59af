//! Benchmark-owned sink wrappers: per-call write timing on the thread
//! that writes, and a content hash of everything recorded so replay can
//! be checked against it.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use endurance_obs::Registry;
use endurance_store::{LaneWriter, StoreConfig};
use trace_model::{EventSink, RecordMeta, TraceError, TraceEvent};

use crate::trace::Tracer;

/// Order-sensitive hash and count of a sequence of events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventDigest {
    /// Events folded in.
    pub events: u64,
    /// FNV-1a over every field of every event.
    pub hash: u64,
}

impl Default for EventDigest {
    fn default() -> Self {
        EventDigest {
            events: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl EventDigest {
    /// Folds `events` in, in order.
    pub fn update(&mut self, events: &[TraceEvent]) {
        for event in events {
            for word in [
                event.timestamp.as_nanos(),
                u64::from(event.event_type.as_u16()),
                u64::from(event.payload),
                u64::from(event.severity.as_u8()),
            ] {
                self.hash = (self.hash ^ word).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        self.events += events.len() as u64;
    }

    /// Digest of `events`.
    pub fn of(events: &[TraceEvent]) -> Self {
        let mut digest = EventDigest::default();
        digest.update(events);
        digest
    }
}

/// Wraps the sink a recorder writes to: times every write call on the
/// thread that makes it (a `SpooledSink`'s writer thread, a fleet worker,
/// or the feeding thread) and digests what was recorded.
#[derive(Debug)]
pub struct TimedSink<S> {
    inner: S,
    tracer: Tracer,
    /// Duration of every write call, in microseconds.
    pub write_us: Vec<f64>,
    /// Everything recorded, in order.
    pub digest: EventDigest,
}

impl<S: EventSink> TimedSink<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, tracer: Tracer) -> Self {
        TimedSink {
            inner,
            tracer,
            write_us: Vec::new(),
            digest: EventDigest::default(),
        }
    }

    /// The wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn timed(
        &mut self,
        events: &[TraceEvent],
        write: impl FnOnce(&mut S) -> Result<(), TraceError>,
    ) -> Result<(), TraceError> {
        self.digest.update(events);
        let start = Instant::now();
        let result = {
            let _span = self.tracer.span("store.record_window");
            write(&mut self.inner)
        };
        self.write_us.push(start.elapsed().as_secs_f64() * 1e6);
        result
    }
}

impl<S: EventSink> EventSink for TimedSink<S> {
    fn record(&mut self, events: &[TraceEvent]) -> Result<(), TraceError> {
        self.timed(events, |inner| inner.record(events))
    }

    fn record_window(
        &mut self,
        meta: &RecordMeta,
        events: &[TraceEvent],
        encoded: &[u8],
    ) -> Result<(), TraceError> {
        self.timed(events, |inner| inner.record_window(meta, events, encoded))
    }

    fn recorded_events(&self) -> usize {
        self.inner.recorded_events()
    }

    fn recorded_bytes(&self) -> usize {
        self.inner.recorded_bytes()
    }
}

/// Opens a store lane writer with the run's registry attached (disabled
/// on untraced iterations), inside a `store.lane_create` span.
pub fn create_lane(
    dir: &Path,
    lane: u32,
    config: StoreConfig,
    registry: &Registry,
    tracer: &Tracer,
) -> Result<TimedSink<LaneWriter>, TraceError> {
    let writer = {
        let _span = tracer.span("store.lane_create");
        LaneWriter::create(dir, lane, config)?.with_metrics(registry)
    };
    Ok(TimedSink::new(writer, tracer.clone()))
}

/// Closes a lane writer (sidecar written, data durable) inside a
/// `store.close` span.
pub fn close_lane(sink: TimedSink<LaneWriter>, tracer: &Tracer) -> Result<(), TraceError> {
    let writer = sink.into_inner();
    let _span = tracer.span("store.close");
    writer.close()
}

/// Create-call durations of the fleet's lanes, in call order.
pub type CreateLog = Arc<Mutex<Vec<Duration>>>;

/// A fleet stream's lane: the timed writer, or its creation failure
/// deferred to the first write. Fleet sink factories are infallible and
/// run on worker threads, so a lane that cannot be opened fails its
/// stream (counted as a failed stream) instead of a worker.
#[derive(Debug)]
pub enum FleetLane {
    /// The lane is open.
    Ready(Box<TimedSink<LaneWriter>>),
    /// The lane could not be opened.
    Failed(String),
}

impl FleetLane {
    /// Opens `lane`, logging how long the create call took.
    pub fn create(
        dir: &Path,
        lane: u32,
        config: StoreConfig,
        registry: &Registry,
        tracer: &Tracer,
        log: &CreateLog,
    ) -> Self {
        let start = Instant::now();
        let lane = match create_lane(dir, lane, config, registry, tracer) {
            Ok(sink) => FleetLane::Ready(Box::new(sink)),
            Err(err) => FleetLane::Failed(err.to_string()),
        };
        log.lock()
            .expect("create log poisoned")
            .push(start.elapsed());
        lane
    }

    fn ready(&mut self) -> Result<&mut TimedSink<LaneWriter>, TraceError> {
        match self {
            FleetLane::Ready(sink) => Ok(sink),
            FleetLane::Failed(msg) => Err(TraceError::Io(std::io::Error::other(msg.clone()))),
        }
    }
}

impl EventSink for FleetLane {
    fn record(&mut self, events: &[TraceEvent]) -> Result<(), TraceError> {
        self.ready()?.record(events)
    }

    fn record_window(
        &mut self,
        meta: &RecordMeta,
        events: &[TraceEvent],
        encoded: &[u8],
    ) -> Result<(), TraceError> {
        self.ready()?.record_window(meta, events, encoded)
    }

    fn recorded_events(&self) -> usize {
        match self {
            FleetLane::Ready(sink) => sink.recorded_events(),
            FleetLane::Failed(_) => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_model::{EventTypeId, Timestamp};

    fn event(ns: u64, payload: u32) -> TraceEvent {
        TraceEvent::new(Timestamp::from_nanos(ns), EventTypeId::new(1), payload)
    }

    #[test]
    fn digest_is_order_sensitive_and_incremental() {
        let a = [event(1, 1), event(2, 2)];
        let b = [event(2, 2), event(1, 1)];
        assert_ne!(EventDigest::of(&a), EventDigest::of(&b));
        let mut split = EventDigest::default();
        split.update(&a[..1]);
        split.update(&a[1..]);
        assert_eq!(split, EventDigest::of(&a));
        assert_eq!(split.events, 2);
    }

    #[test]
    fn timed_sink_times_and_digests_every_write() {
        let mut sink = TimedSink::new(trace_model::MemorySink::new(), Tracer::disabled());
        let events = [event(5, 1), event(6, 2)];
        sink.record(&events).unwrap();
        sink.record(&events[..1]).unwrap();
        assert_eq!(sink.write_us.len(), 2);
        assert_eq!(sink.digest.events, 3);
        assert_eq!(sink.into_inner().len(), 3);
    }
}
