//! End-to-end pipeline benchmark with per-layer attribution.
//!
//! ```text
//! cargo run --release --manifest-path pipebench/Cargo.toml -- \
//!     --workload paper_endurance --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Generates the workload's inputs from the seed (untimed), then runs
//! whole pipeline passes ("iterations") over them for `--seconds`, each
//! in a fresh store directory under `.pipebench/`. With `--trace 0` every
//! iteration runs with tracing off and the end-to-end metrics are the
//! medians over the iterations. With `--trace 1` iterations alternate
//! between tracing off and on; the per-layer metrics come from the traced
//! ones (spans plus the `endurance-obs` registry), and the spans are
//! written to `.pipebench/spans-<workload>.tsv`. The last line of
//! standard output is the JSON result; the exit code is 0 only when
//! every correctness check passed. See `pipebench/README.md`.

mod common;
mod cpus;
mod fleet;
mod metrics;
mod paper;
mod sinks;
mod stats;
mod tail;
mod trace;
mod triage;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use endurance_obs::{MetricsSnapshot, Registry};

use common::{Ctx, Outcome, Res};
use metrics::{Values, END_TO_END, PER_LAYER};
use trace::{attribute, Tracer};

/// The benchmark's workloads.
enum Workload {
    Paper(paper::Paper),
    Fleet(fleet::Fleet),
    Tail(tail::Tail),
}

impl Workload {
    const NAMES: [&'static str; 3] = ["paper_endurance", "fleet_churn", "live_tail"];

    fn generate(name: &str, seed: u64) -> Res<Self> {
        Ok(match name {
            "paper_endurance" => Workload::Paper(paper::Paper::generate(seed)?),
            "fleet_churn" => Workload::Fleet(fleet::Fleet::generate(seed)?),
            "live_tail" => Workload::Tail(tail::Tail::generate(seed)?),
            other => return Err(format!("unknown workload `{other}`").into()),
        })
    }

    fn describe(&self) -> String {
        match self {
            Workload::Paper(w) => w.describe(),
            Workload::Fleet(w) => w.describe(),
            Workload::Tail(w) => w.describe(),
        }
    }

    fn iterate(&self, ctx: &Ctx) -> Res<Outcome> {
        match self {
            Workload::Paper(w) => w.iterate(ctx),
            Workload::Fleet(w) => w.iterate(ctx),
            Workload::Tail(w) => w.iterate(ctx),
        }
    }

    /// How many generated inputs iterations cycle through.
    fn inputs(&self) -> usize {
        match self {
            Workload::Paper(w) => w.inputs(),
            Workload::Fleet(_) | Workload::Tail(_) => 1,
        }
    }

    /// Program threads besides the feeding thread, for the record.
    fn program_threads(&self, workers: usize) -> String {
        match self {
            Workload::Paper(_) => "1 spool writer".into(),
            Workload::Fleet(_) => format!("{workers} fleet worker(s)"),
            Workload::Tail(_) => "1 subscription pump + 1 follower".into(),
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes a number")?),
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !Workload::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            Workload::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("pipebench: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(err) => {
            eprintln!("pipebench: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Minimum iterations of each kind (untraced, traced) a run makes,
/// whatever `--seconds` says.
const MIN_ITERATIONS: usize = 2;

/// Every iteration of a run.
#[derive(Default)]
struct Iterations {
    untraced: Vec<Outcome>,
    traced: Vec<(Outcome, MetricsSnapshot, trace::Attribution)>,
    spans: Vec<trace::SpanRecord>,
}

/// Runs the benchmark; `Ok(false)` when a correctness check failed.
fn run(args: &Args) -> Res<bool> {
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = parallelism.saturating_sub(1).max(1);

    let generation = Instant::now();
    let workload = Workload::generate(&args.workload, args.seed)?;
    println!(
        "pipebench {} (seed {}, {} s, trace {}): {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workload.describe()
    );
    println!(
        "  inputs generated in {:.3} s (not part of any metric); host parallelism {parallelism}, \
         threads: 1 feeding + {}",
        generation.elapsed().as_secs_f64(),
        workload.program_threads(workers)
    );

    let root = PathBuf::from(".pipebench");
    let run_dir = root.join(format!("{}-{}", args.workload, std::process::id()));
    let steal_before = cpu_steal_ticks();
    let cpus = cpus::Cpus::of_current_thread();
    let measured = measure(args, &workload, &run_dir, workers, &cpus);
    let _ = std::fs::remove_dir_all(&run_dir);
    let runs = measured?;
    if let (Some((steal0, total0)), Some((steal1, total1))) = (steal_before, cpu_steal_ticks()) {
        println!(
            "  host: {:.1}% of CPU time stolen by the hypervisor while measuring",
            100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
        );
    }

    // Correctness: every check of every iteration, plus exact repeats of
    // the seed-determined results across iterations of the same input.
    let all: Vec<&Outcome> = runs
        .untraced
        .iter()
        .chain(runs.traced.iter().map(|(outcome, _, _)| outcome))
        .collect();
    let mut attempted: u64 = all.iter().map(|o| o.attempted).sum();
    let mut failures: Vec<String> = all.iter().flat_map(|o| o.failures.clone()).collect();
    let mut first: BTreeMap<usize, &Outcome> = BTreeMap::new();
    for outcome in &all {
        let reference = *first.entry(outcome.input).or_insert(outcome);
        attempted += 1;
        if outcome.fingerprint != reference.fingerprint {
            failures.push(format!(
                "results of input {} did not repeat across iterations: {:?} vs {:?}",
                outcome.input, outcome.fingerprint, reference.fingerprint
            ));
        }
    }
    for (input, outcome) in &first {
        for (name, value) in &outcome.fingerprint {
            println!("  deterministic (input {input}) {name}: {value:#018x}");
        }
    }

    let medians = median_values(runs.untraced.iter());
    let (catalogue, values) = if args.trace {
        let path = root.join(format!("spans-{}.tsv", args.workload));
        trace::write_tsv(&path, &runs.spans)?;
        println!("  {} spans written to {}", runs.spans.len(), path.display());
        (PER_LAYER, per_layer(&runs.traced, &medians))
    } else {
        let mut values = medians;
        values.set("peak_rss_mb", peak_rss_mib()?);
        for metric in END_TO_END {
            let value = values.get(metric.name).unwrap_or(0.0);
            attempted += 1;
            if !(value.is_finite() && value > 0.0) {
                failures.push(format!(
                    "end-to-end metric {} measured {value}",
                    metric.name
                ));
            }
        }
        (END_TO_END, values)
    };

    for failure in &failures {
        println!("  FAILED: {failure}");
    }
    for metric in catalogue {
        println!(
            "  {:<36} {:>18} {}",
            metric.name,
            format!("{:.6}", values.get(metric.name).unwrap_or(0.0)),
            metric.unit
        );
    }
    let correct = failures.is_empty();
    println!(
        "{}",
        metrics::result_line(
            correct,
            attempted,
            failures.len() as u64,
            catalogue,
            &values
        )
    );
    Ok(correct)
}

/// Runs iterations, each in a fresh directory under `run_dir`, until
/// another one would overrun `--seconds` (and at least
/// [`MIN_ITERATIONS`] of each kind, and one per input, ran). Each kind of
/// iteration cycles through the inputs and, independently, through
/// `cpus`.
fn measure(
    args: &Args,
    workload: &Workload,
    run_dir: &Path,
    workers: usize,
    cpus: &cpus::Cpus,
) -> Res<Iterations> {
    let mut runs = Iterations::default();
    let min_iterations = MIN_ITERATIONS.max(workload.inputs());
    let measuring = Instant::now();
    for iteration in 0u32.. {
        let tracing = args.trace && iteration % 2 == 1;
        let earlier = if tracing {
            runs.traced.len()
        } else {
            runs.untraced.len()
        };
        let input = earlier % workload.inputs();
        let slot = earlier % cpus.count();
        let dir = run_dir.join(format!("iter-{iteration}"));
        let (tracer, registry) = if tracing {
            (Tracer::enabled(iteration), Registry::new())
        } else {
            (Tracer::disabled(), Registry::disabled())
        };
        let ctx = Ctx {
            dir: dir.clone(),
            tracer,
            registry,
            workers,
            input,
            cpu: cpus.get(slot),
            triage: tracing && runs.traced.is_empty(),
        };
        let result = fresh_dir(&dir).and_then(|()| workload.iterate(&ctx));
        let removed = remove_durably(&dir);
        let mut outcome = result?;
        removed?;
        outcome.input = input;
        outcome.cpu = slot;
        let last_wall = outcome.wall_s;
        println!(
            "  iteration {iteration} ({}, cpu {}): {:.3} s, setup {:.6} s, ingest {:.0} ev/s, \
             replay {:.0} ev/s, {} checks, {} failed",
            if tracing { "traced" } else { "untraced" },
            ctx.cpu
                .map_or_else(|| "any".to_string(), |cpu| cpu.to_string()),
            outcome.wall_s,
            outcome.values.get("setup_s").unwrap_or(0.0),
            outcome.values.get("ingest_events_per_s").unwrap_or(0.0),
            outcome.values.get("replay_events_per_s").unwrap_or(0.0),
            outcome.attempted,
            outcome.failures.len()
        );
        if tracing {
            let spans = ctx.tracer.spans();
            let attribution = attribute(&spans);
            runs.spans.extend(spans);
            runs.traced
                .push((outcome, ctx.registry.snapshot(), attribution));
        } else {
            runs.untraced.push(outcome);
        }
        let enough = runs.untraced.len() >= min_iterations
            && (!args.trace || runs.traced.len() >= min_iterations);
        if enough && measuring.elapsed().as_secs_f64() + last_wall > args.seconds {
            break;
        }
    }
    Ok(runs)
}

/// Removes `dir` and waits until the removal is durable, so the file
/// system's deferred work for it is not charged to the next iteration's
/// first fsync.
fn remove_durably(dir: &Path) -> std::io::Result<()> {
    std::fs::remove_dir_all(dir)?;
    match dir.parent() {
        Some(parent) => std::fs::File::open(parent)?.sync_all(),
        None => Ok(()),
    }
}

/// Creates `dir` empty, removing whatever an interrupted run left there.
fn fresh_dir(dir: &Path) -> Res<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    Ok(())
}

/// Results that depend only on the input, not on timing.
const PER_INPUT: [&str; 3] = ["reduction_factor", "quality.recall", "quality.precision"];

/// Every metric over `outcomes`: the median over the iterations pinned to
/// each CPU, averaged over the CPUs (see `cpus`).
fn median_values<'a>(outcomes: impl Iterator<Item = &'a Outcome>) -> Values {
    let mut samples: BTreeMap<&'static str, BTreeMap<usize, Vec<f64>>> = BTreeMap::new();
    let mut seen = BTreeSet::new();
    for outcome in outcomes {
        for (name, value) in &outcome.values.0 {
            // A result fixed by the input counts once per input, so the
            // median is over inputs, not over how often each one ran, and
            // does not depend on the CPU.
            let per_input = PER_INPUT.contains(name);
            if per_input && !seen.insert((*name, outcome.input)) {
                continue;
            }
            let cpu = if per_input { 0 } else { outcome.cpu };
            samples
                .entry(name)
                .or_default()
                .entry(cpu)
                .or_default()
                .push(*value);
        }
    }
    let mut values = Values::default();
    for (name, by_cpu) in samples {
        let medians: Vec<f64> = by_cpu.values().filter_map(|s| stats::median(s)).collect();
        if !medians.is_empty() {
            values.set(name, medians.iter().sum::<f64>() / medians.len() as f64);
        }
    }
    values
}

/// The per-layer metrics: medians over the traced iterations of what the
/// spans, the registry and the workload measured, with the detection and
/// headline figures taken from the untraced iterations (`untraced`, the
/// medians of the untraced iterations), and the tracing overhead as
/// untraced over traced ingest rate.
fn per_layer(
    traced: &[(Outcome, MetricsSnapshot, trace::Attribution)],
    untraced: &Values,
) -> Values {
    let mut per_iteration = Vec::with_capacity(traced.len());
    for (outcome, snapshot, spans) in traced {
        let mut values = outcome.values.clone();
        let counter = |name: &str| snapshot.counter_total(name) as f64;
        let histogram_s = |name: &str| snapshot.histogram(name).map_or(0.0, |h| h.sum as f64 / 1e9);
        // Replay figures are per cold replay (an iteration repeats it).
        let replays = f64::from(outcome.replays.max(1));
        for (metric, span) in [
            ("store.open_s", "store.open"),
            ("store.index_load_s", "store.index_load"),
            ("store.decode_s", "store.decode"),
        ] {
            values.set(metric, spans.total_s(span) / replays);
        }
        for (metric, name) in [
            ("store.crc_validations", "store_crc_validations_total"),
            ("store.segcache_hits", "store_segcache_hits_total"),
            ("store.segcache_misses", "store_segcache_misses_total"),
        ] {
            values.set(metric, counter(name) / replays);
        }
        for (metric, span) in [
            ("core.push_s", "core.push"),
            ("core.close_stream_s", "core.close_stream"),
            ("core.finish_s", "core.finish"),
            ("store.lane_create_s", "store.lane_create"),
            ("store.close_s", "store.close"),
            ("store.compact_s", "store.compact"),
            ("serve.recv_wait_s", "serve.recv"),
            ("repro.extract_s", "repro.extract"),
            ("repro.minimize_s", "repro.minimize"),
        ] {
            // Over the iterations that made the call: paper_endurance
            // triages on one traced iteration only.
            if spans.calls(span) > 0 {
                values.set(metric, spans.total_s(span));
            }
        }
        let creates = spans.calls("store.lane_create") as f64;
        values.set("store.lane_create_calls", creates);
        if creates > 0.0 {
            values.set(
                "store.lane_create_per_s",
                creates / spans.total_s("store.lane_create"),
            );
        }
        values.set(
            "anomaly.decision_s",
            histogram_s("core_session_decision_ns"),
        );
        values.set(
            "core.fleet_backpressure_stalls",
            counter("core_fleet_backpressure_stalls_total"),
        );
        for (metric, name) in [
            ("store.frames_written", "store_frames_written_total"),
            ("store.bytes_written", "store_bytes_written_total"),
            ("store.rotations", "store_rotations_total"),
        ] {
            values.set(metric, counter(name));
        }
        let record_s = values.get("store.record_window_s").unwrap_or(0.0);
        if record_s > 0.0 {
            values.set(
                "store.write_bytes_per_s",
                counter("store_bytes_written_total") / record_s,
            );
        }
        values.set(
            "trace.unattributed_s",
            outcome.wall_s - spans.feeding_self_ns as f64 / 1e9,
        );
        per_iteration.push(Outcome {
            values,
            input: outcome.input,
            cpu: outcome.cpu,
            ..Outcome::default()
        });
    }
    let mut values = median_values(per_iteration.iter());
    for name in [
        "quality.recall",
        "quality.precision",
        "repro.triage_artifacts_per_s",
        "serve.tail_lag_p50_us",
    ] {
        if let Some(value) = untraced.get(name) {
            values.set(name, value);
        }
    }
    if let (Some(off), Some(on)) = (
        untraced.get("ingest_events_per_s"),
        values.get("ingest_events_per_s"),
    ) {
        values.set("trace.overhead_ratio", off / on);
    }

    let layer_self = |layer: &str| {
        let samples: Vec<f64> = traced
            .iter()
            .map(|(_, _, a)| a.layer_self_s(layer))
            .filter(|&own| own > 0.0)
            .collect();
        stats::median(&samples).unwrap_or(0.0)
    };
    println!(
        "  self time by layer (median of the traced iterations using it): core {:.3} s (anomaly decisions \
         inside it {:.3} s), store {:.3} s, serve {:.3} s, repro {:.3} s; unattributed on the \
         feeding thread {:.3} s",
        layer_self("core"),
        values.get("anomaly.decision_s").unwrap_or(0.0),
        layer_self("store"),
        layer_self("serve"),
        layer_self("repro"),
        values.get("trace.unattributed_s").unwrap_or(0.0),
    );
    values
        .0
        .retain(|name, _| PER_LAYER.iter().any(|m| m.name == *name));
    values
}

/// Peak resident set size of this process so far, in MiB.
fn peak_rss_mib() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// `(steal, total)` CPU ticks of the host so far, from `/proc/stat`.
fn cpu_steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|field| field.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(input: usize, reduction: f64, ingest: f64) -> Outcome {
        let mut outcome = Outcome {
            input,
            ..Outcome::default()
        };
        outcome.values.set("reduction_factor", reduction);
        outcome.values.set("ingest_events_per_s", ingest);
        outcome
    }

    #[test]
    fn input_fixed_results_count_once_per_input() {
        // Input 0 ran three times; its reduction factor must not outvote
        // the other inputs, while timings are medians over iterations.
        let outcomes = [
            outcome(0, 110.0, 1.0),
            outcome(1, 6.0, 2.0),
            outcome(0, 110.0, 3.0),
            outcome(2, 6.2, 4.0),
            outcome(0, 110.0, 5.0),
        ];
        let values = median_values(outcomes.iter());
        assert_eq!(values.get("reduction_factor"), Some(6.2));
        assert_eq!(values.get("ingest_events_per_s"), Some(3.0));
    }

    #[test]
    fn timings_average_the_per_cpu_medians() {
        // Three iterations on a slow CPU, one on a fast one: each CPU
        // counts once, whatever its share of the iterations.
        let mut outcomes = [
            outcome(0, 6.0, 1.0),
            outcome(1, 6.0, 2.0),
            outcome(2, 6.0, 3.0),
            outcome(3, 6.0, 10.0),
        ];
        outcomes[3].cpu = 1;
        let values = median_values(outcomes.iter());
        assert_eq!(values.get("ingest_events_per_s"), Some(6.0));
        assert_eq!(values.get("reduction_factor"), Some(6.0));
    }
}
