//! `gossipbench` — the end-to-end and per-layer benchmark.
//!
//! ```text
//! gossipbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, builds and runs the
//! deployment repeatedly for `--seconds`, checks every run's outputs and
//! prints each metric with its unit. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of the
//! separate traced run with `--trace 1`. See `README.md` beside this
//! package for the workloads and the layer → metric map.

mod metrics;
mod speed;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use fabric_experiments::net::FabricNet;

use metrics::{Report, END_TO_END, PER_LAYER};
use speed::SpeedProbe;
use trace::{Layer, LayerTimes, Traced};
use workloads::{layer_times, measure, run, run_reference, setup, Inputs, Outcome, Workload};

/// Set-ups timed (and dropped) before each round's timed simulation, so
/// `setup_s` is a median over many samples spread across the run: the
/// box's speed drifts over seconds to minutes, and a block of set-ups at
/// one moment would read only that moment's speed.
const SETUPS_PER_ROUND: usize = 8;
/// Rounds a run makes at the least, however long they take.
const MIN_ROUNDS: usize = 3;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process, MiB, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Trimmed standard output of a command run to completion, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The commit under test: HEAD of the git repository rooted at the
/// working directory, or "unknown" (a plain source checkout).
fn commit() -> String {
    let out = command_line("git", &["rev-parse", "--show-toplevel", "HEAD"]);
    let mut lines = out.lines();
    let here = std::env::current_dir().and_then(|d| d.canonicalize()).ok();
    match (lines.next(), lines.next(), here) {
        (Some(top), Some(head), Some(here))
            if std::path::Path::new(top).canonicalize().ok().as_ref() == Some(&here) =>
        {
            head.to_owned()
        }
        _ => "unknown".to_owned(),
    }
}

/// One traced simulation: its wall time, per-shard busy time and layer
/// times.
struct TracedSample {
    wall: Duration,
    shard_busy: Vec<Duration>,
    layers: LayerTimes,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: gossipbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "env {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"shards\": {}, \"commit\": \"{}\", \"rustc\": \"{}\"}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workloads::SHARDS,
        commit(),
        command_line("rustc", &["--version"]),
    );

    let inputs = Inputs::generate(args.workload, args.seed);

    // Warm-up: the library entry point the workload reproduces runs first,
    // untimed. It fills caches and finishes lazy initialisation, and its
    // result is what the benchmark's own deployment must match.
    let library = run_reference(&inputs);

    // Measured times, and the same scaled to the box's speed of the
    // moment (see `speed`).
    let mut setups: Vec<f64> = Vec::new();
    let mut walls: Vec<f64> = Vec::new();
    let mut scaled_setups: Vec<f64> = Vec::new();
    let mut scaled_walls: Vec<f64> = Vec::new();
    let mut probes: Vec<f64> = Vec::new();
    // Allocated after the first simulation, so that its buffer is not in
    // the peak resident memory read then.
    let mut probe: Option<SpeedProbe> = None;
    let mut peak: Option<f64> = None;
    let mut traced: Vec<TracedSample> = Vec::new();
    let mut first: Option<Outcome> = None;
    let mut diverged = 0usize;
    let begun = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    loop {
        let round = Instant::now();
        let mut round_setups = Vec::with_capacity(SETUPS_PER_ROUND + 1);
        for _ in 0..SETUPS_PER_ROUND {
            let (sims, took) = setup::<FabricNet>(&inputs);
            round_setups.push(took.as_secs_f64());
            drop(sims);
        }
        let (sims, took) = setup::<FabricNet>(&inputs);
        round_setups.push(took.as_secs_f64());
        let finished = run(&inputs, sims);
        let wall = finished.wall.as_secs_f64();
        let outcome = measure(&inputs, &finished);
        drop(finished);
        let reference = first.get_or_insert(outcome.clone());
        diverged += usize::from(outcome != *reference);

        if peak.is_none() {
            peak = Some(peak_rss_mb().unwrap_or(f64::NAN));
        }

        if args.trace {
            let (sims, _) = setup::<Traced>(&inputs);
            let finished = run(&inputs, sims);
            // The wrapper must be transparent: same events, same outcome.
            diverged += usize::from(measure(&inputs, &finished) != *reference);
            traced.push(TracedSample {
                wall: finished.wall,
                shard_busy: finished.shard_busy.clone(),
                layers: layer_times(&finished),
            });
        }

        // The round's set-ups and simulations ran between the previous
        // probe and this one; their mean is the round's speed.
        let after = probe
            .get_or_insert_with(SpeedProbe::new)
            .time()
            .as_secs_f64();
        let speed = probes.last().map_or(after, |before| (before + after) / 2.0);
        probes.push(after);
        let scale = speed::NOMINAL_S / speed;
        walls.push(wall);
        scaled_walls.push(wall * scale);
        scaled_setups.extend(round_setups.iter().map(|s| s * scale));
        setups.extend(round_setups);

        // Stop before a further round would overrun the budget.
        if begun.elapsed() + round.elapsed() > budget && walls.len() >= MIN_ROUNDS {
            break;
        }
    }
    let reference = first.expect("the loop runs at least once");
    let mut failures = reference.check(&inputs);
    failures.extend(library.matches(&reference));
    if diverged > 0 {
        failures.push(format!(
            "{diverged} runs diverged from the first run's outcome"
        ));
    }
    if let Some(sample) = traced.first() {
        let booked: u64 = sample.layers.calls.iter().sum();
        if booked != reference.events {
            failures.push(format!(
                "traced run booked {booked} handler calls for {} events",
                reference.events
            ));
        }
    }
    let peak = peak.filter(|p| p.is_finite());
    if peak.is_none() {
        failures.push("peak resident memory unavailable".to_owned());
    }

    println!(
        "{}: {} timed runs, {} set-ups, {} events per run, {} latency samples ({} beyond p99.9), \
         {} convergence samples, {} catch-ups ({} done, p50 {:.3} s)",
        args.workload.name(),
        walls.len(),
        setups.len(),
        reference.events,
        reference.latency_samples,
        reference.beyond_p999,
        reference.converge_samples,
        reference.catchups,
        reference.catchups_done,
        reference.catchup_p50_s,
    );
    let mut sorted = walls.clone();
    sorted.sort_by(f64::total_cmp);
    let mut sorted_probes = probes.clone();
    sorted_probes.sort_by(f64::total_cmp);
    println!(
        "wall per timed run: min {:.6} s, median {:.6} s, max {:.6} s; set-up median {:.6} s; \
         speed probe: min {:.6} s, median {:.6} s, max {:.6} s",
        sorted[0],
        median(&walls),
        sorted[sorted.len() - 1],
        median(&setups),
        sorted_probes[0],
        median(&probes),
        sorted_probes[sorted_probes.len() - 1],
    );
    for f in &failures {
        println!("CHECK FAILED: {f}");
    }
    let correct = failures.is_empty();
    // Every simulation of the run repeats the same deployment (checked
    // above), so its operations are counted once.
    let attempted = reference.deliveries_expected;
    let failed = reference.failed();

    let report = if args.trace {
        per_layer_report(&reference, &walls, &traced, correct, attempted, failed)
    } else {
        let wall_s = median(&scaled_walls);
        let setup_s = median(&scaled_setups);
        let peak = peak.unwrap_or(0.0);
        Report::new(
            &END_TO_END,
            |name| {
                Some(match name {
                    "wall_s" => wall_s,
                    "setup_s" => setup_s,
                    "peak_rss_mb" => peak,
                    "latency_p50_ms" => reference.latency_p50_ms,
                    "latency_p999_ms" => reference.latency_p999_ms,
                    "mb_per_block" => reference.mb_per_block,
                    "load_jain" => reference.load_jain,
                    "valid_tx_pct" => reference.valid_tx_pct,
                    "converge_p50_s" => reference.converge_p50_s,
                    _ => return None,
                })
            },
            correct,
            attempted,
            failed,
        )
    };
    print!("{}", report.table());
    println!("{}", report.json());
    ExitCode::SUCCESS
}

/// The per-layer report of the traced run whose wall time is the median.
fn per_layer_report(
    o: &Outcome,
    walls: &[f64],
    traced: &[TracedSample],
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Report {
    let mut order: Vec<&TracedSample> = traced.iter().collect();
    order.sort_by_key(|s| s.wall);
    let sample = order[order.len() / 2];
    // Each traced simulation runs right after the untraced one of its
    // round, so the pair shares the box's speed of the moment; the median
    // of the pairwise ratios is the tracing overhead.
    let ratios: Vec<f64> = traced
        .iter()
        .zip(walls)
        .map(|(t, w)| (t.wall.as_secs_f64() / w - 1.0) * 100.0)
        .collect();
    let overhead_pct = median(&ratios);
    let busy: Vec<f64> = sample
        .shard_busy
        .iter()
        .map(Duration::as_secs_f64)
        .collect();
    let busy_s: f64 = busy.iter().sum();
    let imbalance = busy.iter().cloned().fold(0.0, f64::max) / (busy_s / busy.len() as f64);
    let handlers = sample.layers.total_busy().as_secs_f64();
    let desim_self = busy_s - handlers;

    println!(
        "traced run: {:.6} s wall, {:.6} s busy over {} shard(s); layers {:.6} s + desim {:.6} s",
        sample.wall.as_secs_f64(),
        busy_s,
        busy.len(),
        handlers,
        desim_self
    );
    for layer in Layer::ALL {
        let i = layer as usize;
        let s = sample.layers.busy[i].as_secs_f64();
        println!(
            "  {:<20} {:>10} calls {:>10.6} s {:>6.1} %",
            layer.name(),
            sample.layers.calls[i],
            s,
            100.0 * s / busy_s
        );
    }
    println!(
        "  {:<20} {:>10} events {:>9.6} s {:>6.1} %",
        "desim",
        o.events,
        desim_self,
        100.0 * desim_self / busy_s
    );

    let layer = |prefix: &str, field: &str| -> Option<f64> {
        let l = Layer::ALL.into_iter().find(|l| l.name() == prefix)?;
        let i = l as usize;
        match field {
            "calls" => Some(sample.layers.calls[i] as f64),
            "self_s" => Some(sample.layers.busy[i].as_secs_f64()),
            _ => None,
        }
    };
    Report::new(
        &PER_LAYER,
        |name| {
            let (prefix, field) = name.rsplit_once('.')?;
            if let Some(v) = layer(prefix, field) {
                return Some(v);
            }
            Some(match name {
                "gossip.push.dup_ratio" => o.dup_ratio,
                "gossip.push.fetches" => o.fetches as f64,
                "gossip.pull.requests" => o.pull_requests as f64,
                "gossip.recovery.requests" => o.recovery_requests as f64,
                "gossip.leadership.handoffs" => o.handoffs.iter().sum::<u64>() as f64,
                "gossip.discovery.mb_share" => o.discovery_share,
                "orderer.tx_per_block" => o.tx_per_block,
                "workload.proposal_conflicts" => o.proposal_conflicts as f64,
                "ledger.mvcc_conflicts" => o.mvcc_conflicts as f64,
                "ledger.commit_errors" => o.commit_errors as f64,
                "desim.events" => o.events as f64,
                "desim.msgs" => o.msgs as f64,
                "desim.mb" => o.wire_mb,
                "desim.self_s" => desim_self,
                "shard.busy_s" => busy_s,
                "shard.imbalance" => imbalance,
                "trace.wall_s" => sample.wall.as_secs_f64(),
                "trace.overhead_pct" => overhead_pct,
                _ => return None,
            })
        },
        correct,
        attempted,
        failed,
    )
}
