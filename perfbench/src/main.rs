//! Runs one workload of the dual-cube serving benchmark and prints its
//! metrics; `perfbench/run.py` builds this binary and passes it the
//! workload's constants from `perfbench/workloads.json`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --shapes op:n[:weight],... --outstanding O --max-lanes L
//!           [--layer-shapes op:n,... --spans PATH]
//! ```
//!
//! With `--trace 0` the run sets up, measures the closed loop for
//! `--seconds` and reports the end-to-end metrics. With `--trace 1` it
//! splits `--seconds` between two arms: a plain set-up and loop, then
//! set-up and loop again with spans around every call into a layer. It
//! then measures the layers one by one (see `layers`) and reports the
//! per-layer metrics together with the traced-minus-plain delta of
//! every end-to-end metric. Every output
//! and exact counter is verified; the last line of standard output is
//! the JSON result, and any failed check makes the exit code 1.

mod layers;
mod loadgen;
mod stats;
mod trace;
mod verify;
mod workload;

use loadgen::{closed_loop, set_up, LoopRun};
use stats::{median, nearest_rank, sorted, supports};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use verify::{expected_patterns, Tally};
use workload::{label, parse_shapes, Plan, ShapeShare, Workload};

/// Serialises the tests that start servers, so thread counts and
/// timings of one test are not disturbed by another.
#[cfg(test)]
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Set-ups per arm; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// Timed core calls per replayed batch width, after one warm-up call.
const REPLAY_REPS: usize = 5;
/// The simulator and topology measurements: D_8, the machine size of
/// the prefix workloads; medians of 5; 50 steady cycles per timed run.
const MICRO: layers::MicroConfig = layers::MicroConfig {
    n: 8,
    reps: 5,
    cycles: 50,
};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    layer_shapes: Vec<ShapeShare>,
    spans: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        if flags.insert(name, value).is_some() {
            return Err(format!("--{name} given twice"));
        }
    }
    let mut take = |name: &str| flags.remove(name);
    fn num<T>(name: &str, v: Option<&str>, min: T) -> Result<T, String>
    where
        T: std::str::FromStr + PartialOrd + std::fmt::Display,
    {
        let v = v.ok_or_else(|| format!("--{name} is required"))?;
        let x: T = v
            .parse()
            .map_err(|_| format!("--{name}: bad value {v:?}"))?;
        if x < min {
            return Err(format!("--{name} must be at least {min}"));
        }
        Ok(x)
    }
    let trace = match take("trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace must be 0 or 1, not {v:?}")),
    };
    let name = take("workload")
        .ok_or("--workload is required")?
        .to_string();
    let shapes = parse_shapes(take("shapes").ok_or("--shapes is required")?)?;
    let workload = Workload {
        name,
        outstanding: num("outstanding", take("outstanding"), 1)?,
        max_lanes: num("max-lanes", take("max-lanes"), 1)?,
        shapes,
    };
    let seconds: f64 = num("seconds", take("seconds"), 0.01)?;
    if seconds > 600.0 {
        return Err("--seconds must be at most 600".into());
    }
    let args = Args {
        seed: num("seed", take("seed"), 0)?,
        seconds,
        trace,
        layer_shapes: match take("layer-shapes") {
            Some(spec) => parse_shapes(spec)?,
            None => workload.shapes.clone(),
        },
        spans: take("spans").map(str::to_string),
        workload,
    };
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// Peak resident set of this process (VmHWM) in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The end-to-end figures of one plain or traced arm.
struct EndToEnd {
    throughput_rps: f64,
    latency_p50_ms: f64,
    latency_p95_ms: f64,
    setup_s: f64,
    peak_rss_mb: f64,
}

impl EndToEnd {
    fn as_list(&self) -> [(&'static str, f64, &'static str); 5] {
        [
            ("throughput_rps", self.throughput_rps, "1/s"),
            ("latency_p50_ms", self.latency_p50_ms, "ms"),
            ("latency_p95_ms", self.latency_p95_ms, "ms"),
            ("setup_s", self.setup_s, "s"),
            ("peak_rss_mb", self.peak_rss_mb, "MB"),
        ]
    }
}

/// Runs set-up and the closed loop once, verifies everything the loop
/// returned, and shuts the server down.
fn arm(
    args: &Args,
    name: &str,
    seconds: f64,
    first_start: Instant,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
    report: &mut Report,
) -> (LoopRun, EndToEnd) {
    let wl = &args.workload;
    let ready = set_up(
        wl,
        args.seed,
        SETUP_REPEATS,
        first_start,
        tally,
        tracer.as_deref_mut(),
    );
    let mut plan = Plan::new(&wl.shapes, args.seed, 0);
    let run = closed_loop(&ready.server, wl, &mut plan, seconds, tracer);
    ready.server.shutdown();
    run.verify(wl, tally);

    let patterns: u64 = wl.shapes.iter().map(|s| expected_patterns(s.shape)).sum();
    tally.record(if run.after.schedule_misses == patterns {
        Ok(())
    } else {
        Err(format!(
            "server compiled {} patterns, the workload's shapes have {patterns}",
            run.after.schedule_misses
        ))
    });
    // The generator thread plus the server's workers, and nothing else.
    let workers = loadgen::server_config(wl).workers;
    tally.record(match (run.threads, run.worker_threads) {
        (Some(t), Some(w)) if t > 1 + workers || w != workers => Err(format!(
            "load ran on {t} threads with {w} server workers, expected {} with {workers}",
            1 + workers
        )),
        _ => Ok(()),
    });
    tally.record(if run.max_in_flight <= wl.outstanding {
        Ok(())
    } else {
        Err(format!(
            "{} requests in flight, cap {}",
            run.max_in_flight, wl.outstanding
        ))
    });

    let latencies = sorted(run.samples.iter().map(|s| s.latency().as_secs_f64() * 1e3));
    let n = latencies.len();
    let e2e = if n == 0 {
        report.notes.push("no request completed".into());
        tally.record(Err("no request completed in the timed phase".into()));
        EndToEnd {
            throughput_rps: 0.0,
            latency_p50_ms: f64::NAN,
            latency_p95_ms: f64::NAN,
            setup_s: median(ready.setup_s.iter().copied()),
            peak_rss_mb: peak_rss_mb(),
        }
    } else {
        EndToEnd {
            throughput_rps: run.throughput_rps(),
            latency_p50_ms: nearest_rank(&latencies, 0.50),
            latency_p95_ms: nearest_rank(&latencies, 0.95),
            setup_s: median(ready.setup_s.iter().copied()),
            peak_rss_mb: peak_rss_mb(),
        }
    };
    let mut windows = vec![0u32; run.elapsed.as_secs() as usize + 1];
    for s in &run.samples {
        windows[s.done.as_secs() as usize] += 1;
    }
    report
        .notes
        .push(format!("{name} arm: completions per second {windows:?}"));
    report.notes.push(format!(
        "{name} arm: {n} requests in {:.3} s, {} batches, {:.2} lanes per batch, \
         {} latency samples ({} beyond p95{}), set-ups {:?} s, threads {}",
        run.elapsed.as_secs_f64(),
        run.after.batches - run.before.batches,
        (run.after.lanes - run.before.lanes) as f64
            / (run.after.batches - run.before.batches).max(1) as f64,
        n,
        if n > 0 { stats::beyond(n, 0.95) } else { 0 },
        if supports(n, 0.95) {
            ""
        } else {
            ": too few for p95"
        },
        ready
            .setup_s
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>(),
        run.threads.map_or("?".into(), |t| t.to_string()),
    ));
    (run, e2e)
}

fn run_plain(args: &Args, process_start: Instant, tally: &mut Tally, report: &mut Report) {
    let (_, e2e) = arm(
        args,
        "plain",
        args.seconds,
        process_start,
        tally,
        None,
        report,
    );
    for (name, value, unit) in e2e.as_list() {
        report.add(name, value, unit);
    }
}

fn run_traced(args: &Args, process_start: Instant, tally: &mut Tally, report: &mut Report) {
    // Half the measuring time each, so a traced run lasts about as long
    // as a plain one.
    let seconds = args.seconds / 2.0;
    let (_, plain) = arm(args, "plain", seconds, process_start, tally, None, report);
    let mut tracer = Tracer::new(1 << 16);
    let (run, traced) = arm(
        args,
        "traced",
        seconds,
        Instant::now(),
        tally,
        Some(&mut tracer),
        report,
    );
    if run.samples.is_empty() {
        return; // already counted as a failure; there is nothing to attribute
    }

    // Realised batches per shape: a batch of K lanes shows as K replies.
    let mut batches: HashMap<dc_serve::Shape, BTreeMap<usize, f64>> = HashMap::new();
    for s in &run.samples {
        *batches
            .entry(s.obs.shape)
            .or_default()
            .entry(s.obs.lanes)
            .or_default() += 1.0 / s.obs.lanes as f64;
    }
    let mut core = HashMap::new();
    let mut core_figs = Vec::new();
    for share in &args.layer_shapes {
        let shape = share.shape;
        let empty = BTreeMap::new();
        let realised = batches.get(&shape).unwrap_or(&empty);
        let c = layers::replay_core(shape, realised, REPLAY_REPS, args.seed, &mut tracer, tally);
        let l = label(shape);
        core_figs.push((format!("core.run_ms.{l}"), c.run_ms, "ms"));
        core_figs.push((format!("core.run_ms_per_lane.{l}"), c.run_ms_per_lane, "ms"));
        core_figs.push((format!("core.comm_steps.{l}"), c.comm_steps as f64, "count"));
        core_figs.push((format!("core.comp_steps.{l}"), c.comp_steps as f64, "count"));
        core_figs.push((format!("simulator.compile_ms.{l}"), c.compile_ms, "ms"));
        core.insert(shape, c);
    }
    let simulator = layers::simulator(MICRO, &mut tracer, tally);
    let topology = layers::topology(MICRO, &mut tracer);

    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let queued = sorted(run.samples.iter().map(|s| ms(s.queued)));
    let service = sorted(run.samples.iter().map(|s| ms(s.service)));
    let submit_us = median(
        tracer
            .durations_ns("serve.submit")
            .into_iter()
            .map(|ns| ns as f64 * 1e-3),
    );
    let overhead = median(run.samples.iter().map(|s| {
        let c = core
            .get(&s.obs.shape)
            .and_then(|c| c.ms_by_lanes.get(&s.obs.lanes));
        ms(s.service) - c.copied().unwrap_or(f64::NAN)
    }));
    let (a, b) = (&run.after, &run.before);
    let served = (a.served - b.served) as f64;
    let batches_run = (a.batches - b.batches) as f64;
    let hits = (a.schedule_hits - b.schedule_hits) as f64;
    let misses = (a.schedule_misses - b.schedule_misses) as f64;
    let timed_self_ns = tracer
        .self_times()
        .get("bench.timed")
        .map_or(0, |t| t.self_ns);

    report.add("serve.queue_wait_ms.p50", nearest_rank(&queued, 0.5), "ms");
    report.add("serve.queue_wait_ms.p95", nearest_rank(&queued, 0.95), "ms");
    report.add("serve.service_ms.p50", nearest_rank(&service, 0.5), "ms");
    report.add("serve.service_ms.p95", nearest_rank(&service, 0.95), "ms");
    report.add("serve.submit_us.p50", submit_us, "us");
    report.add(
        "serve.lanes_mean",
        (a.lanes - b.lanes) as f64 / batches_run,
        "lanes",
    );
    report.add("serve.batches_per_req", batches_run / served, "ratio");
    report.add("serve.overhead_ms.p50", overhead, "ms");
    for (name, value, unit) in core_figs.into_iter().chain(simulator).chain(topology) {
        report.add(name, value, unit);
    }
    report.add(
        "simulator.schedule_hit_ratio",
        hits / (hits + misses),
        "ratio",
    );
    report.add(
        "simulator.schedule_misses",
        a.schedule_misses as f64,
        "count",
    );
    report.add(
        "bench.gen_us_per_req",
        timed_self_ns as f64 * 1e-3 / run.samples.len() as f64,
        "us",
    );
    for ((name, p, unit), (_, t, _)) in plain.as_list().into_iter().zip(traced.as_list()) {
        report.add(format!("bench.trace_overhead.{name}"), t - p, unit);
    }
    report.metrics.sort_by(|x, y| x.name.cmp(&y.name));

    report.notes.push(format!(
        "traced arm: {} spans; self time by span (ms):",
        tracer.spans().len()
    ));
    for (name, t) in tracer.self_times() {
        report.notes.push(format!(
            "  {name:<36} count {:>7}  total {:>10.3}  self {:>10.3}",
            t.count,
            t.total_ns as f64 * 1e-6,
            t.self_ns as f64 * 1e-6
        ));
    }
    if let Some(path) = &args.spans {
        let path = std::path::Path::new(path);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, tracer.to_json()));
        match written {
            Ok(()) => report
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => tally.record(Err(format!(
                "cannot write spans to {}: {e}",
                path.display()
            ))),
        }
    }
}

fn result_json(tally: &Tally, report: &Report) -> String {
    let mut out = String::new();
    write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    )
    .expect("write to String");
    for (i, m) in report.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // JSON has no NaN or infinity; a missing figure reads as null.
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".into()
        };
        write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("write to String");
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let wl = &args.workload;
    println!(
        "# workload {}: closed loop, {} outstanding, max_lanes {}, workers 1, sequential backend, \
         shapes {}, seed {}, {} s{}",
        wl.name,
        wl.outstanding,
        wl.max_lanes,
        wl.shapes
            .iter()
            .map(|s| format!("{}x{}", label(s.shape), s.weight))
            .collect::<Vec<_>>()
            .join(","),
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );
    let mut tally = Tally::default();
    let mut report = Report::default();
    if args.trace {
        run_traced(&args, process_start, &mut tally, &mut report);
    } else {
        run_plain(&args, process_start, &mut tally, &mut report);
    }
    for m in &report.metrics {
        if !m.value.is_finite() {
            tally.record(Err(format!("metric {} has no finite value", m.name)));
        }
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!("# {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "# error_rate {} ({} failed of {} attempted)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    for f in &tally.failures {
        println!("# FAILED: {f}");
    }
    println!("{}", result_json(&tally, &report));
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    const BASE: &str = "--workload w --seed 3 --seconds 2 --shapes prefix-sum:8 \
                        --outstanding 16 --max-lanes 8";

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let args = parse_args(&argv(BASE)).unwrap();
        assert!(!args.trace);
        assert_eq!(
            (args.workload.outstanding, args.workload.max_lanes),
            (16, 8)
        );
        assert_eq!(args.layer_shapes, args.workload.shapes);
        assert!(
            parse_args(&argv(&format!("{BASE} --trace 1")))
                .unwrap()
                .trace
        );
        for bad in [
            "--trace 2",
            "--seed -1",
            "--outstanding 0",
            "--seconds 1e9",
            "--bogus 1",
            "--seed 4",
            "stray",
            "--spans",
        ] {
            assert!(
                parse_args(&argv(&format!("{BASE} {bad}"))).is_err(),
                "{bad}"
            );
        }
        assert!(parse_args(&argv("--workload w")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut tally = Tally::default();
        tally.record(Ok(()));
        tally.record(Err("bad".into()));
        let mut report = Report::default();
        report.add("throughput_rps", 12.5, "1/s");
        report.add("latency_p50_ms", f64::NAN, "ms");
        assert_eq!(
            result_json(&tally, &report),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {\
             \"throughput_rps\": {\"value\": 12.5, \"unit\": \"1/s\"}, \
             \"latency_p50_ms\": {\"value\": null, \"unit\": \"ms\"}}}"
        );
    }
}
