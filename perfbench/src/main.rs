//! kpt-perfbench: the repository's end-to-end benchmark.
//!
//! ```text
//! kpt-perfbench --workload lint_full|solve_mix|server_mix --seed N
//!               --seconds S --trace 0|1 [--out-dir DIR]
//! ```
//!
//! One workload per process. The run sets the workload up `SETUPS`
//! times (reporting the median as `setup_s`), then runs whole passes of
//! the workload's fixed, seeded operation list until `--seconds` have
//! passed and at least 100 verdicts are in, checking every verdict
//! against the oracle. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics (see
//! `probe.rs`) with `--trace 1`. The run also writes its input manifest
//! and, when traced, its spans (kpt-obs JSONL) to `--out-dir`.
//! `README.md` explains the workloads and the metrics.

mod inputs;
mod lint_full;
mod oracle;
mod probe;
mod record;
mod server_mix;
mod solve_mix;
mod speed;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use inputs::Manifest;
use oracle::Oracle;
use record::{median, summarize, Summary, Verdict, VERDICT_FLOOR_MS};
use speed::Yardstick;
use trace::Tracer;

/// The end-to-end metrics of an untraced run, with their units.
/// (`failed_share` is printed on standard error: it is 0 on a healthy
/// run, and the machine-read output carries the same fact as `failed`.)
pub const END_TO_END: &[(&str, &str)] = &[
    ("verdicts_per_s", "1/s"),
    ("verdict_ms_p50", "ms"),
    ("verdict_ms_p90", "ms"),
    ("verdict_ms_geomean", "ms"),
    ("correct_share", "%"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Full set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// A benchmark workload: a fixed list of checked operations per pass.
pub trait Workload: Sized {
    /// Everything before the first timed verdict: build the inputs,
    /// compute the oracle's answers, start what must run, and make the
    /// untimed warm-up pass(es).
    fn setup(seed: u64, oracle: &Oracle) -> Result<Self, String>;
    /// The inputs and operation sequence this seed produces.
    fn manifest(&self) -> Manifest;
    /// Run pass `pass` of the list, appending one verdict per operation.
    fn run_pass(&mut self, pass: u64, tracer: &mut Tracer, out: &mut Vec<Verdict>);
    /// Passes needed for at least 100 verdicts.
    fn min_passes(&self) -> u64;
    /// The run's thread layout, for the record.
    fn threads(&self) -> String;
    /// Whether the workload's verdict times scale with CPU speed, and so
    /// are scaled by the yardstick (see `speed.rs`).
    const CPU_BOUND: bool = true;
    /// Tear down after the timed phase, reporting anything left wrong.
    fn finish(self) -> Result<(), String> {
        Ok(())
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out_dir = PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_owned()),
    )
    .join("perfbench-out");
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--out-dir" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out_dir,
    })
}

/// What one run measured.
struct Run {
    /// Verdicts with CPU-bound times scaled to the reference speed.
    summary: Summary,
    /// The same verdicts, unscaled.
    raw: Summary,
    setup_s: Vec<f64>,
    setup_raw: Vec<f64>,
    yardstick_ms: Vec<f64>,
    /// Whether the timings were scaled (`Workload::CPU_BOUND`).
    scaled: bool,
    passes: u64,
    traced: Option<(f64, f64)>,
    manifest: Manifest,
    threads: String,
    finished: bool,
}

fn measure<W: Workload>(args: &Args, tracer: &mut Tracer) -> Result<Run, String> {
    let oracle = Oracle::hand_written();
    let mut yardstick = Yardstick::new();
    let scaled = |f: f64| if W::CPU_BOUND { f } else { 1.0 };
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup_raw = Vec::with_capacity(SETUPS);
    let mut w = None;
    for i in 0..SETUPS {
        // Tear the previous set-up down outside the timed interval.
        drop(w.take());
        let y0 = yardstick.sample();
        let start = if i == 0 {
            trace::epoch()
        } else {
            Instant::now()
        };
        w = Some(W::setup(args.seed, &oracle)?);
        let raw = start.elapsed().as_secs_f64();
        let f = scaled(speed::factor(y0, yardstick.sample()));
        setup_raw.push(raw);
        setup_s.push(raw * f);
    }
    let mut w = w.expect("SETUPS > 0");
    let manifest = w.manifest();

    // Whole passes until the time is up, each between two yardstick
    // samples. A traced run alternates untraced and traced passes,
    // timing each kind apart.
    let mut raw = Vec::new();
    let mut verdicts = Vec::new();
    let mut raw_wall = 0.0;
    // Each pass runs the fixed list once: `verdicts_per_s` is the median
    // of the passes' rates, so a burst of contention that the yardstick
    // misses moves one pass, not the run.
    let mut pass_rates = Vec::new();
    let mut kind_time = [0.0_f64; 2];
    let mut kind_verdicts = [0usize; 2];
    let start = Instant::now();
    let mut y0 = yardstick.sample();
    let mut pass = 1;
    loop {
        let traced = args.trace && pass % 2 == 0;
        tracer.set_enabled(traced);
        let before = raw.len();
        let t = Instant::now();
        w.run_pass(pass, tracer, &mut raw);
        let dt = t.elapsed().as_secs_f64();
        let y1 = yardstick.sample();
        let f = scaled(speed::factor(y0, y1));
        y0 = y1;
        raw_wall += dt;
        pass_rates.push((raw.len() - before) as f64 / (dt * f));
        verdicts.extend(raw[before..].iter().map(|v| Verdict {
            ms: v.ms * f,
            ..v.clone()
        }));
        kind_time[usize::from(traced)] += dt * f;
        kind_verdicts[usize::from(traced)] += raw.len() - before;
        // A traced run needs only the overhead estimate: an even number
        // of passes, half of them traced.
        let enough = if args.trace {
            pass % 2 == 0
        } else {
            pass >= w.min_passes()
        };
        if enough && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        pass += 1;
    }
    let threads = w.threads();
    let finished = w.finish();
    if let Err(e) = &finished {
        eprintln!("perfbench: teardown check failed: {e}");
    }
    let traced = args.trace.then(|| {
        (
            kind_verdicts[0] as f64 / kind_time[0],
            kind_verdicts[1] as f64 / kind_time[1],
        )
    });
    Ok(Run {
        summary: summarize(&verdicts, median(&pass_rates)),
        raw: summarize(&raw, raw.len() as f64 / raw_wall),
        setup_s,
        setup_raw,
        yardstick_ms: yardstick.samples,
        scaled: W::CPU_BOUND,
        passes: pass,
        traced,
        manifest,
        threads,
        finished: finished.is_ok(),
    })
}

fn metric_json(out: &mut String, name: &str, value: f64, unit: &str) {
    if out.len() > 1 {
        out.push(',');
    }
    let value = if value.is_finite() { value } else { -1.0 };
    let _ = write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
}

fn write_file(dir: &std::path::Path, name: &str, text: &str) {
    let path = dir.join(name);
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    trace::epoch();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: kpt-perfbench --workload lint_full|solve_mix|server_mix --seed N \
                 --seconds S --trace 0|1 [--out-dir DIR]"
            );
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(false);
    let run = match args.workload.as_str() {
        "lint_full" => measure::<lint_full::LintFull>(&args, &mut tracer),
        "solve_mix" => measure::<solve_mix::SolveMix>(&args, &mut tracer),
        "server_mix" => measure::<server_mix::ServerMix>(&args, &mut tracer),
        other => Err(format!("unknown workload `{other}`")),
    };
    let run = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let s = &run.summary;
    let tag = format!("{}-{}", args.workload, args.seed);
    write_file(
        &args.out_dir,
        &format!("manifest-{tag}.json"),
        &run.manifest.to_json(),
    );
    eprintln!(
        "perfbench: workload={} seed={} nproc={} KPT_THREADS={} threads=[{}]",
        args.workload,
        args.seed,
        std::thread::available_parallelism().map_or(0, usize::from),
        std::env::var("KPT_THREADS").unwrap_or_else(|_| "unset".to_owned()),
        run.threads,
    );
    eprintln!(
        "perfbench: manifest digest {:016x} ({} inputs, {} listed operations)",
        run.manifest.digest(),
        run.manifest.inputs.len(),
        run.manifest.sequence.len()
    );
    eprintln!(
        "perfbench: {} passes, {} verdicts in {:.2} s; fastest verdict {:.3} ms \
         (floor {VERDICT_FLOOR_MS} ms); failed_share {}%",
        run.passes,
        s.attempted,
        s.attempted as f64 / run.raw.verdicts_per_s,
        run.raw.min_ms,
        s.failed_share()
    );
    let y = &run.yardstick_ms;
    eprintln!(
        "perfbench: yardstick {:.3} ms median over {} samples (min {:.3}, max {:.3}; \
         reference {} ms); scaled: {}",
        median(y),
        y.len(),
        y.iter().copied().fold(f64::INFINITY, f64::min),
        y.iter().copied().fold(0.0, f64::max),
        speed::REFERENCE_MS,
        if run.scaled { "yes" } else { "no" }
    );
    eprintln!(
        "perfbench: raw: verdicts_per_s {:.4} (all passes), p50 {:.4} ms, p90 {:.4} ms, geomean {:.4} ms, \
         setup_s runs {:?}",
        run.raw.verdicts_per_s, run.raw.p50_ms, run.raw.p90_ms, run.raw.geomean_ms, run.setup_raw
    );

    let mut metrics = String::from("{");
    let mut attempted = s.attempted;
    let mut failed = s.failed;
    let mut correct = s.correct == s.attempted && run.finished;
    if let Some((untraced, traced)) = run.traced {
        let probe = match probe::run(args.seed, &mut tracer) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("perfbench: layer probe: {e}");
                return ExitCode::FAILURE;
            }
        };
        attempted += probe.checks;
        failed += probe.failed;
        correct &= probe.failed == 0;
        let mut values = probe.metrics;
        values.insert("obs.untraced_verdicts_per_s", untraced);
        values.insert("obs.traced_verdicts_per_s", traced);
        values.insert("obs.trace_overhead_pct", 100.0 * (untraced / traced - 1.0));
        values.insert("obs.spans", tracer.len() as f64);
        for (name, unit) in probe::PER_LAYER {
            let Some(&v) = values.get(name) else {
                eprintln!("perfbench: per-layer metric {name} was not measured");
                return ExitCode::FAILURE;
            };
            eprintln!("perfbench: {name:<34} {v:>14.4} {unit}");
            metric_json(&mut metrics, name, v, unit);
        }
        write_file(
            &args.out_dir,
            &format!("trace-{tag}.jsonl"),
            &tracer.to_jsonl(),
        );
    } else {
        let values = [
            s.verdicts_per_s,
            s.p50_ms,
            s.p90_ms,
            s.geomean_ms,
            s.correct_share(),
            record::peak_rss_mb().unwrap_or(f64::NAN),
            median(&run.setup_s),
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            eprintln!("perfbench: {name:<20} {v:>14.4} {unit}");
            metric_json(&mut metrics, name, v, unit);
        }
    }
    metrics.push('}');
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{metrics}}}"
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(bench: &kpt_obs::JsonValue, key: &str) -> Vec<String> {
        bench
            .get(key)
            .and_then(kpt_obs::JsonValue::as_array)
            .expect("BENCHMARK.json lists the metrics")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(kpt_obs::JsonValue::as_str)
                    .unwrap()
                    .to_owned()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bench = kpt_obs::parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let printed = |list: &[(&str, &str)]| -> Vec<String> {
            list.iter().map(|(n, _)| (*n).to_owned()).collect()
        };
        assert_eq!(names(&bench, "end_to_end"), printed(END_TO_END));
        assert_eq!(names(&bench, "per_layer"), printed(probe::PER_LAYER));
    }
}
