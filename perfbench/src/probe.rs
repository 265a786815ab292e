//! The per-layer probe of a traced run: every layer metric, measured on
//! fixed, seeded inputs around the layer's public calls, in spans the
//! benchmark records itself. Every traced run (whatever its workload)
//! runs the same probe, so one metric means the same thing in every run.
//!
//! Each metric, with the end-to-end metric it should move and where:
//!
//! | metric | should move |
//! |---|---|
//! | `unity.parse_ms` | `verdict_ms_p90` on server_mix, `verdict_ms_p50` on lint_full |
//! | `lint.decl_ms`, `lint.view_ms` | `verdict_ms_p50` on server_mix (its lint runs them) |
//! | `lint.dataflow_ms` | `verdict_ms_p50` on server_mix |
//! | `lint.symbolic_ms`, `lint.symbolic_share` (base `lint.full_ms`) | `verdicts_per_s`, `verdict_ms_geomean` on lint_full |
//! | `bdd.*` | `verdicts_per_s` on lint_full and on the symbolic half of solve_mix |
//! | `core.*` | `verdicts_per_s` on solve_mix |
//! | `transformers.si_ms`, `transformers.frontier_rounds` | `verdict_ms_geomean` on solve_mix |
//! | `server.{parse,lint,solve,verify}_ms_p50`, `server.wait_ms_p50` | `verdict_ms_p50` on server_mix |
//! | `server.session_hit_ratio`, `server.session_evictions`, `server.solve_cached_share` | `verdict_ms_p90` on server_mix |
//! | `proto.parse_request_us` | nothing (expected flat) |
//! | `pool.*` | `failed_share` and `verdicts_per_s` on server_mix |
//! | `obs.trace_overhead_pct` | nothing: traced against untraced `verdicts_per_s` of the run's own workload |
//!
//! CPU-bound timings are scaled to the reference speed like the
//! end-to-end ones (see `speed.rs`); the server latencies are not.
//!
//! Inputs: the lint layers run on `lint_full`'s models, `core` and
//! `transformers` on `solve_mix`'s explicit models, `bdd` on its symbolic
//! models, and the server layers on two passes of `server_mix` against
//! a fresh server (so the arena fills past its 32 models and evicts).

use std::collections::BTreeMap;
use std::time::Instant;

use kpt_core::{IterativeOutcome, Kbp};
use kpt_lint::{lint_program_with, LintOptions};
use kpt_obs::{Field, MetricValue};

use crate::inputs::{kpt_source, rename_program, seed_tag};
use crate::oracle::{report_codes, Oracle};
use crate::record::median;
use crate::server_mix::{request_bodies, request_stats, ServerMix};
use crate::solve_mix;
use crate::speed::{self, Yardstick};
use crate::trace::Tracer;
use crate::Workload;

/// Every per-layer metric a traced run prints, with its unit. Ratios are
/// percentages; each is followed by its base (a count or a total).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("unity.parse_ms", "ms"),
    ("lint.decl_ms", "ms"),
    ("lint.view_ms", "ms"),
    ("lint.dataflow_ms", "ms"),
    ("lint.symbolic_ms", "ms"),
    ("lint.full_ms", "ms"),
    ("lint.symbolic_share", "%"),
    ("bdd.translate_ms", "ms"),
    ("bdd.solve_ms", "ms"),
    ("bdd.nodes_allocated", "count"),
    ("bdd.ite_hit_ratio", "%"),
    ("bdd.ite_lookups", "count"),
    ("bdd.and_exists_calls", "count"),
    ("bdd.fixpoint_rounds", "count"),
    ("bdd.gc_runs", "count"),
    ("core.solve_ms", "ms"),
    ("core.iterations", "count"),
    ("core.si_cache_hit_ratio", "%"),
    ("core.si_cache_lookups", "count"),
    ("core.knowledge_cache_hit_ratio", "%"),
    ("core.knowledge_cache_lookups", "count"),
    ("core.compile_at_ms", "ms"),
    ("transformers.si_ms", "ms"),
    ("transformers.frontier_rounds", "count"),
    ("server.parse_ms_p50", "ms"),
    ("server.lint_ms_p50", "ms"),
    ("server.solve_ms_p50", "ms"),
    ("server.verify_ms_p50", "ms"),
    ("server.wait_ms_p50", "ms"),
    ("server.requests", "count"),
    ("server.session_hit_ratio", "%"),
    ("server.session_lookups", "count"),
    ("server.session_evictions", "count"),
    ("server.solve_cached_share", "%"),
    ("server.solve_requests", "count"),
    ("proto.parse_request_us", "us"),
    ("pool.tasks", "count"),
    ("pool.steals", "count"),
    ("pool.exec_rejected", "count"),
    ("pool.exec_spawned", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.untraced_verdicts_per_s", "1/s"),
    ("obs.traced_verdicts_per_s", "1/s"),
    ("obs.spans", "count"),
];

/// Timed repetitions per probe call; the probe reports their median.
const REPS: usize = 3;
/// `server_mix` passes the server probe runs.
const SERVER_PASSES: u64 = 2;

/// The probe's results: metric values plus its own correctness checks.
#[derive(Debug, Default)]
pub struct Probe {
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Checks made.
    pub checks: usize,
    /// Checks that failed.
    pub failed: usize,
}

impl Probe {
    fn check(&mut self, ok: bool, what: &str) {
        self.checks += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: probe check failed: {what}");
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.metrics.insert(name, value);
    }
}

fn counters() -> BTreeMap<&'static str, u64> {
    kpt_obs::metrics_snapshot()
        .into_iter()
        .filter_map(|m| match m.value {
            MetricValue::Counter(c) => Some((m.name, c)),
            _ => None,
        })
        .collect()
}

fn delta(before: &BTreeMap<&str, u64>, after: &BTreeMap<&str, u64>, name: &str) -> u64 {
    after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0)
}

fn ratio(hits: u64, lookups: u64) -> f64 {
    100.0 * hits as f64 / lookups.max(1) as f64
}

/// The median of `REPS` spans of `f`, with the first run's result.
fn timed_median<R>(
    tracer: &mut Tracer,
    kind: &str,
    fields: &[(&str, Field)],
    mut f: impl FnMut() -> R,
) -> (R, f64) {
    let mut times = Vec::with_capacity(REPS);
    let mut first = None;
    for _ in 0..REPS {
        let (r, ms) = tracer.span(kind, fields, |_| f());
        times.push(ms);
        first.get_or_insert(r);
    }
    (first.expect("REPS > 0"), median(&times))
}

fn lint_layers(seed: u64, oracle: &Oracle, tracer: &mut Tracer, p: &mut Probe) {
    let only = |pass: &str| LintOptions {
        decl: pass == "decl",
        view: pass == "view",
        dataflow: pass == "dataflow",
        symbolic: pass == "symbolic",
        symbolic_node_budget: None,
    };
    let passes = ["decl", "view", "dataflow", "symbolic", "full"];
    let mut totals = [0.0; 5];
    // Symbolic-alone and full time per repetition, summed over models:
    // the two run back to back, so their ratio cancels the machine's
    // drift better than the ratio of the medians.
    let mut symbolic_by_rep = [0.0; REPS];
    let mut full_by_rep = [0.0; REPS];
    let mut parse_ms = 0.0;
    for (model, expected) in &oracle.lint_full {
        let text = rename_program(&kpt_source(model), &seed_tag(seed));
        let fields = [("model", model.as_str().into())];
        let (parsed, ms) = timed_median(tracer, "unity.parse_program_mapped", &fields, || {
            kpt_unity::parse_program_mapped(&text)
        });
        parse_ms += ms;
        let Ok((_, program, _)) = parsed else {
            p.check(false, &format!("{model} parses"));
            continue;
        };
        // Interleave the passes within each repetition, so a drift in
        // machine speed moves every pass alike and the shares stay
        // comparable.
        let mut times = [[0.0; REPS]; 5];
        for rep in 0..REPS {
            for (pass, slot) in passes.iter().zip(times.iter_mut()) {
                let options = if *pass == "full" {
                    LintOptions::default()
                } else {
                    only(pass)
                };
                let fields = [("model", model.as_str().into()), ("pass", (*pass).into())];
                let (report, ms) = tracer.span("lint.lint_program_with", &fields, |_| {
                    lint_program_with(&program, &options)
                });
                slot[rep] = ms;
                if *pass == "full" && rep == 0 {
                    p.check(
                        &report_codes(&report) == expected,
                        &format!("{model} lint codes"),
                    );
                }
            }
        }
        for (total, t) in totals.iter_mut().zip(&times) {
            *total += median(t);
        }
        for rep in 0..REPS {
            symbolic_by_rep[rep] += times[3][rep];
            full_by_rep[rep] += times[4][rep];
        }
    }
    let shares: Vec<f64> = symbolic_by_rep
        .iter()
        .zip(&full_by_rep)
        .map(|(s, f)| 100.0 * s / f)
        .collect();
    p.set("unity.parse_ms", parse_ms);
    p.set("lint.decl_ms", totals[0]);
    p.set("lint.view_ms", totals[1]);
    p.set("lint.dataflow_ms", totals[2]);
    p.set("lint.symbolic_ms", totals[3]);
    p.set("lint.full_ms", totals[4]);
    p.set("lint.symbolic_share", median(&shares));
}

fn core_layers(models: &[solve_mix::Model], oracle: &Oracle, tracer: &mut Tracer, p: &mut Probe) {
    let before = counters();
    let (mut solve_ms, mut compile_ms, mut si_ms) = (0.0, 0.0, 0.0);
    let (mut iterations, mut si_hits, mut si_lookups, mut rounds) = (0, 0, 0, 0);
    for m in models {
        let fields = [("model", m.name.into())];
        let kbp = Kbp::new(m.program.clone());
        let (outcome, ms) = tracer.span("core.solve_iterative", &fields, |_| {
            kbp.solve_iterative(solve_mix::MAX_ITERATIONS)
        });
        solve_ms += ms;
        let stats = kbp.cache_stats();
        si_hits += stats.hits;
        si_lookups += stats.hits + stats.misses;
        let Ok(IterativeOutcome::Converged {
            solution,
            iterations: k,
        }) = outcome
        else {
            p.check(false, &format!("{} converges", m.name));
            continue;
        };
        iterations += k;
        let want = oracle.solved(m.name);
        p.check(
            k == want.iterations && solution.count() == want.states,
            &format!("{} explicit answer", m.name),
        );
        let (compiled, ms) = timed_median(tracer, "core.compile_at", &fields, || {
            kbp.compile_at(&solution)
        });
        compile_ms += ms;
        let Ok(compiled) = compiled else {
            p.check(false, &format!("{} compiles at its solution", m.name));
            continue;
        };
        let c0 = counters();
        let (si, ms) = timed_median(tracer, "transformers.si_frontier", &fields, || {
            kpt_transformers::strongest_invariant_frontier(compiled.transitions(), compiled.init())
        });
        rounds += delta(&c0, &counters(), "fixpoint.frontier.rounds") / REPS as u64;
        si_ms += ms;
        // Eq. (25): the solution is the SI of the program compiled at it.
        p.check(si == solution, &format!("{} SI at the solution", m.name));
    }
    let after = counters();
    let k_hits = delta(&before, &after, "knowledge.cache.hits");
    let k_lookups = k_hits + delta(&before, &after, "knowledge.cache.misses");
    p.set("core.solve_ms", solve_ms);
    p.set("core.iterations", iterations as f64);
    p.set("core.si_cache_hit_ratio", ratio(si_hits, si_lookups));
    p.set("core.si_cache_lookups", si_lookups as f64);
    p.set("core.knowledge_cache_hit_ratio", ratio(k_hits, k_lookups));
    p.set("core.knowledge_cache_lookups", k_lookups as f64);
    p.set("core.compile_at_ms", compile_ms);
    p.set("transformers.si_ms", si_ms);
    p.set("transformers.frontier_rounds", rounds as f64);
}

fn bdd_layers(models: &[solve_mix::Model], oracle: &Oracle, tracer: &mut Tracer, p: &mut Probe) {
    let mut translate = vec![Vec::new(); models.len()];
    let mut solve = vec![Vec::new(); models.len()];
    let mut before = BTreeMap::new();
    let mut after = BTreeMap::new();
    for rep in 0..REPS {
        if rep == 0 {
            before = counters();
        }
        for (i, m) in models.iter().enumerate() {
            let fields = [("model", m.name.into())];
            let (skbp, ms) = tracer.span("bdd.from_program", &fields, |_| {
                kpt_bdd::SymbolicKbp::from_program(&m.program)
            });
            translate[i].push(ms);
            let Ok(skbp) = skbp else {
                p.check(false, &format!("{} translates", m.name));
                continue;
            };
            let (outcome, ms) = tracer.span("bdd.solve_iterative", &fields, |_| {
                skbp.solve_iterative(solve_mix::MAX_ITERATIONS)
            });
            solve[i].push(ms);
            if rep == 0 {
                let want = oracle.solved(m.name);
                let ok = matches!(&outcome, Ok(kpt_bdd::SymbolicOutcome::Converged {
                    solution, iterations
                }) if *iterations == want.iterations && solution.count() == want.states);
                p.check(ok, &format!("{} symbolic answer", m.name));
            }
        }
        if rep == 0 {
            after = counters();
        }
    }
    let d = |name| delta(&before, &after, name);
    let ite_hits = d("bdd.ite.cache.hits");
    let ite_lookups = ite_hits + d("bdd.ite.cache.misses");
    p.set(
        "bdd.translate_ms",
        translate.iter().map(|t| median(t)).sum(),
    );
    p.set("bdd.solve_ms", solve.iter().map(|t| median(t)).sum());
    p.set("bdd.nodes_allocated", d("bdd.nodes.allocated") as f64);
    p.set("bdd.ite_hit_ratio", ratio(ite_hits, ite_lookups));
    p.set("bdd.ite_lookups", ite_lookups as f64);
    p.set("bdd.and_exists_calls", d("bdd.and_exists.calls") as f64);
    p.set("bdd.fixpoint_rounds", d("bdd.fixpoint.rounds") as f64);
    p.set("bdd.gc_runs", d("bdd.gc.runs") as f64);
}

fn server_layers(seed: u64, oracle: &Oracle, tracer: &mut Tracer, p: &mut Probe) {
    let mut w = match ServerMix::setup(seed, oracle) {
        Ok(w) => w,
        Err(e) => {
            p.check(false, &format!("server probe set-up: {e}"));
            return;
        }
    };
    let before = counters();
    let (hits0, misses0, evictions0) = w.arena();
    let mut verdicts = Vec::new();
    for pass in 1..=SERVER_PASSES {
        w.run_pass(pass, tracer, &mut verdicts);
    }
    let (hits1, misses1, evictions1) = w.arena();
    let after = counters();
    for v in &verdicts {
        p.check(v.correct, &format!("server transaction on {}", v.key));
    }
    let (p50, wait, cached_share, solves) = request_stats(&w.samples);
    p.set("server.parse_ms_p50", p50["parse"]);
    p.set("server.lint_ms_p50", p50["lint"]);
    p.set("server.solve_ms_p50", p50["solve"]);
    p.set("server.verify_ms_p50", p50["verify"]);
    p.set("server.wait_ms_p50", wait);
    p.set("server.requests", w.samples.len() as f64);
    let lookups = (hits1 - hits0) + (misses1 - misses0);
    p.set("server.session_hit_ratio", ratio(hits1 - hits0, lookups));
    p.set("server.session_lookups", lookups as f64);
    p.set("server.session_evictions", (evictions1 - evictions0) as f64);
    p.set("server.solve_cached_share", cached_share);
    p.set("server.solve_requests", solves as f64);
    let d = |name| delta(&before, &after, name) as f64;
    p.set("pool.tasks", d("pool.tasks"));
    p.set("pool.steals", d("pool.steals"));
    p.set("pool.exec_rejected", d("pool.exec.rejected"));
    p.set("pool.exec_spawned", d("pool.exec.spawned"));
    let closed = w.finish();
    p.check(
        closed.is_ok(),
        &format!("one terminal frame per id: {closed:?}"),
    );
}

/// `kpt_server::parse_request` on one transaction's frames per hot model,
/// in µs per frame (median of `REPS` blocks).
fn proto_layer(seed: u64, oracle: &Oracle, tracer: &mut Tracer, p: &mut Probe) {
    let mut lines = Vec::new();
    for (model, invariant) in &oracle.verify {
        let text = rename_program(&kpt_source(model), &seed_tag(seed));
        for (id, body) in request_bodies(&text, invariant).iter().enumerate() {
            lines.push(format!("{{\"id\":{id},{body}}}"));
        }
    }
    const ROUNDS: usize = 50;
    let ((), ms) = timed_median(tracer, "proto.parse_request", &[], || {
        for _ in 0..ROUNDS {
            for l in &lines {
                let r = kpt_server::parse_request(std::hint::black_box(l), 1 << 20);
                std::hint::black_box(r.is_ok());
            }
        }
    });
    p.set(
        "proto.parse_request_us",
        ms * 1e3 / (ROUNDS * lines.len()) as f64,
    );
}

/// Run one CPU-bound section between two yardstick samples and scale the
/// times it measured (ms and µs metrics) to the reference speed, as the
/// end-to-end timings are.
fn scaled(p: &mut Probe, yardstick: &mut Yardstick, section: impl FnOnce(&mut Probe)) {
    let before: Vec<&str> = p.metrics.keys().copied().collect();
    let y0 = yardstick.sample();
    section(p);
    let f = speed::factor(y0, yardstick.sample());
    for (name, unit) in PER_LAYER {
        if matches!(*unit, "ms" | "us") && !before.contains(name) {
            if let Some(v) = p.metrics.get_mut(name) {
                *v *= f;
            }
        }
    }
}

/// Run every layer's probe. The server part runs last: binding a server
/// turns on library tracing for the rest of the process.
pub fn run(seed: u64, tracer: &mut Tracer) -> Result<Probe, String> {
    let oracle = Oracle::hand_written();
    let mut p = Probe::default();
    let t = Instant::now();
    let models = solve_mix::models(seed)?;
    let symbolic: Vec<solve_mix::Model> = models
        .iter()
        .filter(|m| solve_mix::SYMBOLIC.contains(&m.name))
        .cloned()
        .collect();
    let mut yardstick = Yardstick::new();
    scaled(&mut p, &mut yardstick, |p| {
        lint_layers(seed, &oracle, tracer, p)
    });
    scaled(&mut p, &mut yardstick, |p| {
        core_layers(&models, &oracle, tracer, p)
    });
    scaled(&mut p, &mut yardstick, |p| {
        bdd_layers(&symbolic, &oracle, tracer, p)
    });
    scaled(&mut p, &mut yardstick, |p| {
        proto_layer(seed, &oracle, tracer, p)
    });
    // Server latencies are mostly kernel timers: left unscaled.
    server_layers(seed, &oracle, tracer, &mut p);
    eprintln!(
        "perfbench: layer probe took {:.1} s ({} checks, {} failed)",
        t.elapsed().as_secs_f64(),
        p.checks,
        p.failed
    );
    Ok(p)
}
