//! `server_mix`: an in-process `kpt_server::Server` on loopback, driven by
//! closed-loop clients.
//!
//! Why: the server is how CI, the CLI and editors reach the library, and
//! each of those callers waits for its reply — so a closed loop, with
//! `CLIENTS` connections against `WORKERS` pool workers (nproc = 2). A
//! verdict is one transaction on one model: `parse`, `lint`
//! (`"symbolic": false`), explicit `solve`, symbolic `solve` and `verify`,
//! each request sent after the previous reply. Three quarters of the
//! transactions reuse a hot set of six models (arena hits and cached
//! explicit solutions); one quarter carries a seed-renamed copy of a hot
//! model, a new arena key: a miss, with elaboration, solving, and LRU
//! eviction once the arena passes its 32 models. Reads and writes to the
//! session arena thus run side by side. The workload runs the `server`,
//! `pool` and `unity` layers; the symbolic lint pass (`bdd` lint) stays
//! out, so lint changes to that pass bypass it.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::time::Instant;

use kpt_lint::{lint_source, LintOptions};
use kpt_obs::JsonValue;
use kpt_server::{Server, ServerConfig};

use crate::inputs::{kpt_source, rename_program, seed_tag, InputRecord, Manifest, SplitMix64};
use crate::oracle::{report_codes, Oracle, Solved};
use crate::record::Verdict;
use crate::solve_mix::{solve, Engine};
use crate::trace::Tracer;
use crate::Workload;

/// The hot set.
const HOT: &[&str] = &["muddy3", "muddy4", "muddy5", "dining", "generals", "cache"];
/// Per connection and pass, each hot model gets this many hot
/// transactions and one miss: 3/4 of the traffic hits the arena.
const HOT_PER_MODEL: usize = 3;
/// Closed-loop client connections.
pub const CLIENTS: usize = 2;
/// Server pool workers.
pub const WORKERS: usize = 2;
/// Untimed passes in each set-up.
const WARMUP_PASSES: u64 = 1;

/// What a direct library call answers for one hot model, and how long
/// each call took.
struct Expect {
    states: u64,
    variables: u64,
    statements: u64,
    processes: u64,
    lint_errors: u64,
    lint_warnings: u64,
    lint_codes: Vec<String>,
    explicit: Solved,
    symbolic: Solved,
    invariant: String,
    holds: bool,
    direct: Direct,
}

/// Direct library wall times (ms) of the work behind each request.
#[derive(Debug, Clone, Copy, Default)]
struct Direct {
    parse: f64,
    lint: f64,
    explicit: f64,
    translate: f64,
    symbolic: f64,
    verify: f64,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// The direct library answers for `text`, checked against the
/// hand-written oracle.
fn expect(model: &str, text: &str, oracle: &Oracle) -> Result<Expect, String> {
    let err = |what: &str, e: &dyn std::fmt::Display| format!("{model}: {what}: {e}");
    let (loaded, parse) = timed(|| kpt_core::load_kpt(text));
    let (space, kbp) = loaded.map_err(|e| err("load", &e.render(text)))?;
    let options = LintOptions {
        symbolic: false,
        ..LintOptions::default()
    };
    let (report, lint) = timed(|| lint_source(text, &options));
    let report = report.map_err(|e| err("lint", &e))?;
    let program = kbp.program();
    let (explicit, explicit_ms) = timed(|| solve(Engine::Explicit, program));
    let explicit = explicit?.ok_or_else(|| format!("{model}: explicit solve did not converge"))?;
    let (symbolic, translate) = timed(|| kpt_bdd::SymbolicKbp::from_program(program));
    let symbolic = symbolic.map_err(|e| err("translate", &e))?;
    let (outcome, symbolic_ms) =
        timed(|| symbolic.solve_iterative(crate::solve_mix::MAX_ITERATIONS));
    let symbolic = match outcome.map_err(|e| err("symbolic solve", &e))? {
        kpt_bdd::SymbolicOutcome::Converged {
            solution,
            iterations,
        } => Solved {
            iterations,
            states: solution.count(),
        },
        other => return Err(format!("{model}: symbolic solve: {other:?}")),
    };
    let solution = kbp
        .solve_iterative(crate::solve_mix::MAX_ITERATIONS)
        .map_err(|e| err("solve", &e))?;
    let solution = solution
        .solution()
        .ok_or_else(|| format!("{model}: no solution"))?;
    let invariant = oracle.verify[model].clone();
    let (holds, verify) = timed(|| -> Result<bool, String> {
        let compiled = kbp
            .compile_at(solution)
            .map_err(|e| err("compile_at", &e))?;
        let formula = kpt_logic::parse_formula(&invariant).map_err(|e| err("formula", &e))?;
        let p = kpt_logic::EvalContext::new(&space)
            .eval(&formula)
            .map_err(|e| err("eval", &e))?;
        Ok(compiled.invariant(&p))
    });
    let e = Expect {
        states: space.num_states(),
        variables: space.num_vars() as u64,
        statements: program.statements().len() as u64,
        processes: program.processes().len() as u64,
        lint_errors: report.error_count() as u64,
        lint_warnings: report.warning_count() as u64,
        lint_codes: report_codes(&report),
        explicit,
        symbolic,
        invariant,
        holds: holds?,
        direct: Direct {
            parse,
            lint,
            explicit: explicit_ms,
            translate,
            symbolic: symbolic_ms,
            verify,
        },
    };
    // The direct calls must themselves give the hand-written answers.
    let want = oracle.solved(model);
    if e.lint_codes != oracle.lint_no_symbolic[model]
        || e.explicit != want
        || e.symbolic != want
        || !e.holds
    {
        return Err(format!(
            "{model}: direct library answers disagree with the oracle"
        ));
    }
    Ok(e)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 16);
    kpt_obs::json_escape_into(s, &mut out);
    out
}

/// One closed-loop connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
    broken: bool,
}

impl Client {
    fn connect(server: &Server) -> Result<Client, String> {
        let stream = TcpStream::connect(server.local_addr()).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Client {
            writer: stream.try_clone().map_err(|e| e.to_string())?,
            reader: BufReader::new(stream),
            next_id: 1,
            broken: false,
        })
    }

    /// Send one request and read up to its terminal frame. Progress
    /// frames for the same id are skipped; a frame for any other id means
    /// a stray or duplicate terminal frame and fails the request.
    fn call(&mut self, body: &str) -> Result<JsonValue, String> {
        if self.broken {
            return Err("connection lost".to_owned());
        }
        let id = self.next_id;
        self.next_id += 1;
        let r = self.exchange(id, body);
        if r.is_err() {
            self.broken = true;
        }
        r
    }

    fn exchange(&mut self, id: u64, body: &str) -> Result<JsonValue, String> {
        let line = format!("{{\"id\":{id},{body}}}\n");
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| e.to_string())?;
        let mut buf = String::new();
        loop {
            buf.clear();
            let n = self.reader.read_line(&mut buf).map_err(|e| e.to_string())?;
            if n == 0 {
                return Err(format!("stream closed before the terminal frame of {id}"));
            }
            let frame = kpt_obs::parse_json(buf.trim_end()).map_err(|e| e.to_string())?;
            if frame.get("id").and_then(JsonValue::as_u64) != Some(id) {
                return Err(format!(
                    "frame for another id while waiting for {id}: {buf}"
                ));
            }
            if frame.get("type").and_then(JsonValue::as_str) != Some("progress") {
                return Ok(frame);
            }
        }
    }

    /// Stop sending; [`Client::drain`] checks the rest once the server
    /// has shut down.
    fn hang_up(&self) {
        let _ = self.writer.shutdown(std::net::Shutdown::Write);
    }

    /// Read to end of stream and check nothing but progress frames
    /// remain: every id got exactly one terminal frame.
    fn drain(mut self) -> Result<(), String> {
        if self.broken {
            return Ok(());
        }
        let mut buf = String::new();
        while self.reader.read_line(&mut buf).map_err(|e| e.to_string())? > 0 {
            let frame = kpt_obs::parse_json(buf.trim_end()).map_err(|e| e.to_string())?;
            if frame.get("type").and_then(JsonValue::as_str) != Some("progress") {
                return Err(format!("extra terminal frame: {buf}"));
            }
            buf.clear();
        }
        Ok(())
    }
}

fn u64_of(f: &JsonValue, key: &str) -> Option<u64> {
    f.get(key).and_then(JsonValue::as_u64)
}

fn str_of<'a>(f: &'a JsonValue, key: &str) -> Option<&'a str> {
    f.get(key).and_then(JsonValue::as_str)
}

fn solved_of(f: &JsonValue) -> Option<Solved> {
    (str_of(f, "outcome") == Some("converged")).then_some(())?;
    Some(Solved {
        iterations: u64_of(f, "iterations")? as usize,
        states: u64_of(f, "solution_states")?,
    })
}

fn lint_codes_of(f: &JsonValue) -> Option<Vec<String>> {
    let mut codes: Vec<String> = f
        .get("report")?
        .get("diagnostics")?
        .as_array()?
        .iter()
        .filter_map(|d| str_of(d, "code").map(str::to_owned))
        .collect();
    codes.sort();
    codes.dedup();
    Some(codes)
}

/// The request kinds of one transaction, in order.
pub const KINDS: [&str; 5] = ["parse", "lint", "solve", "solve_symbolic", "verify"];
/// The client-side span recorded around each kind of request.
const SPANS: [&str; 5] = [
    "server.request.parse",
    "server.request.lint",
    "server.request.solve",
    "server.request.solve_symbolic",
    "server.request.verify",
];

/// The five request frames of a transaction on `text`, in [`KINDS`]
/// order, without their `id` member.
pub fn request_bodies(text: &str, invariant: &str) -> [String; 5] {
    let source = json_str(text);
    let invariant = json_str(invariant);
    [
        format!("\"type\":\"parse\",\"source\":\"{source}\""),
        format!("\"type\":\"lint\",\"source\":\"{source}\",\"symbolic\":false"),
        format!("\"type\":\"solve\",\"source\":\"{source}\",\"engine\":\"explicit\""),
        format!("\"type\":\"solve\",\"source\":\"{source}\",\"engine\":\"symbolic\""),
        format!("\"type\":\"verify\",\"source\":\"{source}\",\"invariant\":\"{invariant}\""),
    ]
}

/// One request as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into [`KINDS`].
    pub kind: usize,
    /// Client-observed latency, ms.
    pub ms: f64,
    /// Latency minus the direct library time of the work the server did.
    pub wait_ms: f64,
    /// An explicit solve answered from the model's solution cache.
    pub cached: bool,
}

/// One transaction to run: a hot model, or a renamed copy of one.
#[derive(Debug, Clone)]
struct Txn {
    model: usize,
    /// The renamed copy's text, for a miss.
    miss: Option<String>,
}

/// Run one transaction; returns its verdict and appends the requests'
/// samples.
fn transaction(
    client: &mut Client,
    model: &Model,
    txn: &Txn,
    tracer: &mut Tracer,
    samples: &mut Vec<Sample>,
) -> Verdict {
    let text = txn.miss.as_deref().unwrap_or(&model.text);
    let e = &model.expect;
    let miss = txn.miss.is_some();
    let bodies = request_bodies(text, &e.invariant);
    let program = crate::inputs::program_name(text);
    let fields = [
        ("model", model.name.into()),
        ("arena", if miss { "miss" } else { "hit" }.into()),
    ];
    let ((correct, failed), ms) = tracer.span("perfbench.server_mix.verdict", &fields, |t| {
        let mut correct = true;
        let mut failed = false;
        for (kind, body) in bodies.iter().enumerate() {
            let (reply, ms) = t.span(SPANS[kind], &[], |_| client.call(body));
            let f = match reply {
                Ok(f) if str_of(&f, "type") == Some("result") => f,
                _ => {
                    failed = true;
                    correct = false;
                    continue;
                }
            };
            let cached = f.get("cached").and_then(JsonValue::as_bool) == Some(true);
            let d = &e.direct;
            let direct = match kind {
                0 if miss => d.parse,
                0 => 0.0,
                1 => d.lint,
                2 if cached => 0.0,
                2 => d.explicit,
                3 if miss => d.translate + d.symbolic,
                3 => d.symbolic,
                _ => d.verify,
            };
            samples.push(Sample {
                kind,
                ms,
                wait_ms: ms - direct,
                cached,
            });
            correct &= match kind {
                0 => {
                    str_of(&f, "program") == Some(program)
                        && u64_of(&f, "states") == Some(e.states)
                        && u64_of(&f, "variables") == Some(e.variables)
                        && u64_of(&f, "statements") == Some(e.statements)
                        && u64_of(&f, "processes") == Some(e.processes)
                }
                1 => {
                    u64_of(&f, "errors") == Some(e.lint_errors)
                        && u64_of(&f, "warnings") == Some(e.lint_warnings)
                        && lint_codes_of(&f).as_ref() == Some(&e.lint_codes)
                }
                2 => solved_of(&f) == Some(e.explicit),
                3 => solved_of(&f) == Some(e.symbolic),
                _ => f.get("holds_all").and_then(JsonValue::as_bool) == Some(e.holds),
            };
        }
        (correct, failed)
    });
    Verdict {
        key: format!("{}/{}", model.name, if miss { "miss" } else { "hit" }),
        ms,
        correct,
        failed,
    }
}

/// One hot model: its seed-renamed text and the direct answers for it.
struct Model {
    name: &'static str,
    source: String,
    text: String,
    expect: Expect,
}

/// The `server_mix` workload state.
pub struct ServerMix {
    seed: u64,
    models: Vec<Model>,
    clients: Vec<Client>,
    /// Per-request samples of every pass so far.
    pub samples: Vec<Sample>,
    // Declared last: dropped after the clients hang up.
    server: Server,
}

impl ServerMix {
    /// Connection `conn`'s transactions in pass `pass`, shuffled.
    fn txns(&self, pass: u64, conn: usize) -> Vec<Txn> {
        let tag = seed_tag(self.seed);
        let mut txns = Vec::new();
        for (model, m) in self.models.iter().enumerate() {
            for _ in 0..HOT_PER_MODEL {
                txns.push(Txn { model, miss: None });
            }
            let suffix = format!("{tag}p{pass}c{conn}");
            txns.push(Txn {
                model,
                miss: Some(rename_program(&m.source, &suffix)),
            });
        }
        SplitMix64::new(self.seed, pass.wrapping_mul(CLIENTS as u64) + conn as u64)
            .shuffle(&mut txns);
        txns
    }

    /// The server's session arena: `(hits, misses, evictions)`.
    pub fn arena(&self) -> (u64, u64, u64) {
        let s = self.server.sessions();
        (s.hits(), s.misses(), s.evictions())
    }
}

impl Workload for ServerMix {
    /// Most of a transaction is the kernel's delayed-ACK timer (~40 ms
    /// for each reply that streams a progress frame first: the server
    /// does not set `TCP_NODELAY`), which does not scale with CPU speed.
    const CPU_BOUND: bool = false;

    fn setup(seed: u64, oracle: &Oracle) -> Result<Self, String> {
        // Bind first: binding turns on the process's library tracing (the
        // server forwards progress events), so the direct calls below run
        // under the same conditions as the server's own.
        let config = ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config).map_err(|e| e.to_string())?;
        let models = HOT
            .iter()
            .map(|&name| {
                let source = kpt_source(name);
                let text = rename_program(&source, &seed_tag(seed));
                let expect = expect(name, &text, oracle)?;
                Ok(Model {
                    name,
                    source,
                    text,
                    expect,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let clients = (0..CLIENTS)
            .map(|_| Client::connect(&server))
            .collect::<Result<Vec<_>, String>>()?;
        let mut w = ServerMix {
            seed,
            models,
            clients,
            samples: Vec::new(),
            server,
        };
        let mut warm = Vec::new();
        for pass in 0..WARMUP_PASSES {
            w.run_pass(u64::MAX - pass, &mut Tracer::new(false), &mut warm);
        }
        if warm.iter().any(|v| !v.correct) {
            return Err("a warm-up transaction was wrong or failed".to_owned());
        }
        w.samples.clear();
        Ok(w)
    }

    fn manifest(&self) -> Manifest {
        let mut inputs: Vec<InputRecord> = self
            .models
            .iter()
            .map(|m| InputRecord::of(m.name, &m.text))
            .collect();
        let mut sequence = Vec::new();
        for pass in 1..=2 {
            for conn in 0..CLIENTS {
                for txn in self.txns(pass, conn) {
                    let m = &self.models[txn.model];
                    match &txn.miss {
                        Some(text) => {
                            let name = crate::inputs::program_name(text).to_owned();
                            sequence.push(format!("pass{pass}:conn{conn}:miss:{name}"));
                            inputs.push(InputRecord::of(&name, text));
                        }
                        None => sequence.push(format!("pass{pass}:conn{conn}:hit:{}", m.name)),
                    }
                }
            }
        }
        Manifest {
            workload: "server_mix".to_owned(),
            seed: self.seed,
            inputs,
            sequence,
        }
    }

    fn run_pass(&mut self, pass: u64, tracer: &mut Tracer, out: &mut Vec<Verdict>) {
        let lists: Vec<Vec<Txn>> = (0..CLIENTS).map(|c| self.txns(pass, c)).collect();
        let models = &self.models;
        let enabled = tracer.enabled();
        let results: Vec<(Vec<Verdict>, Vec<Sample>, Tracer)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&lists)
                .map(|(client, txns)| {
                    s.spawn(move || {
                        let mut t = Tracer::new(enabled);
                        let mut samples = Vec::new();
                        let verdicts = txns
                            .iter()
                            .map(|txn| {
                                transaction(client, &models[txn.model], txn, &mut t, &mut samples)
                            })
                            .collect();
                        (verdicts, samples, t)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        for (verdicts, samples, t) in results {
            out.extend(verdicts);
            self.samples.extend(samples);
            tracer.absorb(t);
        }
    }

    fn min_passes(&self) -> u64 {
        let per_pass = CLIENTS * HOT.len() * (HOT_PER_MODEL + 1);
        100_u64.div_ceil(per_pass as u64)
    }

    fn threads(&self) -> String {
        format!("{WORKERS} server workers, {CLIENTS} closed-loop client connections")
    }

    /// Hang up every client and check each got exactly one terminal
    /// frame per request, then drain the server.
    fn finish(self) -> Result<(), String> {
        let ServerMix {
            clients,
            mut server,
            ..
        } = self;
        // The server keeps a connection open until it shuts down, so
        // drain it first: accepted work finishes and its frames flush.
        for c in &clients {
            c.hang_up();
        }
        server.shutdown();
        clients.into_iter().try_for_each(Client::drain)
    }
}

/// The median of each request kind's latency, the median wait, and the
/// share of solve requests answered from the solution cache.
pub fn request_stats(samples: &[Sample]) -> (BTreeMap<&'static str, f64>, f64, f64, usize) {
    let mut by_kind: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in samples {
        let kind = if s.kind == 3 { "solve" } else { KINDS[s.kind] };
        by_kind.entry(kind).or_default().push(s.ms);
    }
    let p50 = by_kind
        .into_iter()
        .map(|(k, v)| (k, crate::record::median(&v)))
        .collect();
    let waits: Vec<f64> = samples.iter().map(|s| s.wait_ms).collect();
    let solves: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.kind == 2 || s.kind == 3)
        .collect();
    let cached = solves.iter().filter(|s| s.cached).count();
    (
        p50,
        crate::record::median(&waits),
        100.0 * cached as f64 / solves.len().max(1) as f64,
        solves.len(),
    )
}
