//! `solve_mix`: eq. (25) on pre-elaborated programs, alternating the
//! explicit solver (`Kbp::solve_iterative(64)` on a fresh `Kbp`) with the
//! symbolic one (`SymbolicKbp::from_program` + `solve_iterative(64)`).
//!
//! Why: this is the paper's second user-facing operation with no
//! frontend and no lint in the way — `core`, `transformers` and `state`
//! on the explicit side, the `bdd` solver on the symbolic side. A
//! refactor of the two solver stacks into one (ROADMAP item 2) or a
//! deleted parallel fan-out (item 3) must leave it flat; a change to
//! lint (item 1) bypasses it, and should not move it. Explicit inputs:
//! muddy children n = 3..6, dining cryptographers, russian cards,
//! seqtrans-std and seqtrans-fig3 (2×2). Symbolic inputs: the same
//! without the seqtrans models, whose symbolic solve takes ~16 s.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use kpt_bdd::{SymbolicKbp, SymbolicOutcome};
use kpt_core::{IterativeOutcome, Kbp};
use kpt_unity::Program;

use crate::inputs::{kpt_source, rename_program, seed_tag, InputRecord, Manifest, SplitMix64};
use crate::oracle::{Oracle, Solved};
use crate::record::Verdict;
use crate::trace::Tracer;
use crate::Workload;

/// Eq. (25) iteration cap, as the server's default.
pub const MAX_ITERATIONS: usize = 64;

/// `(model, explicit solves per verdict)`. muddy3 solves explicitly in
/// ~0.2–0.3 ms, under the verdict floor, so a verdict batches six; it is
/// listed twice so that a pass holds an odd number of verdicts (15) and
/// the median falls inside one model's times, not between two models'.
const EXPLICIT: &[(&str, usize)] = &[
    ("muddy3", 6),
    ("muddy3", 6),
    ("muddy4", 1),
    ("muddy5", 1),
    ("muddy6", 1),
    ("dining", 1),
    ("russian", 1),
    ("seqtrans_std", 1),
    ("seqtrans_fig3", 1),
];

/// The `.kpt` models: solved symbolically (one solve per verdict) as well
/// as explicitly.
pub const SYMBOLIC: &[&str] = &["muddy3", "muddy4", "muddy5", "muddy6", "dining", "russian"];

/// Which engine a verdict runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `kpt_core::Kbp`.
    Explicit,
    /// `kpt_bdd::SymbolicKbp`.
    Symbolic,
}

/// One elaborated input.
#[derive(Clone)]
pub struct Model {
    /// Benchmark name.
    pub name: &'static str,
    /// The program.
    pub program: Program,
    /// The text it was elaborated from (a description for the seqtrans
    /// models, which are built in Rust).
    pub text: String,
}

/// Build every input of this workload; `seed` renames the `.kpt` models.
pub fn models(seed: u64) -> Result<Vec<Model>, String> {
    let mut out = Vec::new();
    for &name in SYMBOLIC {
        let text = rename_program(&kpt_source(name), &seed_tag(seed));
        let (_, kbp) =
            kpt_core::load_kpt(&text).map_err(|e| format!("{name}: {}", e.render(&text)))?;
        out.push(Model {
            name,
            program: kbp.program().clone(),
            text,
        });
    }
    let options = kpt_seqtrans::ModelOptions::default();
    let standard = kpt_seqtrans::StandardModel::build(2, 2, options).map_err(|e| e.to_string())?;
    let fig3 = kpt_seqtrans::figure3_kbp(&standard).map_err(|e| e.to_string())?;
    for (name, program) in [
        ("seqtrans_std", standard.program().clone()),
        ("seqtrans_fig3", fig3.program().clone()),
    ] {
        let statements: Vec<&str> = program.statements().iter().map(|s| s.name()).collect();
        let text = format!(
            "kpt_seqtrans::StandardModel::build(2, 2, default) {name}: {} states; {}",
            program.space().num_states(),
            statements.join(",")
        );
        out.push(Model {
            name,
            program,
            text,
        });
    }
    Ok(out)
}

/// Solve `program` on `engine` from scratch; `None` when it did not
/// converge.
pub fn solve(engine: Engine, program: &Program) -> Result<Option<Solved>, String> {
    match engine {
        Engine::Explicit => match Kbp::new(program.clone())
            .solve_iterative(MAX_ITERATIONS)
            .map_err(|e| e.to_string())?
        {
            IterativeOutcome::Converged {
                solution,
                iterations,
            } => Ok(Some(Solved {
                iterations,
                states: solution.count(),
            })),
            _ => Ok(None),
        },
        Engine::Symbolic => match SymbolicKbp::from_program(program)
            .and_then(|s| s.solve_iterative(MAX_ITERATIONS))
            .map_err(|e| e.to_string())?
        {
            SymbolicOutcome::Converged {
                solution,
                iterations,
            } => Ok(Some(Solved {
                iterations,
                states: solution.count(),
            })),
            _ => Ok(None),
        },
    }
}

struct Op {
    engine: Engine,
    model: usize,
    reps: usize,
}

/// The `solve_mix` workload state.
pub struct SolveMix {
    seed: u64,
    models: Vec<Model>,
    expected: Vec<Solved>,
    /// The last explicit answer per model, for the explicit/symbolic
    /// agreement check.
    explicit_seen: BTreeMap<usize, Solved>,
}

impl SolveMix {
    fn index(&self, name: &str) -> usize {
        self.models
            .iter()
            .position(|m| m.name == name)
            .expect("every listed model is built")
    }

    /// One pass: the explicit and the symbolic lists, each shuffled, then
    /// interleaved explicit-first.
    fn ops(&self, pass: u64) -> Vec<Op> {
        let mut rng = SplitMix64::new(self.seed, pass);
        let mut explicit: Vec<Op> = EXPLICIT
            .iter()
            .map(|&(name, reps)| Op {
                engine: Engine::Explicit,
                model: self.index(name),
                reps,
            })
            .collect();
        let mut symbolic: Vec<Op> = SYMBOLIC
            .iter()
            .map(|name| Op {
                engine: Engine::Symbolic,
                model: self.index(name),
                reps: 1,
            })
            .collect();
        rng.shuffle(&mut explicit);
        rng.shuffle(&mut symbolic);
        let mut ops = Vec::new();
        let mut sym = symbolic.into_iter();
        for e in explicit {
            ops.push(e);
            ops.extend(sym.next());
        }
        ops
    }

    fn verdict(&mut self, op: &Op, tracer: &mut Tracer) -> Verdict {
        let model = &self.models[op.model];
        let (kind, label) = match op.engine {
            Engine::Explicit => ("core.solve_iterative", "explicit"),
            Engine::Symbolic => ("bdd.solve_iterative", "symbolic"),
        };
        let fields = [("model", model.name.into()), ("engine", label.into())];
        let (outcome, ms) = tracer.span("perfbench.solve_mix.verdict", &fields, |t| {
            (0..op.reps)
                .map(|_| {
                    t.span(kind, &[], |_| {
                        catch_unwind(AssertUnwindSafe(|| solve(op.engine, &model.program)))
                    })
                    .0
                })
                .collect::<Vec<_>>()
        });
        let expected = self.expected[op.model];
        let failed = outcome.iter().any(|r| !matches!(r, Ok(Ok(_))));
        let mut correct = outcome
            .iter()
            .all(|r| matches!(r, Ok(Ok(Some(s))) if *s == expected));
        if let Some(Ok(Ok(Some(got)))) = outcome.last() {
            match op.engine {
                Engine::Explicit => {
                    self.explicit_seen.insert(op.model, *got);
                }
                Engine::Symbolic => {
                    // The two engines must agree on the solution.
                    if let Some(e) = self.explicit_seen.get(&op.model) {
                        correct &= e == got;
                    }
                }
            }
        }
        Verdict {
            key: format!("{}/{label}", model.name),
            ms,
            correct,
            failed,
        }
    }
}

impl SolveMix {
    /// The seeded inputs with their expected answers, before any warm-up.
    pub fn new(seed: u64, oracle: &Oracle) -> Result<Self, String> {
        let models = models(seed)?;
        let expected = models.iter().map(|m| oracle.solved(m.name)).collect();
        Ok(SolveMix {
            seed,
            models,
            expected,
            explicit_seen: BTreeMap::new(),
        })
    }
}

impl Workload for SolveMix {
    fn setup(seed: u64, oracle: &Oracle) -> Result<Self, String> {
        let mut w = SolveMix::new(seed, oracle)?;
        w.run_pass(u64::MAX, &mut Tracer::new(false), &mut Vec::new());
        Ok(w)
    }

    fn manifest(&self) -> Manifest {
        Manifest {
            workload: "solve_mix".to_owned(),
            seed: self.seed,
            inputs: self
                .models
                .iter()
                .map(|m| InputRecord::of(m.name, &m.text))
                .collect(),
            sequence: (1..=2)
                .flat_map(|pass| {
                    self.ops(pass).into_iter().map(move |op| {
                        let engine = match op.engine {
                            Engine::Explicit => "explicit",
                            Engine::Symbolic => "symbolic",
                        };
                        let name = self.models[op.model].name;
                        format!("pass{pass}:solve:{engine}:{name}x{}", op.reps)
                    })
                })
                .collect(),
        }
    }

    fn run_pass(&mut self, pass: u64, tracer: &mut Tracer, out: &mut Vec<Verdict>) {
        for op in self.ops(pass) {
            let v = self.verdict(&op, tracer);
            out.push(v);
        }
    }

    fn min_passes(&self) -> u64 {
        100_u64.div_ceil((EXPLICIT.len() + SYMBOLIC.len()) as u64)
    }

    fn threads(&self) -> String {
        "library calls on the main thread".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_manifest_follows_the_seed() {
        let oracle = Oracle::hand_written();
        let a = SolveMix::new(1, &oracle).unwrap().manifest();
        let b = SolveMix::new(1, &oracle).unwrap().manifest();
        let c = SolveMix::new(2, &oracle).unwrap().manifest();
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_eq!(a.sequence.len(), 2 * (EXPLICIT.len() + SYMBOLIC.len()));
    }
}
