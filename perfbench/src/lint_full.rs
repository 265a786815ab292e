//! `lint_full`: `kpt_lint::lint_source` at full depth on `.kpt` text.
//!
//! Why: full-depth lint is the paper's eq.-14 erasure check a user runs
//! before solving. Its symbolic pass is over 90% of the time (muddy5:
//! ~150 ms full against ~1.4 ms at dataflow depth), so a change to how
//! the symbolic pass builds its relations (ROADMAP item 1) shows here and
//! nowhere else. Inputs: the muddy children for n = 2..5, dining
//! cryptographers, attacking generals and cache coherence. Left out, for
//! their per-verdict cost at full depth: seqtrans-std (~7 s),
//! seqtrans-fig3 (~15 s), russian cards (~8 s) and muddy6 (~1 s), so
//! this benchmark cannot carry a claim about seqtrans lint.

use std::panic::{catch_unwind, AssertUnwindSafe};

use kpt_lint::{lint_source, LintOptions};

use crate::inputs::{kpt_source, rename_program, seed_tag, InputRecord, Manifest, SplitMix64};
use crate::oracle::{report_codes, Oracle};
use crate::record::Verdict;
use crate::trace::Tracer;
use crate::Workload;

/// `(model, lints per verdict)`: the three smallest models lint in under
/// a millisecond, so one verdict lints them several times to stay above
/// the verdict floor.
const CASES: &[(&str, usize)] = &[
    ("muddy2", 3),
    ("muddy3", 1),
    ("muddy4", 1),
    ("muddy5", 1),
    ("dining", 1),
    ("generals", 3),
    ("cache", 6),
];

/// Untimed passes in each set-up (one pass is ~0.6 s).
const WARMUP_PASSES: u64 = 2;

struct Case {
    model: &'static str,
    reps: usize,
    source: String,
    expected: Vec<String>,
}

/// The `lint_full` workload state.
pub struct LintFull {
    seed: u64,
    cases: Vec<Case>,
}

impl LintFull {
    fn order(&self, pass: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.cases.len()).collect();
        SplitMix64::new(self.seed, pass).shuffle(&mut order);
        order
    }

    fn verdict(case: &Case, tracer: &mut Tracer) -> Verdict {
        let fields = [("model", case.model.into()), ("reps", case.reps.into())];
        let (outcome, ms) = tracer.span("perfbench.lint_full.verdict", &fields, |t| {
            (0..case.reps)
                .map(|_| {
                    t.span("lint.lint_source", &[], |_| {
                        catch_unwind(AssertUnwindSafe(|| {
                            lint_source(&case.source, &LintOptions::default())
                        }))
                    })
                    .0
                })
                .collect::<Vec<_>>()
        });
        let failed = outcome.iter().any(|r| !matches!(r, Ok(Ok(_))));
        let correct = outcome.iter().all(|r| {
            matches!(r, Ok(Ok(report))
                if report.symbolic_ran && report_codes(report) == case.expected)
        });
        Verdict {
            key: case.model.to_owned(),
            ms,
            correct,
            failed,
        }
    }
}

impl LintFull {
    /// The seeded inputs with their expected codes, before any warm-up.
    pub fn new(seed: u64, oracle: &Oracle) -> Result<Self, String> {
        let cases = CASES
            .iter()
            .map(|&(model, reps)| {
                let source = rename_program(&kpt_source(model), &seed_tag(seed));
                // Elaborate once up front so a broken input fails the
                // set-up, not a timed verdict.
                kpt_unity::parse_program(&source)
                    .map_err(|e| format!("{model}: {}", e.render(&source)))?;
                Ok(Case {
                    model,
                    reps,
                    source,
                    expected: oracle.lint_full[model].clone(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(LintFull { seed, cases })
    }
}

impl Workload for LintFull {
    fn setup(seed: u64, oracle: &Oracle) -> Result<Self, String> {
        let mut w = LintFull::new(seed, oracle)?;
        let mut scratch = Vec::new();
        for pass in 0..WARMUP_PASSES {
            w.run_pass(u64::MAX - pass, &mut Tracer::new(false), &mut scratch);
        }
        Ok(w)
    }

    fn manifest(&self) -> Manifest {
        Manifest {
            workload: "lint_full".to_owned(),
            seed: self.seed,
            inputs: self
                .cases
                .iter()
                .map(|c| InputRecord::of(c.model, &c.source))
                .collect(),
            sequence: (1..=2)
                .flat_map(|pass| {
                    self.order(pass).into_iter().map(move |i| {
                        let c = &self.cases[i];
                        format!("pass{pass}:lint_full:{}x{}", c.model, c.reps)
                    })
                })
                .collect(),
        }
    }

    fn run_pass(&mut self, pass: u64, tracer: &mut Tracer, out: &mut Vec<Verdict>) {
        for i in self.order(pass) {
            out.push(Self::verdict(&self.cases[i], tracer));
        }
    }

    fn min_passes(&self) -> u64 {
        100_u64.div_ceil(self.cases.len() as u64)
    }

    fn threads(&self) -> String {
        "library calls on the main thread".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::summarize;

    #[test]
    fn the_manifest_follows_the_seed() {
        let oracle = Oracle::hand_written();
        let a = LintFull::new(1, &oracle).unwrap().manifest();
        let b = LintFull::new(1, &oracle).unwrap().manifest();
        let c = LintFull::new(2, &oracle).unwrap().manifest();
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        // A new seed renames every input and reorders the list, but the
        // list holds the same operations.
        assert!(a
            .inputs
            .iter()
            .zip(&c.inputs)
            .all(|(x, y)| x.fnv1a != y.fnv1a));
        let ops = |m: &Manifest| {
            let mut v: Vec<String> = m.sequence.iter().map(|s| s[6..].to_owned()).collect();
            v.sort();
            v
        };
        assert_eq!(ops(&a), ops(&c));
    }

    #[test]
    fn an_injected_wrong_answer_lowers_correct_share() {
        let score = |oracle: &Oracle| {
            let mut w = LintFull::new(5, oracle).unwrap();
            let mut out = Vec::new();
            w.run_pass(1, &mut Tracer::new(false), &mut out);
            summarize(&out, 1.0)
        };
        let right = score(&Oracle::hand_written());
        assert_eq!(right.correct_share(), 100.0);
        let mut wrong = Oracle::hand_written();
        wrong.lint_full.insert("cache".to_owned(), Vec::new());
        let s = score(&wrong);
        assert_eq!(s.correct, s.attempted - 1);
        assert!(s.correct_share() < 100.0);
        assert_eq!(s.failed, 0);
    }
}
