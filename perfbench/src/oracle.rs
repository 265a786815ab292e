//! The verdict oracle: answers written by hand, not computed by the code
//! under test.
//!
//! * Lint codes are the zoo's `expected_lint` verdicts (the `kpt_lint`
//!   registry pins the same ones); the muddy-children models are clean.
//! * Solve answers are the EXPERIMENTS.md zoo table — outcome
//!   `converged@k` and the solution's state count — plus the §6
//!   sequence-transmission models (`converged@2` and `@7`, both 260
//!   states). Both engines must give the same answer.
//! * Server answers must also equal a direct library call on the same
//!   text (see `server_mix`); the hand-written rows below pin those
//!   direct calls in turn.
//!
//! [`Oracle`] is a value, so a self-test can inject a wrong answer and
//! watch `correct_share` drop.

use std::collections::BTreeMap;

/// Full-depth lint codes per model, sorted.
const LINT_FULL: &[(&str, &[&str])] = &[
    ("muddy2", &[]),
    ("muddy3", &[]),
    ("muddy4", &[]),
    ("muddy5", &[]),
    ("dining", &[]),
    ("generals", &[]),
    // The two writers race for the bus (KPT008), the knowledge-guarded
    // flush reads variables the protocol changes (KPT009), and the
    // flushes form a read/write dependency cycle (KPT011).
    ("cache", &["KPT008", "KPT009", "KPT011"]),
];

/// Lint codes with the symbolic pass off (the server's
/// `"symbolic": false` lint): only the syntactic KPT011 cycle remains.
const LINT_NO_SYMBOLIC: &[(&str, &[&str])] = &[
    ("muddy3", &[]),
    ("muddy4", &[]),
    ("muddy5", &[]),
    ("dining", &[]),
    ("generals", &[]),
    ("cache", &["KPT011"]),
];

/// `(model, converged@iterations, solution states)` for eq. (25).
const SOLVE: &[(&str, usize, u64)] = &[
    ("muddy3", 5, 65),
    ("muddy4", 6, 250),
    ("muddy5", 7, 967),
    ("muddy6", 8, 3808),
    ("dining", 2, 288),
    ("generals", 3, 9),
    ("cache", 2, 6),
    ("russian", 2, 196),
    ("seqtrans_std", 2, 260),
    ("seqtrans_fig3", 7, 260),
];

/// `(model, invariant)` for the server's `verify` requests; each holds in
/// the program compiled at its eq. (25) solution.
const VERIFY: &[(&str, &str)] = &[
    ("muddy3", "round <= 3"),
    ("muddy4", "round <= 4"),
    ("muddy5", "round <= 5"),
    ("dining", "verdict = nsa => ~paid0 /\\ ~paid1 /\\ ~paid2"),
    ("generals", "(attack1 => msg) /\\ (attack0 => ack)"),
    ("cache", "(c0 = mod => c1 = inv) /\\ (c1 = mod => c0 = inv)"),
];

/// A converged eq. (25) answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Solved {
    /// Iterations to the fixpoint.
    pub iterations: usize,
    /// States in the solution.
    pub states: u64,
}

/// Every expected answer the workloads check against.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// Full-depth lint codes.
    pub lint_full: BTreeMap<String, Vec<String>>,
    /// Lint codes without the symbolic pass.
    pub lint_no_symbolic: BTreeMap<String, Vec<String>>,
    /// Eq. (25) answers.
    pub solve: BTreeMap<String, Solved>,
    /// Invariants that must hold at the solution.
    pub verify: BTreeMap<String, String>,
}

fn codes(rows: &[(&str, &[&str])]) -> BTreeMap<String, Vec<String>> {
    rows.iter()
        .map(|(m, c)| ((*m).to_owned(), c.iter().map(|s| (*s).to_owned()).collect()))
        .collect()
}

impl Oracle {
    /// The hand-written answers.
    pub fn hand_written() -> Self {
        Oracle {
            lint_full: codes(LINT_FULL),
            lint_no_symbolic: codes(LINT_NO_SYMBOLIC),
            solve: SOLVE
                .iter()
                .map(|&(m, iterations, states)| (m.to_owned(), Solved { iterations, states }))
                .collect(),
            verify: VERIFY
                .iter()
                .map(|(m, f)| ((*m).to_owned(), (*f).to_owned()))
                .collect(),
        }
    }

    /// The expected answer for `model`.
    ///
    /// # Panics
    /// Panics when the oracle has no row for `model` — a benchmark bug.
    pub fn solved(&self, model: &str) -> Solved {
        *self
            .solve
            .get(model)
            .unwrap_or_else(|| panic!("no solve answer for `{model}`"))
    }
}

/// The distinct diagnostic codes of a lint report, sorted — the form the
/// registry's expected verdicts take.
pub fn report_codes(report: &kpt_lint::LintReport) -> Vec<String> {
    report
        .codes()
        .into_iter()
        .map(|c| c.code().to_owned())
        .collect()
}
