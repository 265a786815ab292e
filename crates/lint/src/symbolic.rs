//! Depth 4 — semantic checks against the erased strongest invariant
//! (`KPT007`-`KPT009`).
//!
//! The knowledge modalities are erased at positive polarity (see
//! [`crate::erase`]), which only weakens guards; the erased program's
//! strongest invariant therefore *contains* the `SI` of every solution of
//! the knowledge-based protocol (eq. 5, eq. 25, sound by eq. 14
//! `[K_i p ⇒ p]`). A guard unsatisfiable under that over-approximating
//! `SI` is unsatisfiable under every solution's `SI` — genuinely dead code.
//!
//! The erased program is knowledge-free, so its `SI` is exactly computable
//! on the explicit tables it compiles to: the frontier fixpoint of
//! [`kpt_unity::CompiledProgram::si`].

use std::collections::BTreeSet;

use kpt_logic::Formula;
use kpt_state::{witness_state, Predicate, VarId};
use kpt_unity::{Guard, Program, Statement};

use crate::erase::{erased_program, eval_assign_rhs, guard_over_approx, top_level_knowledge};
use crate::{Diagnostic, DiagnosticCode};

/// At most this many overlap states (in index order) are evaluated per
/// statement pair.
const MAX_OVERLAP_SAMPLES: usize = 1024;

/// Run the semantic checks. Assumes the declaration and view passes found
/// no errors (the orchestrator skips this pass otherwise). When the erased
/// program does not compile, only the syntactic KPT009 check runs.
pub fn check(program: &Program, diags: &mut Vec<Diagnostic>) {
    check_circularity(program, diags);

    let Ok(erased) = erased_program(program) else {
        return;
    };
    let Ok(compiled) = erased.compile() else {
        return;
    };
    let si = compiled.si();
    let space = program.space();
    let guards: Vec<Option<Predicate>> = program
        .statements()
        .iter()
        .map(|stmt| guard_over_approx(space, stmt))
        .collect();

    // KPT007: a guard false everywhere in the over-approximating SI can
    // never fire in any solution of the protocol. `Guard::Always` is
    // trivially live.
    for (stmt, g) in program.statements().iter().zip(&guards) {
        if matches!(stmt.guard(), Guard::Always) {
            continue;
        }
        if g.as_ref().is_some_and(|g| g.is_disjoint(si)) {
            diags.push(Diagnostic::on_guard(
                DiagnosticCode::DeadGuard,
                stmt.name(),
                "guard is unsatisfiable within the strongest invariant of the \
                 knowledge-erased program — the statement can never fire in \
                 any solution of the protocol",
            ));
        }
    }

    check_races(program, diags, si, &guards);
}

/// KPT008: two knowledge-free statements whose guards overlap inside the
/// invariant and that assign *different* values to the same variable at an
/// overlap state — the nondeterministic scheduler makes the outcome racy.
///
/// Knowledge-guarded statements are excluded: their enabledness depends on
/// the solution's SI, so syntactic overlap proves nothing. A guard that
/// does not evaluate counts as always enabled.
fn check_races(
    program: &Program,
    diags: &mut Vec<Diagnostic>,
    si: &Predicate,
    guards: &[Option<Predicate>],
) {
    let space = program.space();
    let stmts: Vec<&Statement> = program.statements().iter().collect();
    for (i, a) in stmts.iter().enumerate() {
        if a.guard().mentions_knowledge() || a.assignments().is_empty() {
            continue;
        }
        for (j, b) in stmts.iter().enumerate().skip(i + 1) {
            if b.guard().mentions_knowledge() || b.assignments().is_empty() {
                continue;
            }
            let shared: Vec<&String> = a
                .assignments()
                .iter()
                .map(|(v, _)| v)
                .filter(|v| b.assignments().iter().any(|(w, _)| &w == v))
                .collect();
            if shared.is_empty() {
                continue;
            }
            let ga = guards[i].as_ref().unwrap_or(si);
            let gb = guards[j].as_ref().unwrap_or(si);
            let overlap = ga.and(gb).and(si);
            let samples: Vec<u64> = overlap.iter().take(MAX_OVERLAP_SAMPLES).collect();
            if samples.is_empty() {
                continue;
            }
            'vars: for var in &shared {
                let Ok(v) = space.var(var) else { continue };
                let dom = space.domain(v).clone();
                let ra = a
                    .assignments()
                    .iter()
                    .find(|(w, _)| w == *var)
                    .map(|(_, e)| e);
                let rb = b
                    .assignments()
                    .iter()
                    .find(|(w, _)| w == *var)
                    .map(|(_, e)| e);
                let (Some(ra), Some(rb)) = (ra, rb) else {
                    continue;
                };
                for &state in &samples {
                    let va = eval_assign_rhs(space, a.params(), |l| dom.label_code(l), ra, state);
                    let vb = eval_assign_rhs(space, b.params(), |l| dom.label_code(l), rb, state);
                    if let (Some(va), Some(vb)) = (va, vb) {
                        if va != vb {
                            diags.push(
                                Diagnostic::on_statement(
                                    DiagnosticCode::WriteRace,
                                    a.name(),
                                    format!(
                                        "statements `{}` and `{}` are both enabled at a \
                                         reachable state and write different values \
                                         ({va} vs {vb}) to `{var}` — the outcome depends \
                                         on scheduling",
                                        a.name(),
                                        b.name()
                                    ),
                                )
                                .with_witnesses(vec![witness_state(space, state)]),
                            );
                            break 'vars;
                        }
                    }
                }
            }
        }
    }
}

/// KPT009: the eq. (25) circularity behind Figure 1. A statement guarded
/// by `K_i(φ)` that itself modifies the variables of `φ` — directly, or
/// through a statement it feeds — makes the knowledge fixpoint
/// non-monotone, and the protocol "may have no solution" (the paper's
/// Figure 1 provably has none).
fn check_circularity(program: &Program, diags: &mut Vec<Diagnostic>) {
    let space = program.space();
    let stmts: Vec<&Statement> = program.statements().iter().collect();

    let writes: Vec<BTreeSet<VarId>> = stmts
        .iter()
        .map(|s| {
            s.assignments()
                .iter()
                .filter_map(|(v, _)| space.var(v).ok())
                .collect()
        })
        .collect();
    let reads: Vec<BTreeSet<VarId>> = stmts.iter().map(|s| guard_reads(space, s)).collect();

    for (idx, stmt) in stmts.iter().enumerate() {
        let Guard::Formula(f) = stmt.guard() else {
            continue;
        };
        let mut tops = Vec::new();
        top_level_knowledge(f, &mut tops);
        for (agent, body) in &tops {
            let mut subject: BTreeSet<VarId> = BTreeSet::new();
            collect_formula_vars(space, body, &mut subject);
            if subject.is_empty() {
                continue;
            }
            let direct = !writes[idx].is_disjoint(&subject);
            let via = stmts.iter().enumerate().find(|(j, _)| {
                *j != idx
                    && !reads[*j].is_disjoint(&writes[idx])
                    && !writes[*j].is_disjoint(&subject)
            });
            if direct || via.is_some() {
                let how = if direct {
                    "this statement itself modifies them".to_owned()
                } else {
                    format!(
                        "statement `{}` reads this statement's writes and modifies them",
                        stmts[via.expect("checked").0].name()
                    )
                };
                diags.push(Diagnostic::on_guard(
                    DiagnosticCode::KnowledgeCircularity,
                    stmt.name(),
                    format!(
                        "guard tests `K{{{agent}}}` over variables whose values the \
                         protocol changes in response ({how}); the eq. (25) fixpoint \
                         is non-monotone and the protocol may have no solution \
                         (cf. Figure 1)"
                    ),
                ));
            }
        }
    }
}

/// Every state variable a statement's guard reads, knowledge bodies
/// included; `Guard::Pred` reads are detected semantically.
pub(crate) fn guard_reads(
    space: &std::sync::Arc<kpt_state::StateSpace>,
    stmt: &Statement,
) -> BTreeSet<VarId> {
    match stmt.guard() {
        Guard::Always => BTreeSet::new(),
        Guard::Pred(p) => pred_reads(space, p),
        Guard::Formula(f) => {
            let mut out = BTreeSet::new();
            collect_formula_vars(space, f, &mut out);
            out
        }
    }
}

fn pred_reads(space: &std::sync::Arc<kpt_state::StateSpace>, p: &Predicate) -> BTreeSet<VarId> {
    space.vars().filter(|&v| !p.is_independent_of(v)).collect()
}

/// All identifiers of `f` (knowledge bodies included) that name state
/// variables.
pub(crate) fn collect_formula_vars(
    space: &std::sync::Arc<kpt_state::StateSpace>,
    f: &Formula,
    out: &mut BTreeSet<VarId>,
) {
    match f {
        Formula::Const(_) => {}
        Formula::BoolVar(n) => {
            if let Ok(v) = space.var(n) {
                out.insert(v);
            }
        }
        Formula::Cmp(_, a, b) => {
            let mut ids = BTreeSet::new();
            crate::erase::expr_idents(a, &mut ids);
            crate::erase::expr_idents(b, &mut ids);
            for n in ids {
                if let Ok(v) = space.var(&n) {
                    out.insert(v);
                }
            }
        }
        Formula::Not(g) | Formula::Forall(_, g) | Formula::Exists(_, g) | Formula::Knows(_, g) => {
            collect_formula_vars(space, g, out);
        }
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) | Formula::Iff(a, b) => {
            collect_formula_vars(space, a, out);
            collect_formula_vars(space, b, out);
        }
    }
}
