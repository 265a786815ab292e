//! The paper's counterexample programs, Figures 1 and 2, and the escape-hatch
//! fixture, as constructors.
//!
//! * [`figure1`] — the knowledge-based protocol **with no solution**:
//!   technically, `ŜP` is not monotone, so the eq. (25) fixpoint need not
//!   exist, and for this program it does not.
//! * [`figure2`] — the knowledge-based protocol whose strongest invariant
//!   is **not monotonic in the initial condition**: with `init = ¬y` the
//!   solution is `¬y` and `true ↦ z` holds; with the *stronger*
//!   `init = ¬y ∧ x` the solution is `x` and `true ↦ z` fails.
//! * [`escape_hatch`] — a 159-free-state KBP too large for the exhaustive
//!   solver, the fixture for the symbolic backend and the linter at scale.
//!
//! These are regenerated end-to-end by the `figure1_no_solution` and
//! `figure2_nonmonotonic` examples and verified in this module's tests
//! (experiments E4 and E5 in `EXPERIMENTS.md`).

use std::sync::Arc;

use kpt_state::StateSpace;
use kpt_unity::{Program, Statement, UnityError};

use crate::kbp::Kbp;

/// Figure 1 of the paper:
///
/// ```text
/// var shared, x : boolean
/// processes V₀ = {shared}, V₁ = {shared, x}
/// init ¬shared ∧ ¬x
/// assign
///   shared := true if K₀(¬x)
/// ⫾ x, shared := true, false if shared
/// ```
///
/// # Errors
/// Never fails in practice; the `Result` propagates builder plumbing.
pub fn figure1() -> Result<Kbp, UnityError> {
    let space = StateSpace::builder()
        .bool_var("shared")?
        .bool_var("x")?
        .build()?;
    let program = Program::builder("figure1", &space)
        .init_str("~shared /\\ ~x")?
        .process("P0", ["shared"])?
        .process("P1", ["shared", "x"])?
        .statement(
            Statement::new("grant")
                .guard_str("K{P0}(~x)")?
                .assign_str("shared", "1")?,
        )
        .statement(
            Statement::new("take")
                .guard_str("shared")?
                .assign_str("x", "1")?
                .assign_str("shared", "0")?,
        )
        .build()?;
    Ok(Kbp::new(program))
}

/// Figure 2 of the paper:
///
/// ```text
/// var x, y, z : boolean
/// processes V₀ = {y}, V₁ = {z}
/// assign
///   y := true if K₀(x)
/// ⫾ z := true if K₁(¬y)
/// ```
///
/// The initial condition is a parameter: the paper contrasts `init = ¬y`
/// with the stronger `init = ¬y ∧ x`. Pass the init as concrete syntax.
///
/// # Errors
/// Parse/evaluation errors in `init_src`.
pub fn figure2(init_src: &str) -> Result<Kbp, UnityError> {
    let space = figure2_space()?;
    let program = Program::builder("figure2", &space)
        .init_str(init_src)?
        .process("P0", ["y"])?
        .process("P1", ["z"])?
        .statement(
            Statement::new("set_y")
                .guard_str("K{P0}(x)")?
                .assign_str("y", "1")?,
        )
        .statement(
            Statement::new("set_z")
                .guard_str("K{P1}(~y)")?
                .assign_str("z", "1")?,
        )
        .build()?;
    Ok(Kbp::new(program))
}

/// The symbolic-backend escape hatch: a counter `i < 80` with a `done`
/// flag raised once process `P` knows `i ≥ 40`.
///
/// ```text
/// var i : 0..79, done : boolean
/// processes P = {i}
/// init i = 0 ∧ ¬done
/// assign
///   i := i + 1 if i < 79
/// ⫾ done := true if K_P(i ≥ 40)
/// ```
///
/// 159 of its 160 states are free, past the 64-bit subset mask of
/// `solve_exhaustive` (`SearchTooLarge`); the iterative and symbolic
/// solvers converge on it.
///
/// # Errors
/// Never fails in practice; the `Result` propagates builder plumbing.
pub fn escape_hatch() -> Result<Kbp, UnityError> {
    let space = StateSpace::builder()
        .nat_var("i", 80)?
        .bool_var("done")?
        .build()?;
    let program = Program::builder("bdd-escape", &space)
        .init_str("i = 0 && !done")?
        .process("P", ["i"])?
        .statement(
            Statement::new("inc")
                .guard_str("i < 79")?
                .assign_str("i", "i + 1")?,
        )
        .statement(
            Statement::new("finish")
                .guard_str("K{P}(i >= 40)")?
                .assign_str("done", "1")?,
        )
        .build()?;
    Ok(Kbp::new(program))
}

/// The state space of Figure 2 (three booleans `x, y, z`).
///
/// # Errors
/// Never fails in practice.
pub fn figure2_space() -> Result<Arc<StateSpace>, UnityError> {
    Ok(StateSpace::builder()
        .bool_var("x")?
        .bool_var("y")?
        .bool_var("z")?
        .build()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kbp::IterativeOutcome;
    use kpt_logic::{parse_formula, EvalContext};
    use kpt_state::Predicate;

    #[test]
    fn fig1_has_no_solution() {
        // Experiment E4: the exhaustive solver proves the solution set of
        // Figure 1 is empty.
        let kbp = figure1().unwrap();
        let sols = kbp.solve_exhaustive(16).unwrap();
        assert!(sols.is_empty(), "solutions: {:?}", sols.solutions());
        assert_eq!(sols.candidates_checked(), 8); // 3 non-init states
        assert!(sols.strongest().is_none());
    }

    #[test]
    fn fig1_iterative_solver_does_not_converge() {
        let kbp = figure1().unwrap();
        match kbp.solve_iterative(64).unwrap() {
            IterativeOutcome::Converged { .. } => {
                panic!("figure 1 must not have a solution")
            }
            IterativeOutcome::Cycle { .. } | IterativeOutcome::Inconclusive { .. } => {}
        }
    }

    #[test]
    fn fig2_weak_init_solution_is_not_y() {
        // Experiment E5, part 1: with init = ¬y the solution is ¬y.
        let kbp = figure2("~y").unwrap();
        let sols = kbp.solve_exhaustive(16).unwrap();
        let space = kbp.program().space().clone();
        let not_y = EvalContext::new(&space)
            .eval(&parse_formula("~y").unwrap())
            .unwrap();
        assert!(
            sols.solutions().contains(&not_y),
            "¬y must solve figure 2 with init ¬y; got {:?}",
            sols.solutions()
        );
        assert_eq!(sols.strongest(), Some(&not_y));
    }

    #[test]
    fn fig2_strong_init_solution_is_x() {
        // Experiment E5, part 2: with init = ¬y ∧ x the solution is x.
        let kbp = figure2("~y /\\ x").unwrap();
        let sols = kbp.solve_exhaustive(16).unwrap();
        let space = kbp.program().space().clone();
        let x = EvalContext::new(&space)
            .eval(&parse_formula("x").unwrap())
            .unwrap();
        assert!(
            sols.solutions().contains(&x),
            "x must solve figure 2 with init ¬y∧x; got {:?}",
            sols.solutions()
        );
        assert_eq!(sols.strongest(), Some(&x));
    }

    #[test]
    fn fig2_si_not_monotonic_in_init() {
        // ¬y∧x ⊆ ¬y (stronger init), but the solutions are ¬y vs x —
        // and x ⊄ ¬y: monotonicity fails.
        let weak = figure2("~y").unwrap().solve_exhaustive(16).unwrap();
        let strong = figure2("~y /\\ x").unwrap().solve_exhaustive(16).unwrap();
        let si_weak = weak.strongest().unwrap();
        let si_strong = strong.strongest().unwrap();
        assert!(
            !si_strong.entails(si_weak),
            "strengthening init must NOT shrink SI here — the paper's point"
        );
    }

    #[test]
    fn fig2_liveness_flips_with_stronger_init() {
        // true ↦ z holds for init = ¬y, fails for init = ¬y ∧ x.
        for (init, expect) in [("~y", true), ("~y /\\ x", false)] {
            let kbp = figure2(init).unwrap();
            let sols = kbp.solve_exhaustive(16).unwrap();
            let si = sols.strongest().expect("figure 2 has solutions").clone();
            let compiled = kbp.compile_at(&si).unwrap();
            assert_eq!(compiled.si(), &si);
            let space = kbp.program().space().clone();
            let z = Predicate::var_is_true(&space, space.var("z").unwrap());
            assert_eq!(
                compiled.leads_to_holds(&Predicate::tt(&space), &z),
                expect,
                "init = {init}"
            );
        }
    }

    #[test]
    fn fig2_safety_also_flips() {
        // With init = ¬y the program satisfies invariant ¬y; with the
        // stronger init it does not (y is eventually set).
        let weak = figure2("~y").unwrap();
        let si_w = weak
            .solve_exhaustive(16)
            .unwrap()
            .strongest()
            .unwrap()
            .clone();
        let cw = weak.compile_at(&si_w).unwrap();
        let space = weak.program().space().clone();
        let not_y = Predicate::var_is_true(&space, space.var("y").unwrap()).negate();
        assert!(cw.invariant(&not_y));

        let strong = figure2("~y /\\ x").unwrap();
        let si_s = strong
            .solve_exhaustive(16)
            .unwrap()
            .strongest()
            .unwrap()
            .clone();
        let cs = strong.compile_at(&si_s).unwrap();
        assert!(!cs.invariant(&not_y));
    }
}
