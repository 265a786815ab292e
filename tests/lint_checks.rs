//! Seeded-defect suite for the `kpt-lint` static analyzer.
//!
//! One deliberately broken program variant per diagnostic code, each
//! asserting that *exactly* that code fires — plus zero-findings checks
//! over every healthy in-tree model (the Figure 2 variants, muddy
//! children, the §6 standard protocol and Figure-3 KBP, and the
//! symbolic-scale escape-hatch instance). Figure 1 is the one model that
//! is *supposed* to be flagged: its eq. (25) circularity, reported both
//! symbolically (`KPT009`) and syntactically by the dataflow pass
//! (`KPT011`). The dataflow codes (`KPT010`-`KPT012`) are seeded at
//! `--depth dataflow` so the symbolic confirmations cannot mask them,
//! and the span tests drive `.kpt` text through `lint_source` and check
//! the caret rendering points at the guilty construct.

use knowledge_pt::prelude::*;
use knowledge_pt::seqtrans::{figure3_kbp, ModelOptions, StandardModel};

/// Codes of a report, as stable strings, in emission order.
fn codes(report: &LintReport) -> Vec<&'static str> {
    report.codes().iter().map(|c| c.code()).collect()
}

fn lint_codes(program: &Program) -> Vec<&'static str> {
    codes(&knowledge_pt::lint::lint_program(program))
}

// ---------------------------------------------------------------- seeded

#[test]
fn kpt001_unknown_identifier() {
    let space = StateSpace::builder()
        .bool_var("x")
        .unwrap()
        .build()
        .unwrap();
    let program = Program::builder("seed-001", &space)
        .init_str("~x")
        .unwrap()
        .statement(
            Statement::new("s")
                .guard_str("ghost")
                .unwrap()
                .assign_str("x", "1")
                .unwrap(),
        )
        .build()
        .unwrap();
    let report = knowledge_pt::lint::lint_program(&program);
    assert_eq!(codes(&report), ["KPT001"]);
    assert_eq!(report.error_count(), 1);
    // Errors in the cheap passes suppress the symbolic pass.
    assert!(!report.symbolic_ran);
}

#[test]
fn kpt001_unknown_assignment_target() {
    let space = StateSpace::builder()
        .bool_var("x")
        .unwrap()
        .build()
        .unwrap();
    let program = Program::builder("seed-001b", &space)
        .init_str("~x")
        .unwrap()
        .statement(Statement::new("s").assign_str("phantom", "1").unwrap())
        .build()
        .unwrap();
    assert_eq!(lint_codes(&program), ["KPT001"]);
}

#[test]
fn kpt002_update_out_of_range() {
    let space = StateSpace::builder()
        .nat_var("i", 4)
        .unwrap()
        .build()
        .unwrap();
    // `i := i + 1` with no guard overflows the domain at i = 3.
    let program = Program::builder("seed-002", &space)
        .init_str("i = 0")
        .unwrap()
        .statement(Statement::new("inc").assign_str("i", "i + 1").unwrap())
        .build()
        .unwrap();
    let report = knowledge_pt::lint::lint_program(&program);
    assert_eq!(codes(&report), ["KPT002"]);
    // The finding carries the offending state as a witness.
    let d = &report.diagnostics[0];
    assert_eq!(d.witnesses.len(), 1);
    assert!(d.witnesses[0]
        .assignment
        .iter()
        .any(|(var, val)| var == "i" && val == "3"));
}

#[test]
fn kpt003_param_shadows_variable() {
    let space = StateSpace::builder()
        .bool_var("x")
        .unwrap()
        .bool_var("y")
        .unwrap()
        .build()
        .unwrap();
    let program = Program::builder("seed-003", &space)
        .init_str("~x /\\ ~y")
        .unwrap()
        .statement(
            Statement::new("s")
                .param("x", 1)
                .guard_str("x = 1")
                .unwrap()
                .assign_str("y", "1")
                .unwrap(),
        )
        .build()
        .unwrap();
    let report = knowledge_pt::lint::lint_program(&program);
    assert_eq!(codes(&report), ["KPT003"]);
    // A shadowing warning still lets the symbolic pass run.
    assert!(report.symbolic_ran);
}

#[test]
fn kpt004_empty_init() {
    let space = StateSpace::builder()
        .bool_var("x")
        .unwrap()
        .build()
        .unwrap();
    let program = Program::builder("seed-004", &space)
        .init_str("x /\\ ~x")
        .unwrap()
        .statement(
            Statement::new("s")
                .guard_str("x")
                .unwrap()
                .assign_str("x", "1")
                .unwrap(),
        )
        .build()
        .unwrap();
    assert_eq!(lint_codes(&program), ["KPT004"]);
}

#[test]
fn kpt005_guard_reads_outside_view() {
    let space = StateSpace::builder()
        .bool_var("x")
        .unwrap()
        .bool_var("z")
        .unwrap()
        .build()
        .unwrap();
    // P0 sees only x, but its knowledge-guarded statement also tests z.
    let program = Program::builder("seed-005", &space)
        .init_str("~x /\\ ~z")
        .unwrap()
        .process("P0", ["x"])
        .unwrap()
        .statement(
            Statement::new("s")
                .guard_str("K{P0}(x) /\\ z")
                .unwrap()
                .assign_str("x", "1")
                .unwrap(),
        )
        .build()
        .unwrap();
    assert_eq!(lint_codes(&program), ["KPT005"]);
}

#[test]
fn kpt005_update_reads_outside_view() {
    let space = StateSpace::builder()
        .nat_var("a", 3)
        .unwrap()
        .nat_var("b", 3)
        .unwrap()
        .build()
        .unwrap();
    // The guard is view-sound but the update copies a variable P0 cannot
    // see. Writing outside the view is fine; *reading* is not.
    let program = Program::builder("seed-005b", &space)
        .init_str("a = 0 /\\ b = 0")
        .unwrap()
        .process("P0", ["a"])
        .unwrap()
        .statement(
            Statement::new("copy")
                .guard_str("K{P0}(a = 0)")
                .unwrap()
                .assign_str("a", "b")
                .unwrap(),
        )
        .build()
        .unwrap();
    assert_eq!(lint_codes(&program), ["KPT005"]);
}

#[test]
fn kpt006_unknown_process() {
    let space = StateSpace::builder()
        .bool_var("x")
        .unwrap()
        .build()
        .unwrap();
    let program = Program::builder("seed-006", &space)
        .init_str("~x")
        .unwrap()
        .statement(
            Statement::new("s")
                .guard_str("K{Nobody}(x)")
                .unwrap()
                .assign_str("x", "1")
                .unwrap(),
        )
        .build()
        .unwrap();
    assert_eq!(lint_codes(&program), ["KPT006"]);
}

#[test]
fn kpt007_dead_guard() {
    let space = StateSpace::builder()
        .nat_var("i", 4)
        .unwrap()
        .build()
        .unwrap();
    // `i` never reaches 5 (it is not even in the domain), so the guard is
    // unsatisfiable within the strongest invariant.
    let program = Program::builder("seed-007", &space)
        .init_str("i = 0")
        .unwrap()
        .statement(
            Statement::new("inc")
                .guard_str("i < 3")
                .unwrap()
                .assign_str("i", "i + 1")
                .unwrap(),
        )
        .statement(
            Statement::new("dead")
                .guard_str("i = 5")
                .unwrap()
                .assign_str("i", "0")
                .unwrap(),
        )
        .build()
        .unwrap();
    let report = knowledge_pt::lint::lint_program(&program);
    // The interval pass proves the same guard dead (`i` never leaves
    // [0, 3]), so the cheap KPT010 verdict rides along with KPT007 —
    // the soundness direction the differential fuzz campaign pins.
    assert_eq!(codes(&report), ["KPT007", "KPT010"]);
    assert_eq!(report.diagnostics[0].statement.as_deref(), Some("dead"));
}

#[test]
fn kpt007_requires_the_symbolic_pass() {
    let space = StateSpace::builder()
        .nat_var("i", 4)
        .unwrap()
        .build()
        .unwrap();
    let program = Program::builder("seed-007b", &space)
        .init_str("i = 0")
        .unwrap()
        .statement(
            Statement::new("dead")
                .guard_str("i = 3")
                .unwrap()
                .assign_str("i", "0")
                .unwrap(),
        )
        .build()
        .unwrap();
    // Below dataflow depth nothing can prove the guard dead.
    let report = knowledge_pt::lint::lint_program_with(&program, &LintOptions::fast());
    assert!(!report.dataflow_ran);
    assert!(!report.symbolic_ran);
    assert!(report.is_clean());
    // The dataflow pass already catches it without the symbolic engine:
    // `i` stays 0, so `i = 3` is interval-dead.
    let report =
        knowledge_pt::lint::lint_program_with(&program, &LintOptions::up_to(Depth::Dataflow));
    assert!(report.dataflow_ran);
    assert!(!report.symbolic_ran);
    assert_eq!(codes(&report), ["KPT010"]);
}

#[test]
fn kpt008_write_write_race() {
    let space = StateSpace::builder()
        .bool_var("x")
        .unwrap()
        .build()
        .unwrap();
    // Two unconditional statements drive x to different values: the final
    // state depends on the scheduler.
    let program = Program::builder("seed-008", &space)
        .init_str("~x")
        .unwrap()
        .statement(Statement::new("set").assign_str("x", "1").unwrap())
        .statement(Statement::new("clear").assign_str("x", "0").unwrap())
        .build()
        .unwrap();
    let report = knowledge_pt::lint::lint_program(&program);
    assert_eq!(codes(&report), ["KPT008"]);
    assert_eq!(report.diagnostics[0].witnesses.len(), 1);
}

#[test]
fn kpt008_race_found_past_the_first_overlap_state_on_a_large_space() {
    // 2^21 states. `clear` and `copy` agree wherever y = 0, including the
    // lowest-indexed overlap state; the race shows only at y = 1, so the
    // check must look past a single witness.
    let space = StateSpace::builder()
        .bool_var("y")
        .unwrap()
        .bool_var("x")
        .unwrap()
        .nat_var("z", 1 << 19)
        .unwrap()
        .build()
        .unwrap();
    let program = Program::builder("seed-008-large", &space)
        .init_str("z = 0")
        .unwrap()
        .statement(Statement::new("clear").assign_str("x", "0").unwrap())
        .statement(Statement::new("copy").assign_str("x", "y").unwrap())
        .build()
        .unwrap();
    let report = knowledge_pt::lint::lint_program(&program);
    assert_eq!(codes(&report), ["KPT008"]);
    let witness = report.diagnostics[0].witnesses[0].to_string();
    assert!(witness.contains("y=true"), "witness {witness}");
}

#[test]
fn kpt009_figure1_circularity() {
    // The paper's Figure 1: `grant` is guarded by K₀(¬x) while `take` —
    // enabled by grant's own write — sets x. Eq. (25) is non-monotone and
    // the protocol provably has no solution; the linter flags exactly
    // this — the symbolic KPT009 and its syntactic dataflow shadow
    // KPT011, both anchored on `grant`.
    let kbp = figure1().unwrap();
    let report = knowledge_pt::lint::lint_kbp(&kbp);
    assert_eq!(codes(&report), ["KPT009", "KPT011"]);
    for d in &report.diagnostics {
        assert_eq!(d.statement.as_deref(), Some("grant"), "{d}");
    }
    assert_eq!(report.warning_count(), 2);
    assert_eq!(report.error_count(), 0);
}

// -------------------------------------------------- dataflow (KPT010-012)

/// Dataflow-depth options: the interval/dependency/reachability passes
/// run, the symbolic confirmations do not — so the seeded defects below
/// assert *exactly* their dataflow code.
fn dataflow_codes(program: &Program) -> Vec<&'static str> {
    codes(&knowledge_pt::lint::lint_program_with(
        program,
        &LintOptions::up_to(Depth::Dataflow),
    ))
}

#[test]
fn kpt010_interval_dead_guard() {
    let space = StateSpace::builder()
        .nat_var("i", 8)
        .unwrap()
        .build()
        .unwrap();
    // `i` climbs from 0 but the guard `i < 3` caps the box at [0, 3];
    // `i = 7` can never hold, and the interval fixpoint proves it.
    let program = Program::builder("seed-010", &space)
        .init_str("i = 0")
        .unwrap()
        .statement(
            Statement::new("step")
                .guard_str("i < 3")
                .unwrap()
                .assign_str("i", "i + 1")
                .unwrap(),
        )
        .statement(
            Statement::new("never")
                .guard_str("i = 7")
                .unwrap()
                .assign_str("i", "0")
                .unwrap(),
        )
        .build()
        .unwrap();
    let report =
        knowledge_pt::lint::lint_program_with(&program, &LintOptions::up_to(Depth::Dataflow));
    assert_eq!(codes(&report), ["KPT010"]);
    assert_eq!(report.diagnostics[0].statement.as_deref(), Some("never"));
    // The full pipeline must confirm symbolically: KPT010 ⊑ KPT007.
    let full = knowledge_pt::lint::lint_program(&program);
    assert_eq!(codes(&full), ["KPT007", "KPT010"]);
}

#[test]
fn kpt011_knowledge_dependency_cycle() {
    // Figure 1 again, but the cheap pass alone: the grant/take read-write
    // cycle is detected purely syntactically.
    let kbp = figure1().unwrap();
    let report =
        knowledge_pt::lint::lint_program_with(kbp.program(), &LintOptions::up_to(Depth::Dataflow));
    assert_eq!(codes(&report), ["KPT011"]);
    assert!(!report.symbolic_ran);
    assert_eq!(report.diagnostics[0].statement.as_deref(), Some("grant"));
}

#[test]
fn kpt012_unimplementable_knowledge() {
    let space = StateSpace::builder()
        .bool_var("x")
        .unwrap()
        .bool_var("y")
        .unwrap()
        .bool_var("h")
        .unwrap()
        .build()
        .unwrap();
    // P0 observes only x. `h` is flipped by an independent statement and
    // is neither init-correlated with x nor ever funnelled into anything
    // P0 can see — so `K{P0}(h)` can never be established.
    let program = Program::builder("seed-012", &space)
        .init_str("~x /\\ ~y /\\ ~h")
        .unwrap()
        .process("P0", ["x"])
        .unwrap()
        .statement(
            Statement::new("flip")
                .guard_str("~h")
                .unwrap()
                .assign_str("h", "1")
                .unwrap(),
        )
        .statement(
            Statement::new("blocked")
                .guard_str("K{P0}(h)")
                .unwrap()
                .assign_str("y", "1")
                .unwrap(),
        )
        .build()
        .unwrap();
    assert_eq!(dataflow_codes(&program), ["KPT012"]);
}

#[test]
fn kpt012_stays_silent_when_information_flows() {
    let space = StateSpace::builder()
        .bool_var("x")
        .unwrap()
        .bool_var("h")
        .unwrap()
        .build()
        .unwrap();
    // Same hidden variable, but `reveal` copies h into P0's view — the
    // reachable-information closure picks it up and KPT012 stays silent.
    let program = Program::builder("seed-012-ok", &space)
        .init_str("~x /\\ ~h")
        .unwrap()
        .process("P0", ["x"])
        .unwrap()
        .statement(
            Statement::new("flip")
                .guard_str("~h")
                .unwrap()
                .assign_str("h", "1")
                .unwrap(),
        )
        .statement(
            Statement::new("reveal")
                .guard_str("h")
                .unwrap()
                .assign_str("x", "1")
                .unwrap(),
        )
        .statement(
            Statement::new("act")
                .guard_str("K{P0}(h)")
                .unwrap()
                .assign_str("x", "0")
                .unwrap(),
        )
        .build()
        .unwrap();
    let report =
        knowledge_pt::lint::lint_program_with(&program, &LintOptions::up_to(Depth::Dataflow));
    assert!(
        !report.has(DiagnosticCode::UnimplementableKnowledge),
        "{report}"
    );
}

// --------------------------------------------------------------- healthy

#[test]
fn healthy_models_are_clean() {
    let mut programs: Vec<(String, Program)> = Vec::new();
    for init in ["~y", "~y /\\ x"] {
        programs.push((
            format!("figure2[{init}]"),
            figure2(init).unwrap().program().clone(),
        ));
    }
    programs.push((
        "muddy".into(),
        knowledge_pt::core::muddy_children_n(2)
            .unwrap()
            .program()
            .clone(),
    ));
    programs.push((
        "muddy+memory".into(),
        knowledge_pt::core::muddy_children_with_memory_n(2)
            .unwrap()
            .program()
            .clone(),
    ));
    let model = StandardModel::build(2, 2, ModelOptions::default()).unwrap();
    programs.push(("seqtrans-std".into(), model.program().clone()));
    programs.push((
        "seqtrans-fig3".into(),
        figure3_kbp(&model).unwrap().program().clone(),
    ));

    for (name, program) in &programs {
        let report = knowledge_pt::lint::lint_program(program);
        assert!(report.is_clean(), "{name} must lint clean, got: {report}");
        assert!(report.dataflow_ran, "{name} must run the dataflow pass");
        assert!(report.symbolic_ran, "{name} must reach the symbolic pass");
    }
}

#[test]
fn escape_hatch_model_is_clean() {
    // The 159-free-state instance the exhaustive solver rejects: the
    // linter's symbolic pass must still handle it (and find nothing).
    let kbp = knowledge_pt::core::escape_hatch().unwrap();
    let report = knowledge_pt::lint::lint_kbp(&kbp);
    assert!(report.is_clean(), "escape hatch: {report}");
    assert!(report.symbolic_ran);
}

// ------------------------------------------------------------- reporting

#[test]
fn report_json_round_trips_through_the_obs_parser() {
    let report = knowledge_pt::lint::lint_kbp(&figure1().unwrap());
    let json = report.to_json();
    let value = knowledge_pt::obs::parse_json(&json).expect("valid JSON");
    assert_eq!(
        value.get("program").and_then(|v| v.as_str()),
        Some("figure1")
    );
    let diags = value
        .get("diagnostics")
        .and_then(|v| v.as_array())
        .expect("diagnostics array");
    // Figure 1's circularity pair: the syntactic KPT011 and symbolic KPT009.
    assert_eq!(diags.len(), 2);
    let kpt009 = diags
        .iter()
        .find(|d| d.get("code").and_then(|v| v.as_str()) == Some("KPT009"))
        .expect("KPT009 in the JSON report");
    assert_eq!(
        kpt009.get("paper_ref").and_then(|v| v.as_str()),
        Some("eq. (25), Figure 1")
    );
    assert!(diags
        .iter()
        .any(|d| d.get("code").and_then(|v| v.as_str()) == Some("KPT011")));
}

#[test]
fn every_code_has_severity_and_paper_reference() {
    assert_eq!(DiagnosticCode::ALL.len(), 12);
    for code in DiagnosticCode::ALL {
        assert!(code.code().starts_with("KPT"));
        assert!(!code.paper_ref().is_empty());
        assert_eq!(DiagnosticCode::from_code(code.code()), Some(code));
        let _ = code.severity();
        let _ = code.depth();
    }
}

// ----------------------------------------------------------------- spans

#[test]
fn lint_source_diagnostics_carry_spans_and_carets() {
    // A textual model with an interval-dead guard: `i` never exceeds 3,
    // so `never`'s guard is provably false. Every diagnostic produced by
    // lint_source must carry a byte span, and the caret rendering must
    // point into the guilty guard's text.
    let src = "\
program span_demo
declare
  i : nat<8>
init
  i = 0
assign
  step: i := i + 1 if i < 3
  [] never: i := 0 if i = 7
";
    let report =
        knowledge_pt::lint::lint_source(src, &LintOptions::default()).expect("source elaborates");
    assert!(
        report.has(DiagnosticCode::IntervalDeadGuard),
        "expected KPT010: {report}"
    );
    assert!(report.has(DiagnosticCode::DeadGuard), "expected KPT007");
    for d in &report.diagnostics {
        let span = d
            .span
            .unwrap_or_else(|| panic!("diagnostic {d} has no span"));
        assert!(span.start + span.len <= src.len(), "span inside the source");
    }
    // The dead guard's span covers its source text.
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == DiagnosticCode::IntervalDeadGuard)
        .unwrap();
    let span = d.span.unwrap();
    assert_eq!(&src[span.start..span.start + span.len], "i = 7");
    // Caret rendering: the line is echoed with a marker underneath.
    let rendered = report.render_source(src);
    assert!(
        rendered.contains("i = 7") && rendered.contains('^'),
        "caret rendering points at the guard:\n{rendered}"
    );
}

#[test]
fn spans_survive_the_json_report() {
    let src = "\
program span_json
declare
  x : boolean
init
  ~x
assign
  never: x := 1 if x /\\ ~x
";
    let report =
        knowledge_pt::lint::lint_source(src, &LintOptions::default()).expect("source elaborates");
    assert!(!report.diagnostics.is_empty());
    let value = knowledge_pt::obs::parse_json(&report.to_json()).expect("valid JSON");
    let diags = value
        .get("diagnostics")
        .and_then(|v| v.as_array())
        .expect("diagnostics array");
    for d in diags {
        let span = d.get("span").expect("span field present");
        let start = span
            .get("start")
            .and_then(|v| v.as_u64())
            .expect("span.start");
        let len = span.get("len").and_then(|v| v.as_u64()).expect("span.len");
        assert!((start + len) as usize <= src.len());
    }
}
