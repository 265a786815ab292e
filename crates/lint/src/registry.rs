//! The in-tree model registry and the registry lint driver.
//!
//! Every model the repository ships — the paper figures, the muddy
//! children, the kpt-seqtrans models, the BDD-scale escape hatch, and the
//! textual scenario zoo — together with the exact diagnostic codes the
//! linter is expected to produce for it. The `kpt_lint` CLI turns these
//! expectations into its exit code and CI asserts them.

use kpt_seqtrans::{figure3_kbp, ModelOptions, StandardModel};
use kpt_unity::Program;

use crate::{lint_program_with, lint_source, LintOptions, LintReport};

/// One registry model and its expected lint verdict.
pub struct RegistryCase {
    /// Registry name (CLI selector).
    pub name: &'static str,
    /// The elaborated program.
    pub program: Program,
    /// The textual `.kpt` source, for models that have one (the zoo) —
    /// these are linted through [`lint_source`], so their diagnostics
    /// carry byte spans.
    pub source: Option<String>,
    /// The exact diagnostic codes this model is expected to produce at
    /// full depth, sorted.
    pub expected: &'static [&'static str],
}

/// All in-tree models with their expected verdicts.
pub fn registry() -> Vec<RegistryCase> {
    let model = StandardModel::build(2, 2, ModelOptions::default()).expect("standard model builds");
    let mut cases = vec![
        // Figure 1 is the paper's no-solution counterexample; the linter
        // must flag its knowledge circularity — both the symbolic KPT009
        // analysis and the syntactic KPT011 dependency cycle — and
        // nothing else.
        RegistryCase {
            name: "figure1",
            program: kpt_core::figure1()
                .expect("figure1 builds")
                .program()
                .clone(),
            source: None,
            expected: &["KPT009", "KPT011"],
        },
        RegistryCase {
            name: "figure2-weak",
            program: kpt_core::figure2("~y")
                .expect("figure2 builds")
                .program()
                .clone(),
            source: None,
            expected: &[],
        },
        RegistryCase {
            name: "figure2-strong",
            program: kpt_core::figure2("~y /\\ x")
                .expect("figure2 builds")
                .program()
                .clone(),
            source: None,
            expected: &[],
        },
        RegistryCase {
            name: "muddy-children-2",
            program: kpt_core::muddy_children_n(2)
                .expect("muddy children builds")
                .program()
                .clone(),
            source: None,
            expected: &[],
        },
        RegistryCase {
            name: "muddy-children-2-memory",
            program: kpt_core::muddy_children_with_memory_n(2)
                .expect("muddy children builds")
                .program()
                .clone(),
            source: None,
            expected: &[],
        },
        RegistryCase {
            name: "seqtrans-fig3-2x2",
            program: figure3_kbp(&model)
                .expect("figure 3 KBP builds")
                .program()
                .clone(),
            source: None,
            expected: &[],
        },
        RegistryCase {
            name: "seqtrans-std-2x2",
            program: model.program().clone(),
            source: None,
            expected: &[],
        },
        RegistryCase {
            name: "bdd-escape",
            program: kpt_core::escape_hatch()
                .expect("escape hatch builds")
                .program()
                .clone(),
            source: None,
            expected: &[],
        },
    ];
    // The scenario zoo: textual `.kpt` models, each with its lint verdict
    // baked in next to the source (see `kpt_core::zoo`). Their sources
    // ride along so registry lints produce spanned diagnostics.
    for e in kpt_core::zoo().expect("zoo sources parse") {
        cases.push(RegistryCase {
            name: e.name,
            program: e.kbp.program().clone(),
            source: Some(e.source),
            expected: e.expected_lint,
        });
    }
    cases
}

/// Lint every case, in registry order.
pub fn lint_registry(cases: &[RegistryCase], options: &LintOptions) -> Vec<LintReport> {
    cases.iter().map(|case| lint_case(case, options)).collect()
}

fn lint_case(case: &RegistryCase, options: &LintOptions) -> LintReport {
    match &case.source {
        Some(src) => lint_source(src, options).expect("registry sources elaborate"),
        None => lint_program_with(&case.program, options),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_verdicts_hold_at_full_depth() {
        let cases = registry();
        let reports = lint_registry(&cases, &LintOptions::default());
        for (case, report) in cases.iter().zip(&reports) {
            let codes: Vec<&str> = report.codes().iter().map(|c| c.code()).collect();
            assert_eq!(
                codes, case.expected,
                "{}: expected {:?}, got {report}",
                case.name, case.expected
            );
        }
    }

    #[test]
    fn figure1_reports_both_circularity_codes() {
        let cases = registry();
        let fig1 = cases.iter().find(|c| c.name == "figure1").unwrap();
        let report = lint_program_with(&fig1.program, &LintOptions::default());
        assert!(report.has(crate::DiagnosticCode::KnowledgeCircularity));
        assert!(report.has(crate::DiagnosticCode::KnowledgeDependencyCycle));
    }

    #[test]
    fn zoo_cases_carry_source_spans() {
        let cases = registry();
        let reports = lint_registry(&cases, &LintOptions::default());
        for (case, report) in cases.iter().zip(&reports) {
            if case.source.is_none() {
                continue;
            }
            for d in &report.diagnostics {
                assert!(
                    d.span.is_some(),
                    "{}: diagnostic {} has no span",
                    case.name,
                    d.code
                );
            }
        }
    }
}
