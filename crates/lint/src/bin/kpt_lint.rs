//! `kpt_lint` — run the static analyzer over in-tree models or `.kpt`
//! files.
//!
//! Usage: `kpt_lint [--json] [--depth D] [--deny CODES] [--allow CODES]
//! [--no-symbolic] [NAME | FILE.kpt ...]`
//!
//! With no arguments every registered model is linted, in registry
//! order. An argument that names an existing file (or ends in `.kpt`) is
//! read and linted through [`kpt_lint::lint_source`] — the same entry
//! point kpt-server's `lint` request uses — with parse errors *and*
//! findings rendered as caret diagnostics against the source. Other
//! arguments select registry models by name.
//!
//! * `--json` prints one JSON array of lint reports (spans included)
//!   instead of the human summary.
//! * `--depth decl|view|dataflow|symbolic` stops the pipeline after the
//!   named pass; `full` is an alias for `symbolic`. `--no-symbolic` keeps
//!   its historical meaning of skipping only the symbolic pass (the
//!   dataflow pass still runs).
//! * `--deny KPT008,KPT011` fails the run if any listed code fires, even
//!   at warning severity; `--allow KPT003` drops the listed codes from
//!   every report before verdicts are computed.
//!
//! The exit code encodes the expectation baked into the registry: the
//! healthy models must be clean and Figure 1 must carry exactly its
//! eq. (25) circularity warnings (`KPT009` from the symbolic pass, and
//! its syntactic shadow `KPT011` from the dataflow pass). Any other
//! finding — or a missing expected one — exits nonzero, which is what CI
//! asserts. Expected codes whose producing pass did not run (because of
//! `--depth`/`--no-symbolic`) are not held against the run. For file
//! arguments (no baked-in expectation) the run fails on parse errors,
//! error-severity findings, and denied codes; other warnings pass.

use std::process::ExitCode;

use kpt_lint::{
    lint_registry, lint_source, registry, Depth, DiagnosticCode, LintOptions, LintReport,
    RegistryCase,
};

fn print_human(case: &RegistryCase, report: &LintReport, expected: &[&str], ok: bool) {
    let verdict = if ok { "ok" } else { "UNEXPECTED" };
    println!(
        "== {} ({} finding{}, {}) ==",
        case.name,
        report.diagnostics.len(),
        if report.diagnostics.len() == 1 {
            ""
        } else {
            "s"
        },
        verdict
    );
    if report.diagnostics.is_empty() {
        println!("   clean");
    }
    match &case.source {
        // Source-backed cases point carets at the offending text.
        Some(src) if report.diagnostics.iter().any(|d| d.span.is_some()) => {
            for line in report.render_source(src).lines() {
                println!("   {line}");
            }
        }
        _ => {
            for d in &report.diagnostics {
                println!("   {d}");
            }
        }
    }
    if !ok {
        println!("   expected codes: {expected:?}");
    }
}

/// Is this CLI argument a `.kpt` file path rather than a registry name?
fn is_file_arg(arg: &str) -> bool {
    arg.ends_with(".kpt") || std::path::Path::new(arg).is_file()
}

/// Lint one on-disk `.kpt` file through the shared [`lint_source`] entry
/// point. Returns the report (when the source elaborates) and whether the
/// file passes: parse failures, error-severity findings, and denied codes
/// fail; other warnings pass.
fn lint_file(
    path: &str,
    options: &LintOptions,
    filter: &CodeFilter,
    json: bool,
) -> (Option<LintReport>, bool) {
    let src = match std::fs::read_to_string(path) {
        Ok(src) => src,
        Err(e) => {
            eprintln!("{path}: cannot read: {e}");
            return (None, false);
        }
    };
    match lint_source(&src, options) {
        Ok(mut report) => {
            filter.apply(&mut report);
            let ok = report.error_count() == 0 && !filter.denied(&report);
            if !json {
                println!(
                    "== {path} ({} finding{}, {}) ==",
                    report.diagnostics.len(),
                    if report.diagnostics.len() == 1 {
                        ""
                    } else {
                        "s"
                    },
                    if ok { "ok" } else { "errors" }
                );
                if report.diagnostics.is_empty() {
                    println!("   clean");
                }
                // Every lint_source diagnostic carries a span; point the
                // caret at the construct instead of echoing the name.
                for line in report.render_source(&src).lines() {
                    println!("   {line}");
                }
            }
            (Some(report), ok)
        }
        Err(e) => {
            // The caret rendering points at the offending span in-line.
            eprintln!("{path}: {}", e.render(&src));
            (None, false)
        }
    }
}

/// The `--deny`/`--allow` code lists.
#[derive(Default)]
struct CodeFilter {
    deny: Vec<DiagnosticCode>,
    allow: Vec<DiagnosticCode>,
}

impl CodeFilter {
    fn parse_into(list: &mut Vec<DiagnosticCode>, arg: &str) -> Result<(), String> {
        for code in arg.split(',').filter(|c| !c.is_empty()) {
            match DiagnosticCode::from_code(code) {
                Some(c) => list.push(c),
                None => return Err(format!("unknown diagnostic code `{code}`")),
            }
        }
        Ok(())
    }

    /// Drop allowed codes from the report.
    fn apply(&self, report: &mut LintReport) {
        if !self.allow.is_empty() {
            report.diagnostics.retain(|d| !self.allow.contains(&d.code));
        }
    }

    /// Whether the report carries a denied code.
    fn denied(&self, report: &LintReport) -> bool {
        report
            .diagnostics
            .iter()
            .any(|d| self.deny.contains(&d.code))
    }
}

fn main() -> ExitCode {
    let mut json = false;
    let mut options = LintOptions::default();
    let mut filter = CodeFilter::default();
    let mut names: Vec<String> = Vec::new();
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut flag_value = |flag: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        let result = match arg.as_str() {
            "--json" => {
                json = true;
                Ok(())
            }
            "--no-symbolic" => {
                options.symbolic = false;
                Ok(())
            }
            "--depth" => flag_value("--depth")
                .and_then(|v| v.parse::<Depth>())
                .map(|d| options = LintOptions::up_to(d)),
            "--deny" => {
                flag_value("--deny").and_then(|v| CodeFilter::parse_into(&mut filter.deny, &v))
            }
            "--allow" => {
                flag_value("--allow").and_then(|v| CodeFilter::parse_into(&mut filter.allow, &v))
            }
            "--help" | "-h" => {
                println!(
                    "usage: kpt_lint [--json] [--depth decl|view|dataflow|symbolic] \
                     [--deny CODE,..] [--allow CODE,..] [--no-symbolic] [NAME | FILE.kpt ...]"
                );
                return ExitCode::SUCCESS;
            }
            other if is_file_arg(other) => {
                files.push(other.to_owned());
                Ok(())
            }
            other => {
                names.push(other.to_owned());
                Ok(())
            }
        };
        if let Err(e) = result {
            eprintln!("kpt_lint: {e}");
            return ExitCode::FAILURE;
        }
    }

    let cases: Vec<RegistryCase> = if names.is_empty() && !files.is_empty() {
        Vec::new()
    } else {
        registry()
            .into_iter()
            .filter(|c| names.is_empty() || names.iter().any(|n| n == c.name))
            .collect()
    };
    if cases.is_empty() && files.is_empty() {
        eprintln!("no model matches {names:?}");
        return ExitCode::FAILURE;
    }

    let mut all_ok = true;
    let mut reports = Vec::new();
    for path in &files {
        let (report, ok) = lint_file(path, &options, &filter, json);
        all_ok &= ok;
        if let Some(report) = report {
            reports.push(report);
        }
    }
    for (case, mut report) in cases.iter().zip(lint_registry(&cases, &options)) {
        filter.apply(&mut report);
        let codes: Vec<&str> = report.codes().iter().map(|c| c.code()).collect();
        // An expected code is only held against the run when the pass
        // that produces it actually ran under the selected depth.
        let expected: Vec<&str> = case
            .expected
            .iter()
            .copied()
            .filter(|c| {
                if filter.allow.iter().any(|a| a.code() == *c) {
                    return false;
                }
                match DiagnosticCode::from_code(c).map(DiagnosticCode::depth) {
                    Some(Depth::Symbolic) => report.symbolic_ran,
                    Some(Depth::Dataflow) => report.dataflow_ran,
                    _ => true,
                }
            })
            .collect();
        let ok = codes == expected && !filter.denied(&report);
        all_ok &= ok;
        if !json {
            print_human(case, &report, &expected, ok);
        }
        reports.push(report);
    }

    if json {
        let items: Vec<String> = reports.iter().map(LintReport::to_json).collect();
        println!("[{}]", items.join(","));
    } else {
        let total = cases.len() + files.len();
        println!(
            "{} model{} linted; {}",
            total,
            if total == 1 { "" } else { "s" },
            if all_ok {
                "all findings as expected"
            } else {
                "UNEXPECTED findings present"
            }
        );
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
