//! SARIF 2.1.0 export, hand-rolled (the offline build has no serde).
//!
//! One run, one driver (`pagesim-lint`), the full rule catalog under
//! `tool.driver.rules`, and one result per finding. Baselined findings
//! export at level `warning`, new ones at `error`. Chain findings carry a
//! `codeFlows` thread flow — one location per function along the
//! root→…→construct path — which GitHub renders as a step-through.

use pagesim_trace::json::escape as esc;

use crate::{Finding, Rule};

fn location(file: &str, line: u32, message: Option<&str>) -> String {
    let msg = match message {
        Some(m) => format!(",\"message\":{{\"text\":\"{}\"}}", esc(m)),
        None => String::new(),
    };
    format!(
        "{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\"}},\
         \"region\":{{\"startLine\":{}}}}}{}}}",
        esc(file),
        line.max(1),
        msg
    )
}

fn result(f: &Finding, level: &str, rule_index: usize) -> String {
    let mut text = f.message.clone();
    if !f.chain.is_empty() {
        let path: Vec<&str> = f.chain.iter().map(|h| h.symbol.as_str()).collect();
        text.push_str(&format!(" [chain: {}]", path.join(" -> ")));
    }
    let mut out = format!(
        "{{\"ruleId\":\"{}\",\"ruleIndex\":{},\"level\":\"{}\",\
         \"message\":{{\"text\":\"{}\"}},\"locations\":[{}]",
        f.rule.code(),
        rule_index,
        level,
        esc(&text),
        location(&f.file, f.line, None)
    );
    if !f.chain.is_empty() {
        let steps: Vec<String> = f
            .chain
            .iter()
            .map(|h| {
                format!(
                    "{{\"location\":{}}}",
                    location(&h.file, h.line, Some(&h.symbol))
                )
            })
            .collect();
        out.push_str(&format!(
            ",\"codeFlows\":[{{\"threadFlows\":[{{\"locations\":[{}]}}]}}]",
            steps.join(",")
        ));
    }
    out.push('}');
    out
}

/// Renders the full SARIF document for a screened finding set.
pub fn render(errors: &[Finding], warnings: &[Finding]) -> String {
    let rules: Vec<String> = Rule::ALL
        .iter()
        .map(|r| {
            format!(
                "{{\"id\":\"{}\",\"name\":\"{}\",\
                 \"shortDescription\":{{\"text\":\"{}\"}}}}",
                r.code(),
                esc(r.id()),
                esc(r.describe())
            )
        })
        .collect();
    let rule_index = |rule: Rule| Rule::ALL.iter().position(|&r| r == rule).unwrap_or(0);
    let mut results: Vec<String> = Vec::with_capacity(errors.len() + warnings.len());
    for f in errors {
        results.push(result(f, "error", rule_index(f.rule)));
    }
    for f in warnings {
        results.push(result(f, "warning", rule_index(f.rule)));
    }
    format!(
        "{{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{{\"tool\":{{\"driver\":{{\
         \"name\":\"pagesim-lint\",\
         \"informationUri\":\"https://github.com/pagesim/pagesim\",\
         \"version\":\"0.1.0\",\"rules\":[{}]}}}},\"results\":[{}]}}]}}\n",
        rules.join(","),
        results.join(",")
    )
}
