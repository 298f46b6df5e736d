//! # phishsim-bench
//!
//! Regeneration harnesses for every table and figure in the paper,
//! plus criterion performance benches over the substrates.
//!
//! Each experiment artifact has a binary:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1` | Table 1 — preliminary test |
//! | `table2` | Table 2 — main experiment |
//! | `table3` | Table 3 — client-side extensions |
//! | `figure1`–`figure3` | Figures 1–3 — evasion flow walkthroughs |
//! | `funnel` | §3 — drop-catch pipeline funnel |
//! | `baseline_cloaking` | §4 — Oest et al. web-cloaking baseline |
//! | `traffic_timing` | §4.2 — crawl-traffic timing histogram |
//! | `kit_probes` | §4.1(3) — OpenPhish kit-probing taxonomy |
//! | `cache_blindspot` | §2.4 — SB verdict-cache TTL sweep |
//! | `fleet_sweep` | ROADMAP — crawl-fleet scheduler throughput sweep |
//! | `ablation_feeds` | DESIGN.md §4.5 — cross-feed edge ablation |
//! | `ablation_capabilities` | DESIGN.md §4.2 — crawler-capability ablation |
//!
//! Every binary prints the paper-layout table and writes a JSON record
//! under `results/`.

pub mod seedsearch;

use std::path::{Path, PathBuf};

/// `results/` at the repository root, where every record and pack is
/// committed.
fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Write `bytes` to `dir/file`, creating `dir` first. Any failure
/// panics with the path and the error: a write that failed quietly
/// would leave the committed file as it was, which is exactly what a
/// byte-identity check looks for.
fn write_artifact(dir: &Path, file: &str, bytes: &[u8]) {
    let path = dir.join(file);
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, bytes)) {
        panic!("cannot write {}: {e}", path.display());
    }
}

/// Write a JSON record for EXPERIMENTS.md under `results/<name>.json`.
/// Panics when the record cannot be serialized or written.
pub fn write_record(name: &str, value: &serde_json::Value) {
    let text = serde_json::to_string_pretty(value)
        .unwrap_or_else(|e| panic!("cannot serialize results/{name}.json: {e}"));
    write_artifact(&results_dir(), &format!("{name}.json"), text.as_bytes());
    println!("\n[record written to results/{name}.json]");
}

/// Write a replay artifact under `results/<name>.runpack`. Panics when
/// the pack cannot be written.
///
/// Packs are committed at their *fast* configs (reduced traffic) so
/// `runpack verify` in CI replays in seconds; they are byte-stable
/// regardless of how the emitting binary was invoked.
pub fn write_pack(name: &str, pack: &phishsim_runpack::RunPack) {
    let bytes = pack.encode();
    write_artifact(&results_dir(), &format!("{name}.runpack"), &bytes);
    println!(
        "[pack written to results/{name}.runpack ({} B, {} events, root {:#018x})]",
        bytes.len(),
        pack.total_events(),
        pack.root_digest()
    );
}

/// Text rendering of a page state — the simulation's "screenshot" for
/// the figure walkthroughs.
pub fn render_page_state(label: &str, html: &str) -> String {
    use phishsim_html::{Document, PageSummary, ScriptEffect};
    let doc = Document::parse(html);
    let s = PageSummary::extract(&doc);
    let mut out = String::new();
    out.push_str(&format!("┌── {label}\n"));
    out.push_str(&format!("│ title   : {}\n", s.title));
    let text = s.text.split_whitespace().collect::<Vec<_>>().join(" ");
    let excerpt: String = text.chars().take(90).collect();
    out.push_str(&format!("│ text    : {excerpt}...\n"));
    if s.forms.is_empty() {
        out.push_str("│ forms   : none\n");
    } else {
        for f in &s.forms {
            let fields: Vec<&str> = f.fields.iter().map(|x| x.name.as_str()).collect();
            out.push_str(&format!(
                "│ form    : method={} action={:?} fields={:?} buttons={:?}\n",
                f.method, f.action, fields, f.submit_labels
            ));
        }
    }
    for e in ScriptEffect::extract(&doc) {
        out.push_str(&format!("│ script  : {e:?}\n"));
    }
    if html.contains("g-recaptcha") {
        out.push_str("│ widget  : [ reCAPTCHA checkbox — \"I'm not a robot\" ]\n");
    }
    out.push_str(&format!(
        "│ verdict : {}\n",
        if s.has_login_form() {
            "PHISHING PAYLOAD (credential form)"
        } else {
            "benign"
        }
    ));
    out.push_str("└──\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "Cargo.toml/record.json: ")]
    fn writing_under_a_file_fails_loudly() {
        // The crate's manifest is a file, so no directory can be made
        // there and nothing is written.
        let file = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
        write_artifact(&file, "record.json", b"{}");
    }
}
