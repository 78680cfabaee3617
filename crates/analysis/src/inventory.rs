//! Renders the unsafe inventory (`docs/UNSAFE_INVENTORY.md`) from the
//! audited sites. The committed file is keyed by *what* each site is —
//! file, kind, context, rationale — not by line number, so edits above
//! an unchanged unsafe site do not churn the inventory; adding,
//! removing, or re-justifying unsafe does.

use std::collections::BTreeMap;

use crate::unsafe_audit::UnsafeSite;

/// Renders the full inventory document.
#[must_use]
pub fn render(sites: &[UnsafeSite]) -> String {
    let mut by_file: BTreeMap<&str, Vec<&UnsafeSite>> = BTreeMap::new();
    for site in sites {
        by_file.entry(&site.file).or_default().push(site);
    }
    let mut out = String::new();
    out.push_str("# Unsafe inventory\n\n");
    out.push_str(
        "Generated by `cargo run -p softermax-analysis -- inventory --write`.\n\
         The `workspace_clean` test re-renders this file and fails on any\n\
         difference, so `unsafe` cannot enter or leave the workspace\n\
         without a reviewed diff here.\n\
         Entries are keyed by file, kind, context, and SAFETY rationale —\n\
         not line numbers — so unrelated edits above a site do not churn\n\
         the inventory.\n\n",
    );
    if sites.is_empty() {
        out.push_str("No unsafe code in the workspace.\n");
        return out;
    }
    let total = sites.len();
    let files = by_file.len();
    out.push_str(&format!(
        "**{total} unsafe site{} across {files} file{}.**\n",
        plural(total),
        plural(files)
    ));
    for (file, sites) in &by_file {
        out.push_str(&format!("\n## `{file}`\n\n"));
        for site in sites {
            let rationale = site
                .rationale
                .as_deref()
                .unwrap_or("MISSING SAFETY RATIONALE");
            out.push_str(&format!(
                "- **{}** in {} — SAFETY: {}\n",
                site.kind, site.context, rationale
            ));
        }
    }
    out
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}
