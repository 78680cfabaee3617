//! `softermax-analysis` CLI.
//!
//! ```text
//! cargo run -p softermax-analysis -- inventory [--write] [--root PATH]
//! ```
//!
//! `inventory` diffs the committed `docs/UNSAFE_INVENTORY.md` against
//! a fresh render and exits non-zero on drift; `--write` regenerates it
//! after an intentional unsafe change. The lint catalog itself runs as
//! a plain test (`tests/workspace_clean.rs`), so `cargo test` is the
//! gate.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use softermax_analysis::manifest::Manifest;
use softermax_analysis::{analyze_workspace, inventory};

const INVENTORY_PATH: &str = "docs/UNSAFE_INVENTORY.md";
const USAGE: &str = "usage: softermax-analysis inventory [--write] [--root PATH]";

struct Args {
    write: bool,
    root: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    if args.next().as_deref() != Some("inventory") {
        return Err(USAGE.to_owned());
    }
    let mut write = false;
    let mut root = softermax_analysis::default_root();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--write" => write = true,
            "--root" => {
                root = PathBuf::from(args.next().ok_or("--root needs a path")?);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(Args { write, root })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let analysis = match analyze_workspace(&args.root, &Manifest::workspace()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("failed to scan workspace at {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };

    let rendered = inventory::render(&analysis.unsafe_sites);
    let inventory_file = args.root.join(INVENTORY_PATH);

    if args.write {
        if let Err(e) = std::fs::write(&inventory_file, &rendered) {
            eprintln!("cannot write {INVENTORY_PATH}: {e}");
            return ExitCode::from(2);
        }
        println!(
            "wrote {INVENTORY_PATH} ({} unsafe sites)",
            analysis.unsafe_sites.len()
        );
        return ExitCode::SUCCESS;
    }
    match std::fs::read_to_string(&inventory_file) {
        Ok(committed) if committed == rendered => ExitCode::SUCCESS,
        Ok(_) => {
            println!(
                "{INVENTORY_PATH} is out of date: the workspace's unsafe sites changed. \
                 Review them, then regenerate with \
                 `cargo run -p softermax-analysis -- inventory --write`"
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            println!("{INVENTORY_PATH} unreadable ({e}): run `inventory --write`");
            ExitCode::FAILURE
        }
    }
}
