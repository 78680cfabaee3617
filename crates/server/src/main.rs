//! `softermax-server` — stand-alone serving binary.
//!
//! ```text
//! softermax-server [--tcp ADDR] [--unix PATH]
//!                  [--shards N] [--threads N] [--queue-depth N]
//!                  [--policy round-robin|least-loaded|adaptive]
//!                  [--window N] [--name NAME]
//! ```
//!
//! At least one of `--tcp` / `--unix` is required. Each bound endpoint
//! is reported on stdout as a `listening tcp:HOST:PORT` /
//! `listening unix:PATH` line (parent processes — `perfbench` and
//! `crates/server/tests/binary.rs` — parse these; with
//! `--tcp 127.0.0.1:0` the resolved ephemeral port is what gets
//! printed). The process then
//! serves until a client sends a `Shutdown` frame, drains in-flight
//! work, prints `drained N connections`, and exits 0.

// No unsafe code in this crate, enforced by the compiler; the
// workspace-wide unsafe audit lives in `softermax-analysis`.
#![forbid(unsafe_code)]
// Remotely reachable code: a malformed frame or a misbehaving peer
// must surface as a typed error, never a panic. Test code is exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

use std::io::Write;
use std::process::ExitCode;

use softermax_serve::RoutePolicy;
use softermax_server::{Bind, Server, ServerConfig, ServerError};

fn usage() -> String {
    [
        "usage: softermax-server [--tcp ADDR] [--unix PATH] [options]",
        "",
        "listeners (at least one required):",
        "  --tcp ADDR          bind a TCP listener (e.g. 127.0.0.1:7077; port 0 = ephemeral)",
        "  --unix PATH         bind a Unix-socket listener at PATH",
        "",
        "options:",
        "  --shards N          engine shards behind the router (default 2)",
        "  --threads N         worker threads per shard (default 2)",
        "  --queue-depth N     bounded intake depth per shard (default 64)",
        "  --policy P          round-robin | least-loaded | adaptive (default adaptive)",
        "  --window N          per-connection in-flight reply window (default 32)",
        "  --name NAME         server name reported in HelloAck",
    ]
    .join("\n")
}

struct Args {
    binds: Vec<Bind>,
    config: ServerConfig,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut binds = Vec::new();
    let mut config = ServerConfig::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--tcp" => binds.push(Bind::Tcp(value("--tcp")?)),
            "--unix" => binds.push(Bind::Unix(value("--unix")?.into())),
            "--shards" => {
                config.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
            }
            "--threads" => {
                config.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--queue-depth" => {
                config.queue_depth = value("--queue-depth")?
                    .parse()
                    .map_err(|e| format!("--queue-depth: {e}"))?;
            }
            "--policy" => {
                config.policy = match value("--policy")?.as_str() {
                    "round-robin" => RoutePolicy::RoundRobin,
                    "least-loaded" => RoutePolicy::LeastLoaded,
                    "adaptive" => RoutePolicy::Adaptive,
                    other => return Err(format!("--policy: unknown policy '{other}'")),
                };
            }
            "--window" => {
                config.inflight_window = value("--window")?
                    .parse()
                    .map_err(|e| format!("--window: {e}"))?;
            }
            "--name" => config.name = value("--name")?,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag '{other}'\n\n{}", usage())),
        }
    }
    if binds.is_empty() {
        return Err(format!(
            "at least one of --tcp/--unix is required\n\n{}",
            usage()
        ));
    }
    Ok(Args { binds, config })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::start(args.config, &args.binds) {
        Ok(server) => server,
        Err(e @ (ServerError::Io(_) | ServerError::Config(_) | ServerError::NoListeners)) => {
            eprintln!("softermax-server: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Stdout may be a pipe whose parent stops reading once it has the
    // endpoints — write errors (EPIPE) must not take the server down.
    let mut stdout = std::io::stdout();
    for endpoint in server.endpoints() {
        // Parsed by parent processes: one "listening <spec>" per bind.
        let _ = writeln!(stdout, "listening {endpoint}");
        let _ = stdout.flush();
    }
    let drained = server.run();
    let _ = writeln!(stdout, "drained {drained} connections");
    ExitCode::SUCCESS
}
