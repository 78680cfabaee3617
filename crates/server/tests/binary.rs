//! Binary-level tests: the real `softermax-server` executable, spawned
//! as a child process and driven over TCP and Unix sockets by the real
//! [`softermax_client::Client`]. These cover what the in-process
//! loopback tests cannot: `main.rs`, its flag parsing, the announced
//! `listening` lines, and a clean exit after a `Shutdown` frame.

use std::io::{BufRead, BufReader, Lines};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

use softermax::kernel::{KernelRegistry, ScratchBuffers};
use softermax_client::{Client, ClientConfig, Endpoint};
use softermax_wire::SubmitRequest;

const SERVER_BIN: &str = env!("CARGO_BIN_EXE_softermax-server");

/// A spawned server that is killed if the test fails before it exits.
struct ServerProcess {
    child: Child,
    stdout: Lines<BufReader<ChildStdout>>,
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns the binary with one TCP and one Unix listener and parses the
/// two `listening <spec>` lines it announces on stdout.
fn spawn_server(socket: &Path) -> (ServerProcess, Vec<Endpoint>) {
    let mut child = Command::new(SERVER_BIN)
        .args(["--tcp", "127.0.0.1:0", "--unix"])
        .arg(socket)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn softermax-server");
    let stdout = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let mut server = ServerProcess { child, stdout };
    let mut endpoints = Vec::new();
    while endpoints.len() < 2 {
        let line = server
            .stdout
            .next()
            .expect("server exited before announcing its listeners")
            .expect("read server stdout");
        let spec = line
            .strip_prefix("listening ")
            .unwrap_or_else(|| panic!("unexpected announcement '{line}'"));
        endpoints.push(Endpoint::parse(spec).expect("announced endpoint parses"));
    }
    (server, endpoints)
}

/// Sequential in-process ground truth: `forward_into` row by row.
fn ground_truth(kernel_name: &str, scores: &[f64], row_len: usize) -> Vec<f64> {
    let kernel = KernelRegistry::global().get(kernel_name).expect("kernel");
    let mut scratch = ScratchBuffers::default();
    let mut out = vec![0.0; scores.len()];
    for (row, out_row) in scores.chunks(row_len).zip(out.chunks_mut(row_len)) {
        kernel
            .forward_into(row, out_row, &mut scratch)
            .expect("ground truth forward");
    }
    out
}

fn assert_bits_equal(transport: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{transport}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{transport}: bit mismatch at {i}: got {g:?} want {w:?}"
        );
    }
}

/// One batch and one streamed `softermax` request over each announced
/// transport, bit-compared to in-process execution; then a `Shutdown`
/// frame must drain the process to exit 0 and remove its socket file.
#[test]
fn spawned_server_is_bit_identical_and_drains_cleanly() {
    let socket = std::env::temp_dir().join(format!(
        "softermax-server-binary-{}.sock",
        std::process::id()
    ));
    let (mut server, endpoints) = spawn_server(&socket);
    assert!(
        matches!(endpoints[0], Endpoint::Tcp(_)) && matches!(endpoints[1], Endpoint::Unix(_)),
        "expected one tcp and one unix listener, got {endpoints:?}"
    );
    assert!(socket.exists(), "unix socket file must exist while serving");

    let (rows, row_len) = (4, 32);
    let scores: Vec<f64> = (0..rows * row_len)
        .map(|i| (i as f64 * 0.37).sin() * 6.5)
        .collect();
    let want = ground_truth("softermax", &scores, row_len);
    for endpoint in &endpoints {
        let transport = match endpoint {
            Endpoint::Tcp(_) => "tcp",
            Endpoint::Unix(_) => "unix",
        };
        let mut client =
            Client::connect(endpoint.clone(), ClientConfig::default()).expect("client connect");
        let batch = SubmitRequest::build(0, "softermax", &scores, row_len).expect("build");
        let got = client.call(batch).expect("call").expect("batch result");
        assert_bits_equal(transport, &got, &want);
        let streamed = SubmitRequest::build(0, "softermax", &scores, row_len)
            .expect("build")
            .streamed(2 * row_len)
            .expect("streamed");
        let got = client
            .call(streamed)
            .expect("call")
            .expect("streamed result");
        assert_bits_equal(transport, &got, &want);
    }

    let mut closer =
        Client::connect(endpoints[0].clone(), ClientConfig::default()).expect("client connect");
    closer.shutdown_server().expect("shutdown acknowledged");
    drop(closer);
    let status = server.child.wait().expect("server exit status");
    assert!(
        status.success(),
        "server must exit 0 after drain, got {status}"
    );
    let rest: Vec<String> = server.stdout.by_ref().map_while(Result::ok).collect();
    assert!(
        rest.iter().any(|line| line.starts_with("drained ")),
        "server must report its drain, got {rest:?}"
    );
    assert!(
        !socket.exists(),
        "unix socket file must be removed on drain"
    );
}

/// Without a listener the binary refuses to start: non-zero exit and
/// the usage text on stderr.
#[test]
fn missing_listener_is_a_usage_error() {
    let output = Command::new(SERVER_BIN)
        .args(["--shards", "1"])
        .output()
        .expect("run softermax-server");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("at least one of --tcp/--unix is required") && stderr.contains("usage:"),
        "got stderr {stderr:?}"
    );
}
