//! `remote-small`: an open loop of small softermax requests, with
//! Poisson arrivals at one fixed absolute rate, over Unix-socket
//! connections to a spawned `softermax-server` at its default geometry.
//! The JSON codec costs far more per score than the kernel, so the
//! client, wire and server layers do most of the work here.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use softermax::kernel::SoftermaxFixedKernel;
use softermax_client::{Client, ClientConfig, Endpoint};
use softermax_wire::{encode_frame, read_frame, Frame, SubmitReply, SubmitRequest};

use crate::common::{
    derive_seed, forward_into_ns_per_elem, ground_truth, mean, median, peak_rss_mb, percentile,
    same_bits, sampling_setups, secs_since, server_workers, sleep_until, threads_for, timed_setup,
    trace_slices, Outcome, Run, SCORE_STD,
};
use crate::trace::{Span, Tracer};
use crate::{Layers, RUN_DIR};

/// Rows per request.
pub const ROWS: usize = 16;
/// Scores per row.
pub const LEN: usize = 128;
/// Every this-many-th request of a connection takes the streaming path.
pub const STREAM_EVERY: usize = 4;
/// Scores per push on the streaming path.
pub const STREAM_CHUNK: usize = 128;
/// Total arrival rate, requests per second: an absolute constant, never
/// recalibrated per run. Each request costs about 2.7 ms of CPU across
/// the client's and the server's codecs, so on a 2-vCPU Xeon this keeps
/// the host about 20% busy, and below saturation when a noisy neighbour
/// halves its speed; at 300 req/s such spells built backlogs of over
/// 100 ms.
pub const RATE: f64 = 150.0;
/// Connections, one sender thread each (at most `nproc`).
pub const CONNECTIONS: usize = 2;
/// Distinct request matrices drawn per run.
pub const POOL: usize = 64;
/// Fixed latency limit, timed from each request's due time: just above
/// this workload's p99 on a quiet 2-vCPU Xeon (p95 there is about 5 ms,
/// p99 about 8.5 ms), so the share within it moves with the tail.
pub const SLO: Duration = Duration::from_millis(10);
/// Most replies a connection may owe before its sender stops to collect
/// one. Below the server's per-connection window (32), so the server
/// always keeps reading and a backlog cannot deadlock both ends on full
/// socket buffers; a send held back here is late, and that counts.
const MAX_PENDING: usize = 16;
/// Synchronous calls per connection before the measured window.
const WARMUP_CALLS: usize = 50;
/// Repetitions of each frame in the offline codec timing.
const CODEC_REPS: usize = 3;
/// How long a server may take to exit after `Shutdown`.
const EXIT_WAIT: Duration = Duration::from_secs(10);

const SEED_TAG: u64 = 0x5253;
const KERNEL: &str = "softermax";
const SCORES: usize = ROWS * LEN;

/// The workload parameters, for the run record.
#[must_use]
pub fn params() -> serde_json::Value {
    serde_json::json!({
        "loop": "open",
        "arrivals": "poisson",
        "rate_per_s": RATE,
        "connections": threads_for(CONNECTIONS),
        "transport": "unix",
        "server": "softermax-server at its default geometry",
        "server_workers": server_workers(),
        "kernel": KERNEL,
        "rows": ROWS,
        "row_len": LEN,
        "stream_every": STREAM_EVERY,
        "stream_chunk": STREAM_CHUNK,
        "pool": POOL,
        "slo_ms": SLO.as_millis() as u64,
    })
}

/// A spawned `softermax-server`; killed and reaped on drop if it is
/// still running (set-ups that are only timed end that way).
struct ServerProc {
    child: Child,
    socket: PathBuf,
}

impl ServerProc {
    fn spawn(socket: &Path) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let bin = exe.with_file_name("softermax-server");
        let _ = std::fs::remove_file(socket);
        let child = Command::new(&bin)
            .arg("--unix")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut server = Self {
            socket: socket.to_path_buf(),
            child,
        };
        // Parse stdout until the listener is reported; EOF means the
        // server exited before binding.
        let stdout = server.child.stdout.take().expect("stdout is piped");
        let mut lines = BufReader::new(stdout).lines();
        loop {
            match lines.next() {
                Some(Ok(line)) if line.starts_with("listening unix:") => return Ok(server),
                Some(Ok(_)) => {}
                Some(Err(e)) => return Err(format!("server stdout: {e}")),
                None => return Err("softermax-server exited before listening".to_string()),
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the server to drain and exit, and waits for it.
    fn stop(mut self, mut clients: Vec<Client>) -> Result<(), String> {
        let mut first = clients.drain(..1).next().ok_or("no client")?;
        drop(clients);
        first
            .shutdown_server()
            .map_err(|e| format!("shutdown: {e}"))?;
        drop(first);
        let deadline = Instant::now() + EXIT_WAIT;
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("softermax-server exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("softermax-server did not exit after shutdown".to_string())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

struct Setup {
    server: ServerProc,
    clients: Vec<Client>,
}

/// Spawns the server and completes every connection's Hello: the point
/// from which the first request can be sent.
fn build(socket: &Path) -> Result<Setup, String> {
    let server = ServerProc::spawn(socket)?;
    let clients = (0..threads_for(CONNECTIONS))
        .map(|c| {
            Client::connect(
                Endpoint::Unix(socket.to_path_buf()),
                ClientConfig {
                    name: format!("perfbench-{c}"),
                    ..ClientConfig::default()
                },
            )
            .map_err(|e| format!("connect: {e}"))
        })
        .collect::<Result<_, _>>()?;
    Ok(Setup { server, clients })
}

/// The seeded request pool: batch and streamed variants of each matrix,
/// plus its sequential `forward_into` ground truth.
struct Pool {
    inputs: Vec<Vec<f64>>,
    batch: Vec<SubmitRequest>,
    streamed: Vec<SubmitRequest>,
    truth: Vec<Vec<f64>>,
}

fn pool(seed: u64) -> Result<Pool, String> {
    let kernel = SoftermaxFixedKernel::paper();
    let mut pool = Pool {
        inputs: Vec::new(),
        batch: Vec::new(),
        streamed: Vec::new(),
        truth: Vec::new(),
    };
    for i in 0..POOL as u64 {
        let m = softermax_serve::traffic::synthetic_matrix(
            ROWS,
            LEN,
            SCORE_STD,
            derive_seed(seed, SEED_TAG, i),
        );
        let truth = ground_truth(&kernel, &m, LEN)?;
        let req = SubmitRequest::build(0, KERNEL, &m, LEN).map_err(|e| e.to_string())?;
        pool.streamed.push(
            req.clone()
                .streamed(STREAM_CHUNK)
                .map_err(|e| e.to_string())?,
        );
        pool.batch.push(req);
        pool.inputs.push(m);
        pool.truth.push(truth);
    }
    Ok(pool)
}

/// One scheduled request of one connection.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    /// Offset of its due time from the window start.
    due: Duration,
    pool: usize,
    streamed: bool,
}

/// A connection's Poisson schedule over `window`.
fn schedule(seed: u64, conn: usize, conns: usize, window: Duration) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, SEED_TAG + 1, conn as u64));
    let rate = RATE / conns as f64;
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen_range(1e-12..1.0);
        t += -u.ln() / rate;
        if t >= window.as_secs_f64() {
            return out;
        }
        out.push(Arrival {
            due: Duration::from_secs_f64(t),
            pool: rng.gen_range(0..POOL),
            streamed: out.len() % STREAM_EVERY == STREAM_EVERY - 1,
        });
    }
}

/// What happened to one scheduled request.
#[derive(Debug, Clone, Copy)]
struct Record {
    due: Instant,
    sent: Instant,
    submitted: Instant,
    done: Instant,
    outcome: Outcome,
}

/// Collects the oldest pending reply.
fn receive(
    client: &mut Client,
    pending: &mut VecDeque<usize>,
    arrivals: &[Arrival],
    records: &mut [Record],
    pool: &Pool,
) {
    let Some(&k) = pending.front() else { return };
    match client.next_reply() {
        Ok((_, reply)) => {
            let done = Instant::now();
            let r = &mut records[k];
            r.done = done;
            r.outcome = match reply {
                Ok(out) if same_bits(&out, &pool.truth[arrivals[k].pool]) => {
                    Outcome::Ok(done - r.due, done)
                }
                Ok(_) => Outcome::Mismatch,
                Err(_) => Outcome::Failed,
            };
            pending.pop_front();
        }
        Err(_) => {
            // The transport is gone: every pending reply is lost.
            for k in pending.drain(..) {
                records[k].outcome = Outcome::Failed;
            }
            let _ = client.reconnect();
        }
    }
}

/// Sends one connection's schedule and collects its replies. Before each
/// send the thread waits for replies until the request is due, so a
/// reply that blocks past a due time makes that send late, and the
/// lateness counts in the request's latency.
fn connection(
    client: &mut Client,
    arrivals: &[Arrival],
    start: Instant,
    pool: &Pool,
) -> Vec<Record> {
    let mut records: Vec<Record> = arrivals
        .iter()
        .map(|a| Record {
            due: start + a.due,
            sent: start,
            submitted: start,
            done: start,
            outcome: Outcome::Failed,
        })
        .collect();
    let mut pending = VecDeque::new();
    for (k, a) in arrivals.iter().enumerate() {
        let due = records[k].due;
        let variant = if a.streamed {
            &pool.streamed
        } else {
            &pool.batch
        };
        let request = variant[a.pool].clone();
        while pending.len() >= MAX_PENDING || (!pending.is_empty() && Instant::now() < due) {
            receive(client, &mut pending, arrivals, &mut records, pool);
        }
        sleep_until(due);
        records[k].sent = Instant::now();
        let sent = client.submit(request);
        records[k].submitted = Instant::now();
        if sent.is_ok() {
            pending.push_back(k);
        }
    }
    while !pending.is_empty() {
        receive(client, &mut pending, arrivals, &mut records, pool);
    }
    records
}

/// Engine counters summed over kernels, from a `Stats` reply.
#[derive(Debug, Clone, Copy, Default)]
struct Engine {
    batches: u64,
    failed: u64,
    expired: u64,
    elements: u64,
    busy_ns: u64,
    wall_ns: u64,
    stolen: u64,
}

impl Engine {
    /// Adds the counters' growth from `before` to `after`.
    fn add_delta(&mut self, after: &Self, before: &Self) {
        self.batches += after.batches - before.batches;
        self.failed += after.failed - before.failed;
        self.expired += after.expired - before.expired;
        self.elements += after.elements - before.elements;
        self.busy_ns += after.busy_ns - before.busy_ns;
        self.wall_ns += after.wall_ns - before.wall_ns;
        self.stolen += after.stolen - before.stolen;
    }
}

fn uint(v: Option<&Value>) -> u64 {
    match v {
        Some(Value::Int(i)) => u64::try_from(*i).unwrap_or(0),
        Some(Value::UInt(u)) => *u,
        Some(Value::Float(f)) => *f as u64,
        _ => 0,
    }
}

fn engine(client: &mut Client) -> Result<Engine, String> {
    let snapshot = client.stats().map_err(|e| format!("stats: {e}"))?;
    let mut e = Engine {
        stolen: uint(snapshot.get("scheduler").and_then(|s| s.get("jobs_stolen"))),
        ..Engine::default()
    };
    for (_, k) in snapshot
        .get("stats")
        .and_then(Value::as_object)
        .unwrap_or_default()
    {
        e.batches += uint(k.get("batches"));
        e.failed += uint(k.get("failed_batches"));
        e.expired += uint(k.get("expired_requests"));
        e.elements += uint(k.get("elements"));
        e.busy_ns += uint(k.get("busy_ns"));
        e.wall_ns += uint(k.get("wall_ns"));
    }
    Ok(e)
}

fn wire_bytes(clients: &[Client]) -> u64 {
    clients
        .iter()
        .map(|c| c.bytes_sent() + c.bytes_received())
        .sum()
}

/// One open-loop window over every connection.
fn window(setup: &mut Setup, pool: &Pool, seed: u64, window: Duration) -> Vec<Record> {
    let conns = setup.clients.len();
    let schedules: Vec<Vec<Arrival>> = (0..conns)
        .map(|c| schedule(seed, c, conns, window))
        .collect();
    // Sender threads start a little after the schedule origin, so no
    // request is late because a thread was still being spawned.
    let start = Instant::now() + Duration::from_millis(5);
    let records: Vec<Vec<Record>> = std::thread::scope(|s| {
        let handles: Vec<_> = setup
            .clients
            .iter_mut()
            .zip(&schedules)
            .map(|(client, arrivals)| s.spawn(move || connection(client, arrivals, start, pool)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("remote-small sender thread panicked"))
            .collect()
    });
    records.concat()
}

fn outcomes(records: &[Record]) -> Vec<Outcome> {
    records.iter().map(|r| r.outcome).collect()
}

/// How late each request was sent against its schedule, ms.
fn lag_ms(records: &[Record]) -> impl Iterator<Item = f64> + '_ {
    records
        .iter()
        .map(|r| r.sent.saturating_duration_since(r.due).as_secs_f64() * 1e3)
}

/// Runs the workload; with `traced`, also fills the per-layer metrics.
///
/// # Errors
///
/// Server spawn, connection, ground-truth or shutdown failures.
pub fn run(seed: u64, seconds: f64, traced: bool, layers: &mut Layers) -> Result<Run, String> {
    let run_dir = Path::new(RUN_DIR);
    let socket = run_dir.join(format!("server-{}.sock", std::process::id()));
    // The set-ups timed during the run listen on a socket of their own.
    let spare = run_dir.join(format!("spare-{}.sock", std::process::id()));
    let (mut setup, first_setup) = timed_setup(|| build(&socket))?;
    let pool = pool(seed)?;
    for client in &mut setup.clients {
        for k in 0..WARMUP_CALLS {
            let reply = client
                .call(pool.batch[k % POOL].clone())
                .map_err(|e| format!("warm-up: {e}"))?;
            if !reply.is_ok_and(|out| same_bits(&out, &pool.truth[k % POOL])) {
                return Err("warm-up reply is not bit-correct".to_string());
            }
        }
    }

    let (outcomes, mut setup_times) = sampling_setups(
        seconds,
        || build(&spare),
        || {
            if traced {
                trace_run(&mut setup, &pool, seed, seconds, layers)
            } else {
                let records = window(&mut setup, &pool, seed, Duration::from_secs_f64(seconds));
                Ok(outcomes(&records))
            }
        },
    )?;
    setup_times.push(first_setup);
    let rss = peak_rss_mb(&setup.server.pid())?;
    setup.server.stop(setup.clients)?;
    Ok(Run {
        setup_s: median(&setup_times),
        outcomes: outcomes?,
        scores_per_request: SCORES as u64,
        slo: SLO,
        peak_rss_mb: rss,
    })
}

/// The traced run: untraced and traced slices interleaved; returns every
/// outcome of both.
fn trace_run(
    setup: &mut Setup,
    pool: &Pool,
    seed: u64,
    seconds: f64,
    layers: &mut Layers,
) -> Result<Vec<Outcome>, String> {
    let tracer = Tracer::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut d = Engine::default();
    let (mut bytes, mut traced_s) = (0, 0.0);
    let mut lag = Vec::new();
    let mut observed_us = Vec::new();
    for (slice, (is_traced, len)) in trace_slices(seconds).into_iter().enumerate() {
        let slice_seed = derive_seed(seed, SEED_TAG + 2, slice as u64);
        if !is_traced {
            plain.extend(outcomes(&window(setup, pool, slice_seed, len)));
            continue;
        }
        let engine0 = engine(&mut setup.clients[0])?;
        let bytes0 = wire_bytes(&setup.clients);
        let t0 = Instant::now();
        let records = window(setup, pool, slice_seed, len);
        traced_s += secs_since(t0);
        bytes += wire_bytes(&setup.clients) - bytes0;
        d.add_delta(&engine(&mut setup.clients[0])?, &engine0);
        lag.extend(lag_ms(&records));
        // Spans of the requests that completed, one id per request.
        for r in &records {
            traced.push(r.outcome);
            if !matches!(r.outcome, Outcome::Ok(..)) {
                continue;
            }
            let id = traced.len() as u64;
            let span = |name, parent, start: Instant, end: Instant| Span {
                name,
                id,
                parent,
                start: tracer.at(start),
                end: tracer.at(end),
                work: SCORES as u64,
            };
            tracer.record(span("request", None, r.due, r.done));
            tracer.record(span("client.submit", Some("request"), r.sent, r.submitted));
            tracer.record(span("client.reply", Some("request"), r.submitted, r.done));
            observed_us.push((r.done - r.sent).as_secs_f64() * 1e6);
        }
    }
    let codec = codec_spans(&tracer, pool);
    let spans = tracer.spans();
    let durations_us = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64 / 1e3)
            .collect()
    };

    let batches = d.batches.max(1) as f64;
    let engine_wall_us = d.wall_ns as f64 / batches / 1e3;
    let observed = mean(&observed_us);
    layers.set("client.submit_us", median(&durations_us("client.submit")));
    layers.set("client.reply_us", median(&durations_us("client.reply")));
    layers.set(
        "wire.bytes_per_score",
        bytes as f64 / (traced.len() * SCORES).max(1) as f64,
    );
    layers.set("wire.encode_ns_per_score", codec.encode_ns_per_score);
    layers.set("wire.decode_ns_per_score", codec.decode_ns_per_score);
    // A residual, not a span: socket time plus the server's own decode
    // and encode, as left over once the engine and the client codec are
    // taken out of the client-observed time.
    layers.set(
        "server.self_us",
        observed - engine_wall_us - codec.client_us_per_request,
    );
    layers.set(
        "serve.queue_wait_us",
        d.wall_ns.saturating_sub(d.busy_ns) as f64 / batches / 1e3,
    );
    layers.set(
        "serve.busy_ns_per_elem",
        d.busy_ns as f64 / d.elements.max(1) as f64,
    );
    layers.set(
        "serve.utilization",
        d.busy_ns as f64 / (server_workers() * traced_s * 1e9),
    );
    layers.set("serve.stolen", d.stolen as f64);
    layers.set("serve.expired", d.expired as f64);
    layers.set("serve.failed", d.failed as f64);
    layers.set(
        "core.forward_into_ns_per_elem",
        forward_into_ns_per_elem(&SoftermaxFixedKernel::paper(), &pool.inputs, LEN),
    );
    layers.set("bench.send_lag_p99_ms", percentile(&lag, 0.99));
    layers.overhead(&plain, &traced);
    // The reason this workload exists: the engine (serve + core) is the
    // minority of each request's client-observed time.
    layers.check("non_engine_share", 1.0 - engine_wall_us / observed);
    layers.write_trace(&tracer)?;
    plain.append(&mut traced);
    Ok(plain)
}

/// The offline codec timing, per score of a request.
struct Codec {
    encode_ns_per_score: f64,
    decode_ns_per_score: f64,
    /// The client's own share: encoding the Submit plus decoding the
    /// SubmitReply, µs per request.
    client_us_per_request: f64,
}

/// Times `encode_frame` and `read_frame` in this process on the run's
/// own Submit frames and the SubmitReply frames that answer them,
/// recording one `wire.encode`/`wire.decode` span per call.
fn codec_spans(tracer: &Tracer, pool: &Pool) -> Codec {
    let (mut encode, mut decode, mut client) = (0u64, 0u64, 0u64);
    for (i, truth) in pool.truth.iter().enumerate() {
        let id = i as u64 + 1;
        let mut submit = if i % STREAM_EVERY == STREAM_EVERY - 1 {
            pool.streamed[i].clone()
        } else {
            pool.batch[i].clone()
        };
        submit.id = id;
        let reply = SubmitReply {
            id,
            result: Ok(softermax_wire::types::scores_from_f64(truth).expect("finite")),
        };
        for (frame, client_encodes) in [
            (Frame::Submit(submit), true),
            (Frame::SubmitReply(reply), false),
        ] {
            for _ in 0..CODEC_REPS {
                let t0 = tracer.now();
                let bytes = encode_frame(std::hint::black_box(&frame)).expect("frame fits");
                let t1 = tracer.now();
                let back = read_frame(&mut bytes.as_slice()).expect("round trip");
                let t2 = tracer.now();
                assert!(back == frame, "codec round trip changed a frame");
                for (name, start, end) in [("wire.encode", t0, t1), ("wire.decode", t1, t2)] {
                    tracer.record(Span {
                        name,
                        id,
                        parent: None,
                        start,
                        end,
                        work: SCORES as u64,
                    });
                }
                encode += t1 - t0;
                decode += t2 - t1;
                client += if client_encodes { t1 - t0 } else { t2 - t1 };
            }
        }
    }
    let calls = (POOL * CODEC_REPS) as f64;
    Codec {
        encode_ns_per_score: encode as f64 / calls / SCORES as f64,
        decode_ns_per_score: decode as f64 / calls / SCORES as f64,
        client_us_per_request: client as f64 / calls / 1e3,
    }
}
