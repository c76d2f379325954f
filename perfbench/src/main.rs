//! Socket-level benchmark of `csag serve`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hot-small|cold-large|churn-wal> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! Run from the repository root. The harness builds the `csag` binary
//! from the checkout, spawns `csag serve`, drives it over loopback TCP
//! and its stdin write feed, checks every answer against an in-process
//! reference, and prints one JSON result as the last line of stdout:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics (from
//! a traced in-process replay of the same inputs) with `--trace 1`.
//! See `perfbench/README.md` for the workloads and metric definitions.

mod load;
mod oracle;
mod server;
mod stats;
mod trace;
mod workload;

use csag::graph::alloc_counter::CountingAllocator;
use csag::graph::io::{load_graph, save_graph};
use csag::graph::GraphUpdate;
use load::LoadLog;
use oracle::Served;
use server::Server;
use stats::{mean, median, quantile, tail};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Traffic, Workload, NAMES, SETUP_Q};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Read phases of a closed-loop window; each is followed by its share of
/// the probe writes.
const PROBE_PHASES: usize = 5;
/// Writes the traced replay repeats, at most.
const TRACE_WRITES: usize = 80;
/// Checkpoint cadence of the server's default WAL policy.
const CHECKPOINT_EVERY: u64 = 64;

fn main() {
    match real_main() {
        Ok(0) => {}
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !args.self_test && args.workload.is_empty() {
        return Err(format!(
            "--workload is required (one of {})",
            NAMES.join(", ")
        ));
    }
    Ok(args)
}

fn real_main() -> Result<i32, String> {
    let args = parse_args()?;
    let root = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
    if !root.join("Cargo.toml").is_file() || !root.join("src/bin/csag.rs").is_file() {
        return Err(format!(
            "{} is not a csag checkout: run from the repository root",
            root.display()
        ));
    }
    let env = Env::new(&root)?;
    if args.self_test {
        return self_test(&env);
    }
    let spec = Workload::named(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload `{}` (one of {})",
            args.workload,
            NAMES.join(", ")
        )
    })?;
    let result = run(&env, &spec, args.seed, args.seconds, args.trace)?;
    println!("{}", result.meta);
    println!("{}", result.to_json());
    Ok(0)
}

/// Where the run works and what it drives.
struct Env {
    csag: PathBuf,
    out: PathBuf,
    nproc: usize,
}

impl Env {
    /// Builds `csag` from the checkout into the harness's own target
    /// directory.
    fn new(root: &Path) -> Result<Env, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let target = exe
            .parent()
            .and_then(Path::parent)
            .ok_or("harness binary is not in a cargo target directory")?
            .to_path_buf();
        let status = Command::new("cargo")
            .current_dir(root)
            .env("CARGO_TARGET_DIR", &target)
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "-p",
                "csag",
                "--bin",
                "csag",
            ])
            .status()
            .map_err(|e| format!("running cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building csag failed ({status})"));
        }
        let csag = target.join("release").join("csag");
        let out = root.join("perfbench").join("out");
        std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Ok(Env { csag, out, nproc })
    }
}

/// The final result line plus the run's metadata line.
struct RunResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
    meta: String,
}

impl RunResult {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    finite(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// What one socket run observed.
struct SocketRun {
    setup_s: Vec<f64>,
    log: LoadLog,
    metrics_line: String,
    peak_rss_mb: f64,
    checkpoints: u64,
}

/// Starts `csag serve` `spec.setup_runs` times, timing each start-up to
/// its first answered read; the last server stays up for the run.
fn start_servers(
    env: &Env,
    spec: &Workload,
    graph: &Path,
    dir: &Path,
) -> Result<(Server, Vec<f64>, PathBuf), String> {
    let mut setup = Vec::new();
    let mut last = None;
    for r in 0..spec.setup_runs {
        let wal = dir.join(format!("wal-{r}"));
        let mut server = Server::spawn(
            &env.csag,
            graph,
            env.nproc,
            spec.wal.then_some(wal.as_path()),
            &dir.join(format!("server-{r}.stderr")),
        )?;
        let answer = first_answer(&mut server)?;
        setup.push(answer.as_secs_f64());
        if let Some((old, _)) = last.replace((server, wal)) {
            Server::stop(old);
        }
    }
    let (server, wal) = last.ok_or("no set-up runs")?;
    Ok((server, setup, wal))
}

/// Sends the set-up read and returns the time from spawn to its answer.
fn first_answer(server: &mut Server) -> Result<Duration, String> {
    use std::io::{BufRead, BufReader, Write};
    let mut stream = server.connect()?;
    let op = workload::ReadOp {
        q: SETUP_Q,
        seed: 0,
        priority: "standard",
        pinned: false,
    };
    stream
        .set_read_timeout(Some(server::STALL))
        .map_err(|e| format!("read timeout: {e}"))?;
    writeln!(stream, "{}", op.line(0, None)).map_err(|e| format!("set-up read: {e}"))?;
    let mut line = String::new();
    BufReader::new(&stream)
        .read_line(&mut line)
        .map_err(|e| format!("set-up answer: {e}"))?;
    let took = server.spawned.elapsed();
    if !line.contains("\"result\":") {
        return Err(format!(
            "set-up read was not answered with a result: {line}"
        ));
    }
    Ok(took)
}

/// Runs the workload against a live server.
fn socket_run(
    env: &Env,
    spec: &Workload,
    inputs: &workload::Inputs,
    graph: &Path,
    dir: &Path,
    window: Duration,
) -> Result<SocketRun, String> {
    let (mut server, setup_s, wal) = start_servers(env, spec, graph, dir)?;
    let log = match spec.traffic {
        Traffic::Churn => load::churn(&mut server, &inputs.reads, &inputs.writes, window)?,
        Traffic::Phases { depth, .. } => {
            // The window is cut into phases, each followed by its share of
            // the probe writes, so both sample the whole run rather than
            // the writes one short stretch of it.
            let mut log = LoadLog::default();
            let writes = &inputs.writes;
            for p in 0..PROBE_PHASES {
                let phase = load::closed_loop(
                    &server,
                    &inputs.reads,
                    log.reads.len(),
                    env.nproc,
                    depth,
                    window / PROBE_PHASES as u32,
                )?;
                log.append(phase);
                // Whole add/remove pairs per phase.
                let pairs = writes.len() / 2;
                let (from, to) = (
                    2 * (pairs * p / PROBE_PHASES),
                    2 * (pairs * (p + 1) / PROBE_PHASES),
                );
                load::write_probe(&mut server, &writes[from..to], from, &mut log)?;
            }
            log
        }
    };
    let metrics_line = server.close_feed_for_metrics()?;
    let peak_rss_mb = server.peak_rss_mb()?;
    server.stop();
    let checkpoints = if spec.wal {
        std::fs::read_dir(&wal)
            .map_err(|e| format!("listing {}: {e}", wal.display()))?
            .filter_map(Result::ok)
            .filter_map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                name.strip_prefix("checkpoint-")?
                    .strip_suffix(".graph")?
                    .parse::<u64>()
                    .ok()
            })
            .max()
            .unwrap_or(0)
            / CHECKPOINT_EVERY
    } else {
        0
    };
    Ok(SocketRun {
        setup_s,
        log,
        metrics_line,
        peak_rss_mb,
        checkpoints,
    })
}

/// The numeric member `key` of a flat JSON line.
fn json_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One full run: generate, serve, load, check, report.
fn run(
    env: &Env,
    spec: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<RunResult, String> {
    let dir = env
        .out
        .join(format!("run-{}-{seed}-{}", spec.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let outcome = run_in(env, spec, seed, seconds, trace, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

fn run_in(
    env: &Env,
    spec: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: &Path,
) -> Result<RunResult, String> {
    let graph_file = dir.join("graph.txt");
    save_graph(&spec.graph(), &graph_file).map_err(|e| format!("writing graph: {e}"))?;
    // Everything downstream sees the graph exactly as the server reads it.
    let graph = Arc::new(load_graph(&graph_file).map_err(|e| format!("reading graph: {e}"))?);
    let window = Duration::from_secs_f64(seconds);
    let inputs = spec.inputs(&graph, seed, window);

    let sock = socket_run(env, spec, &inputs, &graph_file, dir, window)?;
    let log = &sock.log;

    // Latency of every answered read, from its send.
    let answers: HashMap<usize, &load::Answer> = log.answers.iter().map(|a| (a.id, a)).collect();
    let mut served = Vec::new();
    let mut latency = Vec::new();
    let mut refused = 0usize;
    let mut typed_errors = 0usize;
    let mut queue_ms = Vec::new();
    for s in &log.reads {
        let Some(a) = answers.get(&s.id) else {
            continue;
        };
        let op = &inputs.reads[s.id];
        match Served::parse(&a.line, op.q, op.seed, s.pin) {
            Some(sv) => {
                if !sv.is_result() {
                    typed_errors += 1;
                }
                served.push(sv);
                latency.push(a.at.saturating_duration_since(s.at).as_secs_f64() * 1e3);
                queue_ms.extend(json_num(&a.line, "queue_ms"));
            }
            None => refused += 1,
        }
    }
    let unanswered = log.reads.len() - served.len() - refused;

    // The oracle: acknowledged updates, in epoch order.
    let updates: Vec<GraphUpdate> = inputs.writes[..log.write_epochs.len()]
        .iter()
        .map(|w| GraphUpdate::parse_line(w))
        .collect::<Result<_, _>>()?;
    let epochs_in_order = log
        .write_epochs
        .iter()
        .enumerate()
        .all(|(i, &e)| e == i as u64 + 1);
    let verdicts = oracle::verify(&graph, &updates, &served, env.nproc);
    let mismatches = verdicts.iter().filter(|ok| !**ok).count();
    let limit = spec.latency_limit_ms;
    // An answer matching the reference is correct, a typed `no_community`
    // included: csag-wire defines it as a definitive "no", not a failure.
    let ok_reads = verdicts
        .iter()
        .zip(&latency)
        .filter(|(ok, ms)| **ok && **ms <= limit)
        .count();
    let correct_reads = verdicts.iter().filter(|ok| **ok).count();

    // Write latency: send to ack.
    let write_ms: Vec<f64> = log
        .writes
        .iter()
        .zip(&log.write_acks)
        .map(|(w, at)| at.saturating_duration_since(w.at).as_secs_f64() * 1e3)
        .collect();
    let unacked = log.writes.len() - log.write_acks.len().min(log.writes.len());

    let results: Vec<&Served> = served.iter().filter(|s| s.is_result()).collect();
    let certified = results
        .iter()
        .filter(|s| s.body.contains("\"certified\":true"))
        .count();
    let moe: Vec<f64> = results
        .iter()
        .filter_map(|s| json_num(&s.body, "moe"))
        .collect();

    let attempted = log.reads.len() + log.writes.len();
    let failed = unanswered + refused + (served.len() - correct_reads) + unacked;
    let correct = mismatches == 0 && epochs_in_order && unacked == 0;
    let (read_tail_pct, read_tail) = tail(&latency);
    let (write_tail_pct, write_tail) = tail(&write_ms);

    let meta = format!(
        "{{\"meta\":{{\"workload\":\"{}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\
         \"nproc\":{},\"workers\":{},\"connections\":{},\"threads\":{},\"reads\":{},\"writes\":{},\
         \"mismatches\":{mismatches},\"refused\":{refused},\"typed_errors\":{typed_errors},\"unanswered\":{unanswered},\
         \"read_tail_pct\":{read_tail_pct:.2},\"write_tail_pct\":{write_tail_pct:.2},\
         \"latency_limit_ms\":{limit},\"wal\":{},\"fsync\":\"always\",\"checkpoint_every\":{CHECKPOINT_EVERY},\
         \"checkpoints\":{},\"server_metrics\":{}}}}}",
        spec.name,
        env.nproc,
        env.nproc,
        log.connections,
        log.threads + 1,
        log.reads.len(),
        log.writes.len(),
        spec.wal,
        sock.checkpoints,
        sock.metrics_line.trim()
    );
    if sock.checkpoints < spec.min_checkpoints {
        return Err(format!(
            "invalid run: {} checkpoint(s), the workload needs at least {} (raise --seconds)",
            sock.checkpoints, spec.min_checkpoints
        ));
    }
    if mismatches > 0 {
        eprintln!("perfbench: {mismatches} answer(s) differ from the reference");
    }

    let metrics: Vec<(String, f64, &'static str)> = if !trace {
        vec![
            ("setup_s".into(), median(&sock.setup_s), "s"),
            ("read_p50_ms".into(), median(&latency), "ms"),
            ("read_tail_ms".into(), read_tail, "ms"),
            (
                "read_ok_share".into(),
                ok_reads as f64 / log.reads.len().max(1) as f64,
                "ratio",
            ),
            (
                "read_qps".into(),
                correct_reads as f64 / log.busy_s.max(1e-9),
                "1/s",
            ),
            ("write_p50_ms".into(), median(&write_ms), "ms"),
            ("write_tail_ms".into(), write_tail, "ms"),
            (
                "certified_share".into(),
                certified as f64 / results.len().max(1) as f64,
                "ratio",
            ),
            ("mean_moe".into(), mean(&moe), "ratio"),
            ("peak_rss_mb".into(), sock.peak_rss_mb, "MB"),
        ]
    } else {
        let (read_count, write_count) = trace_counts(spec, &inputs);
        let replay = trace::replay(
            &graph_file,
            &inputs,
            read_count,
            write_count,
            &dir.join("trace-wal"),
            &env.out.join(format!("spans-{}-{seed}.jsonl", spec.name)),
        )?;
        for (name, ms) in &replay.self_by_name {
            eprintln!("perfbench: self time {name:<22} {ms:>12.3} ms");
        }
        let sm = &sock.metrics_line;
        let admitted = json_num(sm, "admitted").unwrap_or(0.0).max(1.0);
        let submitted = json_num(sm, "submitted").unwrap_or(0.0).max(1.0);
        let mut m: Vec<(String, f64, &'static str)> = replay
            .metrics()
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), v, u))
            .collect();
        m.extend([
            ("service.queue_wait_p50_ms".into(), median(&queue_ms), "ms"),
            (
                "service.queue_wait_p99_ms".into(),
                quantile(&queue_ms, 0.99),
                "ms",
            ),
            (
                "service.coalesced_share".into(),
                json_num(sm, "coalesced").unwrap_or(0.0) / admitted,
                "ratio",
            ),
            (
                "service.shed_share".into(),
                json_num(sm, "shed").unwrap_or(0.0) / submitted,
                "ratio",
            ),
            (
                "service.wakes_per_admit".into(),
                json_num(sm, "wakes").unwrap_or(0.0) / admitted,
                "ratio",
            ),
            (
                "transport.residual_ms".into(),
                median(&latency) - median(&replay.read_ms),
                "ms",
            ),
        ]);
        m
    };
    Ok(RunResult {
        correct,
        attempted: attempted.max(1),
        failed,
        metrics,
        meta,
    })
}

/// How many of the run's reads and writes the traced replay repeats:
/// the workload's `trace_reads`, and the first [`TRACE_WRITES`] writes.
fn trace_counts(spec: &Workload, inputs: &workload::Inputs) -> (usize, usize) {
    (
        spec.trace_reads.min(inputs.reads.len()).max(1),
        inputs.writes.len().min(TRACE_WRITES),
    )
}

/// A tiny-scale pass of every workload: both run modes, the oracle, the
/// ledger check, and allocation counts that repeat exactly.
fn self_test(env: &Env) -> Result<i32, String> {
    let started = Instant::now();
    let mut failures = Vec::new();
    for name in NAMES {
        let spec = Workload::named(name).expect("listed workload").tiny();
        for trace in [false, true] {
            match run(env, &spec, 7, 2.0, trace) {
                Ok(r) if r.correct && r.failed == 0 => {
                    eprintln!(
                        "self-test {name} trace={trace}: ok ({} attempted)",
                        r.attempted
                    )
                }
                Ok(r) => failures.push(format!("{name} trace={trace}: {}", r.to_json())),
                Err(e) => failures.push(format!("{name} trace={trace}: {e}")),
            }
        }
        // The counting allocator's figures repeat exactly for one input.
        let dir = env
            .out
            .join(format!("selftest-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let graph_file = dir.join("graph.txt");
        save_graph(&spec.graph(), &graph_file).map_err(|e| e.to_string())?;
        let g = load_graph(&graph_file).map_err(|e| e.to_string())?;
        let inputs = spec.inputs(&g, 7, Duration::from_secs(2));
        let (reads, writes) = trace_counts(&spec, &inputs);
        let mut counts = Vec::new();
        for i in 0..2 {
            let r = trace::replay(
                &graph_file,
                &inputs,
                reads,
                writes,
                &dir.join(format!("wal-{i}")),
                &dir.join(format!("spans-{i}.jsonl")),
            )?;
            counts.push((median(&r.read_allocs), median(&r.write_allocs)));
        }
        let _ = std::fs::remove_dir_all(&dir);
        if counts[0] != counts[1] {
            failures.push(format!(
                "{name}: allocation counts differ between replays: {counts:?}"
            ));
        } else {
            eprintln!(
                "self-test {name}: allocation counts repeat ({:?})",
                counts[0]
            );
        }
    }
    eprintln!("self-test took {:.1} s", started.elapsed().as_secs_f64());
    if failures.is_empty() {
        println!("self-test: ok");
        Ok(0)
    } else {
        for f in &failures {
            eprintln!("self-test FAILED: {f}");
        }
        Ok(1)
    }
}
