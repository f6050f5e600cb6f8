//! Chaos harness for `limad`: hundreds of concurrent zipf-skewed sessions
//! across tenants, with deterministic fault injection at the service's
//! sites (connection drops, a slow shard, crash mid-WAL-append), asserting
//! two invariants that must hold under every fault plan:
//!
//! 1. **Baseline equivalence** — every value the service returns is equal to
//!    the same script executed in-process with no service and no faults.
//! 2. **Bounded tails** — no request hangs; p99 latency stays under a cap
//!    (generous by default, tightened in CI), and typed overload/deadline
//!    errors are the only acceptable non-successes.
//!
//! Scenarios (`--fault`): `none`, `conn-drop`, `slow-shard`, `crash-restart`,
//! `corrupt-at-rest` (bit-flips committed value files under a live server and
//! requires the scrubber to repair them from lineage), `corrupt-restart`
//! (corrupts the directory between runs and requires recovery-time repair),
//! `replica-kill` (kills and restarts one member of a 2-replica group under
//! load; clients must fail over with zero hard errors and anti-entropy must
//! reconverge the keyspaces), `partition` (pauses replication on both
//! members, diverges them, and requires anti-entropy to heal the split),
//! `hedge` (one member is uniformly slow; hedged fetches must keep the read
//! p99 near the healthy baseline), `all` (conn-drop + slow-shard; the
//! persistence and replication faults run as their own phases).
//! Seeds come from `--seed` or the comma-separated `LIMA_FAULT_SEEDS`
//! environment variable (the CI contract); every trigger decision is a pure
//! function of the seed, so a failing run replays bit-identically.
//!
//! `--bench-out PATH` writes one JSON record per seed (p50/p99 latency,
//! availability %, anti-entropy convergence time, hedges won) for the CI
//! artifact trail.
//!
//! Exit codes: 0 success, 1 invariant violation, 2 usage error.

use lima_algos::runner::run_script;
use lima_client::{ClientOptions, LimadClient, SubmitOptions};
use lima_core::faults::{mix, FaultInjector, FaultSite};
use lima_core::lineage::serialize_lineage;
use lima_core::resilience::RetryPolicy;
use lima_core::{LimaConfig, LimaStats};
use limad::{LimadConfig, ReplOptions, ReplicaGroup, Server, ShardState};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const TENANTS: usize = 4;
const WORKERS: usize = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    ConnDrop,
    SlowShard,
    CrashRestart,
    CorruptAtRest,
    CorruptRestart,
    ReplicaKill,
    Partition,
    Hedge,
    All,
}

impl Fault {
    fn parse(s: &str) -> Option<Fault> {
        match s {
            "none" => Some(Fault::None),
            "conn-drop" => Some(Fault::ConnDrop),
            "slow-shard" => Some(Fault::SlowShard),
            "crash-restart" => Some(Fault::CrashRestart),
            "corrupt-at-rest" => Some(Fault::CorruptAtRest),
            "corrupt-restart" => Some(Fault::CorruptRestart),
            "replica-kill" => Some(Fault::ReplicaKill),
            "partition" => Some(Fault::Partition),
            "hedge" => Some(Fault::Hedge),
            "all" => Some(Fault::All),
            _ => None,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Fault::None => "none",
            Fault::ConnDrop => "conn-drop",
            Fault::SlowShard => "slow-shard",
            Fault::CrashRestart => "crash-restart",
            Fault::CorruptAtRest => "corrupt-at-rest",
            Fault::CorruptRestart => "corrupt-restart",
            Fault::ReplicaKill => "replica-kill",
            Fault::Partition => "partition",
            Fault::Hedge => "hedge",
            Fault::All => "all",
        }
    }
}

struct Args {
    fault: Fault,
    sessions: usize,
    shards: usize,
    seeds: Vec<u64>,
    p99_cap_ms: u64,
    bench_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut fault = Fault::All;
    let mut sessions = 200usize;
    let mut shards = 4usize;
    let mut seed: Option<u64> = None;
    let mut p99_cap_ms = 10_000u64;
    let mut bench_out: Option<PathBuf> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut need = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--fault" => {
                let v = need("--fault")?;
                fault = Fault::parse(&v).ok_or(format!("unknown fault scenario '{v}'"))?;
            }
            "--sessions" => {
                sessions = need("--sessions")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--shards" => shards = need("--shards")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => seed = Some(need("--seed")?.parse().map_err(|e| format!("{e}"))?),
            "--p99-cap-ms" => {
                p99_cap_ms = need("--p99-cap-ms")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--bench-out" => bench_out = Some(PathBuf::from(need("--bench-out")?)),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    // --seed wins; otherwise the CI contract: LIMA_FAULT_SEEDS=1,2,3,4,5.
    let seeds = match seed {
        Some(s) => vec![s],
        None => match std::env::var("LIMA_FAULT_SEEDS") {
            Ok(raw) => raw
                .split(',')
                .filter(|s| !s.trim().is_empty())
                .map(|s| s.trim().parse().map_err(|e| format!("bad seed '{s}': {e}")))
                .collect::<Result<Vec<u64>, String>>()?,
            Err(_) => vec![7],
        },
    };
    if seeds.is_empty() {
        return Err("no seeds given".into());
    }
    Ok(Args {
        fault,
        sessions,
        shards,
        seeds,
        p99_cap_ms,
        bench_out,
    })
}

/// The script corpus: parameterized templates instantiated per seed. Every
/// script is self-contained and deterministic, so the in-process baseline is
/// exact.
fn corpus(seed: u64) -> Vec<String> {
    let mut scripts = Vec::new();
    for i in 0..4u64 {
        let p = 1 + (mix(seed ^ i) % 7);
        scripts.push(format!(
            "X = matrix({p}, 40, 12);\nG = t(X) %*% X;\ns = sum(G);\n"
        ));
        scripts.push(format!(
            "X = matrix(2, 30, 30);\nY = X + {p};\nZ = Y * 2;\ns = sum(Z - X);\n"
        ));
        scripts.push(format!(
            "acc = 0;\nfor (i in 1:{n}) {{\n  acc = acc + i * {p};\n}}\ns = acc;\n",
            n = 50 + p * 10
        ));
        scripts.push(format!(
            "X = matrix({p}, 25, 25);\ns = sum(t(X) %*% X) + {p};\n"
        ));
        scripts.push(format!(
            "X = matrix(3, 50, 8);\nY = X + {p};\ns = sum(X + Y);\n"
        ));
        scripts.push(format!(
            "X = matrix({p}, 20, 20);\nA = X * 3;\nB = A - X;\ns = sum(B) + sum(A);\n"
        ));
    }
    scripts
}

/// Zipf-skewed index over `n` items (exponent ~1.1): item 0 is hottest, the
/// tail is long. Deterministic in (seed, draw index).
fn zipf(seed: u64, draw: u64, n: usize) -> usize {
    let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(1.1)).collect();
    let total: f64 = weights.iter().sum();
    let u = (mix(seed ^ mix(draw)) >> 11) as f64 / (1u64 << 53) as f64;
    let mut acc = 0.0;
    for (i, w) in weights.iter().enumerate() {
        acc += w / total;
        if u < acc {
            return i;
        }
    }
    n - 1
}

fn injector_for(fault: Fault, seed: u64) -> Option<Arc<FaultInjector>> {
    let inj = match fault {
        Fault::None
        | Fault::CrashRestart
        | Fault::CorruptAtRest
        | Fault::CorruptRestart
        | Fault::ReplicaKill
        | Fault::Partition
        | Fault::Hedge => return None,
        Fault::ConnDrop => {
            FaultInjector::new(seed).fail_with_probability(FaultSite::ConnDrop, 0.05)
        }
        // Exactly one shard is slow; which one rotates with the seed.
        Fault::SlowShard => FaultInjector::new(seed).fail_at(FaultSite::SlowShard, &[seed % 4]),
        Fault::All => FaultInjector::new(seed)
            .fail_with_probability(FaultSite::ConnDrop, 0.05)
            .fail_at(FaultSite::SlowShard, &[seed % 4]),
    };
    Some(Arc::new(inj))
}

/// Runs every script in-process (no service, no faults) and returns the
/// expected `s` values — the oracle every served result is checked against.
fn baseline_for(scripts: &[String]) -> Result<Vec<f64>, String> {
    scripts
        .iter()
        .map(|s| {
            run_script(s, &LimaConfig::lima(), &[])
                .map_err(|e| format!("baseline failed: {e:?}"))?
                .value("s")
                .as_f64()
                .map_err(|e| format!("baseline output: {e:?}"))
        })
        .collect()
}

fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

fn percentile(sorted_ms: &[u64], p: f64) -> u64 {
    if sorted_ms.is_empty() {
        return 0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx]
}

/// Scrapes `/metrics` over raw HTTP and checks the exposition for `needles`
/// on top of the baseline counters every server must export.
fn scrape_with(server: &Server, needles: &[&str]) -> Result<(), String> {
    let mut stream = TcpStream::connect(server.metrics_addr()).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .map_err(|e| e.to_string())?;
    let mut body = String::new();
    stream
        .read_to_string(&mut body)
        .map_err(|e| e.to_string())?;
    if !body.starts_with("HTTP/1.0 200") {
        return Err(format!(
            "scrape did not return 200: {:?}",
            body.lines().next()
        ));
    }
    for needle in [
        "lima_total_hits",
        "lima_srv_requests",
        "limad_shard_state{shard=\"0\"}",
    ]
    .iter()
    .chain(needles)
    {
        if !body.contains(needle) {
            return Err(format!("scrape output missing '{needle}'"));
        }
    }
    Ok(())
}

/// Baseline scrape check for standalone servers.
fn scrape_metrics(server: &Server) -> Result<(), String> {
    scrape_with(server, &[])
}

/// Scrape check for replica-group members: the replication gauges must be
/// present alongside the standard exposition. `peer` is the group-wide
/// member index this server's health gauge should be labelled with.
fn scrape_replicated(server: &Server, peer: usize) -> Result<(), String> {
    let state = format!("limad_replica_state{{member=\"{peer}\"}}");
    scrape_with(server, &[&state, "limad_repl_queue_depth"])
}

struct TrafficReport {
    latencies_ms: Vec<u64>,
    mismatches: Vec<String>,
    hard_errors: Vec<String>,
    typed_errors: usize,
}

/// One seed's bench row for `--bench-out`. Scenarios that have no
/// anti-entropy phase or hedging leave those fields at zero.
struct BenchRecord {
    seed: u64,
    p50_ms: u64,
    p99_ms: u64,
    availability_pct: f64,
    convergence_ms: u64,
    hedges_won: u64,
}

impl BenchRecord {
    fn from_report(seed: u64, report: &TrafficReport) -> BenchRecord {
        let mut sorted = report.latencies_ms.clone();
        sorted.sort_unstable();
        let total = report.latencies_ms.len().max(1);
        BenchRecord {
            seed,
            p50_ms: percentile(&sorted, 0.50),
            p99_ms: percentile(&sorted, 0.99),
            availability_pct: 100.0 * (total - report.typed_errors) as f64 / total as f64,
            convergence_ms: 0,
            hedges_won: 0,
        }
    }
}

/// Hand-rolled JSON (no serde in the tree): one object per seed under a
/// top-level fault tag.
fn bench_json(fault: Fault, records: &[BenchRecord]) -> String {
    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "    {{\"seed\": {}, \"p50_ms\": {}, \"p99_ms\": {}, \
                 \"availability_pct\": {:.2}, \"convergence_ms\": {}, \"hedges_won\": {}}}",
                r.seed, r.p50_ms, r.p99_ms, r.availability_pct, r.convergence_ms, r.hedges_won
            )
        })
        .collect();
    format!(
        "{{\n  \"fault\": \"{}\",\n  \"results\": [\n{}\n  ]\n}}\n",
        fault.as_str(),
        rows.join(",\n")
    )
}

/// Drives `sessions` zipf-sampled submits from `WORKERS` client threads
/// against a running server and checks every returned value against the
/// baseline. Typed Overloaded/DeadlineExceeded responses are tolerated
/// (counted); anything else — transport errors included, the client retries
/// those itself — is a hard failure.
fn drive_traffic(
    server: &Server,
    scripts: &[String],
    baseline: &[f64],
    sessions: usize,
    seed: u64,
) -> TrafficReport {
    let addr = server.addr().to_string();
    let next = AtomicUsize::new(0);
    let report = Mutex::new(TrafficReport {
        latencies_ms: Vec::with_capacity(sessions),
        mismatches: Vec::new(),
        hard_errors: Vec::new(),
        typed_errors: 0,
    });
    std::thread::scope(|scope| {
        for worker in 0..WORKERS {
            let addr = &addr;
            let next = &next;
            let report = &report;
            scope.spawn(move || {
                let opts = ClientOptions {
                    // Scripts are deterministic and idempotent, so retrying a
                    // submit after an injected connection drop is safe here.
                    retry_submits: true,
                    retry: RetryPolicy::new(5, 10, seed ^ worker as u64),
                    default_deadline: Duration::from_secs(20),
                    ..ClientOptions::default()
                };
                let tenant = format!("tenant-{}", worker % TENANTS);
                let mut client = LimadClient::new(addr, &tenant, opts);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= sessions {
                        return;
                    }
                    let script_idx = zipf(seed, i as u64, scripts.len());
                    let submit = SubmitOptions {
                        outputs: vec!["s".to_string()],
                        ..SubmitOptions::default()
                    };
                    let t0 = Instant::now();
                    let result = client.submit(&scripts[script_idx], &submit);
                    let ms = t0.elapsed().as_millis() as u64;
                    let mut r = report.lock().unwrap();
                    r.latencies_ms.push(ms);
                    match result {
                        Ok(done) => {
                            let got = done
                                .value("s")
                                .and_then(|v| v.as_f64().ok())
                                .unwrap_or(f64::NAN);
                            if !approx_eq(got, baseline[script_idx]) {
                                r.mismatches.push(format!(
                                    "session {i}: script {script_idx} returned {got}, baseline {}",
                                    baseline[script_idx]
                                ));
                            }
                        }
                        Err(e) if e.code().is_some() => r.typed_errors += 1,
                        Err(e) => r.hard_errors.push(format!("session {i}: {e}")),
                    }
                }
            });
        }
    });
    report.into_inner().unwrap()
}

/// Like [`drive_traffic`] but against a replica group: every worker holds a
/// multi-member client preferring member 0, so failover, breakers, and
/// hedging are all live. `controller` runs on the calling thread while the
/// workers churn — it gets the shared progress counter and is where
/// scenarios kill, restart, or partition members mid-load.
fn drive_replicated(
    addrs: &[String],
    scripts: &[String],
    baseline: &[f64],
    sessions: usize,
    seed: u64,
    controller: impl FnOnce(&AtomicUsize),
) -> TrafficReport {
    let next = AtomicUsize::new(0);
    let report = Mutex::new(TrafficReport {
        latencies_ms: Vec::with_capacity(sessions),
        mismatches: Vec::new(),
        hard_errors: Vec::new(),
        typed_errors: 0,
    });
    std::thread::scope(|scope| {
        for worker in 0..WORKERS {
            let next = &next;
            let report = &report;
            scope.spawn(move || {
                let opts = ClientOptions {
                    retry_submits: true,
                    retry: RetryPolicy::new(6, 10, seed ^ worker as u64),
                    default_deadline: Duration::from_secs(20),
                    ..ClientOptions::default()
                };
                let tenant = format!("tenant-{}", worker % TENANTS);
                let mut client = LimadClient::new_replicated(addrs, &tenant, opts);
                client.set_preferred(0);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= sessions {
                        return;
                    }
                    let script_idx = zipf(seed, i as u64, scripts.len());
                    let submit = SubmitOptions {
                        outputs: vec!["s".to_string()],
                        ..SubmitOptions::default()
                    };
                    let t0 = Instant::now();
                    let result = client.submit(&scripts[script_idx], &submit);
                    let ms = t0.elapsed().as_millis() as u64;
                    let mut r = report.lock().unwrap();
                    r.latencies_ms.push(ms);
                    match result {
                        Ok(done) => {
                            let got = done
                                .value("s")
                                .and_then(|v| v.as_f64().ok())
                                .unwrap_or(f64::NAN);
                            if !approx_eq(got, baseline[script_idx]) {
                                r.mismatches.push(format!(
                                    "session {i}: script {script_idx} returned {got}, baseline {}",
                                    baseline[script_idx]
                                ));
                            }
                        }
                        Err(e) if e.code().is_some() => r.typed_errors += 1,
                        Err(e) => r.hard_errors.push(format!("session {i}: {e}")),
                    }
                }
            });
        }
        controller(&next);
    });
    report.into_inner().unwrap()
}

/// Blocks until the shared session counter reaches `target`.
fn wait_progress(next: &AtomicUsize, target: usize) {
    while next.load(Ordering::Relaxed) < target {
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Config for an in-process replica group member template: memory-only (the
/// replication scenarios study availability, not persistence), background
/// scrub off, default replication options.
fn group_config(shards: usize) -> LimadConfig {
    LimadConfig {
        shards,
        scrub_interval_ms: 0,
        repl: Some(ReplOptions::default()),
        ..LimadConfig::default()
    }
}

/// Polls until both members of a 2-replica group vouch for the identical
/// non-empty keyspace; returns how long convergence took.
fn await_convergence(group: &ReplicaGroup, timeout: Duration) -> Result<u64, String> {
    let t0 = Instant::now();
    loop {
        let done = match (group.get(0), group.get(1)) {
            (Some(a), Some(b)) => {
                let ha = a.keyspace_hashes();
                !ha.is_empty() && ha == b.keyspace_hashes()
            }
            _ => false,
        };
        if done {
            return Ok(t0.elapsed().as_millis() as u64);
        }
        if t0.elapsed() >= timeout {
            // Dump the replication counters so a CI failure is diagnosable
            // from the log alone.
            if let (Some(a), Some(b)) = (group.get(0), group.get(1)) {
                let ha = a.keyspace_hashes();
                let hb = b.keyspace_hashes();
                let only_a = ha.iter().filter(|h| !hb.contains(h)).count();
                let only_b = hb.iter().filter(|h| !ha.contains(h)).count();
                for (name, s) in [("m0", a.server_stats()), ("m1", b.server_stats())] {
                    eprintln!(
                        "chaos: convergence stall: {name} keys={} ae_rounds={} ae_pulled={} \
                         repl_applied={} repl_rejected={}",
                        if name == "m0" { ha.len() } else { hb.len() },
                        LimaStats::get(&s.ae_rounds),
                        LimaStats::get(&s.ae_pulled),
                        LimaStats::get(&s.repl_applied),
                        LimaStats::get(&s.repl_rejected),
                    );
                }
                eprintln!("chaos: convergence stall: only_m0={only_a} only_m1={only_b}");
            }
            return Err(format!(
                "anti-entropy did not converge within {}ms",
                timeout.as_millis()
            ));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// One seeded run of the steady-state scenarios (everything but
/// crash-restart). Returns an error string on any invariant violation.
fn run_steady(args: &Args, seed: u64) -> Result<BenchRecord, String> {
    let scripts = corpus(seed);
    let baseline = baseline_for(&scripts)?;

    let mut template = LimaConfig::lima();
    template.faults = injector_for(args.fault, seed);
    let server = Server::start(LimadConfig {
        shards: args.shards,
        template,
        ..LimadConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;

    let t0 = Instant::now();
    let report = drive_traffic(&server, &scripts, &baseline, args.sessions, seed);
    let wall = t0.elapsed();

    if !report.mismatches.is_empty() {
        return Err(format!(
            "{} baseline mismatches, first: {}",
            report.mismatches.len(),
            report.mismatches[0]
        ));
    }
    if !report.hard_errors.is_empty() {
        return Err(format!(
            "{} hard errors, first: {}",
            report.hard_errors.len(),
            report.hard_errors[0]
        ));
    }
    let mut sorted = report.latencies_ms.clone();
    sorted.sort_unstable();
    let (p50, p99) = (percentile(&sorted, 0.50), percentile(&sorted, 0.99));
    if p99 > args.p99_cap_ms {
        return Err(format!("p99 {p99}ms exceeds cap {}ms", args.p99_cap_ms));
    }
    scrape_metrics(&server)?;

    let drops = LimaStats::get(&server.server_stats().srv_conn_drops);
    println!(
        "chaos: seed={seed} fault={} sessions={} ok p50={p50}ms p99={p99}ms \
         typed_errors={} conn_drops={drops} wall={}ms",
        args.fault.as_str(),
        args.sessions,
        report.typed_errors,
        wall.as_millis()
    );
    Ok(BenchRecord::from_report(seed, &report))
}

/// Crash-restart: phase 1 persists under injected crash points (the WAL
/// append tears mid-record on one shard), phase 2 restarts over the same
/// directory and must recover warm — values stay baseline-equal and at least
/// one request is served from a recovered entry.
fn run_crash_restart(args: &Args, seed: u64) -> Result<(), String> {
    let scripts = corpus(seed);
    let baseline = baseline_for(&scripts)?;
    let dir = std::env::temp_dir().join(format!("lima-chaos-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Phase 1: serve with a crash injected mid-WAL-append. The store that
    // draws the torn append latches crashed and stops persisting; everything
    // keeps serving from memory.
    let mut template = LimaConfig::lima();
    template.faults = Some(Arc::new(
        FaultInjector::new(seed).fail_at(FaultSite::PersistWalAppend, &[4 + seed % 3]),
    ));
    let first = Server::start(LimadConfig {
        shards: args.shards,
        template,
        persist_root: Some(dir.clone()),
        ..LimadConfig::default()
    })
    .map_err(|e| format!("phase-1 start: {e}"))?;
    let report = drive_traffic(&first, &scripts, &baseline, args.sessions, seed);
    if !report.mismatches.is_empty() {
        return Err(format!(
            "phase 1: {} baseline mismatches under torn WAL, first: {}",
            report.mismatches.len(),
            report.mismatches[0]
        ));
    }
    if !report.hard_errors.is_empty() {
        return Err(format!("phase 1: hard error: {}", report.hard_errors[0]));
    }
    let writes: u64 = first
        .shards()
        .iter()
        .map(|s| LimaStats::get(&s.stats().persist_writes))
        .sum();
    if writes == 0 {
        return Err("phase 1 persisted nothing; crash-restart proves nothing".into());
    }
    first.shutdown();

    // Phase 2: a fresh process over the same directory. Recovery must
    // tolerate the torn tail, warm at least one shard, and serve re-runs
    // from recovered entries.
    let second = Server::start(LimadConfig {
        shards: args.shards,
        template: LimaConfig::lima(),
        persist_root: Some(dir.clone()),
        ..LimadConfig::default()
    })
    .map_err(|e| format!("phase-2 start: {e}"))?;
    let warm = second
        .shards()
        .iter()
        .filter(|s| s.state() == ShardState::Warm)
        .count();
    if warm == 0 {
        return Err("phase 2: no shard recovered WAL entries".into());
    }
    let report = drive_traffic(&second, &scripts, &baseline, args.sessions, seed ^ 0xC0DE);
    if !report.mismatches.is_empty() {
        return Err(format!(
            "phase 2: recovered values diverge from baseline: {}",
            report.mismatches[0]
        ));
    }
    if !report.hard_errors.is_empty() {
        return Err(format!("phase 2: hard error: {}", report.hard_errors[0]));
    }
    let persist_hits: u64 = second
        .shards()
        .iter()
        .map(|s| LimaStats::get(&s.stats().persist_hits))
        .sum();
    if persist_hits == 0 {
        return Err("phase 2: warm restart served zero persist hits".into());
    }
    scrape_metrics(&second)?;
    println!(
        "chaos: seed={seed} fault=crash-restart sessions={} ok warm_shards={warm} \
         persist_writes={writes} persist_hits={persist_hits}",
        args.sessions
    );
    drop(second);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Flips one bit mid-file in every committed value file under every
/// `shard-*/values` directory. Returns how many files were corrupted.
fn flip_value_files(root: &std::path::Path) -> Result<usize, String> {
    let mut flipped = 0;
    let shards = std::fs::read_dir(root).map_err(|e| format!("read {root:?}: {e}"))?;
    for shard in shards.flatten() {
        let values = shard.path().join("values");
        let Ok(entries) = std::fs::read_dir(&values) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("val") {
                continue;
            }
            let mut raw = std::fs::read(&path).map_err(|e| format!("read {path:?}: {e}"))?;
            if raw.is_empty() {
                continue;
            }
            let mid = raw.len() / 2;
            raw[mid] ^= 0x01;
            std::fs::write(&path, &raw).map_err(|e| format!("write {path:?}: {e}"))?;
            flipped += 1;
        }
    }
    Ok(flipped)
}

/// Flips one bit mid-file in every shard's active (highest-generation)
/// manifest WAL. Returns how many WALs were corrupted.
fn flip_wal_frames(root: &std::path::Path) -> Result<usize, String> {
    let mut flipped = 0;
    let shards = std::fs::read_dir(root).map_err(|e| format!("read {root:?}: {e}"))?;
    for shard in shards.flatten() {
        let mut best: Option<(u64, std::path::PathBuf)> = None;
        let Ok(entries) = std::fs::read_dir(shard.path()) else {
            continue;
        };
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(g) = name
                .strip_prefix("manifest.")
                .and_then(|s| s.strip_suffix(".wal"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                if best.as_ref().is_none_or(|(bg, _)| g > *bg) {
                    best = Some((g, entry.path()));
                }
            }
        }
        let Some((_, path)) = best else {
            continue;
        };
        let mut raw = std::fs::read(&path).map_err(|e| format!("read {path:?}: {e}"))?;
        if raw.is_empty() {
            continue;
        }
        let mid = raw.len() / 2;
        raw[mid] ^= 0x01;
        std::fs::write(&path, &raw).map_err(|e| format!("write {path:?}: {e}"))?;
        flipped += 1;
    }
    Ok(flipped)
}

/// Template for the corruption scenarios: multi-level reuse is disabled so
/// every persisted lineage is built from primitive ops and therefore
/// replayable by the repairer (opaque `fcall:` items are repair-ineligible
/// by design — see DESIGN.md §13).
fn repairable_template() -> LimaConfig {
    let mut template = LimaConfig::lima();
    template.multilevel = false;
    template
}

/// Corrupt-at-rest: warm a persistent server, bit-flip every committed value
/// file and every manifest WAL while the server keeps running, then drive a
/// scrub pass through the admin wire op. The scrubber must detect every
/// flip, repair it — values from lineage, WALs by compacting into a fresh
/// generation — and the served values must stay baseline-equal.
fn run_corrupt_at_rest(args: &Args, seed: u64) -> Result<(), String> {
    let scripts = corpus(seed);
    let baseline = baseline_for(&scripts)?;
    let dir = std::env::temp_dir().join(format!("lima-chaos-car-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Background scrubbing is off: the admin wire op is the only scrubber,
    // so the per-pass counters below are deterministic.
    let server = Server::start(LimadConfig {
        shards: args.shards,
        template: repairable_template(),
        persist_root: Some(dir.clone()),
        scrub_interval_ms: 0,
        ..LimadConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;

    let report = drive_traffic(&server, &scripts, &baseline, args.sessions, seed);
    if !report.mismatches.is_empty() {
        return Err(format!("warm-up mismatch: {}", report.mismatches[0]));
    }
    if !report.hard_errors.is_empty() {
        return Err(format!("warm-up hard error: {}", report.hard_errors[0]));
    }
    let writes: u64 = server
        .shards()
        .iter()
        .map(|s| LimaStats::get(&s.stats().persist_writes))
        .sum();
    if writes == 0 {
        return Err("warm-up persisted nothing; corruption proves nothing".into());
    }

    let flipped = flip_value_files(&dir)?;
    if flipped == 0 {
        return Err("no value files found to corrupt".into());
    }
    // Damage the WALs themselves too: every live record is resident, so the
    // scrubber heals a bad frame by compacting into a fresh generation.
    let flipped_wals = flip_wal_frames(&dir)?;
    if flipped_wals == 0 {
        return Err("no manifest WALs found to corrupt".into());
    }

    let mut admin = LimadClient::new(
        &server.addr().to_string(),
        "chaos-admin",
        ClientOptions {
            default_deadline: Duration::from_secs(60),
            ..ClientOptions::default()
        },
    );
    let reports = admin.scrub().map_err(|e| format!("scrub rpc: {e}"))?;
    let corrupt: u64 = reports.iter().map(|r| r.corrupt).sum();
    let repaired: u64 = reports.iter().map(|r| r.repaired).sum();
    let repair_failures: u64 = reports.iter().map(|r| r.repair_failures).sum();
    let quarantined: u64 = reports.iter().map(|r| r.quarantined).sum();
    if reports.iter().any(|r| !r.completed) {
        return Err("scrub pass did not complete a full sweep".into());
    }
    let expected = (flipped + flipped_wals) as u64;
    if corrupt < expected {
        return Err(format!(
            "scrub found {corrupt} corruptions but {flipped} value files and \
             {flipped_wals} WALs were flipped"
        ));
    }
    if repaired < corrupt || repair_failures > 0 || quarantined > 0 {
        return Err(format!(
            "scrub dropped entries instead of healing them: corrupt={corrupt} \
             repaired={repaired} repair_failures={repair_failures} quarantined={quarantined}"
        ));
    }

    // The healed cache must keep serving baseline-equal values with no
    // unexplained misses (every repaired entry is still resident).
    let report = drive_traffic(&server, &scripts, &baseline, args.sessions, seed ^ 0xBEEF);
    if !report.mismatches.is_empty() {
        return Err(format!("post-repair mismatch: {}", report.mismatches[0]));
    }
    if !report.hard_errors.is_empty() {
        return Err(format!("post-repair hard error: {}", report.hard_errors[0]));
    }
    let repairs: u64 = server
        .shards()
        .iter()
        .map(|s| LimaStats::get(&s.stats().persist_repairs))
        .sum();
    if repairs == 0 {
        return Err("no persist_repairs recorded despite corrupt files".into());
    }
    scrape_metrics(&server)?;
    println!(
        "chaos: seed={seed} fault=corrupt-at-rest sessions={} ok flipped={flipped} \
         flipped_wals={flipped_wals} corrupt={corrupt} repaired={repaired}",
        args.sessions
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Corrupt-restart: warm a persistent server, shut it down, bit-flip every
/// committed value file offline, restart over the same directory. Recovery
/// verifies checksums eagerly, so every flip must be found and repaired from
/// lineage at startup — shards come up warm with nothing dropped.
fn run_corrupt_restart(args: &Args, seed: u64) -> Result<(), String> {
    let scripts = corpus(seed);
    let baseline = baseline_for(&scripts)?;
    let dir = std::env::temp_dir().join(format!("lima-chaos-cr-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let first = Server::start(LimadConfig {
        shards: args.shards,
        template: repairable_template(),
        persist_root: Some(dir.clone()),
        scrub_interval_ms: 0,
        ..LimadConfig::default()
    })
    .map_err(|e| format!("phase-1 start: {e}"))?;
    let report = drive_traffic(&first, &scripts, &baseline, args.sessions, seed);
    if !report.mismatches.is_empty() {
        return Err(format!("phase 1 mismatch: {}", report.mismatches[0]));
    }
    if !report.hard_errors.is_empty() {
        return Err(format!("phase 1 hard error: {}", report.hard_errors[0]));
    }
    let writes: u64 = first
        .shards()
        .iter()
        .map(|s| LimaStats::get(&s.stats().persist_writes))
        .sum();
    if writes == 0 {
        return Err("phase 1 persisted nothing; corruption proves nothing".into());
    }
    first.shutdown();

    let flipped = flip_value_files(&dir)?;
    if flipped == 0 {
        return Err("no value files found to corrupt".into());
    }

    let second = Server::start(LimadConfig {
        shards: args.shards,
        template: repairable_template(),
        persist_root: Some(dir.clone()),
        scrub_interval_ms: 0,
        ..LimadConfig::default()
    })
    .map_err(|e| format!("phase-2 start: {e}"))?;
    let warm = second
        .shards()
        .iter()
        .filter(|s| s.state() == ShardState::Warm)
        .count();
    if warm == 0 {
        return Err("phase 2: no shard recovered after corruption".into());
    }
    let repairs: u64 = second
        .shards()
        .iter()
        .map(|s| LimaStats::get(&s.stats().persist_repairs))
        .sum();
    let repair_failures: u64 = second
        .shards()
        .iter()
        .map(|s| LimaStats::get(&s.stats().persist_repair_failures))
        .sum();
    let dropped: u64 = second
        .shards()
        .iter()
        .map(|s| LimaStats::get(&s.stats().persist_dropped))
        .sum();
    if repairs < flipped as u64 {
        return Err(format!(
            "recovery repaired {repairs} of {flipped} corrupted values"
        ));
    }
    if repair_failures > 0 || dropped > 0 {
        return Err(format!(
            "recovery dropped entries instead of healing them: repairs={repairs} \
             repair_failures={repair_failures} dropped={dropped}"
        ));
    }
    let report = drive_traffic(&second, &scripts, &baseline, args.sessions, seed ^ 0xC0DE);
    if !report.mismatches.is_empty() {
        return Err(format!("phase 2 mismatch: {}", report.mismatches[0]));
    }
    if !report.hard_errors.is_empty() {
        return Err(format!("phase 2 hard error: {}", report.hard_errors[0]));
    }
    let persist_hits: u64 = second
        .shards()
        .iter()
        .map(|s| LimaStats::get(&s.stats().persist_hits))
        .sum();
    if persist_hits == 0 {
        return Err("phase 2 served zero persist hits after repair".into());
    }
    scrape_metrics(&second)?;
    println!(
        "chaos: seed={seed} fault=corrupt-restart sessions={} ok warm_shards={warm} \
         flipped={flipped} repairs={repairs} persist_hits={persist_hits}",
        args.sessions
    );
    drop(second);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Replica-kill: a 2-member group serves zipf traffic while member 0 (every
/// client's preferred member) is killed at ~25% progress and restarted at
/// ~60%. Health-gated failover must absorb the outage with zero hard errors
/// and zero baseline mismatches, and anti-entropy must refill the restarted
/// (memory-only, therefore empty) member until both keyspaces match.
fn run_replica_kill(args: &Args, seed: u64) -> Result<BenchRecord, String> {
    let scripts = corpus(seed);
    let baseline = baseline_for(&scripts)?;
    let mut group = ReplicaGroup::start(&group_config(args.shards), 2)
        .map_err(|e| format!("group start: {e}"))?;
    let addrs = group.addrs();
    let sessions = args.sessions;

    let mut restart_err = None;
    let report = drive_replicated(&addrs, &scripts, &baseline, sessions, seed, |next| {
        wait_progress(next, sessions / 4);
        group.kill(0);
        wait_progress(next, sessions * 3 / 5);
        restart_err = group.restart(0).err();
    });
    if let Some(e) = restart_err {
        return Err(format!("member 0 restart: {e}"));
    }
    if !report.mismatches.is_empty() {
        return Err(format!(
            "{} baseline mismatches across the kill, first: {}",
            report.mismatches.len(),
            report.mismatches[0]
        ));
    }
    if !report.hard_errors.is_empty() {
        return Err(format!(
            "{} client-visible failures across the kill, first: {}",
            report.hard_errors.len(),
            report.hard_errors[0]
        ));
    }
    let convergence_ms = await_convergence(&group, Duration::from_secs(30))?;
    let mut record = BenchRecord::from_report(seed, &report);
    record.convergence_ms = convergence_ms;
    if record.p99_ms > args.p99_cap_ms {
        return Err(format!(
            "p99 {}ms exceeds cap {}ms",
            record.p99_ms, args.p99_cap_ms
        ));
    }
    scrape_replicated(group.get(1).expect("member 1 never killed"), 0)?;
    println!(
        "chaos: seed={seed} fault=replica-kill sessions={sessions} ok p50={}ms p99={}ms \
         availability={:.2}% typed_errors={} convergence={convergence_ms}ms",
        record.p50_ms, record.p99_ms, record.availability_pct, report.typed_errors
    );
    group.shutdown();
    Ok(record)
}

/// Partition: phase A replicates normally, then both members' replication
/// machinery is paused (writes dropped, anti-entropy stalled) while phase B
/// drives a *fresh* corpus into member 0 only — the members diverge with no
/// client-visible failures. Lifting the partition must reconverge them.
fn run_partition(args: &Args, seed: u64) -> Result<BenchRecord, String> {
    let scripts_a = corpus(seed);
    let baseline_a = baseline_for(&scripts_a)?;
    let scripts_b = corpus(seed ^ 0xD1FF);
    let baseline_b = baseline_for(&scripts_b)?;
    let group = ReplicaGroup::start(&group_config(args.shards), 2)
        .map_err(|e| format!("group start: {e}"))?;
    let addrs = group.addrs();
    let half = (args.sessions / 2).max(1);

    let report_a = drive_replicated(&addrs, &scripts_a, &baseline_a, half, seed, |_| {});
    if !report_a.mismatches.is_empty() || !report_a.hard_errors.is_empty() {
        return Err(format!(
            "healthy phase failed: {:?} {:?}",
            report_a.mismatches.first(),
            report_a.hard_errors.first()
        ));
    }

    let member0 = group.get(0).expect("member 0 live");
    let member1 = group.get(1).expect("member 1 live");
    let repl0 = member0.replicator().expect("replication configured");
    let repl1 = member1.replicator().expect("replication configured");
    repl0.pause(true);
    repl1.pause(true);

    let report_b = drive_replicated(&addrs, &scripts_b, &baseline_b, half, seed ^ 0xFEED, |_| {});
    if !report_b.mismatches.is_empty() || !report_b.hard_errors.is_empty() {
        return Err(format!(
            "partitioned phase failed: {:?} {:?}",
            report_b.mismatches.first(),
            report_b.hard_errors.first()
        ));
    }
    let dropped_sends = LimaStats::get(&member0.server_stats().repl_send_failures);
    if dropped_sends == 0 {
        return Err("partition dropped no outbound replication; it proved nothing".into());
    }
    if member0.keyspace_hashes() == member1.keyspace_hashes() {
        return Err("members did not diverge under the partition".into());
    }

    repl0.pause(false);
    repl1.pause(false);
    let convergence_ms = await_convergence(&group, Duration::from_secs(30))?;

    let mut all = TrafficReport {
        latencies_ms: report_a.latencies_ms,
        mismatches: Vec::new(),
        hard_errors: Vec::new(),
        typed_errors: report_a.typed_errors + report_b.typed_errors,
    };
    all.latencies_ms.extend(report_b.latencies_ms);
    let mut record = BenchRecord::from_report(seed, &all);
    record.convergence_ms = convergence_ms;
    if record.p99_ms > args.p99_cap_ms {
        return Err(format!(
            "p99 {}ms exceeds cap {}ms",
            record.p99_ms, args.p99_cap_ms
        ));
    }
    scrape_replicated(member0, 1)?;
    println!(
        "chaos: seed={seed} fault=partition sessions={} ok p50={}ms p99={}ms \
         availability={:.2}% dropped_sends={dropped_sends} convergence={convergence_ms}ms",
        half * 2,
        record.p50_ms,
        record.p99_ms,
        record.availability_pct
    );
    group.shutdown();
    Ok(record)
}

/// Hedge: member 0 stalls [`lima_core::faults::SLOW_SHARD_DELAY_MS`] on every
/// shard touch; member 1 is healthy. Fetches prefer the slow member, so
/// every read eats the stall unless the hedge leg rescues it. The hedged
/// p99 must stay near the healthy baseline — far below the stall — and at
/// least one hedge must actually win.
fn run_hedge(args: &Args, seed: u64) -> Result<BenchRecord, String> {
    const FETCHES: usize = 80;
    let p = 1 + mix(seed) % 7;
    let script = format!("X = matrix({p}, 60, 10);\nG = t(X) %*% X;\ns = sum(G);\n");
    let slow_shards: Vec<u64> = (0..args.shards as u64).collect();
    let group = ReplicaGroup::start_with(&group_config(args.shards), 2, |i, cfg| {
        if i == 0 {
            cfg.template.faults = Some(Arc::new(
                FaultInjector::new(seed).fail_at(FaultSite::SlowShard, &slow_shards),
            ));
        }
    })
    .map_err(|e| format!("group start: {e}"))?;
    let addrs = group.addrs();

    // Warm member 1 and compute the expected value + lineage locally.
    let local = run_script(&script, &LimaConfig::lima(), &[])
        .map_err(|e| format!("local baseline: {e:?}"))?;
    let expected = local.value("G").clone();
    let lineage = serialize_lineage(local.ctx.lineage.get("G").expect("G traced"));
    let mut warm = LimadClient::new(
        &addrs[1],
        "hedge-warm",
        ClientOptions {
            default_deadline: Duration::from_secs(20),
            ..ClientOptions::default()
        },
    );
    warm.submit(
        &script,
        &SubmitOptions {
            outputs: vec!["s".to_string()],
            ..SubmitOptions::default()
        },
    )
    .map_err(|e| format!("warm-up submit: {e}"))?;

    // Wait for write replication to copy G onto the slow member, so both
    // hedge legs have the value resident.
    let t0 = Instant::now();
    let mut slow_probe = LimadClient::new(&addrs[0], "hedge-probe", ClientOptions::default());
    while !matches!(slow_probe.fetch(&lineage), Ok(Some(_))) {
        if t0.elapsed() > Duration::from_secs(15) {
            return Err("replication never copied G to the slow member".into());
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let convergence_ms = t0.elapsed().as_millis() as u64;

    // Healthy baseline: reads pinned to the fast member, no hedging.
    let mut healthy = LimadClient::new(&addrs[1], "hedge-base", ClientOptions::default());
    let mut baseline_ms = Vec::with_capacity(FETCHES);
    for _ in 0..FETCHES {
        let t = Instant::now();
        let got = healthy
            .fetch(&lineage)
            .map_err(|e| format!("baseline fetch: {e}"))?
            .ok_or("baseline fetch missed")?;
        baseline_ms.push(t.elapsed().as_millis() as u64);
        if got.as_matrix().ok().map(|m| m.data()) != expected.as_matrix().ok().map(|m| m.data()) {
            return Err("baseline fetch returned a divergent value".into());
        }
    }

    // Hedged reads preferring the slow member, fixed 10ms hedge delay (far
    // under the stall) so the run is deterministic across machines.
    let mut hedged = LimadClient::new_replicated(
        &addrs,
        "hedge-reader",
        ClientOptions {
            hedge_delay: Some(Duration::from_millis(10)),
            ..ClientOptions::default()
        },
    );
    hedged.set_preferred(0);
    let mut hedged_ms = Vec::with_capacity(FETCHES);
    for _ in 0..FETCHES {
        let t = Instant::now();
        let got = hedged
            .fetch(&lineage)
            .map_err(|e| format!("hedged fetch: {e}"))?
            .ok_or("hedged fetch missed")?;
        hedged_ms.push(t.elapsed().as_millis() as u64);
        if got.as_matrix().ok().map(|m| m.data()) != expected.as_matrix().ok().map(|m| m.data()) {
            return Err("hedged fetch returned a divergent value".into());
        }
    }

    baseline_ms.sort_unstable();
    hedged_ms.sort_unstable();
    let baseline_p99 = percentile(&baseline_ms, 0.99);
    let (p50, p99) = (percentile(&hedged_ms, 0.50), percentile(&hedged_ms, 0.99));
    let stats = hedged.stats();
    if stats.hedges_won == 0 {
        return Err(format!(
            "no hedge ever won against the slow member (fired={})",
            stats.hedges_fired
        ));
    }
    // The interesting bound: hedged reads must sit near the healthy baseline
    // and under the injected stall every un-hedged read would eat. The floor
    // absorbs the hedge delay plus the server's 25ms accept-poll tick (hedge
    // legs are one-shot connections) plus scheduler jitter, and still sits
    // below the 50ms stall.
    let cap = (2 * baseline_p99).max(45);
    if p99 > cap {
        return Err(format!(
            "hedged p99 {p99}ms exceeds {cap}ms (healthy baseline p99 {baseline_p99}ms)"
        ));
    }
    println!(
        "chaos: seed={seed} fault=hedge fetches={FETCHES} ok baseline_p99={baseline_p99}ms \
         hedged_p50={p50}ms hedged_p99={p99}ms hedges_fired={} hedges_won={}",
        stats.hedges_fired, stats.hedges_won
    );
    let record = BenchRecord {
        seed,
        p50_ms: p50,
        p99_ms: p99,
        availability_pct: 100.0,
        convergence_ms,
        hedges_won: stats.hedges_won,
    };
    group.shutdown();
    Ok(record)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "chaos: {e}\nusage: chaos [--fault none|conn-drop|slow-shard|crash-restart\
                 |corrupt-at-rest|corrupt-restart|replica-kill|partition|hedge|all] \
                 [--sessions N] [--shards N] [--seed S] [--p99-cap-ms MS] [--bench-out PATH]"
            );
            return ExitCode::from(2);
        }
    };
    let t0 = Instant::now();
    let mut records = Vec::with_capacity(args.seeds.len());
    for &seed in &args.seeds {
        let result = match args.fault {
            Fault::CrashRestart => run_crash_restart(&args, seed).map(|()| None),
            Fault::CorruptAtRest => run_corrupt_at_rest(&args, seed).map(|()| None),
            Fault::CorruptRestart => run_corrupt_restart(&args, seed).map(|()| None),
            Fault::ReplicaKill => run_replica_kill(&args, seed).map(Some),
            Fault::Partition => run_partition(&args, seed).map(Some),
            Fault::Hedge => run_hedge(&args, seed).map(Some),
            _ => run_steady(&args, seed).map(Some),
        };
        match result {
            Ok(Some(record)) => records.push(record),
            Ok(None) => {}
            Err(e) => {
                eprintln!("chaos: FAIL seed={seed} fault={}: {e}", args.fault.as_str());
                return ExitCode::from(1);
            }
        }
    }
    if let Some(path) = &args.bench_out {
        if let Err(e) = std::fs::write(path, bench_json(args.fault, &records)) {
            eprintln!("chaos: cannot write bench output {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!(
            "chaos: wrote {} bench record(s) to {}",
            records.len(),
            path.display()
        );
    }
    println!(
        "chaos: all {} seed(s) passed fault={} in {}ms",
        args.seeds.len(),
        args.fault.as_str(),
        t0.elapsed().as_millis()
    );
    ExitCode::SUCCESS
}
