//! limad-mix: an in-process `limad` under a closed loop of HPO-style
//! clients.
//!
//! The server runs `LimadConfig::default()` except for two settings: its
//! persistence goes to a fresh directory, and its total cache budget is a
//! quarter of the corpus's distinct intermediate bytes, so this is the one
//! workload whose working set exceeds the cache. It is also the only one
//! that exercises the wire, admission, shard routing, eviction, spill and
//! restore, and the WAL. The background scrubber keeps its default, as a
//! deployed service pays for it.
//!
//! Load: 2 client threads, each with its own connection and tenant, each
//! waiting for a reply before sending the next request (a closed loop).
//! Mix: 60% submit, 20% probe, 20% fetch of a 128×128 value, Zipf-skewed
//! (exponent 1.1) over the corpus. Corpus: 24 seeded 512×128 datasets with
//! 8 script variants each; every variant computes `G = t(X) %*% X`, so
//! distinct scripts share that intermediate. Most variants also build a
//! costly 128×128 value of their own, the kind of entry eviction spills
//! rather than drops. The fill pass submits the whole corpus once and writes
//! the WAL; an entry already durable is not rewritten, so the persist
//! counters of the traced run cover the fill pass and the traced slices.
//!
//! The reference (every script's `s` under Base, and the corpus's distinct
//! intermediate bytes, measured by one shared LIMA cache four times the size
//! of the server's) is computed in a child process, so the heap it leaves
//! behind does not count towards this process's peak RSS.

use crate::gen::{self, Rng};
use crate::measure::{describe, median, percentile, sorted};
use crate::report::Metrics;
use crate::trace::{TracedRun, Tracer};
use crate::{Args, Outcome};
use lima_algos::runner::{run_script, run_script_with_cache};
use lima_client::proto::{write_frame, Request, Response};
use lima_client::{ClientOptions, LimadClient, SubmitOptions};
use lima_core::lineage::serialize_lineage;
use lima_core::{EventKind, LimaConfig, LimaStats, LineageCache, Obs};
use lima_matrix::Value;
use limad::{LimadConfig, Server};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DATASETS: usize = 24;
const VARIANTS: usize = 8;
const ROWS: usize = 512;
const COLS: usize = 128;
const CLIENTS: usize = 2;
const ZIPF_EXPONENT: f64 = 1.1;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// The chaos harness's tolerance for served values against in-process runs.
const VALUE_TOL: f64 = 1e-9;
/// Obs ring capacity per thread. limad runs each session on its own
/// thread, and a session records well under this many events.
const RING_EVENTS: usize = 256;
const PINGS: usize = 200;
/// Length of each traced or untraced slice of the traced run.
const SLICE_SECS: f64 = 0.5;

/// First argument that makes this binary print the reference of a seed
/// (see [`print_reference`]) instead of running a workload.
pub const REFERENCE_MODE: &str = "limad-reference";

struct Corpus {
    /// Script `k` is variant `k / DATASETS` of dataset `k % DATASETS`, so
    /// the head of the Zipf ranking spans many datasets.
    scripts: Vec<String>,
    expected_s: Vec<f64>,
    /// Serialized lineage of each dataset's `G`.
    g_lineage: Vec<String>,
    g_value: Vec<Value>,
    distinct_bytes: usize,
}

fn corpus_scripts(seed: u64) -> Vec<String> {
    let mut scripts = vec![String::new(); DATASETS * VARIANTS];
    for d in 0..DATASETS {
        let ds = gen::mix(seed ^ (d as u64 + 1).wrapping_mul(0x5851_F42D)) % 1_000_000_000 + 1;
        let head = format!(
            "X = rand(rows={ROWS}, cols={COLS}, min=-1, max=1, seed={ds});\nG = t(X) %*% X;\n"
        );
        for v in 0..VARIANTS {
            // A per-variant constant: ridge λ or weight.
            let c = 1.0 + (gen::mix(ds ^ v as u64) % 1000) as f64 / 1000.0;
            let body = match v {
                0 => "s = sum(G);\n".to_string(),
                1 => format!("m = colSums(X) / {ROWS};\ns = sum(G) - {ROWS} * sum(t(m) %*% m);\n"),
                2 | 3 => format!(
                    "A = G + diag(matrix({c:.3}, {COLS}, 1));\nP = solve(A, G);\ns = sum(P);\n"
                ),
                4 | 5 => format!("H = G %*% (G * {c:.3});\ns = sum(H) / {ROWS};\n"),
                _ => format!("W = t(X) %*% (X * {c:.3});\ns = sum(W - G);\n"),
            };
            scripts[v * DATASETS + d] = format!("{head}{body}");
        }
    }
    scripts
}

/// The child-process side of the reference: prints every script's `s`
/// under Base (as IEEE-754 bits, so nothing is lost in the text) and the
/// resident bytes of one LIMA cache shared by all scripts, the corpus's
/// distinct intermediate bytes.
pub fn print_reference(seed: u64) -> Result<(), String> {
    let scripts = corpus_scripts(seed);
    let mut s_bits = Vec::with_capacity(scripts.len());
    for (k, src) in scripts.iter().enumerate() {
        let r =
            run_script(src, &LimaConfig::base(), &[]).map_err(|e| format!("script {k}: {e}"))?;
        let s = r
            .value("s")
            .as_f64()
            .map_err(|e| format!("script {k}: s: {e}"))?;
        s_bits.push(format!("{:016x}", s.to_bits()));
    }
    let cache = LineageCache::new(LimaConfig::lima());
    for (k, src) in scripts.iter().enumerate() {
        run_script_with_cache(src, &LimaConfig::lima(), &[], Some(Arc::clone(&cache)))
            .map_err(|e| format!("script {k}: {e}"))?;
    }
    println!("distinct_bytes {}", cache.resident_bytes());
    println!("s {}", s_bits.join(" "));
    Ok(())
}

/// Runs [`print_reference`] in a child process of this binary and parses
/// its output: `(distinct_bytes, expected_s)`.
fn child_reference(seed: u64) -> Result<(usize, Vec<f64>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .args([REFERENCE_MODE, &seed.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("reference process: {e}"))?;
    if !out.status.success() {
        return Err(format!("reference process: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let (mut distinct, mut expected) = (None, None);
    for line in text.lines() {
        match line.split_once(' ') {
            Some(("distinct_bytes", v)) => distinct = v.parse().ok(),
            Some(("s", v)) => {
                expected = v
                    .split(' ')
                    .map(|h| u64::from_str_radix(h, 16).map(f64::from_bits))
                    .collect::<Result<Vec<_>, _>>()
                    .ok()
            }
            _ => {}
        }
    }
    distinct
        .zip(expected)
        .ok_or_else(|| format!("reference process printed no reference: {text}"))
}

/// The corpus and its reference. `G`'s value and lineage come from an LT
/// run (lineage, no reuse) of each dataset's first variant, in this
/// process: they are small, and the clients need them in memory anyway.
fn reference(seed: u64) -> Result<Corpus, String> {
    let (distinct_bytes, expected_s) = child_reference(seed)?;
    let scripts = corpus_scripts(seed);
    if expected_s.len() != scripts.len() {
        return Err(format!(
            "reference has {} values for {} scripts",
            expected_s.len(),
            scripts.len()
        ));
    }
    let mut g_value = Vec::with_capacity(DATASETS);
    let mut g_lineage = Vec::with_capacity(DATASETS);
    for (d, src) in scripts.iter().take(DATASETS).enumerate() {
        let r = run_script(src, &LimaConfig::tracing_only(), &[])
            .map_err(|e| format!("script {d}: {e}"))?;
        let g = r.ctx.lineage.get("G").ok_or("G has no lineage")?;
        g_lineage.push(serialize_lineage(g));
        g_value.push(r.value("G").clone());
    }
    Ok(Corpus {
        scripts,
        expected_s,
        g_lineage,
        g_value,
        distinct_bytes,
    })
}

fn server_config(corpus: &Corpus, dir: &Path, obs: Option<&Arc<Obs>>) -> LimadConfig {
    let mut cfg = LimadConfig {
        persist_root: Some(dir.to_path_buf()),
        ..LimadConfig::default()
    };
    cfg.template.budget_bytes = corpus.distinct_bytes / 4 / cfg.shards;
    if let Some(o) = obs {
        cfg.template = cfg.template.with_obs(Arc::clone(o));
    }
    cfg
}

fn client(server: &Server, tenant: &str) -> LimadClient {
    LimadClient::new(&server.addr().to_string(), tenant, ClientOptions::default())
}

fn submit_opts() -> SubmitOptions {
    SubmitOptions {
        outputs: vec!["s".into()],
        ..SubmitOptions::default()
    }
}

fn s_ok(got: Option<&Value>, want: f64) -> bool {
    got.is_some_and(|v| v.approx_eq(&Value::f64(want), VALUE_TOL))
}

/// A set-up's server and the timing of its parts.
struct Setup {
    server: Server,
    dir: PathBuf,
    secs: f64,
    recover_ms: f64,
    recovered: u64,
    /// Shard counters of the fill pass, summed over shards.
    fill_counters: Vec<(&'static str, u64)>,
    /// Time in WAL and value-file writes during the fill pass, from its
    /// `PersistWrite` events (0 without `obs`).
    fill_persist_ms: f64,
}

/// Fill pass (every script once), then a warm restart over the fill's WAL,
/// then one probe of every dataset's `G`, which must hit. With `obs`, the
/// fill pass is traced for its persist time.
fn set_up(
    corpus: &Corpus,
    dir: PathBuf,
    obs: Option<&Arc<Obs>>,
    failed: &mut u64,
) -> Result<Setup, String> {
    let t0 = Instant::now();
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = server_config(corpus, &dir, obs);
    let server = Server::start(cfg.clone()).map_err(|e| format!("limad start: {e}"))?;
    let fill_t0 = obs.map(|o| {
        o.set_enabled(true);
        o.now_ns()
    });
    let mut c = client(&server, "fill");
    for (k, src) in corpus.scripts.iter().enumerate() {
        let r = c.submit(src, &submit_opts());
        if !r.is_ok_and(|r| s_ok(r.value("s"), corpus.expected_s[k])) {
            *failed += 1;
        }
    }
    let mut fill_persist_ms = 0.0;
    if let (Some(o), Some(t0)) = (obs, fill_t0) {
        o.set_enabled(false);
        let events = o.events().into_iter().filter(|(_, e)| e.ts_ns >= t0);
        let fill = TracedRun::new(0, Vec::new(), events.collect(), 0);
        fill_persist_ms = fill.event_totals(EventKind::PersistWrite).2 as f64 / 1e6;
    }
    let fill_counters = shard_totals(&server);
    drop(c);
    server.shutdown();
    let r0 = Instant::now();
    let server = Server::start(cfg).map_err(|e| format!("limad restart: {e}"))?;
    let recover_ms = r0.elapsed().as_secs_f64() * 1e3;
    let recovered = server
        .shards()
        .iter()
        .map(|s| LimaStats::get(&s.stats().persist_recovered))
        .sum();
    let mut c = client(&server, "fill");
    for (d, lineage) in corpus.g_lineage.iter().enumerate() {
        if !c.probe(lineage).map_err(|e| format!("probe G{d}: {e}"))? {
            *failed += 1;
        }
    }
    Ok(Setup {
        server,
        dir,
        secs: t0.elapsed().as_secs_f64(),
        recover_ms,
        recovered,
        fill_counters,
        fill_persist_ms,
    })
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Submit,
    Probe,
    Fetch,
}

struct Sample {
    kind: Kind,
    target: usize,
    ms: f64,
    ok: bool,
}

/// One closed-loop client. Its request sequence is a pure function of
/// (seed, client index).
fn client_loop(
    server: &Server,
    corpus: &Corpus,
    idx: usize,
    seed: u64,
    until: Instant,
    tracer: &mut Tracer,
) -> (Vec<Sample>, lima_client::ClientStats) {
    let script_cdf = gen::zipf_cdf(corpus.scripts.len(), ZIPF_EXPONENT);
    let data_cdf = gen::zipf_cdf(DATASETS, ZIPF_EXPONENT);
    let mut rng = Rng::new(seed ^ gen::mix(idx as u64 + 0x100));
    let mut c = client(server, &format!("tenant-{idx}"));
    let mut out = Vec::new();
    while Instant::now() < until {
        let u = rng.uniform();
        let pick = rng.uniform();
        let (kind, name) = if u < 0.6 {
            (Kind::Submit, "submit")
        } else if u < 0.8 {
            (Kind::Probe, "probe")
        } else {
            (Kind::Fetch, "fetch")
        };
        let target = if kind == Kind::Submit {
            gen::zipf(pick, &script_cdf)
        } else {
            gen::zipf(pick, &data_cdf)
        };
        let span = tracer.begin(name);
        let t0 = Instant::now();
        let ok = match kind {
            Kind::Submit => c
                .submit(&corpus.scripts[target], &submit_opts())
                .is_ok_and(|r| s_ok(r.value("s"), corpus.expected_s[target])),
            Kind::Probe => c.probe(&corpus.g_lineage[target]).unwrap_or(false),
            Kind::Fetch => c
                .fetch(&corpus.g_lineage[target])
                .is_ok_and(|v| v.is_some_and(|v| v.approx_eq(&corpus.g_value[target], VALUE_TOL))),
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        tracer.end(span);
        out.push(Sample {
            kind,
            target,
            ms,
            ok,
        });
    }
    (out, c.stats())
}

fn ms_of(samples: &[Sample], kind: Option<Kind>) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| kind.is_none_or(|k| s.kind == k))
        .map(|s| s.ms)
        .collect()
}

/// Shard counters summed over the server's shards.
fn shard_totals(server: &Server) -> Vec<(&'static str, u64)> {
    let mut acc: Vec<(&'static str, u64)> = Vec::new();
    for shard in server.shards().iter() {
        let snap = shard.stats().snapshot();
        if acc.is_empty() {
            acc = snap;
        } else {
            for (a, (_, v)) in acc.iter_mut().zip(snap) {
                a.1 += v;
            }
        }
    }
    acc
}

/// Adds `after - before` of every counter into `acc`.
fn add_delta(
    acc: &mut Vec<(&'static str, u64)>,
    after: &[(&'static str, u64)],
    before: &[(&'static str, u64)],
) {
    if acc.is_empty() {
        acc.extend(after.iter().map(|(n, _)| (*n, 0)));
    }
    for ((a, (_, x)), (_, y)) in acc.iter_mut().zip(after).zip(before) {
        a.1 += x.saturating_sub(*y);
    }
}

/// What the clients of one phase did.
struct Phase {
    samples: Vec<Sample>,
    retries: u64,
    failovers: u64,
    /// The clients' spans (traced phases only).
    spans: Vec<crate::trace::Span>,
    wall_s: f64,
}

/// Runs the clients for `secs`. `slice` keeps span ids unique across
/// phases.
fn phase(
    server: &Server,
    corpus: &Corpus,
    seed: u64,
    secs: f64,
    obs: Option<&Arc<Obs>>,
    slice: u64,
) -> Phase {
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(secs);
    let per_client: Vec<_> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|idx| {
                sc.spawn(move || {
                    let lane = 1_000_000 + idx as u64;
                    let first_id = (slice * CLIENTS as u64 + idx as u64) * 1_000_000_000 + 1;
                    let mut tracer = match obs {
                        Some(o) => Tracer::new(o, lane, first_id),
                        None => Tracer::disabled(),
                    };
                    let (samples, stats) =
                        client_loop(server, corpus, idx, seed, until, &mut tracer);
                    (samples, stats, tracer.spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = Phase {
        samples: Vec::new(),
        retries: 0,
        failovers: 0,
        spans: Vec::new(),
        wall_s: start.elapsed().as_secs_f64(),
    };
    for (s, st, sp) in per_client {
        out.samples.extend(s);
        out.retries += st.retries;
        out.failovers += st.failovers;
        out.spans.extend(sp);
    }
    out
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let corpus = reference(args.seed)?;
    let rss_after_reference = crate::machine::reset_peak_rss()?;
    let obs = args.trace.then(|| {
        let o = Arc::new(Obs::with_capacity(RING_EVENTS));
        o.set_enabled(false);
        o
    });
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let (mut setup_secs, mut recover_ms) = (Vec::new(), Vec::new());
    let mut live: Option<Setup> = None;
    // The traced run reports no set-up time, so it sets up once.
    let setups = if args.trace { 1 } else { SETUPS };
    for i in 0..setups {
        if let Some(prev) = live.take() {
            prev.server.shutdown();
            let _ = std::fs::remove_dir_all(&prev.dir);
        }
        let dir = args.work_dir().join(format!("limad-{i}"));
        let s = set_up(&corpus, dir, obs.as_ref(), &mut failed)?;
        attempted += (corpus.scripts.len() + DATASETS) as u64;
        setup_secs.push(s.secs);
        recover_ms.push(s.recover_ms);
        live = Some(s);
    }
    let setup = live.expect("at least one set-up");
    let server = &setup.server;

    let mut m = Metrics::default();
    let mut notes = Vec::new();
    m.set("setup_s", median(&setup_secs));
    let seconds = args.seconds as f64;
    let result = if let Some(obs) = &obs {
        // Traced and untraced slices alternate, so both see the same cache
        // history; their difference is the tracing overhead. Counters and
        // events are taken over the traced slices only.
        let slices = (args.seconds * 2).max(2);
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let (mut spans, mut retries, mut failovers) = (Vec::new(), 0, 0);
        let (mut counters, mut srv_counters) = (Vec::new(), Vec::new());
        let t0 = obs.now_ns();
        for i in 0..slices {
            let slice_seed = gen::mix(args.seed ^ i);
            if i % 2 == 1 {
                plain.extend(phase(server, &corpus, slice_seed, SLICE_SECS, None, i).samples);
                continue;
            }
            let before = shard_totals(server);
            let srv_before = server.server_stats().snapshot();
            obs.set_enabled(true);
            let p = phase(server, &corpus, slice_seed, SLICE_SECS, Some(obs), i);
            obs.set_enabled(false);
            add_delta(&mut counters, &shard_totals(server), &before);
            add_delta(
                &mut srv_counters,
                &server.server_stats().snapshot(),
                &srv_before,
            );
            traced.extend(p.samples);
            spans.extend(p.spans);
            retries += p.retries;
            failovers += p.failovers;
        }
        let events: Vec<_> = obs
            .events()
            .into_iter()
            .filter(|(_, e)| e.ts_ns >= t0)
            .collect();
        let run = TracedRun::new(1, spans, events, obs.dropped());
        for s in plain.iter().chain(&traced) {
            attempted += 1;
            failed += u64::from(!s.ok);
        }
        let ctx = LayerCtx {
            corpus: &corpus,
            server,
            run: &run,
            samples: &traced,
            plain: &plain,
            counters: &counters,
            srv_counters: &srv_counters,
            retries,
            failovers,
            recover_ms: median(&recover_ms),
            recovered: setup.recovered,
            fill_counters: &setup.fill_counters,
            fill_persist_ms: setup.fill_persist_ms,
        };
        per_layer(&ctx, &mut m, &mut notes)?;
        crate::scripts::set_lineage_split(&mut m);
        let path = args.trace_path();
        let n = crate::trace::write_trace(&run, &path)?;
        notes.push(format!("trace: {} ({n} events)", path.display()));
        notes.push(crate::account_lines(&m));
        notes.push(crate::machine::descriptor(
            args.seed,
            &[
                ("untraced_requests", plain.len()),
                ("traced_requests", traced.len()),
                ("clients", CLIENTS),
            ],
        ));
        Ok(())
    } else {
        let Phase {
            samples,
            retries,
            failovers,
            wall_s: wall,
            ..
        } = phase(server, &corpus, args.seed, seconds, None, 0);
        for s in &samples {
            attempted += 1;
            failed += u64::from(!s.ok);
        }
        m.set("op_ms_p50", median(&ms_of(&samples, None)));
        m.set("ops_per_s", samples.len() as f64 / wall);
        m.set(
            "peak_rss_mb",
            crate::machine::peak_rss_mb().ok_or("VmHWM unreadable")?,
        );
        notes.push(format!(
            "req_per_s = {:.2} 1/s (closed loop, {CLIENTS} clients)",
            samples.len() as f64 / wall
        ));
        notes.push(describe("request_ms", "ms", &ms_of(&samples, None)));
        let submit = sorted(&ms_of(&samples, Some(Kind::Submit)));
        notes.push(describe("submit_ms", "ms", &submit));
        notes.push(format!(
            "submit_ms_p99 = {:.4} ms",
            percentile(&submit, 0.99)
        ));
        notes.push(describe(
            "fetch_ms",
            "ms",
            &ms_of(&samples, Some(Kind::Fetch)),
        ));
        notes.push(describe(
            "probe_ms",
            "ms",
            &ms_of(&samples, Some(Kind::Probe)),
        ));
        notes.push(format!(
            "setup: median {:.3} s of {SETUPS} ({:.3}..{:.3} s; each: fill of {} scripts + warm restart, restart median {:.1} ms, {} entries recovered); cache budget {:.2} MiB in total, a quarter of the corpus's {:.2} MiB; client retries {retries}, failovers {failovers}",
            median(&setup_secs),
            sorted(&setup_secs)[0],
            sorted(&setup_secs)[SETUPS - 1],
            corpus.scripts.len(),
            median(&recover_ms),
            setup.recovered,
            (corpus.distinct_bytes / 4) as f64 / 1048576.0,
            corpus.distinct_bytes as f64 / 1048576.0
        ));
        notes.push(format!(
            "rss after the reference (peak reset to it): {rss_after_reference:.2} MiB"
        ));
        notes.push(crate::machine::descriptor(
            args.seed,
            &[
                ("requests", samples.len()),
                ("setups", SETUPS),
                ("clients", CLIENTS),
            ],
        ));
        Ok(())
    };
    let Setup { server, dir, .. } = setup;
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    result.map(|()| Outcome {
        attempted,
        failed,
        metrics: m,
        notes,
    })
}

struct LayerCtx<'a> {
    corpus: &'a Corpus,
    server: &'a Server,
    run: &'a TracedRun,
    samples: &'a [Sample],
    plain: &'a [Sample],
    /// Shard counters accumulated over the traced slices.
    counters: &'a [(&'static str, u64)],
    srv_counters: &'a [(&'static str, u64)],
    retries: u64,
    failovers: u64,
    recover_ms: f64,
    recovered: u64,
    fill_counters: &'a [(&'static str, u64)],
    fill_persist_ms: f64,
}

fn frame_len(kind: u8, payload: &[u8]) -> usize {
    let mut buf = Vec::with_capacity(payload.len() + 32);
    write_frame(&mut buf, kind, 1, payload).expect("writing to memory cannot fail");
    buf.len()
}

fn per_layer(c: &LayerCtx, m: &mut Metrics, notes: &mut Vec<String>) -> Result<(), String> {
    let ms = |ns: u64| ns as f64 / 1e6;

    // lang: the benchmark's own compile_script calls over the corpus.
    let mut compile = Vec::new();
    for src in &c.corpus.scripts {
        let t0 = Instant::now();
        lima_lang::compile_script(src, &LimaConfig::lima()).map_err(|e| format!("compile: {e}"))?;
        compile.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let compile_p50 = median(&compile);
    m.set("lang.compile_ms", compile_p50);

    // runtime / matrix / cache io: the server's Obs events of the traced half.
    let (sessions, session_ns, _) = c.run.event_totals(EventKind::SessionEnd);
    m.set("runtime.exec_ms", ms(session_ns));
    let (instrs, _, instr_self) = c.run.event_totals(EventKind::Instr);
    m.set("runtime.instrs", instrs as f64);
    m.set("runtime.instr_self_ms", ms(instr_self));
    let (kernels, _, kernel_self) = c.run.event_totals(EventKind::Kernel);
    m.set("matrix.kernel_ms", ms(kernel_self));
    m.set("matrix.kernel_calls", kernels as f64);
    m.set(
        "matrix.kernel_share",
        ms(kernel_self) / ms(session_ns).max(1e-9),
    );
    m.set(
        "cache.spill_write_ms",
        ms(c.run.event_totals(EventKind::SpillWrite).2),
    );
    m.set(
        "cache.spill_restore_ms",
        ms(c.run.event_totals(EventKind::SpillRestore).2),
    );
    m.set("trace.dropped_events", c.run.dropped_events as f64);

    // Shard counters over the traced slices. The WAL is written by the fill
    // pass (an entry already durable is not rewritten), so the persist
    // writes, bytes and time cover the fill pass and the traced slices.
    crate::report::set_counters(m, c.counters);
    let stat = crate::report::stat;
    for (metric, counter) in [
        ("persist.writes", "persist_writes"),
        ("persist.bytes", "persist_bytes"),
    ] {
        m.set(
            metric,
            stat(c.fill_counters, counter) + stat(c.counters, counter),
        );
    }
    m.set(
        "persist.write_ms",
        c.fill_persist_ms + ms(c.run.event_totals(EventKind::PersistWrite).2),
    );
    let caches: Vec<_> = c.server.shards().iter().filter_map(|s| s.cache()).collect();
    let resident: usize = caches.iter().map(|k| k.resident_bytes()).sum();
    m.set("cache.resident_mb", resident as f64 / (1024.0 * 1024.0));
    let live: usize = caches.iter().map(|k| k.live_entries()).sum();
    m.set(
        "limad.dup_resident",
        live as f64 - c.server.keyspace_hashes().len() as f64,
    );
    m.set("persist.recovered", c.recovered as f64);
    m.set("persist.recover_ms", c.recover_ms);

    // limad and the wire.
    let srv = |name: &str| crate::report::stat(c.srv_counters, name);
    m.set("limad.requests", srv("srv_requests"));
    m.set("limad.sheds", srv("srv_sheds"));
    m.set("limad.quota_rejects", srv("srv_quota_rejects"));
    m.set("client.retries", c.retries as f64);
    m.set("client.failovers", c.failovers as f64);
    let mut pinger = client(c.server, "ping");
    let mut pings = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t0 = Instant::now();
        pinger.ping().map_err(|e| format!("ping: {e}"))?;
        pings.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let ping_p50 = median(&pings);
    m.set("wire.ping_ms_p50", ping_p50);
    let submit = sorted(&ms_of(c.samples, Some(Kind::Submit)));
    let probe_p50 = median(&ms_of(c.samples, Some(Kind::Probe)));
    m.set("limad.submit_ms_p50", percentile(&submit, 0.5));
    m.set("limad.submit_ms_p99", percentile(&submit, 0.99));
    m.set(
        "limad.fetch_ms_p50",
        median(&ms_of(c.samples, Some(Kind::Fetch))),
    );
    m.set("limad.probe_ms_p50", probe_p50);
    m.set("limad.probe_over_ping_ms", probe_p50 - ping_p50);

    // Codec cost replayed on the workload's own fetch frames.
    let frames: Vec<Response> = c
        .corpus
        .g_value
        .iter()
        .map(|g| Response::Fetched(Some(g.clone())))
        .collect();
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        for f in &frames {
            let t0 = Instant::now();
            let (kind, payload) = std::hint::black_box(f.encode());
            let t1 = Instant::now();
            let back = std::hint::black_box(Response::decode(kind, &payload));
            let t2 = Instant::now();
            if back.as_ref() != Some(f) {
                return Err("fetch frame did not survive encode/decode".into());
            }
            enc.push((t1 - t0).as_secs_f64() * 1e6);
            dec.push((t2 - t1).as_secs_f64() * 1e6);
        }
    }
    m.set("wire.encode_us", median(&enc));
    m.set("wire.decode_us", median(&dec));
    let bytes: usize = c
        .samples
        .iter()
        .map(|s| {
            let tenant = "tenant-0".to_string();
            let lineage = || c.corpus.g_lineage[s.target].clone();
            let (req, resp) = match s.kind {
                Kind::Submit => (
                    Request::Submit {
                        tenant,
                        script: c.corpus.scripts[s.target].clone(),
                        seed: None,
                        outputs: vec!["s".into()],
                        deadline_ms: 30_000,
                    },
                    Response::Submitted {
                        session: 1,
                        values: vec![("s".into(), Value::f64(c.corpus.expected_s[s.target]))],
                        stdout: Vec::new(),
                    },
                ),
                Kind::Probe => (
                    Request::Probe {
                        tenant,
                        lineage: lineage(),
                        deadline_ms: 30_000,
                    },
                    Response::Probed { hit: true },
                ),
                Kind::Fetch => (
                    Request::Fetch {
                        tenant,
                        lineage: lineage(),
                        deadline_ms: 30_000,
                    },
                    Response::Fetched(Some(c.corpus.g_value[s.target].clone())),
                ),
            };
            let (qk, qp) = req.encode();
            let (rk, rp) = resp.encode();
            frame_len(qk, &qp) + frame_len(rk, &rp)
        })
        .sum();
    m.set(
        "wire.bytes_per_req",
        bytes as f64 / c.samples.len().max(1) as f64,
    );

    // Tracing overhead and layer accounting.
    let traced_p50 = median(&ms_of(c.samples, None));
    let plain_p50 = median(&ms_of(c.plain, None));
    m.set("trace.run_ms_p50", traced_p50);
    m.set("trace.untraced_run_ms_p50", plain_p50);
    m.set("trace.overhead_ms", traced_p50 - plain_p50);
    let layers = c.run.layer_self();
    let get = |k: &str| ms(layers.get(k).copied().unwrap_or(0));
    let submits = ms_of(c.samples, Some(Kind::Submit)).len() as f64;
    let wall: f64 = c.samples.iter().map(|s| s.ms).sum();
    let parts = [
        ("account.lang_ms", compile_p50 * submits),
        ("account.runtime_ms", get("runtime")),
        ("account.matrix_ms", get("matrix")),
        ("account.cache_io_ms", get("core.cache.io")),
    ];
    let sum: f64 = parts.iter().map(|(_, v)| v).sum();
    for (name, v) in parts {
        m.set(name, v);
    }
    m.set("account.wall_ms", wall);
    m.set("account.layers_ms", sum);
    m.set("account.unaccounted_ms", wall - sum);
    notes.push(format!(
        "layer accounting over {} requests on {CLIENTS} client threads: wall is the summed \
         request time; lang is compile p50 x {submits} submits; runtime/matrix/cache io are \
         server-side self times of {sessions} sessions; the remainder is wire, queueing, \
         session start and lookups",
        c.samples.len()
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_a_function_of_the_seed() {
        assert_eq!(corpus_scripts(7), corpus_scripts(7));
        let scripts_a = corpus_scripts(7);
        let scripts_b = corpus_scripts(8);
        assert!(scripts_a.iter().zip(&scripts_b).all(|(a, b)| a != b));
        assert_eq!(scripts_a.len(), DATASETS * VARIANTS);
        // Every variant of dataset d shares its X and G lines.
        let head = |s: &str| s.lines().take(2).collect::<Vec<_>>().join("\n");
        for (k, s) in scripts_a.iter().enumerate() {
            assert_eq!(head(s), head(&scripts_a[k % DATASETS]));
            assert!(head(s).contains("G = t(X) %*% X;"));
        }
    }
}
