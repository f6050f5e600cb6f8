//! hpo-reuse and minibatch-trace: script workloads run in-process, one run
//! being compile + context set-up + execute + context drop of every script.
//!
//! * hpo-reuse — the paper's Fig 9 pipelines HLM, HCV and PCALM back to back,
//!   each with a fresh cache. Kernels and reuse hits (full, partial,
//!   multi-level) do most of the work; lineage and probing are a few percent.
//! * minibatch-trace — the Fig 6(a) mini-batch script at 2000×78, b=2:
//!   57,001 lineage items, 56,000 probes and 47,000 puts per run on 2×78
//!   slices, so lineage, probe/put and teardown dominate and kernels do
//!   almost nothing. The cache is mostly written here and mostly read in
//!   hpo-reuse.

use crate::gen;
use crate::lineage_split;
use crate::measure::{describe, median};
use crate::report::Metrics;
use crate::trace::{bind_lane, TracedRun, Tracer};
use crate::{Args, Outcome};
use lima_algos::pipelines;
use lima_core::{EventKind, LimaConfig, Obs};
use lima_lang::compile_script;
use lima_matrix::Value;
use lima_runtime::{execute_program, ExecutionContext};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tolerance of the repository's "LIMA output equals the no-reuse
/// baseline" invariant test (`pipelines::tests::check_equivalence`).
const BASELINE_TOL: f64 = 1e-6;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 10;
/// Interleaved Base / LT / LIMA repetitions in the traced run.
const REF_REPS: usize = 3;
/// Obs ring capacity: above one minibatch-trace run's event count.
const RING_EVENTS: usize = 1 << 19;

pub struct Script {
    name: &'static str,
    src: String,
    inputs: Vec<(String, Value)>,
    outputs: &'static [&'static str],
}

fn script(p: pipelines::Pipeline, outputs: &'static [&'static str]) -> Script {
    Script {
        name: p.name,
        src: p.script,
        inputs: p.inputs,
        outputs,
    }
}

/// HLM (20K×50, 4 feature sets of 15, 4×2×3 grid), HCV (16K×40, 16 folds,
/// 6 λ) and PCALM (20K×50, K = 5..30) over data generated from `seed`.
pub fn hpo_inputs(seed: u64) -> Vec<Script> {
    let grid = pipelines::hyperparameter_grid(4, 2, 3);
    let (x, y) = gen::regression(20_000, 50, gen::mix(seed ^ 1));
    let hlm = pipelines::hlm_with(x, y, 4, 15, &grid, false);
    let (x, y) = gen::regression(16_000, 40, gen::mix(seed ^ 2));
    let hcv = pipelines::hcv_with(x, y, 16, 6, false);
    let (x, y) = gen::regression(20_000, 50, gen::mix(seed ^ 3));
    let pcalm = pipelines::pcalm_with(x, y, &[5, 10, 15, 20, 25, 30]);
    vec![
        script(hlm, &["L", "best"]),
        script(hcv, &["L", "best"]),
        script(pcalm, &["R2", "best"]),
    ]
}

/// The Fig 6(a) `minibatch_micro` script at 2000×78 with b=2, its input
/// matrix generated from `seed`.
pub fn minibatch_inputs(seed: u64) -> Vec<Script> {
    let mut p = pipelines::minibatch_micro(2000, 78, 2, 0);
    p.inputs = vec![(
        "X".into(),
        Value::matrix(gen::uniform_matrix(2000, 78, gen::mix(seed ^ 4))),
    )];
    vec![script(p, &["s"])]
}

/// What one run produced.
struct RunOut {
    outputs: Vec<Value>,
    /// Counters summed over the run's scripts.
    stats: Vec<(&'static str, u64)>,
    /// Resident cache bytes summed over scripts, read before each drop.
    resident_bytes: usize,
    exec_ns: u64,
}

fn run_once(scripts: &[Script], config: &LimaConfig, t: &mut Tracer) -> Result<RunOut, String> {
    let mut out = RunOut {
        outputs: Vec::new(),
        stats: Vec::new(),
        resident_bytes: 0,
        exec_ns: 0,
    };
    let run = t.begin("run");
    for s in scripts {
        let span = t.begin("compile");
        let program =
            compile_script(&s.src, config).map_err(|e| format!("{}: compile: {e}", s.name))?;
        t.end(span);

        let span = t.begin("ctx_setup");
        let mut ctx = ExecutionContext::new(config.clone());
        for (name, value) in &s.inputs {
            ctx.data.register(name.as_str(), value.clone());
            ctx.set(name.as_str(), value.clone());
        }
        t.end(span);

        let span = t.begin("exec");
        let t0 = Instant::now();
        execute_program(&program, &mut ctx).map_err(|e| format!("{}: {e}", s.name))?;
        out.exec_ns += t0.elapsed().as_nanos() as u64;
        t.end(span);

        for name in s.outputs {
            let v = ctx
                .symtab
                .get(*name)
                .ok_or_else(|| format!("{}: no output {name}", s.name))?;
            out.outputs.push(v.clone());
        }
        let snap = ctx.stats.snapshot();
        if out.stats.is_empty() {
            out.stats = snap;
        } else {
            for (acc, (_, v)) in out.stats.iter_mut().zip(snap) {
                acc.1 += v;
            }
        }
        out.resident_bytes += ctx.cache.as_ref().map_or(0, |c| c.resident_bytes());

        let span = t.begin("teardown");
        drop(ctx);
        drop(program);
        t.end(span);
    }
    t.end(run);
    Ok(out)
}

fn matches(got: &[Value], want: &[Value]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.approx_eq(w, BASELINE_TOL))
}

pub fn run(args: &Args, build: fn(u64) -> Vec<Script>) -> Result<Outcome, String> {
    let lima = LimaConfig::lima();
    let mut untraced = Tracer::disabled();

    // The reference is computed once per seed under Base and excluded from
    // set-up time.
    let reference = run_once(&build(args.seed), &LimaConfig::base(), &mut untraced)?.outputs;
    let rss_after_reference = crate::machine::reset_peak_rss()?;

    let mut attempted = 0u64;
    let mut failed = 0u64;
    // One set-up: input generation and a warm-up run, checked like any run.
    let set_up = |attempted: &mut u64, failed: &mut u64| -> Result<_, String> {
        let t0 = Instant::now();
        let scripts = build(args.seed);
        let warm = run_once(&scripts, &lima, &mut Tracer::disabled())?;
        let secs = t0.elapsed().as_secs_f64();
        *attempted += 1;
        *failed += u64::from(!matches(&warm.outputs, &reference));
        Ok((scripts, secs))
    };

    let mut m = Metrics::default();
    let mut notes = Vec::new();
    if args.trace {
        // The traced run reports no set-up time, so it sets up once.
        let (scripts, _) = set_up(&mut attempted, &mut failed)?;
        let traced = traced_phase(
            args,
            &scripts,
            &reference,
            &mut m,
            &mut notes,
            &mut attempted,
            &mut failed,
        )?;
        let path = args.trace_path();
        let n = crate::trace::write_trace(&traced, &path)?;
        notes.push(format!(
            "trace: {} ({n} events of traced run {}, the last one)",
            path.display(),
            traced.run_id
        ));
    } else {
        // Set-ups alternate with equal blocks of timed runs, so `setup_s`
        // and `op_ms_p50` sample the same stretch of the run; a shared
        // machine's speed can drift over seconds.
        let block = Duration::from_secs_f64(args.seconds as f64 / SETUPS as f64);
        let (mut setups, mut run_ms, mut timed) = (Vec::new(), Vec::new(), 0.0);
        for _ in 0..SETUPS {
            let (scripts, secs) = set_up(&mut attempted, &mut failed)?;
            setups.push(secs);
            let t0 = Instant::now();
            while t0.elapsed() < block {
                let r0 = Instant::now();
                let out = run_once(&scripts, &lima, &mut untraced)?;
                run_ms.push(r0.elapsed().as_secs_f64() * 1e3);
                attempted += 1;
                failed += u64::from(!matches(&out.outputs, &reference));
            }
            timed += t0.elapsed().as_secs_f64();
        }
        m.set("setup_s", median(&setups));
        m.set("op_ms_p50", median(&run_ms));
        m.set("ops_per_s", run_ms.len() as f64 / timed);
        m.set(
            "peak_rss_mb",
            crate::machine::peak_rss_mb().ok_or("VmHWM unreadable")?,
        );
        notes.push(describe("setup_s", "s", &setups));
        notes.push(describe("run_ms", "ms", &run_ms));
        notes.push(format!(
            "rss after the reference run (peak reset to it): {rss_after_reference:.2} MiB"
        ));
        notes.push(crate::machine::descriptor(
            args.seed,
            &[("runs", run_ms.len()), ("setups", SETUPS)],
        ));
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
        notes,
    })
}

/// The traced run: interleaved untraced Base / LT / LIMA repetitions for the
/// lineage and cache differentials and the untraced reference time, then
/// traced LIMA runs for `--seconds`. Returns the last traced run.
fn traced_phase(
    args: &Args,
    scripts: &[Script],
    reference: &[Value],
    m: &mut Metrics,
    notes: &mut Vec<String>,
    attempted: &mut u64,
    failed: &mut u64,
) -> Result<TracedRun, String> {
    let mut untraced = Tracer::disabled();
    let (mut base, mut lt, mut lima_exec, mut lima_run) = (vec![], vec![], vec![], vec![]);
    for _ in 0..REF_REPS {
        base.push(run_once(scripts, &LimaConfig::base(), &mut untraced)?.exec_ns as f64 / 1e6);
        lt.push(
            run_once(scripts, &LimaConfig::tracing_only(), &mut untraced)?.exec_ns as f64 / 1e6,
        );
        let r0 = Instant::now();
        let out = run_once(scripts, &LimaConfig::lima(), &mut untraced)?;
        lima_run.push(r0.elapsed().as_secs_f64() * 1e3);
        lima_exec.push(out.exec_ns as f64 / 1e6);
    }

    let obs = Arc::new(Obs::with_capacity(RING_EVENTS));
    let lane = bind_lane(&obs);
    let config = LimaConfig::lima().with_obs(Arc::clone(&obs));
    let mut per_run: Vec<Metrics> = Vec::new();
    let mut last: Option<TracedRun> = None;
    let mut last_stats = Vec::new();
    let mut run_ms = Vec::new();
    let mut next_span_id = 1;
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs(args.seconds) || per_run.is_empty() {
        let run_id = per_run.len() as u64 + 1;
        obs.record_instant(EventKind::SessionStart, "run-start", 0, run_id, 0);
        let mut t = Tracer::new(&obs, lane, next_span_id);
        let r0 = Instant::now();
        let out = run_once(scripts, &config, &mut t)?;
        run_ms.push(r0.elapsed().as_secs_f64() * 1e3);
        *attempted += 1;
        if !matches(&out.outputs, reference) {
            *failed += 1;
        }
        next_span_id += t.spans.len() as u64;
        let events = obs.events();
        let Some(first) = events
            .iter()
            .position(|(_, e)| e.name.as_str() == "run-start" && e.a == run_id)
        else {
            return Err("the Obs ring wrapped within one run; raise RING_EVENTS".into());
        };
        let events = events[first + 1..].to_vec();
        let traced = TracedRun::new(run_id, t.spans, events, 0);
        per_run.push(run_metrics(&traced, &out));
        last_stats = out.stats;
        last = Some(traced);
    }
    let traced = last.expect("at least one traced run");

    for (name, _, _) in crate::report::PER_LAYER {
        let vals: Vec<f64> = per_run.iter().filter_map(|r| r.get(name)).collect();
        if !vals.is_empty() {
            m.set(name, median(&vals));
        }
    }
    crate::report::set_counters(m, &last_stats);
    m.set("lineage.overhead_ms", median(&lt) - median(&base));
    m.set("cache.net_ms", median(&lima_exec) - median(&lt));
    let traced_p50 = median(&run_ms);
    let untraced_p50 = median(&lima_run);
    m.set("trace.run_ms_p50", traced_p50);
    m.set("trace.untraced_run_ms_p50", untraced_p50);
    m.set("trace.overhead_ms", traced_p50 - untraced_p50);
    // Each run's events are kept only if the ring still holds its start
    // marker (checked above), so no run here lost events.
    m.set("trace.dropped_events", 0.0);
    set_lineage_split(m);

    notes.push(format!(
        "exec ms (untraced medians of {REF_REPS}): Base {:.3}, LT {:.3}, LIMA {:.3}",
        median(&base),
        median(&lt),
        median(&lima_exec)
    ));
    notes.push(describe("traced_run_ms", "ms", &run_ms));
    notes.push(crate::account_lines(m));
    notes.push(crate::machine::descriptor(
        args.seed,
        &[("traced_runs", run_ms.len()), ("reference_reps", REF_REPS)],
    ));
    Ok(traced)
}

/// Per-layer numbers of one traced run.
fn run_metrics(t: &TracedRun, out: &RunOut) -> Metrics {
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut m = Metrics::default();
    m.set("lang.compile_ms", ms(t.span_total("compile")));
    m.set("runtime.ctx_setup_ms", ms(t.span_total("ctx_setup")));
    let exec = ms(t.span_total("exec"));
    m.set("runtime.exec_ms", exec);
    m.set("runtime.teardown_ms", ms(t.span_total("teardown")));
    let (instrs, _, instr_self) = t.event_totals(EventKind::Instr);
    m.set("runtime.instrs", instrs as f64);
    m.set("runtime.instr_self_ms", ms(instr_self));
    let (kernels, _, kernel_self) = t.event_totals(EventKind::Kernel);
    m.set("matrix.kernel_ms", ms(kernel_self));
    m.set("matrix.kernel_calls", kernels as f64);
    m.set("matrix.kernel_share", ms(kernel_self) / exec.max(1e-9));
    m.set(
        "cache.spill_write_ms",
        ms(t.event_totals(EventKind::SpillWrite).2),
    );
    m.set(
        "cache.spill_restore_ms",
        ms(t.event_totals(EventKind::SpillRestore).2),
    );
    m.set(
        "persist.write_ms",
        ms(t.event_totals(EventKind::PersistWrite).2),
    );
    m.set(
        "cache.resident_mb",
        out.resident_bytes as f64 / (1024.0 * 1024.0),
    );
    set_account(&mut m, t, t.span_total("run"));
    m
}

/// Layer accounting: self time per layer, their sum, and the remainder of
/// the traced wall time that no layer accounts for.
pub fn set_account(m: &mut Metrics, t: &TracedRun, wall_ns: u64) {
    let layers = t.layer_self();
    let get = |k: &str| layers.get(k).copied().unwrap_or(0);
    let ms = |ns: u64| ns as f64 / 1e6;
    let parts = [
        ("account.lang_ms", get("lang")),
        ("account.runtime_ms", get("runtime")),
        ("account.matrix_ms", get("matrix")),
        ("account.cache_io_ms", get("core.cache.io")),
    ];
    let sum: u64 = parts.iter().map(|(_, v)| v).sum();
    for (name, v) in parts {
        m.set(name, ms(v));
    }
    m.set("account.wall_ms", ms(wall_ns));
    m.set("account.layers_ms", ms(sum));
    m.set("account.unaccounted_ms", ms(wall_ns) - ms(sum));
}

pub fn set_lineage_split(m: &mut Metrics) {
    let dag = lineage_split::minibatch_dag();
    m.set("lineage.construct_ns", dag.construct_ns);
    m.set("lineage.hash_ns", dag.hash_ns);
    m.set("lineage.drop_ns", dag.drop_ns);
    let chain = lineage_split::chain();
    m.set("lineage.chain_construct_ns", chain.construct_ns);
    m.set("lineage.chain_hash_ns", chain.hash_ns);
    m.set("lineage.chain_drop_ns", chain.drop_ns);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down minibatch run through the traced path: the trace file it
    /// writes passes the program's validators, and the counts repeat.
    #[test]
    fn traced_run_writes_a_valid_trace_with_repeatable_counts() {
        let build = |seed| {
            let mut p = pipelines::minibatch_micro(16, 6, 2, 0);
            p.inputs = vec![("X".into(), Value::matrix(gen::uniform_matrix(16, 6, seed)))];
            vec![script(p, &["s"])]
        };
        let scripts = build(5);
        let reference = run_once(&scripts, &LimaConfig::base(), &mut Tracer::disabled())
            .unwrap()
            .outputs;
        let path =
            std::env::temp_dir().join(format!("perfbench-traced-{}.json", std::process::id()));
        let args = Args {
            workload: "minibatch-trace".into(),
            seed: 5,
            seconds: 0,
            trace: true,
        };
        let mut counts = Vec::new();
        for _ in 0..2 {
            let (mut m, mut notes, mut attempted, mut failed) = (Metrics::default(), vec![], 0, 0);
            let traced = traced_phase(
                &args,
                &scripts,
                &reference,
                &mut m,
                &mut notes,
                &mut attempted,
                &mut failed,
            )
            .unwrap();
            assert_eq!(failed, 0);
            crate::trace::write_trace(&traced, &path).unwrap();
            let events = crate::trace::check_trace_file(&path).expect("valid, nested trace");
            assert!(events > 100);
            counts.push((
                m.get("lineage.items"),
                m.get("cache.probes"),
                m.get("cache.puts"),
            ));
            assert!(m.get("runtime.instrs").unwrap() > 0.0);
            assert!(m.get("account.unaccounted_ms").unwrap() >= 0.0);
        }
        std::fs::remove_file(&path).ok();
        assert_eq!(counts[0], counts[1]);
        // 8 iterations of 40 element-wise ops, plus slicing and sums.
        assert!(counts[0].0.unwrap() > 320.0);
    }
}
