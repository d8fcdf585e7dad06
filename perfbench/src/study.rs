//! `cost_study`: the paper's four-scheme cost comparison on 20-hour
//! jobs over the paper's markets. One op simulates one job (one scheme
//! from one start time) with the same call `StudyEnv::run_scheme_with`
//! fans out.

use std::sync::Arc;
use std::time::Instant;

use proteus_costsim::{
    run_job_observed, run_job_with_faults, Scheme, SchemeKind, StudyConfig, StudyEnv, StudyExecutor,
};
use proteus_market::MarketModel;
use proteus_obs::Recorder;
use proteus_simtime::SimDuration;

use crate::util::{median, nproc, Tracer};
use crate::{Layers, Outcome};

/// Study environments (markets and start times) per run, one per
/// sub-seed.
const SUB_SEEDS: u64 = 32;
/// Random start times per environment; a pass over one environment
/// runs `4 × STARTS` jobs.
const STARTS: usize = 16;
/// Environments the 1-vs-nproc thread comparison replays.
const THREAD_CHECKS: usize = 4;
const JOB_HOURS: f64 = 20.0;
const MAX_JOB_HOURS: f64 = 96.0;

fn config(seed: u64) -> StudyConfig {
    StudyConfig {
        seed,
        train_days: 14,
        eval_days: 28,
        starts: STARTS,
        job_hours: JOB_HOURS,
        market_model: MarketModel::default(),
        max_job_hours: MAX_JOB_HOURS,
        market_faults: None,
    }
}

/// The four schemes in the paper's order, with the span each job is
/// traced under and the per-layer metric its mean job time feeds.
fn kinds() -> [(SchemeKind, &'static str, &'static str); 4] {
    [
        (
            SchemeKind::AllOnDemand { machines: 128 },
            "costsim.job.all_on_demand",
            "costsim.job_ms.all_on_demand",
        ),
        (
            SchemeKind::paper_checkpoint(),
            "costsim.job.standard_checkpoint",
            "costsim.job_ms.standard_checkpoint",
        ),
        (
            SchemeKind::paper_standard_agileml(),
            "costsim.job.standard_agileml",
            "costsim.job_ms.standard_agileml",
        ),
        (
            SchemeKind::paper_proteus(),
            "costsim.job.proteus",
            "costsim.job_ms.proteus",
        ),
    ]
}

/// Decision steps a job of `runtime` took at the 2-minute cadence.
fn steps(runtime: SimDuration) -> u64 {
    runtime.as_millis().div_ceil(120_000)
}

fn build_env(seed: u64, tr: &mut Tracer) -> (StudyEnv, f64) {
    let t = Instant::now();
    let s = tr.open("core.launch");
    let env = StudyEnv::new(config(seed));
    let _ = env.on_demand_baseline();
    tr.close(s);
    (env, t.elapsed().as_secs_f64())
}

/// One pass over every (scheme, start) job, in start-major order.
struct Pass {
    op_ms: Vec<f64>,
    wall_s: f64,
    steps: u64,
    /// Per scheme: (cost sum, completed jobs, evictions).
    per_scheme: [(f64, usize, u64); 4],
    obs_events: u64,
}

fn pass(env: &StudyEnv, tr: &mut Tracer, observed: bool) -> Pass {
    let kinds = kinds();
    let job = env.job();
    let schemes: Vec<Scheme> = kinds
        .iter()
        .map(|(kind, _, _)| Scheme {
            kind: kind.clone(),
            job,
        })
        .collect();
    let horizon = SimDuration::from_hours(MAX_JOB_HOURS as u64);
    let mut p = Pass {
        op_ms: Vec::with_capacity(4 * env.starts.len()),
        wall_s: 0.0,
        steps: 0,
        per_scheme: [(0.0, 0, 0); 4],
        obs_events: 0,
    };
    let t0 = Instant::now();
    for &start in &env.starts {
        for (i, scheme) in schemes.iter().enumerate() {
            let t = Instant::now();
            let s = tr.open(kinds[i].1);
            let out = if observed {
                let rec = Arc::new(Recorder::new());
                let out = run_job_observed(
                    scheme,
                    &env.traces,
                    &env.beta,
                    start,
                    horizon,
                    None,
                    Some(Arc::clone(&rec)),
                );
                p.obs_events += rec.timeline().len() as u64;
                out
            } else {
                run_job_with_faults(scheme, &env.traces, &env.beta, start, horizon, None)
            };
            tr.close(s);
            p.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
            p.steps += steps(out.runtime);
            let e = &mut p.per_scheme[i];
            e.0 += out.cost;
            e.1 += usize::from(out.completed);
            e.2 += u64::from(out.evictions);
        }
    }
    p.wall_s = t0.elapsed().as_secs_f64();
    p
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    let mut off = Tracer::new(false);
    let mut on = Tracer::new(true);
    let subs = crate::sub_seeds(seed, SUB_SEEDS);
    let mut setups = Vec::new();
    let envs: Vec<StudyEnv> = subs
        .iter()
        .map(|&sub| {
            let (env, s) = build_env(sub, &mut off);
            setups.push(s);
            env
        })
        .collect();
    let work = envs[0].job().work_core_hours;

    // Whole cycles over the environments until the time is used. A
    // traced run pairs every untraced pass with a traced one, each
    // traced pass rebuilding its environment under the `wall` span.
    let mut passes: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut blocks = Vec::new();
    loop {
        for (env, &sub) in envs.iter().zip(&subs) {
            passes.push(pass(env, &mut off, false));
            if trace {
                let root = on.open("wall");
                let (tenv, _) = build_env(sub, &mut on);
                traced.push(pass(&tenv, &mut on, true));
                on.close(root);
            }
        }
        let cycle = passes.len() - envs.len();
        blocks.extend(crate::Block::of(passes[cycle..].iter_mut().map(|p| {
            crate::Unit {
                op_ms: std::mem::take(&mut p.op_ms),
                wall_s: p.wall_s,
                steps: p.steps as f64,
                work: p.per_scheme.iter().map(|e| e.1).sum::<usize>() as f64 * work,
            }
        })));
        if trace || !crate::another_cycle(start, seconds, passes.len() / subs.len()) {
            break;
        }
    }
    out.attempted = 4 * (STARTS * (passes.len() + traced.len())) as u64;

    // The paper's ordering over the first cycle's jobs, every job
    // completing, and the study engine agreeing with the op loop at 1
    // and nproc executor threads.
    let first = &passes[..envs.len()];
    let total = |i: usize| first.iter().map(|p| p.per_scheme[i].0).sum::<f64>();
    let n = (STARTS * envs.len()) as f64;
    let (od, ckpt, agile, proteus) = (total(0) / n, total(1) / n, total(2) / n, total(3) / n);
    out.note(format!(
        "mean $/job over {} starts: AllOnDemand {od:.2}, Standard+Checkpoint {ckpt:.2}, Standard+AgileML {agile:.2}, Proteus {proteus:.2}",
        n
    ));
    out.check(
        "paper ordering Proteus < Standard+AgileML < Standard+Checkpoint < AllOnDemand",
        proteus < agile && agile < ckpt && ckpt < od,
    );
    let incomplete: usize = first
        .iter()
        .map(|p| p.per_scheme.iter().map(|e| STARTS - e.1).sum::<usize>())
        .sum();
    out.check("every job completes within the horizon", incomplete == 0);
    out.failed = incomplete as u64;
    let mut same_threads = true;
    let mut same_engine = true;
    // The thread-count comparison runs on the first few environments.
    for (env, p) in envs.iter().zip(first).take(THREAD_CHECKS) {
        let serial = env.run_comparison_with(&StudyExecutor::new(1));
        let threaded = env.run_comparison_with(&StudyExecutor::new(nproc()));
        same_threads &= serial == threaded;
        same_engine &= (0..4).all(|i| {
            serial[i].mean_cost.to_bits() == (p.per_scheme[i].0 / STARTS as f64).to_bits()
        });
    }
    out.check(
        "identical study results at 1 and nproc executor threads",
        same_threads,
    );
    out.check(
        "op loop reproduces the study engine's mean costs",
        same_engine,
    );
    let costs = |p: &Pass| p.per_scheme.map(|e| e.0.to_bits());
    let repeats = passes
        .iter()
        .enumerate()
        .all(|(i, p)| costs(p) == costs(&first[i % envs.len()]))
        && traced
            .iter()
            .enumerate()
            .all(|(i, p)| costs(p) == costs(&first[i]));
    out.check(
        "every pass repeats its environment's first-pass costs",
        repeats,
    );

    if !trace {
        out.e2e = Some(crate::E2e {
            setup_s: setups,
            blocks,
            usd_per_work: total(3) / (n * work),
        });
        return out;
    }

    let mut l = Layers::from_tracer(&on);
    l.set("core.launch_s", on.total_s("core.launch"));
    let mut step_s = 0.0;
    for (_, span, metric) in kinds() {
        step_s += on.total_s(span);
        l.set(metric, on.total_s(span) * 1e3 / n);
    }
    l.set("core.market_step_s", step_s);
    l.set(
        "costsim.steps_per_job",
        traced.iter().map(|p| p.steps).sum::<u64>() as f64 / (4.0 * n),
    );
    let evictions: u64 = traced
        .iter()
        .map(|p| p.per_scheme.iter().map(|e| e.2).sum::<u64>())
        .sum();
    l.set("market.evictions", evictions as f64);
    l.set(
        "obs.events",
        traced.iter().map(|p| p.obs_events).sum::<u64>() as f64,
    );
    let ratios: Vec<f64> = passes
        .iter()
        .zip(&traced)
        .map(|(u, t)| t.wall_s / u.wall_s - 1.0)
        .collect();
    l.set("obs.overhead_pct", 100.0 * median(&ratios));
    let (mut gen_s, mut beta_s) = (0.0, 0.0);
    for &sub in &subs {
        let (g, b) = probe_market(sub);
        gen_s += g;
        beta_s += b;
    }
    l.set("market.trace_gen_s", gen_s);
    l.set("bidbrain.beta_train_s", beta_s);
    out.layers = Some(l);
    out.spans = Some(on);
    out
}

/// Times `generate_set` and `BetaEstimator::train` over the study's
/// markets and windows, as `StudyEnv::new` runs them.
fn probe_market(seed: u64) -> (f64, f64) {
    use proteus_bidbrain::BetaEstimator;
    use proteus_market::{catalog, TraceGenerator};
    use proteus_simtime::SimTime;
    let cfg = config(seed);
    let keys = catalog::paper_markets();
    let total_days = cfg.train_days + cfg.eval_days;
    let horizon = SimDuration::from_hours(24 * total_days + cfg.max_job_hours as u64 + 1);
    let t = Instant::now();
    let traces = TraceGenerator::new(seed, cfg.market_model.clone()).generate_set(&keys, horizon);
    let gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut beta = BetaEstimator::new();
    for k in &keys {
        beta.train(
            *k,
            traces.get(k).expect("trace generated for every market"),
            SimTime::EPOCH,
            SimTime::from_hours(24 * cfg.train_days),
            SimDuration::from_mins(30),
            &BetaEstimator::default_deltas(),
        );
    }
    (gen_s, t.elapsed().as_secs_f64())
}
