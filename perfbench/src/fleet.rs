//! `fleet_contended`: a `FleetSim` over the paper's markets with
//! per-market capacity caps, fed a seeded stream of mostly preemptible
//! tier-2 trials plus some non-preemptible tier-0 gangs. One op is one
//! scheduling round (`run_to` one step ahead).

use std::sync::Arc;
use std::time::Instant;

use proteus_bidbrain::BetaEstimator;
use proteus_costsim::StudyExecutor;
use proteus_fleet::{FleetConfig, FleetJobSpec, FleetOutcome, FleetSim, FleetTiming};
use proteus_market::{
    catalog, CapacityRule, MarketFaultPlan, MarketModel, TraceGenerator, TraceSet,
};
use proteus_obs::Recorder;
use proteus_simtime::rng::seeded_stream;
use proteus_simtime::{SimDuration, SimTime};
use rand::Rng;

use crate::util::{median, nproc, Tracer};
use crate::{Layers, Outcome};

/// β-training window; the fleet starts when it ends.
const TRAIN: SimDuration = SimDuration::from_hours(12);
/// Simulated fleet lifetime per episode.
const HOURS: u64 = 36;
/// Jobs submitted per episode, arriving over the first `ARRIVAL_HOURS`.
const JOBS: usize = 400;
const ARRIVAL_HOURS: f64 = 6.0;
/// Live spot instances each market grants at most.
const MARKET_CAP: u32 = 32;
/// Fleets per run, one per sub-seed.
const SUB_SEEDS: u64 = 24;
/// Fleets the 1-vs-nproc thread comparison replays.
const THREAD_CHECKS: usize = 4;

struct Inputs {
    traces: TraceSet,
    beta: BetaEstimator,
    jobs: Vec<(FleetJobSpec, SimTime)>,
}

fn markets() -> Vec<proteus_market::MarketKey> {
    catalog::paper_markets()
}

fn gen_traces(seed: u64) -> TraceSet {
    let horizon = TRAIN + SimDuration::from_hours(HOURS + 2);
    TraceGenerator::new(seed, MarketModel::default()).generate_set(&markets(), horizon)
}

fn train_beta(traces: &TraceSet) -> BetaEstimator {
    let mut beta = BetaEstimator::new();
    for k in &markets() {
        beta.train(
            *k,
            traces.get(k).expect("trace generated for every market"),
            SimTime::EPOCH,
            SimTime::EPOCH + TRAIN,
            SimDuration::from_mins(30),
            &BetaEstimator::default_deltas(),
        );
    }
    beta
}

/// The seeded arrival stream: 85% tier-2 preemptible trials of two
/// instances, 15% tier-0 non-preemptible gangs of eight.
fn job_stream(seed: u64) -> Vec<(FleetJobSpec, SimTime)> {
    let mut rng = seeded_stream(seed, 0xF1EE7);
    let mut t = 0.0f64;
    let gap = ARRIVAL_HOURS / JOBS as f64;
    (0..JOBS)
        .map(|_| {
            t += gap * -(1.0 - rng.gen_range(0.0..1.0f64)).ln();
            let at = SimTime::EPOCH + TRAIN + SimDuration::from_hours_f64(t.min(ARRIVAL_HOURS));
            let spec = if rng.gen_bool(0.15) {
                FleetJobSpec {
                    work_core_hours: rng.gen_range(150.0..300.0),
                    min_gang: 8,
                    tier: 0,
                    preemptible: false,
                    reliable_slots: 2,
                    phi_per_doubling: 0.97,
                }
            } else {
                FleetJobSpec::trial(rng.gen_range(20.0..60.0), 2, 2)
            };
            (spec, at)
        })
        .collect()
}

fn fault_plan(seed: u64) -> MarketFaultPlan {
    MarketFaultPlan::new(seed).with_capacity(CapacityRule {
        market: None,
        from: SimTime::EPOCH,
        until: SimTime::EPOCH + TRAIN + SimDuration::from_hours(HOURS + 2),
        capacity: MARKET_CAP,
    })
}

fn setup(seed: u64, tr: &mut Tracer) -> Inputs {
    let s = tr.open("market.generate_set");
    let traces = gen_traces(seed);
    tr.close(s);
    let s = tr.open("bidbrain.beta_train");
    let beta = train_beta(&traces);
    tr.close(s);
    Inputs {
        traces,
        beta,
        jobs: job_stream(seed),
    }
}

fn launch<'a>(inp: &'a Inputs, seed: u64, rec: Option<Arc<Recorder>>) -> FleetSim<'a> {
    let mut sim = FleetSim::new(
        &inp.traces,
        &inp.beta,
        FleetConfig::paper_defaults(markets()),
    );
    sim.set_fault_plan(fault_plan(seed));
    if let Some(r) = rec {
        sim.set_recorder(r);
    }
    sim.start_at(SimTime::EPOCH + TRAIN)
        .expect("fleet start is in the future");
    for (spec, at) in &inp.jobs {
        sim.submit(spec.clone(), *at);
    }
    sim
}

struct Episode {
    op_ms: Vec<f64>,
    ops_wall_s: f64,
    wall_s: f64,
    failed: u64,
    outcome: FleetOutcome,
    timing: FleetTiming,
    obs_events: u64,
}

fn episode(
    inp: &Inputs,
    seed: u64,
    exec: &StudyExecutor,
    tr: &mut Tracer,
    observed: bool,
) -> Episode {
    let wall = Instant::now();
    let rec = observed.then(|| Arc::new(Recorder::new()));
    let s = tr.open("core.launch");
    let mut sim = launch(inp, seed, rec.clone());
    tr.close(s);
    let step = SimDuration::from_secs(120);
    let rounds = (HOURS * 30) as usize;
    let mut op_ms = Vec::with_capacity(rounds);
    let mut failed = 0;
    let ops = Instant::now();
    for _ in 0..rounds {
        let t = Instant::now();
        let until = sim.now() + step;
        let s = tr.open("fleet.run_to");
        let r = sim.run_to(until, exec);
        tr.close(s);
        if let Err(e) = r {
            eprintln!("round failed: {e}");
            failed += 1;
            break;
        }
        op_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let ops_wall_s = ops.elapsed().as_secs_f64();
    let s = tr.open("fleet.finish");
    let (outcome, timing) = sim.finish();
    tr.close(s);
    Episode {
        op_ms,
        ops_wall_s,
        wall_s: wall.elapsed().as_secs_f64(),
        failed,
        outcome,
        timing,
        obs_events: rec.map_or(0, |r| r.timeline().len() as u64),
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    let exec = StudyExecutor::new(1);
    let mut off = Tracer::new(false);
    let mut on = Tracer::new(true);
    let subs = crate::sub_seeds(seed, SUB_SEEDS);
    // Every fleet builds its inputs afresh and times it, so the set-up
    // samples span the run; the first cycle's inputs are kept for the
    // thread-count replays.
    let mut setups = Vec::new();
    let mut inputs: Vec<Inputs> = Vec::new();

    // Whole cycles over the fleets until the time is used. A traced run
    // pairs every untraced fleet with a traced one, each rebuilding its
    // inputs under the `wall` span. Only the first cycle's fleets are
    // kept whole; later ones are checked against them as they end.
    let mut first: Vec<Episode> = vec![];
    let mut traced: Vec<Episode> = vec![];
    let mut blocks = Vec::new();
    let mut repeats = true;
    let mut cycles = 0;
    loop {
        let mut cycle = Vec::new();
        for (i, &sub) in subs.iter().enumerate() {
            let t = Instant::now();
            let inp = setup(sub, &mut off);
            drop(launch(&inp, sub, None));
            setups.push(t.elapsed().as_secs_f64());
            let mut ep = episode(&inp, sub, &exec, &mut off, false);
            out.attempted += ep.op_ms.len() as u64 + ep.failed;
            out.failed += ep.failed;
            cycle.push(crate::Unit {
                steps: ep.op_ms.len() as f64,
                op_ms: std::mem::take(&mut ep.op_ms),
                wall_s: ep.ops_wall_s,
                work: ep.outcome.total_work,
            });
            if cycles == 0 {
                inputs.push(inp);
                first.push(ep);
            } else {
                repeats &= ep.outcome == first[i].outcome;
            }
            if trace {
                let root = on.open("wall");
                let tinp = setup(sub, &mut on);
                traced.push(episode(&tinp, sub, &exec, &mut on, true));
                on.close(root);
            }
        }
        cycles += 1;
        blocks.extend(crate::Block::of(cycle));
        if trace || !crate::another_cycle(start, seconds, cycles) {
            break;
        }
    }
    out.attempted += traced
        .iter()
        .map(|e| e.op_ms.len() as u64 + e.failed)
        .sum::<u64>();
    out.failed += traced.iter().map(|e| e.failed).sum::<u64>();
    out.check("no round failed", out.failed == 0);
    if out.failed > 0 {
        return out;
    }

    let terminal = first.iter().all(|e| {
        e.outcome.jobs.len() == JOBS && e.outcome.jobs.iter().all(|j| j.state.is_terminal())
    });
    out.check("every job ends in a typed terminal state", terminal);
    let total = |f: &dyn Fn(&FleetOutcome) -> f64| first.iter().map(|e| f(&e.outcome)).sum::<f64>();
    out.check("preemptions > 0", total(&|o| o.preemptions as f64) > 0.0);
    out.check("some jobs complete", total(&|o| o.completed as f64) > 0.0);
    out.check(
        "every fleet repeats its sub-seed's first outcome",
        repeats
            && traced
                .iter()
                .enumerate()
                .all(|(i, e)| e.outcome == first[i].outcome),
    );
    let threaded = inputs
        .iter()
        .zip(&subs)
        .zip(&first)
        .take(THREAD_CHECKS)
        .all(|((inp, &sub), e)| {
            episode(inp, sub, &StudyExecutor::new(nproc()), &mut off, false).outcome == e.outcome
        });
    out.check(
        "identical outcomes at 1 and nproc executor threads",
        threaded,
    );
    let (cost, work) = (total(&|o| o.total_cost), total(&|o| o.total_work));
    out.note(format!(
        "fleet: {} fleets of {JOBS} jobs, {} completed, {} preemptions, {} evictions, ${cost:.2} for {work:.1} work",
        first.len(),
        total(&|o| o.completed as f64),
        total(&|o| o.preemptions as f64),
        total(&|o| o.evictions as f64),
    ));

    if !trace {
        out.e2e = Some(crate::E2e {
            setup_s: setups,
            blocks,
            usd_per_work: cost / work,
        });
        return out;
    }

    let sum = |f: &dyn Fn(&Episode) -> f64| traced.iter().map(f).sum::<f64>();
    let mut l = Layers::from_tracer(&on);
    l.set("core.launch_s", on.total_s("core.launch"));
    l.set("core.market_step_s", on.total_s("fleet.run_to"));
    l.set("core.finish_s", on.total_s("fleet.finish"));
    l.set("market.trace_gen_s", on.total_s("market.generate_set"));
    l.set("bidbrain.beta_train_s", on.total_s("bidbrain.beta_train"));
    l.set("market.evictions", sum(&|e| e.outcome.evictions as f64));
    l.set("fleet.sched_s", sum(&|e| e.timing.sched_seconds));
    l.set(
        "fleet.round_ms",
        on.total_s("fleet.run_to") * 1e3 / sum(&|e| e.op_ms.len() as f64),
    );
    l.set("fleet.preemptions", sum(&|e| e.outcome.preemptions as f64));
    l.set("fleet.completed", sum(&|e| e.outcome.completed as f64));
    let useful = sum(&|e| {
        e.outcome
            .jobs
            .iter()
            .filter(|j| j.state == proteus_fleet::JobState::Completed)
            .map(|j| j.work_done)
            .sum()
    });
    l.set(
        "fleet.useful_work_ratio",
        useful / sum(&|e| e.outcome.total_work),
    );
    l.set("obs.events", sum(&|e| e.obs_events as f64));
    let ratios: Vec<f64> = first
        .iter()
        .zip(&traced)
        .map(|(u, t)| t.wall_s / u.wall_s - 1.0)
        .collect();
    l.set("obs.overhead_pct", 100.0 * median(&ratios));
    out.layers = Some(l);
    out.spans = Some(on);
    out
}
