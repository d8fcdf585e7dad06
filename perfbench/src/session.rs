//! `train_calm` and `train_churn`: a live `Proteus` session driven by a
//! closed loop. One op advances the market by one 2-minute decision step
//! and then waits for the next training clock.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use proteus::{Proteus, ProteusConfig, ProteusError, ProteusReport};
use proteus_agileml::{AgileConfig, JobEvent};
use proteus_bidbrain::{BetaEstimator, ForecastConfig};
use proteus_market::{MarketFaultPlan, MarketModel, TraceGenerator};
use proteus_mlapps::data::{netflix_like, nytimes_like, LdaDataConfig, MfDataConfig};
use proteus_mlapps::{Lda, LdaConfig, MatrixFactorization, MfConfig, MlApp, SequentialTrainer};
use proteus_obs::Recorder;
use proteus_ps::{encode_model, ParamKey, PartitionMap, ShardStore};
use proteus_simtime::{SimDuration, SimTime};

use crate::util::{median, os_threads, Tracer};
use crate::{Layers, Outcome, Workload};

/// One decision step of market time, in hours.
const STEP_HOURS: f64 = 2.0 / 60.0;

/// How long an op waits for the next training clock before it counts
/// as failed; a clock normally takes a few milliseconds.
const OP_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(2);

/// How far the distributed objective may trail the sequential oracle's
/// at the same clock count (stale reads, drains and re-added
/// workers all cost some progress).
const OBJECTIVE_FACTOR: f64 = 3.0;

pub struct Spec {
    pub churn: bool,
    /// Sessions per cycle, each on its own sub-seed's inputs.
    pub sub_seeds: u64,
    /// Decision steps per session. Sessions of one sub-seed replay the
    /// same market, so their market-side counts must repeat exactly.
    pub steps: usize,
    /// Cap on machines the session holds, reliable one included. Each
    /// machine is an OS thread; a small cap keeps the threads few
    /// enough on a 2-core host that op times measure the session, not
    /// the scheduler.
    pub max_machines: u32,
}

impl Spec {
    fn config(&self, seed: u64) -> ProteusConfig {
        let beta_training = SimDuration::from_hours(24 * 7);
        let live = SimDuration::from_mins(2 * self.steps as u64 + 60);
        ProteusConfig {
            agile: AgileConfig {
                partitions: 8,
                data_blocks: 32,
                seed,
                ..AgileConfig::default()
            },
            market_model: if self.churn {
                MarketModel::volatile()
            } else {
                MarketModel::calm()
            },
            market_horizon: beta_training + live,
            beta_training,
            market_faults: self.churn.then(|| {
                MarketFaultPlan::new(seed)
                    .with_throttle(0.2, SimDuration::from_mins(4))
                    .with_boot_delay(SimDuration::from_mins(2), SimDuration::from_mins(6))
            }),
            forecast: self.churn.then(ForecastConfig::default),
            max_machines: self.max_machines,
            ..ProteusConfig::default()
        }
    }
}

/// What one session (set-up, ops, finish) produced.
struct Episode {
    sub_seed: u64,
    setup_s: f64,
    op_ms: Vec<f64>,
    ops_wall_s: f64,
    steps: u64,
    attempted: u64,
    failed: u64,
    report: Option<ProteusReport>,
    events: EventCounts,
    messages: u64,
    dropped: u64,
    os_threads: u64,
    final_params: Option<BTreeMap<ParamKey, proteus_ps::DenseVec>>,
    obs_events: u64,
    wall_s: f64,
}

#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct EventCounts {
    stage_changes: u64,
    nodes_added: u64,
    nodes_evicted: u64,
}

fn count_events(events: &[JobEvent]) -> EventCounts {
    let mut c = EventCounts::default();
    for e in events {
        match e {
            JobEvent::StageChanged { .. } => c.stage_changes += 1,
            JobEvent::NodesAdded { nodes } => c.nodes_added += nodes.len() as u64,
            JobEvent::NodesEvicted { nodes } => c.nodes_evicted += nodes.len() as u64,
            _ => {}
        }
    }
    c
}

fn latest_clock(events: &[JobEvent]) -> u64 {
    events
        .iter()
        .rev()
        .find_map(|e| match e {
            JobEvent::ClockAdvanced { min } => Some(*min),
            _ => None,
        })
        .unwrap_or(0)
}

/// The two applications, behind one interface for the closed loop.
trait AppKind {
    type A: MlApp;
    fn app() -> Self::A;
    fn data(seed: u64) -> Vec<<Self::A as MlApp>::Datum>;
}

/// MF on a 200×100 Netflix-like matrix: 300 keys, mostly disjoint rows.
struct Mf;
impl AppKind for Mf {
    type A = MatrixFactorization;
    fn app() -> MatrixFactorization {
        MatrixFactorization::new(MfConfig::default())
    }
    fn data(seed: u64) -> Vec<proteus_mlapps::Rating> {
        let cfg = MfDataConfig {
            rows: 200,
            cols: 100,
            true_rank: 4,
            observed: 16000,
            noise: 0.05,
        };
        netflix_like(&cfg, seed)
    }
}

/// LDA on a NYTimes-like corpus: 101 keys, every worker writes the
/// shared topic-totals key.
struct LdaApp;
impl AppKind for LdaApp {
    type A = Lda;
    fn app() -> Lda {
        Lda::new(LdaConfig::default())
    }
    fn data(seed: u64) -> Vec<proteus_mlapps::LdaDoc> {
        let cfg = LdaDataConfig {
            docs: 60,
            vocab: 100,
            true_topics: 5,
            doc_len: 40,
            topic_purity: 0.85,
        };
        nytimes_like(&cfg, seed, LdaConfig::default().topics)
    }
}

/// Launches, drives and finishes one session on `sub_seed`'s inputs.
/// With tracing on, the whole session sits under one `wall` span.
fn episode<K: AppKind>(spec: &Spec, sub_seed: u64, tr: &mut Tracer, keep_model: bool) -> Episode {
    let wall = Instant::now();
    let root = tr.open("wall");
    let rec = tr.is_on().then(|| Arc::new(Recorder::new()));
    let s = tr.open("mlapps.dataset");
    let data = K::data(sub_seed);
    tr.close(s);
    let s = tr.open("core.launch");
    let launched = match &rec {
        Some(r) => Proteus::launch_observed(K::app(), data, spec.config(sub_seed), Arc::clone(r)),
        None => Proteus::launch(K::app(), data, spec.config(sub_seed)),
    };
    tr.close(s);
    let mut ep = Episode {
        sub_seed,
        setup_s: wall.elapsed().as_secs_f64(),
        op_ms: Vec::with_capacity(spec.steps),
        ops_wall_s: 0.0,
        steps: 0,
        attempted: 1,
        failed: 0,
        report: None,
        events: EventCounts::default(),
        messages: 0,
        dropped: 0,
        os_threads: 0,
        final_params: None,
        obs_events: 0,
        wall_s: 0.0,
    };
    let mut session = match launched {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sub-seed {sub_seed}: launch failed: {e}");
            ep.failed = 1;
            tr.close(root);
            return ep;
        }
    };
    let ops = Instant::now();
    for i in 0..spec.steps {
        if i % 16 == 0 {
            ep.os_threads = ep.os_threads.max(os_threads());
        }
        ep.attempted += 1;
        let t = Instant::now();
        if let Err(e) = op(&mut session, tr) {
            eprintln!("sub-seed {sub_seed}: op {i} failed: {e}");
            ep.failed += 1;
            break;
        }
        ep.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        ep.steps += 1;
    }
    ep.ops_wall_s = ops.elapsed().as_secs_f64();
    let s = tr.open("agileml.events");
    ep.events = count_events(session.job().events());
    tr.close(s);
    let s = tr.open("core.net_stats");
    let net = session.net_stats();
    tr.close(s);
    ep.messages = net.messages;
    ep.dropped = net.dropped;
    if keep_model && ep.failed == 0 {
        ep.attempted += 1;
        match session.job().snapshot() {
            Ok(snap) => ep.final_params = Some(snap.params),
            Err(e) => {
                eprintln!("snapshot failed: {e}");
                ep.failed += 1;
            }
        }
    }
    let s = tr.open("core.finish");
    ep.attempted += 1;
    match session.finish() {
        Ok(r) => ep.report = Some(r),
        Err(e) => {
            eprintln!("finish failed: {e}");
            ep.failed += 1;
        }
    }
    tr.close(s);
    tr.close(root);
    ep.wall_s = wall.elapsed().as_secs_f64();
    ep.obs_events = rec.map_or(0, |r| r.timeline().len() as u64);
    ep
}

/// One closed-loop op: a decision step, then the next training clock.
/// The wait is the one `Proteus::wait_clock` makes, bounded by
/// `OP_TIMEOUT` instead of its 60 s so that a wedged job fails the op
/// quickly rather than stalling the run.
fn op<A: MlApp>(session: &mut Proteus<A>, tr: &mut Tracer) -> Result<(), ProteusError> {
    let s = tr.open("core.market_step");
    let r = session.run_market_hours(STEP_HOURS);
    tr.close(s);
    r?;
    let s = tr.open("agileml.events");
    let clock = latest_clock(session.job().events());
    tr.close(s);
    let s = tr.open("core.wait_clock");
    let r = session.job().wait_clock_for(clock + 1, OP_TIMEOUT);
    tr.close(s);
    Ok(r?)
}

/// A completed session measured against the sequential oracle on the
/// same app, data and seed, run for the clocks the session reached.
struct Oracle {
    /// Distributed objective ÷ oracle objective; infinite when either
    /// is not finite or the session reached no clock.
    ratio: f64,
    secs: f64,
    clocks: u64,
}

fn run_oracle<K: AppKind>(e: &Episode) -> Oracle {
    let r = e.report.as_ref().expect("finished sessions report");
    let mut oracle = SequentialTrainer::new(K::app(), K::data(e.sub_seed), e.sub_seed);
    let t = Instant::now();
    oracle.run(r.clocks);
    let secs = t.elapsed().as_secs_f64();
    let ratio = r.final_objective / oracle.objective();
    Oracle {
        ratio: if ratio.is_finite() && r.clocks > 0 {
            ratio
        } else {
            f64::INFINITY
        },
        secs,
        clocks: r.clocks,
    }
}

pub fn run(w: Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    match w {
        Workload::TrainCalm => {
            let spec = Spec {
                churn: false,
                sub_seeds: 8,
                steps: 125,
                max_machines: 4,
            };
            run_app::<Mf>(&spec, seed, seconds, trace)
        }
        _ => {
            let spec = Spec {
                churn: true,
                sub_seeds: 16,
                steps: 120,
                max_machines: 4,
            };
            run_app::<LdaApp>(&spec, seed, seconds, trace)
        }
    }
}

fn run_app<K: AppKind>(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    let subs = crate::sub_seeds(seed, spec.sub_seeds);
    let mut off = Tracer::new(false);
    let mut on = Tracer::new(true);
    // Whole cycles over the sub-seeds until the time is used. A traced
    // run pairs every untraced session with a traced one instead.
    let mut eps: Vec<Episode> = Vec::new();
    let mut traced_eps: Vec<Episode> = Vec::new();
    // The run's first completed session meets the sequential oracle as
    // soon as it ends, so the oracle's time counts against the run's.
    let mut oracle: Option<Oracle> = None;
    let mut blocks = Vec::new();
    loop {
        for &sub in &subs {
            let keep_model = trace && eps.iter().all(|e| e.final_params.is_none());
            eps.push(episode::<K>(spec, sub, &mut off, keep_model));
            if trace {
                traced_eps.push(episode::<K>(spec, sub, &mut on, false));
            }
            if oracle.is_none() {
                oracle = [eps.last(), traced_eps.last()]
                    .into_iter()
                    .flatten()
                    .find(|e| e.sub_seed == sub && e.failed == 0)
                    .map(run_oracle::<K>);
            }
        }
        // Sessions stopped by a failed op stay out of the block.
        let cycle = eps.len() - subs.len();
        blocks.extend(crate::Block::of(
            eps[cycle..]
                .iter_mut()
                .filter(|e| e.failed == 0)
                .map(|e| crate::Unit {
                    op_ms: std::mem::take(&mut e.op_ms),
                    wall_s: e.ops_wall_s,
                    steps: e.steps as f64,
                    work: e.report.as_ref().map_or(0.0, |r| r.clocks as f64),
                }),
        ));
        if trace || !crate::another_cycle(start, seconds, eps.len() / subs.len()) {
            break;
        }
    }
    for e in eps.iter().chain(&traced_eps) {
        out.attempted += e.attempted;
        out.failed += e.failed;
    }
    // A session with a failed op stopped early: its ops are counted
    // (and the failure), but its totals describe a shorter session.
    let done: Vec<&Episode> = eps.iter().filter(|e| e.failed == 0).collect();
    let traced_done: Vec<&Episode> = traced_eps.iter().filter(|e| e.failed == 0).collect();
    let report = |e: &Episode| e.report.clone().expect("finished sessions report");
    // Each sub-seed's first completed session anchors its checks. A
    // sub-seed whose every session failed an op is left out of them;
    // its failures are already counted.
    let firsts: Vec<&Episode> = subs
        .iter()
        .filter_map(|s| {
            done.iter()
                .chain(&traced_done)
                .find(|e| e.sub_seed == *s)
                .copied()
        })
        .collect();
    out.check("some session completed", !firsts.is_empty());
    if firsts.is_empty() {
        return out;
    }

    // Market-side decisions depend only on the inputs and the step
    // count, so sessions of one sub-seed must bill and count alike.
    let key = |r: &ProteusReport| {
        (
            r.evictions,
            r.allocations,
            r.pre_drains,
            r.checkpoints,
            r.cost.to_bits(),
        )
    };
    out.check(
        "market-side counts and cost repeat for every sub-seed",
        done.iter().chain(&traced_done).all(|e| {
            let f = firsts
                .iter()
                .find(|f| f.sub_seed == e.sub_seed)
                .expect("sub-seed ran");
            key(&report(e)) == key(&report(f))
        }),
    );
    if spec.churn {
        let total = |f: &dyn Fn(&Episode) -> u64| firsts.iter().map(|e| f(e)).sum::<u64>();
        out.check(
            "churn: evictions > 0",
            total(&|e| u64::from(report(e).evictions)) > 0,
        );
        out.check(
            "churn: pre-drains > 0",
            total(&|e| u64::from(report(e).pre_drains)) > 0,
        );
        out.check(
            "churn: checkpoints > 0",
            total(&|e| u64::from(report(e).checkpoints)) > 0,
        );
        out.check(
            "churn: stage changes > 0",
            total(&|e| e.events.stage_changes) > 0,
        );
    }

    let oracle = oracle.expect("the first completed session met the oracle");
    out.note(format!(
        "objective: distributed/oracle ratio {:.3} at {} clocks (limit {OBJECTIVE_FACTOR})",
        oracle.ratio, oracle.clocks
    ));
    out.check(
        "distributed objective within the stated factor of the sequential oracle",
        oracle.ratio <= OBJECTIVE_FACTOR,
    );

    let max_threads = eps.iter().map(|e| e.os_threads).max().unwrap_or(0);
    out.note(format!(
        "sessions: {} untraced, {} traced over {} sub-seeds ({} with a completed session); {} steps each; {} stopped by a failed op; peak OS threads {max_threads}",
        eps.len(),
        traced_eps.len(),
        subs.len(),
        firsts.len(),
        spec.steps,
        eps.len() + traced_eps.len() - done.len() - traced_done.len(),
    ));

    if !trace {
        let clocks: u64 = done.iter().map(|e| report(e).clocks).sum();
        let cost: f64 = done.iter().map(|e| report(e).cost).sum();
        out.e2e = Some(crate::E2e {
            setup_s: eps.iter().map(|e| e.setup_s).collect(),
            blocks,
            usd_per_work: cost / clocks.max(1) as f64,
        });
        return out;
    }

    // Per-layer numbers: the traced cycle, one `wall` span per session.
    let sum = |f: &dyn Fn(&Episode) -> f64| traced_eps.iter().map(f).sum::<f64>();
    let rep = |e: &Episode, f: &dyn Fn(&ProteusReport) -> f64| e.report.as_ref().map_or(0.0, f);
    let mut l = Layers::from_tracer(&on);
    l.set("core.launch_s", on.total_s("core.launch"));
    l.set("core.market_step_s", on.total_s("core.market_step"));
    l.set("core.wait_clock_s", on.total_s("core.wait_clock"));
    l.set("core.finish_s", on.total_s("core.finish"));
    l.set(
        "market.evictions",
        sum(&|e| rep(e, &|r| f64::from(r.evictions))),
    );
    l.set(
        "market.allocations",
        sum(&|e| rep(e, &|r| f64::from(r.allocations))),
    );
    l.set(
        "bidbrain.pre_drains",
        sum(&|e| rep(e, &|r| f64::from(r.pre_drains))),
    );
    l.set(
        "core.checkpoints",
        sum(&|e| rep(e, &|r| f64::from(r.checkpoints))),
    );
    l.set(
        "agileml.stage_changes",
        sum(&|e| e.events.stage_changes as f64),
    );
    l.set("agileml.nodes_added", sum(&|e| e.events.nodes_added as f64));
    l.set(
        "agileml.nodes_evicted",
        sum(&|e| e.events.nodes_evicted as f64),
    );
    let clocks = sum(&|e| rep(e, &|r| r.clocks as f64)).max(1.0);
    l.set(
        "simnet.messages_per_clock",
        sum(&|e| e.messages as f64) / clocks,
    );
    l.set("simnet.dropped", sum(&|e| e.dropped as f64));
    l.set("obs.events", sum(&|e| e.obs_events as f64));
    let ratios: Vec<f64> = eps
        .iter()
        .zip(&traced_eps)
        .filter(|(u, t)| u.failed == 0 && t.failed == 0)
        .map(|(u, t)| t.wall_s / u.wall_s - 1.0)
        .collect();
    l.set(
        "obs.overhead_pct",
        if ratios.is_empty() {
            f64::NAN
        } else {
            100.0 * median(&ratios)
        },
    );

    // Layer probes on the workload's own inputs.
    let (mut gen_s, mut beta_s) = (0.0, 0.0);
    for &sub in &subs {
        let (g, b) = probe_market(&spec.config(sub));
        gen_s += g;
        beta_s += b;
    }
    l.set("market.trace_gen_s", gen_s);
    l.set("bidbrain.beta_train_s", beta_s);
    let iter_ms = oracle.secs * 1e3 / oracle.clocks.max(1) as f64;
    l.set("mlapps.iteration_ms", iter_ms);
    let dist_clocks_per_s = clocks / sum(&|e| e.ops_wall_s);
    l.set(
        "agileml.parallel_efficiency",
        dist_clocks_per_s * iter_ms / 1e3,
    );
    match eps.iter().find_map(|e| e.final_params.as_ref()) {
        Some(model) => {
            l.set("ps.apply_batch_keys_per_s", probe_apply_batch(model));
            l.set("ps.snapshot_encode_ms", probe_encode(model));
        }
        None => out.check("a completed session's final model was fetched", false),
    }
    out.layers = Some(l);
    out.spans = Some(on);
    out
}

/// Times `generate_set` and `BetaEstimator::train` over the session's
/// markets and window, as `Proteus::launch` runs them.
pub fn probe_market(cfg: &ProteusConfig) -> (f64, f64) {
    let t = Instant::now();
    let gen = TraceGenerator::new(cfg.agile.seed, cfg.market_model.clone());
    let traces = gen.generate_set(&cfg.spot_markets, cfg.market_horizon);
    let gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut beta = BetaEstimator::new();
    for m in &cfg.spot_markets {
        let trace = traces.get(m).expect("trace generated for every market");
        beta.train(
            *m,
            trace,
            SimTime::EPOCH,
            SimTime::EPOCH + cfg.beta_training,
            SimDuration::from_mins(30),
            &BetaEstimator::default_deltas(),
        );
    }
    (gen_s, t.elapsed().as_secs_f64())
}

/// Keys per second `ShardStore::apply_batch` absorbs for a batch that
/// updates every key of the final model once, at the app's dimension.
fn probe_apply_batch(model: &BTreeMap<ParamKey, proteus_ps::DenseVec>) -> f64 {
    let layout = PartitionMap::new(8).expect("eight partitions");
    let mut store = ShardStore::new(layout);
    for (k, v) in model {
        store.install(*k, v.clone());
    }
    let batch: Vec<(ParamKey, proteus_ps::DenseVec)> =
        model.iter().map(|(k, v)| (*k, v.clone())).collect();
    let mut keys = 0u64;
    let t = Instant::now();
    while t.elapsed().as_secs_f64() < 0.3 {
        for _ in 0..64 {
            store.apply_batch(std::hint::black_box(&batch));
            keys += batch.len() as u64;
        }
        let _ = store.take_dirty();
    }
    keys as f64 / t.elapsed().as_secs_f64()
}

/// Milliseconds `ps::encode_model` takes on the final model.
fn probe_encode(model: &BTreeMap<ParamKey, proteus_ps::DenseVec>) -> f64 {
    let mut samples = Vec::new();
    let t = Instant::now();
    while t.elapsed().as_secs_f64() < 0.2 || samples.len() < 5 {
        let s = Instant::now();
        std::hint::black_box(encode_model(std::hint::black_box(model)));
        samples.push(s.elapsed().as_secs_f64() * 1e3);
    }
    median(&samples)
}
