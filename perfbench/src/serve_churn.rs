//! `serve_churn`: an open loop over a tenant lifecycle.
//!
//! Set-up fills the φ-cache with 64 persisted 1-shot tenants. New tenants
//! then arrive at a fixed rate; each sends its 5-way support (half 1-shot,
//! half 5-shot) inline with its first predict, which forces a cold adapt,
//! then support waves through `extend` with a predict after each (one wave
//! for a 1-shot tenant, two for a 5-shot one). Every new tenant evicts the
//! least recently used one, and a fixed rate of predicts goes to the older
//! half of the set-up tenants, which are evicted first and then reload
//! their persisted φ from disk. A closed-loop phase then runs 1-shot lifecycles back to back
//! on one connection, so each request's latency is its own service time
//! rather than a share of two adapts contending for the cores.

use std::collections::BTreeMap;

use fewner_core::CachePolicy;
use fewner_episode::{EpisodeSampler, Task};
use fewner_obs::{TraceSummary, Tracer};
use fewner_util::{Result, Rng};

use crate::check;
use crate::layers::{self, Spans, Values};
use crate::loadgen::{self, slo_met, wire, Counts, Done, Kind, Mode, Req, Tenant};
use crate::report::Report;
use crate::setup::{self, Daemon, ServeSetup, CACHE_CAPACITY, TENANT, WAYS};
use crate::stats::{block_rate, median, percentile, print_timing, ratio};
use crate::Args;

/// Set-up tenants: enough to fill the φ-cache.
const PREFILL: usize = CACHE_CAPACITY;
/// New tenants per second in the open loop.
const ARRIVAL_RATE: f64 = 2.0;
/// Predicts per second to set-up tenants in the open loop.
const RETURN_RATE: f64 = 3.0;
/// Seconds between the requests of one tenant's lifecycle.
const STEP_S: f64 = 0.25;
/// Labelled query sentences per task: the first four form up to two
/// support waves of two sentences, the rest are the predict pool.
const QUERY: usize = 12;
const WAVE: usize = 2;
/// Query sentences per predict: uniform in 1..=MAX_SENTENCES.
const MAX_SENTENCES: usize = 4;
/// Share of `--seconds` spent in the open-loop phase.
const OPEN_SHARE: f64 = 0.4;
/// Connections of the closed-loop phase.
const CLOSED_CONNS: usize = 1;
/// Time slices of the closed loop whose median rate is the throughput.
const RATE_BLOCKS: usize = 6;
/// Distinct tasks behind the new tenants (closed-loop tenants reuse them
/// under fresh names, so every lifecycle still adapts cold).
const TASKS: usize = 96;
/// Closed-loop lifecycles prepared per connection (more than fit).
const CLOSED_PER_CONN: usize = 400;
/// Tenants per group (new, returning) whose requests are kept for the
/// replay check.
const CHECKED_TENANTS: usize = 8;
/// Lifecycles per connection in each traced-overhead pass.
const OVERHEAD_PASS: usize = 6;

/// A tenant for `task`: one support wave for a 1-shot task, two for a
/// 5-shot one.
fn tenant(name: String, task: &Task) -> Tenant {
    let waves = if task.k_shots == 1 { 1 } else { 2 };
    Tenant {
        name,
        ways: task.n_ways,
        support: task.support.iter().map(wire).collect(),
        waves: task.query[..waves * WAVE]
            .chunks(WAVE)
            .map(|w| w.iter().map(wire).collect())
            .collect(),
        pool: task.query[2 * WAVE..].to_vec(),
    }
}

fn predict_req(rng: &mut Rng, tenant: usize, pool: usize, kind: Kind, due: f64, keep: bool) -> Req {
    let n = rng.range(1, MAX_SENTENCES + 1).min(pool);
    Req {
        due,
        tenant,
        kind,
        sents: rng.sample_indices(pool, n),
        wave: 0,
        unit_start: kind == Kind::Cold,
        keep,
    }
}

/// One lifecycle: cold predict, a warm predict, then per wave an extend
/// and a predict, `STEP_S` apart.
fn lifecycle(rng: &mut Rng, tenant: usize, t: &Tenant, start: f64, keep: bool) -> Vec<Req> {
    let pool = t.pool.len();
    let mut reqs = vec![
        predict_req(rng, tenant, pool, Kind::Cold, start, keep),
        predict_req(rng, tenant, pool, Kind::Warm, start + STEP_S, keep),
    ];
    for w in 0..t.waves.len() {
        let due = start + STEP_S * (2 * w + 2) as f64;
        reqs.push(Req {
            due,
            tenant,
            kind: Kind::Extend,
            sents: Vec::new(),
            wave: w,
            unit_start: false,
            keep,
        });
        reqs.push(predict_req(
            rng,
            tenant,
            pool,
            Kind::Warm,
            due + STEP_S,
            keep,
        ));
    }
    reqs
}

struct Inputs {
    tenants: Vec<Tenant>,
    /// The tasks behind the new tenants.
    tasks: Vec<Task>,
    open: Vec<Vec<Req>>,
    closed: Vec<Vec<Req>>,
}

fn inputs(corpus: &setup::Corpus, args: &Args, open_s: f64) -> Result<Inputs> {
    let test = &corpus.split.test;
    let conns = args.nproc;
    let prefill =
        EpisodeSampler::new(test, WAYS, 1, QUERY)?.eval_set(args.seed ^ 0x9f11, PREFILL)?;
    let one = EpisodeSampler::new(test, WAYS, 1, QUERY)?.eval_set(args.seed, TASKS / 2)?;
    let five = EpisodeSampler::new(test, WAYS, 5, QUERY)?.eval_set(args.seed ^ 5, TASKS / 2)?;
    // Alternate 1-shot and 5-shot tasks.
    let tasks: Vec<Task> = one
        .into_iter()
        .zip(five)
        .flat_map(|(a, b)| [a, b])
        .collect();

    let mut tenants: Vec<Tenant> = prefill
        .iter()
        .enumerate()
        .map(|(i, t)| tenant(format!("pre-{i}"), t))
        .collect();
    let mut rng = Rng::new(args.seed).fork(0xc4);
    let mut events: Vec<(usize, Req)> = Vec::new();

    // Arrivals of new tenants, each pinned to one connection so its
    // requests keep their order; pairs of arrivals (one 1-shot, one
    // 5-shot) share a connection, so every connection gets both.
    let mut at = loadgen::exp_gap(&mut rng, ARRIVAL_RATE);
    let mut k = 0;
    while at < open_s {
        let idx = tenants.len();
        tenants.push(tenant(format!("new-{k}"), &tasks[k % tasks.len()]));
        for req in lifecycle(&mut rng, idx, &tenants[idx], at, k < CHECKED_TENANTS) {
            events.push(((k / 2) % conns, req));
        }
        k += 1;
        at += loadgen::exp_gap(&mut rng, ARRIVAL_RATE);
    }

    // Returning set-up tenants.
    let mut returning: Vec<usize> = Vec::new();
    let mut at = loadgen::exp_gap(&mut rng, RETURN_RATE);
    while at < open_s {
        // The older half of the set-up tenants: new tenants evict them
        // first, so a share of these predicts reload a persisted φ.
        let idx = rng.below(PREFILL / 2);
        if !returning.contains(&idx) && returning.len() < CHECKED_TENANTS {
            returning.push(idx);
        }
        let keep = returning.contains(&idx);
        let req = predict_req(
            &mut rng,
            idx,
            tenants[idx].pool.len(),
            Kind::Return,
            at,
            keep,
        );
        events.push((idx % conns, req));
        at += loadgen::exp_gap(&mut rng, RETURN_RATE);
    }
    let mut open: Vec<Vec<Req>> = vec![Vec::new(); conns];
    for (conn, req) in events {
        open[conn].push(req);
    }
    for reqs in &mut open {
        reqs.sort_by(|a, b| a.due.total_cmp(&b.due));
    }

    // The closed loop onboards 1-shot tenants only: hundreds of cheap,
    // similar lifecycles per run, so its throughput and latency follow the
    // code rather than which few 5-shot support sets a seed happens to draw.
    let mut closed: Vec<Vec<Req>> = vec![Vec::new(); CLOSED_CONNS];
    for (c, reqs) in closed.iter_mut().enumerate() {
        let mut rng = Rng::new(args.seed).fork(0xc1_05ed + c as u64);
        for j in 0..CLOSED_PER_CONN {
            let idx = tenants.len();
            let task = &tasks[(2 * (j * CLOSED_CONNS + c)) % TASKS];
            tenants.push(tenant(format!("closed-{c}-{j}"), task));
            reqs.extend(lifecycle(&mut rng, idx, &tenants[idx], 0.0, j == 0));
        }
    }
    Ok(Inputs {
        tenants,
        tasks,
        open,
        closed,
    })
}

fn warm_up(daemon: &Daemon, tenants: &[Tenant]) -> Result<()> {
    let mut client = daemon.client()?;
    for t in &tenants[..PREFILL] {
        client.adapt(TENANT, &t.name, t.ways, t.support.clone())?;
    }
    Ok(())
}

/// The lifecycles whose every request was answered, each as one piece of
/// work from its first send to its last reply. A closed-loop connection
/// only stops before a cold predict, so every started lifecycle ran to its
/// end.
fn completed_lifecycles(dones: &[Done]) -> Vec<(f64, f64, f64)> {
    let mut spans: BTreeMap<usize, (bool, f64, f64)> = BTreeMap::new();
    for d in dones {
        let (ok, start, end) = spans
            .entry(d.req.tenant)
            .or_insert((true, f64::INFINITY, 0.0));
        *ok &= d.outcome.ok();
        *start = start.min(d.sent);
        *end = end.max(d.done);
    }
    spans
        .values()
        .filter(|(ok, ..)| *ok)
        .map(|&(_, start, end)| (start, end, 1.0))
        .collect()
}

fn latencies(dones: &[Done], kinds: &[Kind]) -> Vec<f64> {
    dones
        .iter()
        .filter(|d| d.outcome.ok() && kinds.contains(&d.req.kind))
        .map(Done::latency_ms)
        .collect()
}

pub fn run(args: &Args) -> Result<Report> {
    let mut report = Report::default();
    let open_s = args.seconds * OPEN_SHARE;
    let closed_s = args.seconds - open_s;
    let corpus = setup::Corpus::build()?;
    let inp = inputs(&corpus, args, open_s)?;
    let tenants = &inp.tenants;

    println!("workload serve_churn");
    println!(
        "  fixed: {PREFILL} persisted set-up tenants fill a {CACHE_CAPACITY}-context φ-cache; open \
         loop {ARRIVAL_RATE} new tenants/s (5-way, alternately 1-shot with 1 extend wave and \
         5-shot with 2, waves of {WAVE} sentences, requests {STEP_S} s apart) plus {RETURN_RATE} \
         returning predicts/s to the older half of the set-up tenants for {open_s:.1} s over {} \
         connections; closed loop of 1-shot lifecycles over {CLOSED_CONNS} connection for \
         {closed_s:.1} s",
        args.nproc
    );
    let limits: Vec<String> = Kind::ALL
        .iter()
        .map(|k| format!("{} {} ms", k.name(), k.limit_ms()))
        .collect();
    println!("  latency limits: {}", limits.join(", "));

    let (tracer, sink) = if args.trace {
        let (t, s) = layers::memory_tracer();
        (t, Some(s))
    } else {
        (Tracer::disabled(), None)
    };
    let setup = setup::serve_setup(
        args,
        &tracer,
        |rep| CachePolicy::lru(CACHE_CAPACITY).persist_dir(args.dir.join(format!("phi-{rep}"))),
        |d| warm_up(d, tenants),
    )?;
    setup::check_digests(&mut report, &setup.digests, "set-ups");

    let pool_before = fewner_tensor::infer_global_stats();
    let lines_before = sink.as_ref().map_or(0, |s| s.lines().len());
    let stats_before = setup.daemon.stats()?;
    let open_phase = loadgen::run_phase(&setup.daemon, tenants, &inp.open, Mode::Open)?;
    let stats_open = setup.daemon.stats()?;
    let closed_mode = Mode::Closed {
        seconds: closed_s,
        repeat: false,
    };
    let closed_phase = loadgen::run_phase(&setup.daemon, tenants, &inp.closed, closed_mode)?;
    let stats_after = setup.daemon.stats()?;
    let lines_after = sink.as_ref().map_or(0, |s| s.lines().len());

    let open_counts = Counts::of(&open_phase.dones);
    let closed_counts = Counts::of(&closed_phase.dones);
    println!("phases");
    open_counts.print("open loop");
    closed_counts.print("closed loop");
    let attempted = open_counts.sent + closed_counts.sent;
    report.attempted = attempted;
    report.failed = open_counts.not_ok() + closed_counts.not_ok();
    for problem in open_phase.problems.iter().chain(&closed_phase.problems) {
        report.problem(problem.clone());
    }
    let delta =
        |n: &str| Daemon::counter(&stats_open, n).saturating_sub(Daemon::counter(&stats_before, n));
    println!(
        "  open-loop cache: {} hits, {} misses, {} evictions, {} persists, {} reloads",
        delta("cache_hits"),
        delta("cache_misses"),
        delta("cache_evictions"),
        delta("phi_persists"),
        delta("phi_reloads"),
    );

    let open = &open_phase.dones;
    let closed = &closed_phase.dones;
    let inner = latencies(open, &[Kind::Cold, Kind::Extend]);
    let closed_inner = latencies(closed, &[Kind::Cold, Kind::Extend]);
    let late: Vec<f64> = open.iter().map(Done::late_ms).collect();
    let lifecycles = completed_lifecycles(closed);
    let lifecycles_per_s = block_rate(&lifecycles, closed_phase.wall, RATE_BLOCKS);
    let met = slo_met(open) + slo_met(closed);
    let slo = ratio(met as f64, attempted as f64);

    let all: Vec<Done> = open.iter().chain(closed).cloned().collect();
    let learner = setup::restore(&setup.corpus, &setup.checkpoint)?;
    let (sampled, compared) = check::replay(
        &mut report,
        &learner,
        &setup.corpus.enc,
        tenants,
        &all,
        |i| i < PREFILL,
    )?;
    println!("  replayed {compared} served predictions of {sampled} tenants in-process");

    let mut f1 = open_phase.f1;
    f1.merge(&closed_phase.f1);
    println!("results, open loop (from due time)");
    print_timing("cold_adapt", &latencies(open, &[Kind::Cold]), 90.0);
    print_timing("extend", &latencies(open, &[Kind::Extend]), 90.0);
    print_timing("inner_loop_request", &inner, 90.0);
    print_timing("predict", &latencies(open, &[Kind::Warm]), 99.0);
    print_timing("returning_predict", &latencies(open, &[Kind::Return]), 90.0);
    println!("  loadgen late_ms_p99 {:.4} ms", percentile(&late, 99.0));
    println!("results, closed loop (1-shot lifecycles, send to reply)");
    print_timing("inner_loop_request", &closed_inner, 90.0);
    print_timing("cold_adapt", &latencies(closed, &[Kind::Cold]), 90.0);
    print_timing("extend", &latencies(closed, &[Kind::Extend]), 90.0);
    print_timing("predict", &latencies(closed, &[Kind::Warm]), 90.0);
    println!(
        "  tenant_lifecycles_per_s {lifecycles_per_s:.3} 1/s (median of {RATE_BLOCKS} slices; \
         {} in {:.2} s)",
        lifecycles.len(),
        closed_phase.wall
    );
    println!("results, both phases");
    println!("  slo_met_ratio {slo:.6} ratio ({met} of {attempted})");
    println!("  entity_f1 {:.4} ratio", f1.f1());

    report.set("setup_s", median(&setup.setup_s), "s");
    report.set("op_ms_p50", median(&closed_inner), "ms");
    report.set("throughput_per_s", lifecycles_per_s, "1/s");
    report.set("slo_met_ratio", slo, "ratio");

    if args.trace {
        let mut values = Values::new();
        let sink = sink.expect("traced run has a sink");
        let lines = sink.lines();
        let spans = Spans::parse(&lines[lines_before..lines_after])?;
        let client_ms: f64 = all.iter().map(Done::service_ms).sum();
        layers::replay(
            &mut values,
            &setup.corpus,
            &setup.checkpoint,
            &inp.tasks,
            args,
        )?;
        values.insert(
            "tensor.infer_pool_hit_ratio",
            layers::infer_pool_hit_ratio(pool_before),
        );
        values.insert(
            "obs.trace_overhead_ratio",
            overhead(args, &setup, &inp.tasks)?,
        );
        let ServeSetup {
            daemon,
            corpus,
            digests,
            ..
        } = setup;
        daemon.stop()?;
        let counters = TraceSummary::parse(&sink.text())?;
        layers::serve_metrics(
            &mut values,
            &spans,
            &counters,
            &stats_before,
            &stats_after,
            client_ms,
        );
        layers::loadgen_metrics(
            &mut values,
            &open_counts,
            &closed_counts,
            percentile(&late, 99.0),
        );
        values.insert("corpus.generate_s", corpus.generate_s);
        let serial =
            setup::train_theta(&corpus, args.seed, 1, &args.dir.join("theta-serial.ckpt"))?;
        let threaded = *digests.last().expect("SETUP_REPS > 0");
        setup::check_serial_digest(
            &mut report,
            setup::theta_digest(&serial.theta),
            threaded,
            args.nproc,
        );
        layers::record(&mut report, values);
    }
    Ok(report)
}

/// Traced ÷ untraced time of the same closed-loop lifecycles (fresh
/// tenants, so every one adapts cold on both daemons), twice each.
fn overhead(args: &Args, traced: &ServeSetup, tasks: &[Task]) -> Result<f64> {
    let learner = setup::restore(&traced.corpus, &traced.checkpoint)?;
    let policy = CachePolicy::lru(CACHE_CAPACITY).persist_dir(args.dir.join("phi-untraced"));
    let untraced = Daemon::start(
        learner,
        traced.corpus.enc.clone(),
        Tracer::disabled(),
        policy,
    )?;
    let whole = Mode::Closed {
        seconds: f64::INFINITY,
        repeat: false,
    };
    let (mut t, mut u) = (0.0, 0.0);
    for round in 0..2 {
        let mut tenants = Vec::new();
        let mut pass: Vec<Vec<Req>> = vec![Vec::new(); args.nproc];
        let mut rng = Rng::new(args.seed ^ 0x0e7 ^ round);
        for (c, reqs) in pass.iter_mut().enumerate() {
            for j in 0..OVERHEAD_PASS {
                let idx = tenants.len();
                tenants.push(tenant(
                    format!("overhead-{round}-{c}-{j}"),
                    &tasks[idx % tasks.len()],
                ));
                reqs.extend(lifecycle(&mut rng, idx, &tenants[idx], 0.0, false));
            }
        }
        t += loadgen::run_phase(&traced.daemon, &tenants, &pass, whole)?.wall;
        u += loadgen::run_phase(&untraced, &tenants, &pass, whole)?.wall;
    }
    untraced.stop()?;
    Ok(ratio(t, u))
}
