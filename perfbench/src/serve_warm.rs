//! `serve_warm`: warm predicts against resident tenants.
//!
//! Set-up adapts 32 tenants (5-way 1-shot tasks on the unseen types), all
//! of which fit in the φ-cache. Phase 1 is an open loop: Poisson arrivals
//! at a fixed total rate well below saturation, split over the
//! connections, each request carrying 1–8 of its tenant's query sentences,
//! tenants drawn Zipf-skewed. Phase 2 is a closed loop: every connection
//! sends back to back. No request runs the inner loop.

use fewner_core::CachePolicy;
use fewner_episode::EpisodeSampler;
use fewner_obs::{TraceSummary, Tracer};
use fewner_util::{Result, Rng};

use crate::check;
use crate::layers::{self, Spans, Values};
use crate::loadgen::{self, slo_met, wire, Counts, Done, Kind, Mode, Req, Tenant};
use crate::report::Report;
use crate::setup::{self, Daemon, ServeSetup, CACHE_CAPACITY, TENANT, WAYS};
use crate::stats::{block_rate, median, percentile, print_timing, ratio};
use crate::Args;

/// Tenants adapted in set-up.
const TENANTS: usize = 32;
/// Labelled query sentences per tenant (at most).
const POOL: usize = 24;
/// Offered open-loop rate over all connections, requests per second.
const OPEN_RATE: f64 = 300.0;
/// Share of `--seconds` spent in the open-loop phase; the rest is closed
/// loop.
const OPEN_SHARE: f64 = 0.3;
/// Time slices of the closed loop whose median rate is the throughput.
const RATE_BLOCKS: usize = 8;
/// Zipf exponent of tenant popularity.
const ZIPF_S: f64 = 1.0;
/// Query sentences per request: uniform in 1..=MAX_SENTENCES.
const MAX_SENTENCES: usize = 8;
/// Open-loop predicts per tenant whose served tags are compared against
/// the in-process replay.
const CHECKED_PER_TENANT: usize = 4;
/// Closed-loop requests per connection before the list repeats.
const CLOSED_LIST: usize = 2000;
/// Closed-loop requests per connection in the traced-overhead pass.
const OVERHEAD_PASS: usize = 300;

fn tenants(corpus: &setup::Corpus, seed: u64) -> Result<Vec<Tenant>> {
    let sampler = EpisodeSampler::new(&corpus.split.test, WAYS, 1, POOL)?;
    Ok(sampler
        .eval_set(seed, TENANTS)?
        .into_iter()
        .enumerate()
        .map(|(i, task)| Tenant {
            name: format!("warm-{i}"),
            ways: task.n_ways,
            support: task.support.iter().map(wire).collect(),
            waves: Vec::new(),
            pool: task.query,
        })
        .collect())
}

fn predict(rng: &mut Rng, tenants: &[Tenant], weights: &[f64], due: f64) -> Req {
    let tenant = rng.weighted(weights);
    let pool = tenants[tenant].pool.len();
    let n = rng.range(1, MAX_SENTENCES + 1).min(pool);
    Req {
        due,
        tenant,
        kind: Kind::Warm,
        sents: rng.sample_indices(pool, n),
        wave: 0,
        unit_start: true,
        keep: false,
    }
}

/// Open-loop schedule: independent Poisson arrivals per connection. The
/// first few predicts of every tenant are kept for the replay check.
fn open_schedule(seed: u64, tenants: &[Tenant], conns: usize, seconds: f64) -> Vec<Vec<Req>> {
    let weights = loadgen::zipf_weights(tenants.len(), ZIPF_S);
    let mut kept = vec![0; tenants.len()];
    (0..conns)
        .map(|c| {
            let mut rng = Rng::new(seed).fork(0x0be0 + c as u64);
            let mut reqs = Vec::new();
            let mut due = loadgen::exp_gap(&mut rng, OPEN_RATE / conns as f64);
            while due < seconds {
                let mut req = predict(&mut rng, tenants, &weights, due);
                req.keep = kept[req.tenant] < CHECKED_PER_TENANT;
                kept[req.tenant] += usize::from(req.keep);
                reqs.push(req);
                due += loadgen::exp_gap(&mut rng, OPEN_RATE / conns as f64);
            }
            reqs
        })
        .collect()
}

/// Closed-loop request lists, `per_conn` long.
fn closed_schedule(seed: u64, tenants: &[Tenant], conns: usize, per_conn: usize) -> Vec<Vec<Req>> {
    let weights = loadgen::zipf_weights(tenants.len(), ZIPF_S);
    (0..conns)
        .map(|c| {
            let mut rng = Rng::new(seed).fork(0xc105 + c as u64);
            (0..per_conn)
                .map(|_| predict(&mut rng, tenants, &weights, 0.0))
                .collect()
        })
        .collect()
}

fn warm_up(daemon: &Daemon, tenants: &[Tenant]) -> Result<()> {
    let mut client = daemon.client()?;
    for t in tenants {
        client.adapt(TENANT, &t.name, t.ways, t.support.clone())?;
        client.predict(TENANT, &t.name, &[t.pool[0].tokens.clone()])?;
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Report> {
    let mut report = Report::default();
    let inputs = setup::Corpus::build()?;
    let tenants = tenants(&inputs, args.seed)?;
    let conns = args.nproc;
    let open_s = args.seconds * OPEN_SHARE;
    let closed_s = args.seconds - open_s;
    let open = open_schedule(args.seed, &tenants, conns, open_s);
    let closed = closed_schedule(args.seed, &tenants, conns, CLOSED_LIST);

    println!("workload serve_warm");
    println!(
        "  fixed: {TENANTS} resident tenants, Zipf s={ZIPF_S}, 1-{MAX_SENTENCES} sentences per \
         request; open loop {OPEN_RATE} req/s offered over {conns} connections for {open_s:.1} s; \
         closed loop {conns} connections for {closed_s:.1} s"
    );
    println!(
        "  latency limit: {} {} ms",
        Kind::Warm.name(),
        Kind::Warm.limit_ms()
    );

    let (tracer, sink) = if args.trace {
        let (t, s) = layers::memory_tracer();
        (t, Some(s))
    } else {
        (Tracer::disabled(), None)
    };
    let setup = setup::serve_setup(
        args,
        &tracer,
        |_| CachePolicy::lru(CACHE_CAPACITY),
        |d| warm_up(d, &tenants),
    )?;
    setup::check_digests(&mut report, &setup.digests, "set-ups");

    let pool_before = fewner_tensor::infer_global_stats();
    let lines_before = sink.as_ref().map_or(0, |s| s.lines().len());
    let stats_before = setup.daemon.stats()?;
    let open_phase = loadgen::run_phase(&setup.daemon, &tenants, &open, Mode::Open)?;
    let closed_mode = Mode::Closed {
        seconds: closed_s,
        repeat: true,
    };
    let closed_phase = loadgen::run_phase(&setup.daemon, &tenants, &closed, closed_mode)?;
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

    let latencies: Vec<f64> = open_phase
        .dones
        .iter()
        .filter(|d| d.outcome.ok())
        .map(Done::latency_ms)
        .collect();
    let late: Vec<f64> = open_phase.dones.iter().map(Done::late_ms).collect();
    let served: Vec<(f64, f64, f64)> = closed_phase
        .dones
        .iter()
        .filter(|d| d.outcome.ok())
        .map(|d| (d.sent, d.done, d.tokens as f64))
        .collect();
    let tokens: f64 = served.iter().map(|&(.., n)| n).sum();
    let tokens_per_s = block_rate(&served, closed_phase.wall, RATE_BLOCKS);
    let met = slo_met(&open_phase.dones) + slo_met(&closed_phase.dones);
    let slo = ratio(met as f64, attempted as f64);
    let closed_latencies: Vec<f64> = closed_phase
        .dones
        .iter()
        .filter(|d| d.outcome.ok())
        .map(Done::service_ms)
        .collect();

    let learner = setup::restore(&setup.corpus, &setup.checkpoint)?;
    let (sampled, compared) = check::replay(
        &mut report,
        &learner,
        &setup.corpus.enc,
        &tenants,
        &open_phase.dones,
        |_| true,
    )?;
    println!("  replayed {compared} served predictions of {sampled} tenants in-process");

    let mut f1 = open_phase.f1;
    f1.merge(&closed_phase.f1);
    println!("results, open loop (from due time)");
    print_timing("predict", &latencies, 99.0);
    println!("  loadgen late_ms_p99 {:.4} ms", percentile(&late, 99.0));
    println!("results, closed loop (send to reply)");
    print_timing("predict", &closed_latencies, 99.0);
    println!(
        "  predict_tokens_per_s {tokens_per_s:.1} tokens/s (median of {RATE_BLOCKS} slices; \
         {tokens} tokens in {:.2} s)",
        closed_phase.wall
    );
    println!("results, both phases");
    println!("  slo_met_ratio {slo:.6} ratio ({met} of {attempted})");
    println!("  entity_f1 {:.4} ratio", f1.f1());

    report.set("setup_s", median(&setup.setup_s), "s");
    report.set("op_ms_p50", median(&closed_latencies), "ms");
    report.set("throughput_per_s", tokens_per_s, "1/s");
    report.set("slo_met_ratio", slo, "ratio");

    if args.trace {
        let mut values = Values::new();
        let sink = sink.expect("traced run has a sink");
        let lines = sink.lines();
        let spans = Spans::parse(&lines[lines_before..lines_after])?;
        let client_ms: f64 = open_phase
            .dones
            .iter()
            .chain(&closed_phase.dones)
            .map(Done::service_ms)
            .sum();
        let tasks =
            EpisodeSampler::new(&setup.corpus.split.test, WAYS, 1, POOL)?.eval_set(args.seed, 8)?;
        layers::replay(&mut values, &setup.corpus, &setup.checkpoint, &tasks, args)?;
        values.insert(
            "tensor.infer_pool_hit_ratio",
            layers::infer_pool_hit_ratio(pool_before),
        );
        values.insert(
            "obs.trace_overhead_ratio",
            overhead(args, &setup, &tenants)?,
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

/// Traced ÷ untraced time of the same closed-loop pass: the traced daemon
/// serves the pass, then an untraced daemon over the same θ serves it,
/// twice each.
fn overhead(args: &Args, traced: &ServeSetup, tenants: &[Tenant]) -> Result<f64> {
    let learner = setup::restore(&traced.corpus, &traced.checkpoint)?;
    let untraced = Daemon::start(
        learner,
        traced.corpus.enc.clone(),
        Tracer::disabled(),
        CachePolicy::lru(CACHE_CAPACITY),
    )?;
    warm_up(&untraced, tenants)?;
    let pass = closed_schedule(args.seed ^ 0x0e7, tenants, args.nproc, OVERHEAD_PASS);
    let whole = Mode::Closed {
        seconds: f64::INFINITY,
        repeat: false,
    };
    let (mut t, mut u) = (0.0, 0.0);
    for _ in 0..2 {
        t += loadgen::run_phase(&traced.daemon, tenants, &pass, whole)?.wall;
        u += loadgen::run_phase(&untraced, tenants, &pass, whole)?.wall;
    }
    untraced.stop()?;
    Ok(ratio(t, u))
}
