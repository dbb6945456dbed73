//! `train`: repeated meta-training jobs of a fixed iteration count.
//!
//! Each job meta-trains a fresh FEWNER learner on the streamed GENIA
//! corpus (chunked generation, a bounded sampling window) with
//! `threads = nproc` and rolling snapshots on — the `fewner train
//! --corpus-chunk-size` path. Every job uses the workload seed, so every
//! job must end on the same θ. No serving code and no `Infer` runs.

use std::path::Path;
use std::time::Instant;

use fewner::cli;
use fewner_core::{Checkpoint, Fewner, StreamSource, TrainConfig, Trainer};
use fewner_corpus::{
    partition_type_ids, CorpusSource, DatasetProfile, StreamingCorpus, TypePartition,
};
use fewner_episode::EpisodeSampler;
use fewner_models::TokenEncoder;
use fewner_obs::{TraceSummary, Tracer};
use fewner_util::Result;

use crate::layers::{self, Values};
use crate::report::Report;
use crate::setup::{self, SCALE, SPLIT_SEED, WAYS};
use crate::stats::{block_rate, median, percentile, ratio};
use crate::Args;

/// Sentences per generated corpus chunk.
pub const CHUNK: usize = 128;
/// Resident sampling window and its stride (the CLI defaults).
const WINDOW: usize = 512;
const STRIDE: usize = 64;
/// Meta-iterations per job, and the snapshot cadence.
const ITERATIONS: usize = 10;
const CHECKPOINT_EVERY: usize = 5;
/// The latency limit of one job.
const JOB_LIMIT_MS: f64 = 10_000.0;
/// Set-ups per run. This set-up takes tens of milliseconds, so `setup_s`
/// is the median of many.
const SETUP_REPS: usize = 15;
/// Time slices of the run whose median rate is the throughput.
const RATE_BLOCKS: usize = 6;

/// The streamed corpus, its training types and the token encoder.
struct Stream {
    corpus: StreamingCorpus,
    train_types: TypePartition,
    enc: TokenEncoder,
    generate_s: f64,
}

impl Stream {
    fn open() -> Result<Stream> {
        let profile = DatasetProfile::genia();
        let corpus = profile.stream(SCALE, None, CHUNK)?;
        let ids: Vec<_> = corpus.types().iter().map(|t| t.id).collect();
        let counts = cli::split_counts(&profile, ids.len());
        let (train_types, _, _) = partition_type_ids(ids, counts, SPLIT_SEED)?;
        // The encoder needs corpus-wide vocabulary: one materializing pass,
        // dropped before training (as `fewner train` does).
        let t0 = Instant::now();
        let data = corpus.clone().materialize()?;
        let generate_s = t0.elapsed().as_secs_f64();
        let enc = cli::build_encoder(&data);
        Ok(Stream {
            corpus,
            train_types,
            enc,
            generate_s,
        })
    }
}

/// One job's result: its wall-clock time, tasks trained, and the trained
/// learner.
struct Job {
    ms: f64,
    tasks: usize,
    learner: Fewner,
}

fn job(
    stream: &Stream,
    seed: u64,
    threads: usize,
    dir: &Path,
    tracer: Option<&Tracer>,
) -> Result<Job> {
    let meta = cli::meta();
    let mut learner = Fewner::new(cli::backbone(WAYS), &stream.enc, meta.clone())?;
    let schedule = TrainConfig::new(WAYS, 1)
        .iterations(ITERATIONS)
        .query_size(6)
        .seed(seed)
        .threads(threads)
        .checkpoint_every(CHECKPOINT_EVERY)
        .checkpoint_dir(dir);
    let trainer = tracer.map_or_else(Trainer::new, Trainer::with_tracer);
    let t0 = Instant::now();
    let mut source = StreamSource::open(
        stream.corpus.clone(),
        stream.train_types.clone(),
        &schedule,
        WINDOW,
        STRIDE,
    )?;
    let log = trainer.train_stream(&mut learner, &mut source, &stream.enc, &meta, &schedule)?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    std::fs::remove_dir_all(dir).ok();
    Ok(Job {
        ms,
        tasks: log.tasks_seen,
        learner,
    })
}

pub fn run(args: &Args) -> Result<Report> {
    let mut report = Report::default();
    println!("workload train");
    println!(
        "  fixed: jobs of {ITERATIONS} meta-iterations ({WAYS}-way 1-shot, meta-batch {}), \
         {} threads, GENIA streamed in {CHUNK}-sentence chunks (window {WINDOW}, stride \
         {STRIDE}), snapshots every {CHECKPOINT_EVERY} iterations; job limit {JOB_LIMIT_MS} ms",
        cli::meta().meta_batch,
        args.nproc
    );

    let mut setup_s = Vec::new();
    let mut stream = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        stream = Some(Stream::open()?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let stream = stream.expect("SETUP_REPS > 0");

    let (tracer, sink) = if args.trace {
        let (t, s) = layers::memory_tracer();
        (Some(t), Some(s))
    } else {
        (None, None)
    };
    // Traced runs time two untraced jobs first, for the tracing overhead.
    let mut untraced_ms = Vec::new();
    if args.trace {
        for k in 0..2 {
            untraced_ms.push(
                job(
                    &stream,
                    args.seed,
                    args.nproc,
                    &args.dir.join(format!("ref-{k}")),
                    None,
                )?
                .ms,
            );
        }
    }

    let mut jobs_ms = Vec::new();
    let mut work = Vec::new();
    let mut tasks = 0usize;
    let mut digests = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while jobs_ms.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let dir = args.dir.join(format!("job-{}", jobs_ms.len()));
        let begun = start.elapsed().as_secs_f64();
        let j = job(&stream, args.seed, args.nproc, &dir, tracer.as_ref())?;
        work.push((begun, start.elapsed().as_secs_f64(), j.tasks as f64));
        jobs_ms.push(j.ms);
        tasks += j.tasks;
        digests.push(setup::theta_digest(&j.learner.theta));
        last = Some(j.learner);
    }
    let learner = last.expect("at least one job");
    let wall = start.elapsed().as_secs_f64();

    println!("phases");
    println!("  jobs         {} (all completed)", jobs_ms.len());
    report.attempted = jobs_ms.len() as u64;
    setup::check_digests(&mut report, &digests, "jobs");
    let timed_s: f64 = jobs_ms.iter().sum::<f64>() / 1e3;
    let tasks_per_s = block_rate(&work, wall, RATE_BLOCKS);
    let met = jobs_ms.iter().filter(|&&ms| ms <= JOB_LIMIT_MS).count();
    let slo = ratio(met as f64, jobs_ms.len() as f64);

    println!("results");
    println!(
        "  job_ms_p50 {:.3} ms, job_ms_p75 {:.3} ms (n={})",
        median(&jobs_ms),
        percentile(&jobs_ms, 75.0),
        jobs_ms.len()
    );
    println!(
        "  train_tasks_per_s {tasks_per_s:.3} tasks/s (median of {RATE_BLOCKS} slices; {tasks} \
         tasks in {timed_s:.2} s)"
    );
    println!(
        "  slo_met_ratio {slo:.6} ratio ({met} of {})",
        jobs_ms.len()
    );

    report.set("setup_s", median(&setup_s), "s");
    report.set("op_ms_p50", median(&jobs_ms), "ms");
    report.set("throughput_per_s", tasks_per_s, "1/s");
    report.set("slo_met_ratio", slo, "ratio");

    if args.trace {
        let mut values = Values::new();
        let sink = sink.expect("traced run has a sink");
        let summary = TraceSummary::parse(&sink.text())?;
        let span_ms = |name: &str| {
            summary
                .spans
                .get(name)
                .map_or(0.0, |s| s.percentile_ns(50.0) as f64 / 1e6)
        };
        let count = |name: &str| summary.counters.get(name).copied().unwrap_or(0) as f64;

        // Replay the layers on training tasks of the same seed.
        let pool_before = fewner_tensor::infer_global_stats();
        let corpus = setup::Corpus::build()?;
        let checkpoint = args.dir.join("trained.ckpt");
        Checkpoint::capture(&learner).save(&checkpoint)?;
        let tasks = EpisodeSampler::new(&corpus.split.train, WAYS, 1, 6)?.eval_set(args.seed, 8)?;
        layers::replay(&mut values, &corpus, &checkpoint, &tasks, args)?;
        values.insert(
            "tensor.infer_pool_hit_ratio",
            layers::infer_pool_hit_ratio(pool_before),
        );

        values.insert("core.snapshot_ms_p50", span_ms("train/checkpoint"));
        values.insert("episode.sample_ms_p50", span_ms("sampler/sample"));
        values.insert("episode.sampler_retries", count("sampler/retries"));
        values.insert("corpus.chunks_generated", count("corpus/chunks_generated"));
        values.insert("corpus.generate_s", stream.generate_s);
        values.insert(
            "obs.trace_overhead_ratio",
            ratio(median(&jobs_ms), median(&untraced_ms)),
        );

        // The same job with one thread must end on the same θ.
        let serial = job(&stream, args.seed, 1, &args.dir.join("serial"), None)?;
        setup::check_serial_digest(
            &mut report,
            setup::theta_digest(&serial.learner.theta),
            digests[0],
            args.nproc,
        );
        layers::record(&mut report, values);
    }
    Ok(report)
}
