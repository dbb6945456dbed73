//! Per-layer attribution for traced runs.
//!
//! Three sources, none of them tracing added inside the program:
//! * the server's own tracer, pointed at a `MemorySink`, and its `stats`
//!   op (the `serve.*` metrics);
//! * the trainer's own tracer in the train workload (`core.snapshot_*`,
//!   `episode.*`, `corpus.chunks_generated`);
//! * benchmark-side spans: timings around public calls into `core`,
//!   `models`, `tensor`, `episode` and `corpus`, replayed on the
//!   workload's own tasks ([`replay`]).
//!
//! A metric whose layer a workload does not exercise reads 0.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use fewner_core::{AdaptedCtx, ParallelTrainer, ServeOptions};
use fewner_corpus::{CorpusSource, DatasetProfile};
use fewner_episode::{EpisodeSampler, Task};
use fewner_models::{crf, encode_batch, EncodedSentence, LabeledSentence};
use fewner_obs::{MemorySink, MonotonicClock, TraceSummary, Tracer};
use fewner_tensor::{Adam, Array, Exec, Graph, Infer, InferStats, Sgd};
use fewner_util::{Json, Result, Rng};

use crate::setup::{self, Corpus, WAYS};
use crate::stats::{median, ratio};

/// One per-layer metric: name, unit, which way is better, and the
/// end-to-end metric (and workload) it should move.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
    }
}

/// Every per-layer metric a traced run reports, in `BENCHMARK.json` order.
pub const PER_LAYER: &[LayerMetric] = &[
    m(
        "serve.overhead_share",
        "ratio",
        "lower",
        "op_ms_p50 on serve_warm",
    ),
    m(
        "serve.sentences_per_decode",
        "count",
        "higher",
        "throughput_per_s on serve_warm",
    ),
    m(
        "serve.cache_hit_ratio",
        "ratio",
        "higher",
        "op_ms_p50, throughput_per_s on serve_churn",
    ),
    m(
        "serve.cache_evictions",
        "count",
        "lower",
        "op_ms_p50, throughput_per_s on serve_churn",
    ),
    m(
        "serve.phi_persists",
        "count",
        "lower",
        "op_ms_p50, throughput_per_s on serve_churn",
    ),
    m(
        "serve.phi_reloads",
        "count",
        "higher",
        "op_ms_p50, throughput_per_s on serve_churn",
    ),
    m(
        "serve.shed",
        "count",
        "lower",
        "slo_met_ratio on serve_warm, serve_churn",
    ),
    m(
        "serve.deadline_missed",
        "count",
        "lower",
        "slo_met_ratio on serve_warm, serve_churn",
    ),
    m(
        "core.predict_ms_p50",
        "ms",
        "lower",
        "op_ms_p50 on serve_warm",
    ),
    m(
        "core.adapt_ms_p50",
        "ms",
        "lower",
        "op_ms_p50, throughput_per_s on serve_churn",
    ),
    m(
        "core.adapt_warm_ms_p50",
        "ms",
        "lower",
        "op_ms_p50, throughput_per_s on serve_churn",
    ),
    m(
        "core.extend_ms_p50",
        "ms",
        "lower",
        "op_ms_p50, throughput_per_s on serve_churn",
    ),
    m(
        "core.meta_step_ms_p50",
        "ms",
        "lower",
        "throughput_per_s on train",
    ),
    m(
        "core.snapshot_ms_p50",
        "ms",
        "lower",
        "throughput_per_s on train",
    ),
    m(
        "core.adapt_over_meta_step",
        "ratio",
        "lower",
        "nothing (paper 4.5.2 ratio, reported)",
    ),
    m(
        "core.inner_step_k5_over_k1",
        "ratio",
        "lower",
        "nothing (paper 4.5.2 ratio, reported)",
    ),
    m(
        "models.encode_us_per_sentence",
        "us",
        "lower",
        "op_ms_p50 on serve_warm",
    ),
    m(
        "models.decode_tokens_per_s",
        "tokens/s",
        "higher",
        "throughput_per_s on serve_warm",
    ),
    m(
        "models.hidden_us_per_token",
        "us",
        "lower",
        "throughput_per_s on serve_warm",
    ),
    m(
        "models.viterbi_us_per_token",
        "us",
        "lower",
        "throughput_per_s on serve_warm",
    ),
    m(
        "models.decode_unattributed_share",
        "ratio",
        "lower",
        "throughput_per_s on serve_warm",
    ),
    m(
        "models.loss_forward_ms_p50",
        "ms",
        "lower",
        "op_ms_p50 on serve_churn; throughput_per_s on serve_churn, train",
    ),
    m(
        "tensor.backward_ms_p50",
        "ms",
        "lower",
        "op_ms_p50 on serve_churn; throughput_per_s on serve_churn, train",
    ),
    m(
        "tensor.sgd_step_us",
        "us",
        "lower",
        "op_ms_p50, throughput_per_s on serve_churn",
    ),
    m(
        "tensor.adam_step_ms",
        "ms",
        "lower",
        "throughput_per_s on train",
    ),
    m(
        "tensor.infer_pool_hit_ratio",
        "ratio",
        "higher",
        "throughput_per_s on serve_warm",
    ),
    m(
        "episode.sample_ms_p50",
        "ms",
        "lower",
        "throughput_per_s on train",
    ),
    m(
        "episode.sampler_retries",
        "count",
        "lower",
        "throughput_per_s on train",
    ),
    m(
        "corpus.chunk_ms_p50",
        "ms",
        "lower",
        "throughput_per_s on train",
    ),
    m(
        "corpus.chunks_generated",
        "count",
        "lower",
        "throughput_per_s on train",
    ),
    m(
        "corpus.generate_s",
        "s",
        "lower",
        "setup_s on every workload",
    ),
    m(
        "obs.trace_overhead_ratio",
        "ratio",
        "lower",
        "nothing (guards tracing cost)",
    ),
    m(
        "loadgen.late_ms_p99",
        "ms",
        "lower",
        "nothing (open-loop honesty)",
    ),
    m(
        "loadgen.open.sent",
        "count",
        "higher",
        "nothing (open-loop phase count)",
    ),
    m(
        "loadgen.open.ok",
        "count",
        "higher",
        "nothing (open-loop phase count)",
    ),
    m(
        "loadgen.open.shed",
        "count",
        "lower",
        "nothing (open-loop phase count)",
    ),
    m(
        "loadgen.open.deadline_missed",
        "count",
        "lower",
        "nothing (open-loop phase count)",
    ),
    m(
        "loadgen.open.failed",
        "count",
        "lower",
        "nothing (open-loop phase count)",
    ),
    m(
        "loadgen.closed.sent",
        "count",
        "higher",
        "nothing (closed-loop phase count)",
    ),
    m(
        "loadgen.closed.ok",
        "count",
        "higher",
        "nothing (closed-loop phase count)",
    ),
    m(
        "loadgen.closed.shed",
        "count",
        "lower",
        "nothing (closed-loop phase count)",
    ),
    m(
        "loadgen.closed.deadline_missed",
        "count",
        "lower",
        "nothing (closed-loop phase count)",
    ),
    m(
        "loadgen.closed.failed",
        "count",
        "lower",
        "nothing (closed-loop phase count)",
    ),
];

/// Per-layer values collected during a traced run.
pub type Values = BTreeMap<&'static str, f64>;

/// Moves `values` into the report; a listed metric the workload did not
/// exercise reads 0 and is named as such.
pub fn record(report: &mut crate::report::Report, values: Values) {
    let idle: Vec<&str> = PER_LAYER
        .iter()
        .map(|m| m.name)
        .filter(|name| !values.contains_key(name))
        .collect();
    if !idle.is_empty() {
        println!("  not exercised by this workload (0): {}", idle.join(", "));
    }
    for m in PER_LAYER {
        report.set(m.name, values.get(m.name).copied().unwrap_or(0.0), m.unit);
    }
}

/// An enabled tracer writing to memory, plus the handle to read it back.
pub fn memory_tracer() -> (Tracer, MemorySink) {
    let sink = MemorySink::new();
    (Tracer::new(MonotonicClock::new(), sink.clone()), sink)
}

/// Span durations (ns) by name, and the mean of each span's `sentences`
/// field, from raw trace lines.
pub struct Spans {
    pub durs: BTreeMap<String, Vec<f64>>,
    pub predict_sentences: Vec<f64>,
}

impl Spans {
    pub fn parse(lines: &[String]) -> Result<Spans> {
        let mut durs: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut predict_sentences = Vec::new();
        for line in lines {
            let rec = Json::parse(line)?;
            if rec.field("t")?.as_str()? != "span" {
                continue;
            }
            let name = rec.field("name")?.as_str()?.to_string();
            if name == "serve/predict" {
                predict_sentences.push(rec.field("sentences")?.as_f64()?);
            }
            durs.entry(name)
                .or_default()
                .push(rec.field("dur")?.as_f64()?);
        }
        Ok(Spans {
            durs,
            predict_sentences,
        })
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        self.durs
            .get(name)
            .map_or(0.0, |d| d.iter().sum::<f64>() / 1e6)
    }
}

/// The `serve.*` metrics from the server's trace lines of the measured
/// phases, its flushed counters, and the `stats` counters before and after
/// those phases. `client_ms` is the summed send-to-reply time of the same
/// requests.
pub fn serve_metrics(
    values: &mut Values,
    spans: &Spans,
    counters: &TraceSummary,
    before: &[(String, u64)],
    after: &[(String, u64)],
    client_ms: f64,
) {
    let delta = |name: &str| {
        let get = |s: &[(String, u64)]| s.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v);
        get(after).saturating_sub(get(before)) as f64
    };
    let core_ms: f64 = [
        "serve/predict",
        "serve/adapt",
        "serve/adapt_warm",
        "serve/adapt_extend",
    ]
    .iter()
    .map(|n| spans.total_ms(n))
    .sum();
    values.insert("serve.overhead_share", 1.0 - ratio(core_ms, client_ms));
    let decodes = spans.predict_sentences.len() as f64;
    values.insert(
        "serve.sentences_per_decode",
        ratio(spans.predict_sentences.iter().sum(), decodes),
    );
    let (hits, misses) = (delta("cache_hits"), delta("cache_misses"));
    values.insert("serve.cache_hit_ratio", ratio(hits, hits + misses));
    values.insert("serve.cache_evictions", delta("cache_evictions"));
    values.insert("serve.phi_persists", delta("phi_persists"));
    values.insert("serve.phi_reloads", delta("phi_reloads"));
    values.insert("serve.deadline_missed", delta("deadline_missed"));
    let shed = counters.counters.get("serve/shed").copied().unwrap_or(0);
    values.insert("serve.shed", shed as f64);
}

/// The `loadgen.*` metrics of the open- and closed-loop phases.
pub fn loadgen_metrics(
    values: &mut Values,
    open: &crate::loadgen::Counts,
    closed: &crate::loadgen::Counts,
    late_ms_p99: f64,
) {
    values.insert("loadgen.late_ms_p99", late_ms_p99);
    for (phase, c) in [("open", open), ("closed", closed)] {
        let names: [(&str, u64); 5] = [
            ("sent", c.sent),
            ("ok", c.ok),
            ("shed", c.shed),
            ("deadline_missed", c.deadline_missed),
            ("failed", c.failed),
        ];
        for (what, v) in names {
            let key = PER_LAYER
                .iter()
                .find(|m| m.name == format!("loadgen.{phase}.{what}"))
                .expect("listed loadgen metric")
                .name;
            values.insert(key, v as f64);
        }
    }
}

/// Infer buffer-pool hit ratio since `since`.
pub fn infer_pool_hit_ratio(since: InferStats) -> f64 {
    let now = fewner_tensor::infer_global_stats();
    let hits = now.pool_hits.saturating_sub(since.pool_hits) as f64;
    let misses = now.pool_misses.saturating_sub(since.pool_misses) as f64;
    ratio(hits, hits + misses)
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Samples `count` tasks of `shots` shots from the test types.
fn sample_tasks(corpus: &Corpus, seed: u64, shots: usize, count: usize) -> Result<Vec<Task>> {
    EpisodeSampler::new(&corpus.split.test, WAYS, shots, 8)?.eval_set(seed, count)
}

/// The benchmark-side replay: times public calls into `core`, `models`,
/// `tensor`, `episode` and `corpus` on the workload's own `tasks`
/// (support sets adapt, query sentences decode, the first tasks form a
/// meta-batch). `checkpoint` supplies fresh learners for the calls that
/// change θ.
pub fn replay(
    values: &mut Values,
    corpus: &Corpus,
    checkpoint: &Path,
    tasks: &[Task],
    args: &crate::Args,
) -> Result<()> {
    let learner = setup::restore(corpus, checkpoint)?;
    let enc = &corpus.enc;
    let opts = ServeOptions::new();
    let tasks = &tasks[..tasks.len().min(8)];

    // models: encode, decode, and decode's parts.
    let mut encode_ms = 0.0;
    let mut encoded = 0usize;
    let mut decode_ms = 0.0;
    let mut hidden_ms = 0.0;
    let mut viterbi_ms = 0.0;
    let mut tokens = 0usize;
    let mut predict = Vec::new();
    let mut adapt = Vec::new();
    let mut adapt_warm = Vec::new();
    let mut extend = Vec::new();
    let mut rng = Rng::new(args.seed ^ 0x1a7e);
    for (i, task) in tasks.iter().enumerate() {
        let tags = task.tag_set();
        let support = encode_batch(enc, &task.support, &tags);
        let t0 = Instant::now();
        let ctx = learner.adapt_support(&support, task.n_ways, &opts)?;
        adapt.push(ms_since(t0));

        let path = args.dir.join(format!("replay-{i}.phi"));
        ctx.save(&path)?;
        let t0 = Instant::now();
        black_box(AdaptedCtx::load(&path)?);
        adapt_warm.push(ms_since(t0));

        let wave: Vec<LabeledSentence> =
            encode_batch(enc, &task.query[..2.min(task.query.len())], &tags);
        let t0 = Instant::now();
        black_box(learner.extend(&ctx, &wave, &opts)?);
        extend.push(ms_since(t0));

        let t0 = Instant::now();
        let query: Vec<EncodedSentence> =
            task.query.iter().map(|s| enc.encode(&s.tokens)).collect();
        encode_ms += ms_since(t0);
        encoded += query.len();
        tokens += query.iter().map(|s| s.len()).sum::<usize>();

        for chunk in query.chunks(4) {
            let t0 = Instant::now();
            black_box(learner.predict(&ctx, chunk, &opts)?);
            predict.push(ms_since(t0));
        }
        let (phi_store, phi_id) = ctx.phi();
        let t0 = Instant::now();
        black_box(learner.backbone.decode_task(
            &learner.theta,
            Some((phi_store, phi_id)),
            query.iter(),
            &tags,
        ));
        decode_ms += ms_since(t0);

        let ex = Infer::new();
        let phi = ex.param(phi_store, phi_id);
        let mark = ex.mark();
        let mut dropout_rng = Rng::new(0);
        for sent in &query {
            let t0 = Instant::now();
            black_box(learner.backbone.hidden(
                &ex,
                &learner.theta,
                Some(phi),
                sent,
                &mut dropout_rng,
            ));
            hidden_ms += ms_since(t0);
            ex.reset_to(mark);

            let n = tags.len();
            let emissions = Array::normal(sent.len(), n, 1.0, &mut rng);
            let trans = Array::normal(n, n, 1.0, &mut rng);
            let start = Array::normal(1, n, 1.0, &mut rng);
            let t0 = Instant::now();
            black_box(crf::viterbi(&emissions, &trans, &start, &tags));
            viterbi_ms += ms_since(t0);
        }
    }
    values.insert(
        "models.encode_us_per_sentence",
        ratio(encode_ms * 1e3, encoded as f64),
    );
    values.insert(
        "models.decode_tokens_per_s",
        ratio(tokens as f64, decode_ms / 1e3),
    );
    values.insert(
        "models.hidden_us_per_token",
        ratio(hidden_ms * 1e3, tokens as f64),
    );
    values.insert(
        "models.viterbi_us_per_token",
        ratio(viterbi_ms * 1e3, tokens as f64),
    );
    values.insert(
        "models.decode_unattributed_share",
        1.0 - ratio(hidden_ms + viterbi_ms, decode_ms),
    );
    values.insert("core.predict_ms_p50", median(&predict));
    values.insert("core.adapt_ms_p50", median(&adapt));
    values.insert("core.adapt_warm_ms_p50", median(&adapt_warm));
    values.insert("core.extend_ms_p50", median(&extend));

    // The inner loop's parts: loss forward, backward, one SGD step on φ,
    // and one Adam step on a fresh θ.
    let mut fresh = setup::restore(corpus, checkpoint)?;
    let meta = learner.config().clone();
    let (mut forward, mut backward, mut sgd, mut adam) = (vec![], vec![], vec![], vec![]);
    for task in tasks {
        let tags = task.tag_set();
        let support = encode_batch(enc, &task.support, &tags);
        let (mut phi_store, phi_id) = learner.backbone.new_context();
        let mut dropout_rng = Rng::new(0);
        let g = Graph::eval();
        let phi = g.param(&phi_store, phi_id);
        let t0 = Instant::now();
        let loss = learner.backbone.batch_loss(
            &g,
            &learner.theta,
            Some(phi),
            &support,
            &tags,
            &mut dropout_rng,
        );
        forward.push(ms_since(t0));
        let t0 = Instant::now();
        let grads = g.backward(loss)?;
        backward.push(ms_since(t0));
        let phi_grads = grads.for_store(&phi_store);
        let t0 = Instant::now();
        Sgd::new(meta.inner_lr).step(&mut phi_store, &phi_grads)?;
        sgd.push(ms_since(t0) * 1e3);

        let g = Graph::eval();
        let phi = g.param(&phi_store, phi_id);
        let loss = fresh.backbone.batch_loss(
            &g,
            &fresh.theta,
            Some(phi),
            &support,
            &tags,
            &mut dropout_rng,
        );
        let theta_grads = g.backward(loss)?.for_store(&fresh.theta);
        let mut opt = Adam::new(meta.meta_lr);
        let t0 = Instant::now();
        opt.step(&mut fresh.theta, &theta_grads)?;
        adam.push(ms_since(t0));
    }
    values.insert("models.loss_forward_ms_p50", median(&forward));
    values.insert("tensor.backward_ms_p50", median(&backward));
    values.insert("tensor.sgd_step_us", median(&sgd));
    values.insert("tensor.adam_step_ms", median(&adam));

    // One meta-step over the workload's tasks, the threaded way training
    // runs it.
    let trainer = ParallelTrainer::new(args.nproc);
    let batch = meta.meta_batch.min(tasks.len());
    let mut meta_step = Vec::new();
    for round in 0..4 {
        let start = (round * batch) % tasks.len();
        let mut chunk: Vec<Task> = tasks
            .iter()
            .cycle()
            .skip(start)
            .take(batch)
            .cloned()
            .collect();
        chunk.truncate(batch);
        let t0 = Instant::now();
        trainer.meta_step(&mut fresh, &chunk, enc)?;
        meta_step.push(ms_since(t0));
    }
    let meta_step_ms = median(&meta_step);
    values.insert("core.meta_step_ms_p50", meta_step_ms);
    values.insert(
        "core.adapt_over_meta_step",
        ratio(median(&adapt), meta_step_ms),
    );

    // Inner-step cost at K = 5 over K = 1 (one step, same θ).
    let per_step = |shots: usize| -> Result<f64> {
        let mut times = Vec::new();
        for task in sample_tasks(corpus, args.seed ^ shots as u64, shots, 4)? {
            let tags = task.tag_set();
            let support = encode_batch(enc, &task.support, &tags);
            let t0 = Instant::now();
            black_box(learner.adapt_context(&support, &tags, 1)?);
            times.push(ms_since(t0));
        }
        Ok(median(&times))
    };
    let k1 = per_step(1)?;
    let k5 = per_step(5)?;
    values.insert("core.inner_step_k5_over_k1", ratio(k5, k1));

    // episode: sampling from the test types, with the sampler's own retry
    // counter.
    let (tracer, sink) = memory_tracer();
    let sampler = EpisodeSampler::new(&corpus.split.test, WAYS, 1, 8)?;
    let mut sample = Vec::new();
    let mut draw = Rng::new(args.seed ^ 0x5a3b);
    for _ in 0..16 {
        let t0 = Instant::now();
        black_box(sampler.sample_traced(&mut draw, &tracer)?);
        sample.push(ms_since(t0));
    }
    tracer.flush()?;
    let summary = TraceSummary::parse(&sink.text())?;
    values.insert("episode.sample_ms_p50", median(&sample));
    values.insert(
        "episode.sampler_retries",
        summary
            .counters
            .get("sampler/retries")
            .copied()
            .unwrap_or(0) as f64,
    );

    // corpus: on-demand chunk generation of the streamed corpus.
    let mut stream = DatasetProfile::genia().stream(setup::SCALE, None, crate::train::CHUNK)?;
    let chunks = stream.total_sentences().div_ceil(stream.chunk_size());
    let mut chunk_ms = Vec::new();
    for i in 0..chunks {
        let t0 = Instant::now();
        black_box(stream.read_chunk(i)?);
        chunk_ms.push(ms_since(t0));
    }
    values.insert("corpus.chunk_ms_p50", median(&chunk_ms));
    Ok(())
}

#[cfg(test)]
mod tests {
    use fewner_util::Json;

    /// The code's metric tables and `BENCHMARK.json` list the same
    /// metrics, in the same order, with the same units and direction.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            let s = |m: &Json, f: &str| m.field(f).unwrap().as_str().unwrap().to_string();
            json.field(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| (s(m, "name"), s(m, "unit"), s(m, "better")))
                .collect()
        };
        let per_layer: Vec<_> = super::PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), per_layer);
        let end_to_end: Vec<(String, String)> = listed("end_to_end")
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect();
        let ours: Vec<(String, String)> = crate::report::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(end_to_end, ours);
    }
}
