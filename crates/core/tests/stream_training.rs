//! Streaming-training acceptance suite (ISSUE 10 tentpole): training from a
//! chunked corpus stream must be a pure refactor of the materialized path —
//! serial, 2-shard and killed-and-resumed streaming runs all leave bitwise
//! identical learner state, and the persisted stream cursor refuses to
//! resume under a different stream geometry.
//!
//! Every training test runs inside [`fault::with_plan`] — even the ones
//! with no faults to inject — because the fault plan is process-global and
//! parallel tests would otherwise steal each other's injected arms.

mod common;

use common::{checkpoint_bytes, learner, meta, sharded, state_of, tmp_dir};
use fewner_core::{MetaConfig, StreamSource, TrainConfig, Trainer};
use fewner_corpus::{
    partition_type_ids, CorpusSource, DatasetProfile, StreamingCorpus, TypePartition,
};
use fewner_models::TokenEncoder;
use fewner_text::embed::EmbeddingSpec;
use fewner_text::TypeId;
use fewner_util::fault::{self, FaultPlan};
use fewner_util::Error;

const CHUNK: usize = 64;
const WINDOW: usize = 200;
const STRIDE: usize = 20;

/// The streaming corpus every test draws from, plus its train-side type
/// partition and an encoder built from the materialized equivalent (the
/// encoder needs corpus-wide statistics; building it from the same
/// generator keeps the vocabularies identical across paths).
fn setup() -> (StreamingCorpus, TypePartition, TokenEncoder) {
    let p = DatasetProfile::bionlp13cg();
    let corpus = p.stream(0.05, None, CHUNK).unwrap();
    let ids: Vec<TypeId> = corpus.types().iter().map(|t| t.id).collect();
    let (train, _, _) = partition_type_ids(ids, (8, 3, 5), 1).unwrap();
    let d = corpus.clone().materialize().unwrap();
    let enc = TokenEncoder::build(
        &[&d],
        &EmbeddingSpec {
            dim: 20,
            ..EmbeddingSpec::default()
        },
        4,
    );
    (corpus, train, enc)
}

fn cfg(iterations: usize) -> TrainConfig {
    TrainConfig::new(3, 1)
        .query_size(4)
        .seed(9)
        .threads(1)
        .iterations(iterations)
}

fn source(
    corpus: &StreamingCorpus,
    partition: &TypePartition,
    schedule: &TrainConfig,
) -> StreamSource {
    StreamSource::open(corpus.clone(), partition.clone(), schedule, WINDOW, STRIDE).unwrap()
}

/// Acceptance: streaming training killed at iteration k and resumed through
/// [`Trainer::resume`] — with the window replayed from the persisted
/// cursor — produces the byte-identical final checkpoint of a
/// straight-through streaming run.
#[test]
fn streaming_kill_and_resume_is_bitwise_identical() {
    let (corpus, train, enc) = setup();
    fault::with_plan(FaultPlan::parse("").unwrap(), || {
        let dir = tmp_dir("resume");
        let m = meta();

        // Straight-through reference: 12 iterations, no checkpoints.
        let mut straight = learner(&enc);
        let schedule = cfg(12);
        let mut src = source(&corpus, &train, &schedule);
        Trainer::new()
            .train_stream(&mut straight, &mut src, &enc, &m, &schedule)
            .unwrap();
        assert!(
            src.sampler().high_water() <= WINDOW,
            "residency {} exceeded the {WINDOW}-sentence window",
            src.sampler().high_water()
        );

        // "Killed" run: stops after 7 iterations with snapshots at 3 and 6.
        let mut killed = learner(&enc);
        let ck = cfg(7).checkpoint_every(3).checkpoint_dir(&dir);
        let mut src = source(&corpus, &train, &ck);
        Trainer::new()
            .train_stream(&mut killed, &mut src, &enc, &m, &ck)
            .unwrap();
        drop(killed); // the process is gone; only the snapshots survive

        // Resume into the full 12-iteration schedule from a *fresh* stream:
        // the cursor in the snapshot replays the window to where it was.
        let mut resumed = learner(&enc);
        let rk = cfg(12).checkpoint_every(3).checkpoint_dir(&dir);
        let mut src = source(&corpus, &train, &rk);
        let log = Trainer::new()
            .resume(&mut resumed, &mut src, &enc, &m, &rk, &dir)
            .unwrap();

        assert_eq!(log.losses.len(), 12, "full loss history is restored");
        assert_eq!(
            state_of(&straight),
            state_of(&resumed),
            "θ, optimizer moments and RNG must all match"
        );
        assert_eq!(
            checkpoint_bytes(&straight, &dir, "straight.json"),
            checkpoint_bytes(&resumed, &dir, "resumed.json"),
            "final checkpoint files must be byte-identical"
        );
        std::fs::remove_dir_all(dir).ok();
    });
}

/// Acceptance: a 2-shard streaming run leaves every worker with exactly the
/// serial streaming bytes — window advancement is draw-driven and RNG-free,
/// so shard lockstep holds across the stream exactly as it does for
/// materialized views.
#[test]
fn streaming_2_shard_run_matches_serial_bitwise() {
    let (corpus, train, enc) = setup();
    let m = MetaConfig {
        // 4 tasks per meta-batch so the reduce tree splits across shards.
        meta_batch: 4,
        inner_steps_train: 1,
        ..MetaConfig::default()
    };
    const ITERS: usize = 6;

    fault::with_plan(FaultPlan::parse("").unwrap(), || {
        let mut serial = learner(&enc);
        let schedule = cfg(ITERS);
        let mut src = source(&corpus, &train, &schedule);
        Trainer::new()
            .train_stream(&mut serial, &mut src, &enc, &m, &schedule)
            .unwrap();
        let reference = state_of(&serial);

        let (states, report) = sharded(2, |shard, addr| {
            let schedule = cfg(ITERS).shards(2).shard_id(shard).coordinator(addr);
            let mut src = source(&corpus, &train, &schedule);
            let mut l = learner(&enc);
            Trainer::new()
                .train_stream(&mut l, &mut src, &enc, &m, &schedule)
                .map(|_| state_of(&l))
        });
        assert_eq!(report.rounds, ITERS, "one reduce round per iteration");
        assert_eq!((report.deaths, report.skipped), (0, 0));
        for (shard, state) in states.into_iter().enumerate() {
            assert_eq!(
                state.unwrap(),
                reference,
                "streaming 2-shard worker {shard} diverged from serial"
            );
        }
    });
}

/// The stream geometry (corpus length, chunk size, window, stride) is part
/// of the run fingerprint: snapshots written under one geometry refuse to
/// resume under another, and materialized-run snapshots refuse a streaming
/// resume outright — the persisted cursor would address different
/// sentences.
#[test]
fn resume_refuses_a_mismatched_stream_geometry() {
    let (corpus, train, enc) = setup();
    fault::with_plan(FaultPlan::parse("").unwrap(), || {
        let dir = tmp_dir("geometry");
        let m = meta();

        let mut l = learner(&enc);
        let ck = cfg(3).checkpoint_every(3).checkpoint_dir(&dir);
        let mut src = source(&corpus, &train, &ck);
        Trainer::new()
            .train_stream(&mut l, &mut src, &enc, &m, &ck)
            .unwrap();

        // Same schedule, different window: the cursor semantics change, so
        // the fingerprint check must refuse before touching the learner.
        let mut other = learner(&enc);
        let rk = cfg(6).checkpoint_every(3).checkpoint_dir(&dir);
        let mut narrow =
            StreamSource::open(corpus.clone(), train.clone(), &rk, WINDOW / 2, STRIDE).unwrap();
        let err = Trainer::new()
            .resume(&mut other, &mut narrow, &enc, &m, &rk, &dir)
            .unwrap_err();
        assert!(
            matches!(err, Error::InvalidConfig(_)),
            "expected InvalidConfig on geometry mismatch, got {err:?}"
        );

        // A materialized-view resume must not accept streaming snapshots
        // either: its fingerprint carries no stream geometry at all.
        let d = corpus.clone().materialize().unwrap();
        let split = fewner_corpus::split_types(&d, (8, 3, 5), 1).unwrap();
        let err = Trainer::new()
            .resume(&mut other, &split.train, &enc, &m, &rk, &dir)
            .unwrap_err();
        assert!(
            matches!(err, Error::InvalidConfig(_)),
            "expected InvalidConfig resuming a stream snapshot as a view run, got {err:?}"
        );
        std::fs::remove_dir_all(dir).ok();
    });
}

/// Resuming a finished streaming run takes the same early-return path as a
/// materialized one: the snapshot's log comes back unchanged and the
/// learner holds the straight-through state.
#[test]
fn resuming_a_finished_stream_run_returns_the_snapshot_log() {
    let (corpus, train, enc) = setup();
    fault::with_plan(FaultPlan::parse("").unwrap(), || {
        let dir = tmp_dir("finished");
        let m = meta();
        let ck = cfg(6).checkpoint_every(3).checkpoint_dir(&dir);
        let mut straight = learner(&enc);
        let mut src = source(&corpus, &train, &ck);
        let straight_log = Trainer::new()
            .train(&mut straight, &mut src, &enc, &m, &ck)
            .unwrap();

        let mut resumed = learner(&enc);
        let mut src = source(&corpus, &train, &ck);
        let log = Trainer::new()
            .resume(&mut resumed, &mut src, &enc, &m, &ck, &dir)
            .unwrap();
        assert_eq!(log.losses, straight_log.losses);
        assert_eq!(log.tasks_seen, straight_log.tasks_seen);
        assert_eq!(log.skipped, straight_log.skipped);
        assert_eq!(
            state_of(&straight),
            state_of(&resumed),
            "a finished resume must leave exactly the snapshot's state"
        );
        std::fs::remove_dir_all(dir).ok();
    });
}
