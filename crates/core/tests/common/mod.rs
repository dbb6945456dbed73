//! Fixtures shared by the training suites: a small BioNLP13CG type split
//! with its encoder, a tiny 3-way FEWNER learner, the learner's state as
//! comparable bytes, and an in-process sharded-run harness.

// Each suite compiles this module on its own and uses a subset of it.
#![allow(dead_code)]

use std::path::{Path, PathBuf};

use fewner_core::{
    Checkpoint, CoordinatorReport, EpisodicLearner, Fewner, MetaConfig, ShardCoordinator,
};
use fewner_corpus::{split_types, DatasetProfile, TypeSplit};
use fewner_models::{BackboneConfig, Conditioning, HeadKind, TokenEncoder};
use fewner_obs::Tracer;
use fewner_text::embed::EmbeddingSpec;
use fewner_util::Result;

/// A BioNLP13CG type split and an encoder built over the same corpus.
pub fn setup() -> (TypeSplit, TokenEncoder) {
    let d = DatasetProfile::bionlp13cg().generate(0.05).unwrap();
    let split = split_types(&d, (8, 3, 5), 1).unwrap();
    let enc = TokenEncoder::build(
        &[&d],
        &EmbeddingSpec {
            dim: 20,
            ..EmbeddingSpec::default()
        },
        4,
    );
    (split, enc)
}

/// Two tasks per meta-batch, one inner step.
pub fn meta() -> MetaConfig {
    MetaConfig {
        meta_batch: 2,
        inner_steps_train: 1,
        ..MetaConfig::default()
    }
}

/// A tiny 3-way FEWNER learner under [`meta`].
pub fn learner(enc: &TokenEncoder) -> Fewner {
    learner_with(enc, meta())
}

/// A tiny 3-way FEWNER learner under `meta`.
pub fn learner_with(enc: &TokenEncoder, meta: MetaConfig) -> Fewner {
    let bb = BackboneConfig {
        word_dim: 20,
        char_dim: 8,
        char_filters: 6,
        char_widths: vec![2, 3],
        hidden: 10,
        phi_dim: 8,
        slot_ctx_dim: 4,
        conditioning: Conditioning::Film,
        dropout: 0.1,
        use_char_cnn: true,
        encoder: fewner_models::backbone::EncoderKind::BiGru,
        head: HeadKind::Dense { n_ways: 3 },
    };
    Fewner::new(bb, enc, meta).unwrap()
}

/// A per-process scratch path under the system temp dir, cleared of any
/// leftovers from an earlier run.
pub fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fewner-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The learner's complete exported training state as a comparable string.
pub fn state_of(l: &Fewner) -> String {
    l.export_state()
        .expect("Fewner is checkpointable")
        .to_string()
}

/// The θ_Meta checkpoint a run would ship, as on-disk bytes.
pub fn checkpoint_bytes(l: &Fewner, dir: &Path, name: &str) -> Vec<u8> {
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join(name);
    Checkpoint::capture(l).save(&path).unwrap();
    std::fs::read(&path).unwrap()
}

/// Runs a full sharded round-trip in-process: a coordinator thread plus
/// `shards` worker threads, each executing `work(shard_id, coordinator)`.
/// Returns every worker's result (shard order) and the coordinator's
/// report.
pub fn sharded<T, F>(shards: usize, work: F) -> (Vec<Result<T>>, CoordinatorReport)
where
    T: Send,
    F: Fn(usize, &str) -> Result<T> + Sync,
{
    let coordinator = ShardCoordinator::bind("127.0.0.1:0", shards).unwrap();
    let addr = coordinator.local_addr().unwrap().to_string();
    std::thread::scope(|scope| {
        let driver = scope.spawn(|| coordinator.run(&Tracer::disabled()));
        let workers: Vec<_> = (0..shards)
            .map(|shard| {
                let (addr, work) = (addr.as_str(), &work);
                scope.spawn(move || work(shard, addr))
            })
            .collect();
        let results = workers
            .into_iter()
            .map(|w| w.join().expect("worker thread panicked"))
            .collect();
        let report = driver
            .join()
            .expect("coordinator thread panicked")
            .expect("coordinator run failed");
        (results, report)
    })
}
