//! Sharded-training acceptance suite (ISSUE 8 tentpole): serial, threaded
//! and 2/4-shard runs must leave bitwise-identical learner state; a worker
//! death mid-run is absorbed by reassignment without changing a single
//! byte; and a killed sharded run resumes to the same bytes as a
//! straight-through one.
//!
//! Every training test runs inside [`fault::with_plan`] — even the ones
//! with no faults to inject — because the fault plan is process-global and
//! parallel tests would otherwise steal each other's injected arms.
//!
//! The workers here are threads (each with its own learner and
//! [`Trainer`]), exchanging gradients with an in-process coordinator over
//! real TCP — the same wire protocol `fewner train-sharded` drives across
//! processes. Death is injected as a connection drop: the process-abort arm
//! (`shard_die`) would take the whole test harness down and is exercised by
//! the CI smoke job instead.

mod common;

use common::{checkpoint_bytes, setup, sharded, state_of, tmp_dir};
use fewner_core::{Fewner, MetaConfig, TrainConfig, Trainer};
use fewner_models::TokenEncoder;
use fewner_util::fault::{self, FaultPlan};
use fewner_util::Error;

fn meta() -> MetaConfig {
    MetaConfig {
        // 4 tasks per meta-batch so the reduce tree splits across up to
        // 4 shards.
        meta_batch: 4,
        inner_steps_train: 1,
        ..MetaConfig::default()
    }
}

fn learner(enc: &TokenEncoder) -> Fewner {
    common::learner_with(enc, meta())
}

fn cfg(iterations: usize) -> TrainConfig {
    TrainConfig::new(3, 1)
        .query_size(4)
        .seed(9)
        .threads(1)
        .iterations(iterations)
}

/// Wires one worker's shard topology into a training schedule.
fn topology(schedule: TrainConfig, shards: usize, shard: usize, addr: &str) -> TrainConfig {
    schedule.shards(shards).shard_id(shard).coordinator(addr)
}

#[test]
fn sharded_runs_match_serial_and_threaded_bitwise() {
    let (split, enc) = setup();
    let m = meta();
    const ITERS: usize = 6;

    fault::with_plan(FaultPlan::parse("").unwrap(), || {
        // Serial and threaded references.
        let mut serial = learner(&enc);
        Trainer::new()
            .train(&mut serial, &split.train, &enc, &m, &cfg(ITERS))
            .unwrap();
        let reference = state_of(&serial);

        let mut threaded = learner(&enc);
        Trainer::new()
            .train(
                &mut threaded,
                &split.train,
                &enc,
                &m,
                &cfg(ITERS).threads(2),
            )
            .unwrap();
        assert_eq!(
            state_of(&threaded),
            reference,
            "threaded run diverged from serial"
        );

        for shards in [2usize, 4] {
            let (states, report) = sharded(shards, |shard, addr| {
                let mut l = learner(&enc);
                let schedule = topology(cfg(ITERS), shards, shard, addr);
                Trainer::new()
                    .train(&mut l, &split.train, &enc, &m, &schedule)
                    .map(|_| state_of(&l))
            });
            assert_eq!(report.rounds, ITERS, "one reduce round per iteration");
            assert_eq!(report.applied, ITERS);
            assert_eq!((report.deaths, report.skipped), (0, 0));
            for (shard, state) in states.into_iter().enumerate() {
                assert_eq!(
                    state.unwrap(),
                    reference,
                    "{shards}-shard worker {shard} diverged from serial"
                );
            }
        }

        // The shipped θ_Meta checkpoint is byte-identical too.
        let dir = tmp_dir("ckpt-eq");
        let serial_bytes = checkpoint_bytes(&serial, &dir, "serial.fsnap");
        let threaded_bytes = checkpoint_bytes(&threaded, &dir, "threaded.fsnap");
        assert_eq!(serial_bytes, threaded_bytes);
        std::fs::remove_dir_all(&dir).ok();
    });
}

#[test]
fn a_dead_worker_is_reassigned_without_changing_a_byte() {
    let (split, enc) = setup();
    let m = meta();
    const ITERS: usize = 6;

    // Shard 1's connection drops while sending its round-2 partial: the
    // coordinator must reassign its task ranges to shard 0 and the run
    // must finish with exactly the serial bytes.
    fault::with_plan(FaultPlan::parse("shard_conn_drop:2@1").unwrap(), || {
        let mut serial = learner(&enc);
        Trainer::new()
            .train(&mut serial, &split.train, &enc, &m, &cfg(ITERS))
            .unwrap();
        let reference = state_of(&serial);

        let (mut states, report) = sharded(2, |shard, addr| {
            let mut l = learner(&enc);
            let schedule = topology(cfg(ITERS), 2, shard, addr);
            Trainer::new()
                .train(&mut l, &split.train, &enc, &m, &schedule)
                .map(|_| state_of(&l))
        });
        assert_eq!(report.deaths, 1, "shard 1 must be seen dying");
        assert!(report.reassignments >= 1, "its ranges must be reassigned");
        assert_eq!(report.rounds, ITERS, "the run still completes every round");
        assert_eq!(report.applied, ITERS);

        let survivor = states.remove(0).expect("shard 0 survives");
        assert_eq!(survivor, reference, "survivor diverged from serial");
        assert!(
            states.remove(0).is_err(),
            "shard 1's session must error out"
        );
    });
}

#[test]
fn a_killed_sharded_run_resumes_to_the_serial_bytes() {
    let (split, enc) = setup();
    let m = meta();
    let dir = tmp_dir("resume");

    fault::with_plan(FaultPlan::parse("").unwrap(), || {
        // Straight-through serial reference: 8 iterations, no checkpoints.
        let mut reference = learner(&enc);
        Trainer::new()
            .train(&mut reference, &split.train, &enc, &m, &cfg(8))
            .unwrap();

        // "Killed" 2-shard run: stops after 5 iterations with snapshots
        // every 2. Both workers snapshot into the same directory — the
        // shard-scoped file names keep them apart.
        let (states, _) = sharded(2, |shard, addr| {
            let base = cfg(5).checkpoint_every(2).checkpoint_dir(&dir);
            let schedule = topology(base, 2, shard, addr);
            let mut l = learner(&enc);
            Trainer::new()
                .train(&mut l, &split.train, &enc, &m, &schedule)
                .map(|_| ())
        });
        states.into_iter().for_each(|s| s.unwrap());
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        for shard in ["snap-s00-", "snap-s01-"] {
            assert!(
                names.iter().any(|n| n.starts_with(shard)),
                "missing {shard}* snapshot in {names:?}"
            );
        }

        // Resumed 2-shard run: picks up at iteration 4 and finishes 8.
        let (states, report) = sharded(2, |shard, addr| {
            let base = cfg(8).checkpoint_every(2).checkpoint_dir(&dir);
            let schedule = topology(base, 2, shard, addr);
            let mut l = learner(&enc);
            Trainer::new()
                .resume(&mut l, &split.train, &enc, &m, &schedule, &dir)
                .map(|_| state_of(&l))
        });
        assert_eq!(report.deaths, 0);
        for (shard, state) in states.into_iter().enumerate() {
            assert_eq!(
                state.unwrap(),
                state_of(&reference),
                "resumed worker {shard} diverged from the straight-through run"
            );
        }
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_refuses_a_different_shard_topology() {
    let (split, enc) = setup();
    let m = meta();
    let dir = tmp_dir("topology");

    fault::with_plan(FaultPlan::parse("").unwrap(), || {
        // Seed the directory with snapshots from an *unsharded* run.
        let mut l = learner(&enc);
        let schedule = cfg(3).checkpoint_every(1).checkpoint_dir(&dir);
        Trainer::new()
            .train(&mut l, &split.train, &enc, &m, &schedule)
            .unwrap();

        // Resuming as one worker of a 2-shard layout must be refused by
        // the fingerprint check — before any coordinator is even dialled
        // (the address below is not listening).
        let mut other = learner(&enc);
        let sharded_schedule = cfg(6)
            .checkpoint_every(1)
            .checkpoint_dir(&dir)
            .shards(2)
            .shard_id(0)
            .coordinator("127.0.0.1:9");
        let err = Trainer::new()
            .resume(&mut other, &split.train, &enc, &m, &sharded_schedule, &dir)
            .unwrap_err();
        assert!(
            matches!(err, Error::InvalidConfig(_)),
            "expected InvalidConfig, got {err}"
        );
        assert!(
            err.to_string().contains("different run configuration"),
            "the refusal must name the mismatch: {err}"
        );
    });
    std::fs::remove_dir_all(&dir).ok();
}
