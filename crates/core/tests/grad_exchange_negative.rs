//! Negative-path tests for the sharded gradient exchange (ISSUE 8,
//! satellite 3), mirroring `crates/util/tests/durable_negative.rs` at the
//! protocol level: a corrupt or torn partial-gradient frame must be caught
//! by the CRC and *retransmitted* — never silently applied, never allowed
//! to diverge the run by a single byte.
//!
//! Faults are injected through [`fault::with_plan`] (process-global, hence
//! the wrapper even where no arm fires) using the `@shard` scope so only
//! the targeted worker mangles its frames.

mod common;

use common::{learner, meta, setup, sharded, state_of};
use fewner_core::{CoordinatorReport, TrainConfig, Trainer};
use fewner_corpus::TypeSplit;
use fewner_models::TokenEncoder;
use fewner_util::fault::{self, FaultPlan};
use fewner_util::Result;

const ITERS: usize = 5;

fn cfg() -> TrainConfig {
    TrainConfig::new(3, 1)
        .query_size(4)
        .seed(9)
        .threads(1)
        .iterations(ITERS)
}

/// A 2-shard run over real TCP; returns both workers' final states and the
/// coordinator's report.
fn two_shard_run(
    split: &TypeSplit,
    enc: &TokenEncoder,
) -> (Vec<Result<String>>, CoordinatorReport) {
    let m = meta();
    sharded(2, |shard, addr| {
        let schedule = cfg().shards(2).shard_id(shard).coordinator(addr);
        let mut l = learner(enc);
        Trainer::new()
            .train(&mut l, &split.train, enc, &m, &schedule)
            .map(|_| state_of(&l))
    })
}

/// The serial reference every faulted run must match byte for byte.
fn serial_reference(split: &TypeSplit, enc: &TokenEncoder) -> String {
    let mut l = learner(enc);
    Trainer::new()
        .train(&mut l, &split.train, enc, &meta(), &cfg())
        .unwrap();
    state_of(&l)
}

/// Runs the faulted 2-shard exchange and asserts the recovery invariants:
/// at least one retransmit, no deaths, every round applied, and both
/// workers bitwise identical to the serial run.
fn assert_recovers_bitwise(plan: &str) {
    let (split, enc) = setup();
    fault::with_plan(FaultPlan::parse(plan).unwrap(), || {
        let reference = serial_reference(&split, &enc);
        let (states, report) = two_shard_run(&split, &enc);
        assert!(
            report.retransmits >= 1,
            "`{plan}` must force a retransmit, report: {report:?}"
        );
        assert_eq!(report.deaths, 0, "a recoverable frame is not a death");
        assert_eq!(report.rounds, ITERS);
        assert_eq!(report.applied, ITERS, "no round may be lost to the fault");
        for (shard, state) in states.into_iter().enumerate() {
            assert_eq!(
                state.unwrap(),
                reference,
                "worker {shard} diverged after `{plan}`"
            );
        }
    });
}

#[test]
fn a_corrupt_partial_frame_is_retransmitted_not_applied() {
    // Shard 1's second partial goes out with a flipped payload byte: the
    // coordinator's CRC check must catch it and ask for a resend.
    assert_recovers_bitwise("shard_frame_corrupt:2@1");
}

#[test]
fn a_torn_partial_frame_is_retransmitted_not_applied() {
    // Half of shard 0's third partial is zeroed with the declared length
    // left honest — the boundary holds, so the frame is retransmittable.
    assert_recovers_bitwise("shard_frame_torn:3@0");
}

#[test]
fn repeated_frame_damage_across_shards_still_converges() {
    // Both workers damage a frame in different rounds; every one is
    // recovered independently.
    assert_recovers_bitwise("shard_frame_corrupt:1@0,shard_frame_torn:2@1");
}

#[test]
fn a_clean_exchange_never_retransmits() {
    let (split, enc) = setup();
    fault::with_plan(FaultPlan::parse("").unwrap(), || {
        let reference = serial_reference(&split, &enc);
        let (states, report) = two_shard_run(&split, &enc);
        assert_eq!(report.retransmits, 0, "report: {report:?}");
        assert_eq!((report.deaths, report.skipped), (0, 0));
        for state in states {
            assert_eq!(state.unwrap(), reference);
        }
    });
}
