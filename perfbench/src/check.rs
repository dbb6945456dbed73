//! Output checks: every served tag sequence must parse with one tag per
//! token, and a sample of each tenant's served predictions must equal an
//! in-process `Fewner::predict` under a context replayed with the same
//! adapt/extend calls the tenant made.

use std::collections::BTreeMap;

use fewner_core::{AdaptedCtx, Fewner, ServeOptions};
use fewner_models::{EncodedSentence, LabeledSentence, TokenEncoder};
use fewner_serve::SupportSentence;
use fewner_text::{Tag, TagSet};
use fewner_util::Result;

use crate::loadgen::{Done, Kind, Outcome, Tenant};
use crate::report::Report;

/// Parses one predict's served tags against the query sentences' token
/// counts and the task's way count.
pub fn parse_tags(
    served: &[Vec<String>],
    lengths: &[usize],
    ways: usize,
) -> std::result::Result<Vec<Vec<Tag>>, String> {
    if served.len() != lengths.len() {
        return Err(format!(
            "{} tag sequences for {} sentences",
            served.len(),
            lengths.len()
        ));
    }
    served
        .iter()
        .zip(lengths)
        .map(|(tags, &len)| {
            if tags.len() != len {
                return Err(format!("{} tags for {len} tokens", tags.len()));
            }
            tags.iter()
                .map(|t| {
                    let tag = Tag::parse(t).map_err(|e| format!("tag `{t}`: {e}"))?;
                    match tag.slot() {
                        Some(slot) if slot >= ways => {
                            Err(format!("tag `{t}` out of range for a {ways}-way task"))
                        }
                        _ => Ok(tag),
                    }
                })
                .collect()
        })
        .collect()
}

/// Compares served tags with in-process tag indices.
pub fn compare(served: &[Vec<String>], expected: &[Vec<usize>], tags: &TagSet) -> bool {
    served.len() == expected.len()
        && served.iter().zip(expected).all(|(s, e)| {
            s.len() == e.len() && s.iter().zip(e).all(|(name, &i)| *name == tags.name(i))
        })
}

fn encode_support(
    enc: &TokenEncoder,
    support: &[SupportSentence],
    tags: &TagSet,
) -> Vec<LabeledSentence> {
    support
        .iter()
        .map(|s| {
            (
                enc.encode(&s.tokens),
                s.tags.iter().map(|&t| tags.index(t)).collect(),
            )
        })
        .collect()
}

/// Replays every tenant with a kept request in-process, following its
/// adapt/extend history in request order, and compares each kept predict's
/// served tags with `Fewner::predict` under the replayed context.
/// `resident(i)` says whether tenant `i` was adapted during set-up (its
/// context exists before its first request). Returns the number of
/// tenants and predictions compared.
pub fn replay(
    report: &mut Report,
    learner: &Fewner,
    enc: &TokenEncoder,
    tenants: &[Tenant],
    dones: &[Done],
    resident: impl Fn(usize) -> bool,
) -> Result<(usize, usize)> {
    let opts = ServeOptions::new();
    let mut by_tenant: BTreeMap<usize, Vec<&Done>> = BTreeMap::new();
    for d in dones {
        by_tenant.entry(d.req.tenant).or_default().push(d);
    }
    by_tenant.retain(|_, history| history.iter().any(|d| d.req.keep));
    let sampled = by_tenant.len();
    let mut compared = 0;
    for (&ti, history) in &by_tenant {
        let t = &tenants[ti];
        let tags = TagSet::new(t.ways)?;
        // A tenant with a refused or failed request has no single context
        // history to replay; its failures are already counted.
        if history.iter().any(|d| !d.outcome.ok()) {
            continue;
        }
        let adapt = |support: &[SupportSentence]| {
            learner.adapt_support(&encode_support(enc, support, &tags), t.ways, &opts)
        };
        let mut ctx: Option<AdaptedCtx> = if resident(ti) {
            Some(adapt(&t.support)?)
        } else {
            None
        };
        for d in history {
            match (&d.outcome, d.req.kind) {
                (Outcome::Extended { revision, source }, _) => {
                    let wave = &t.waves[d.req.wave];
                    let next = match (&ctx, source.as_str()) {
                        (Some(c), "extended") => {
                            learner.extend(c, &encode_support(enc, wave, &tags), &opts)?
                        }
                        (None, "cold") => adapt(wave)?,
                        (c, s) => {
                            report.problem(format!(
                                "tenant {}: extend answered `{s}` with {} context",
                                t.name,
                                if c.is_some() { "a resident" } else { "no" }
                            ));
                            break;
                        }
                    };
                    if next.revision() != *revision {
                        report.problem(format!(
                            "tenant {}: served revision {revision}, replay {}",
                            t.name,
                            next.revision()
                        ));
                    }
                    ctx = Some(next);
                }
                (Outcome::Tags(served), kind) => {
                    if kind == Kind::Cold && ctx.is_none() {
                        ctx = Some(adapt(&t.support)?);
                    }
                    let Some(c) = &ctx else {
                        report.problem(format!(
                            "tenant {}: predict served before any adapt",
                            t.name
                        ));
                        break;
                    };
                    if !d.req.keep {
                        continue;
                    }
                    let query: Vec<EncodedSentence> = d
                        .req
                        .sents
                        .iter()
                        .map(|&i| enc.encode(&t.pool[i].tokens))
                        .collect();
                    let expected = learner.predict(c, &query, &opts)?;
                    if !compare(served, &expected, &tags) {
                        report.problem(format!(
                            "tenant {}: served predictions differ from the in-process replay",
                            t.name
                        ));
                    }
                    compared += 1;
                }
                _ => {}
            }
        }
    }
    Ok((sampled, compared))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{wire, Req};
    use fewner::cli;
    use fewner_corpus::DatasetProfile;
    use fewner_episode::EpisodeSampler;

    #[test]
    fn parse_tags_rejects_malformed_sequences() {
        let ok = vec![vec!["O".to_string(), "B-1".into(), "I-1".into()]];
        assert!(parse_tags(&ok, &[3], 5).is_ok());
        assert!(
            parse_tags(&ok, &[4], 5).is_err(),
            "tag count must match tokens"
        );
        assert!(
            parse_tags(&ok, &[3, 2], 5).is_err(),
            "one sequence per sentence"
        );
        assert!(parse_tags(&ok, &[3], 1).is_err(), "slot out of range");
        let garbage = vec![vec!["X-1".to_string()]];
        assert!(parse_tags(&garbage, &[1], 5).is_err());
    }

    /// A tiny untrained model and one tenant: the served predictions
    /// replayed in-process pass, and a single flipped tag fails.
    #[test]
    fn replay_flags_a_wrong_prediction() {
        let profile = DatasetProfile::genia();
        let data = profile.generate(0.02).unwrap();
        let split = cli::split_for(&profile, &data, 42).unwrap();
        let enc = cli::build_encoder(&data);
        let learner = Fewner::new(cli::backbone(5), &enc, cli::meta()).unwrap();
        let task = EpisodeSampler::new(&split.test, 5, 1, 4)
            .unwrap()
            .eval_set(3, 1)
            .unwrap()
            .remove(0);
        let tenant = Tenant {
            name: "t0".into(),
            ways: 5,
            support: task.support.iter().map(wire).collect(),
            waves: Vec::new(),
            pool: task.query.clone(),
        };
        let tags = TagSet::new(5).unwrap();
        let opts = ServeOptions::new();
        let ctx = learner
            .adapt_support(&encode_support(&enc, &tenant.support, &tags), 5, &opts)
            .unwrap();
        let sents: Vec<usize> = (0..tenant.pool.len()).collect();
        let query: Vec<EncodedSentence> =
            tenant.pool.iter().map(|s| enc.encode(&s.tokens)).collect();
        let served: Vec<Vec<String>> = learner
            .predict(&ctx, &query, &opts)
            .unwrap()
            .iter()
            .map(|p| p.iter().map(|&i| tags.name(i)).collect())
            .collect();
        let done = |served: Vec<Vec<String>>| Done {
            req: Req {
                due: 0.0,
                tenant: 0,
                kind: Kind::Cold,
                sents: sents.clone(),
                wave: 0,
                unit_start: true,
                keep: true,
            },
            sent: 0.0,
            done: 0.0,
            outcome: Outcome::Tags(served),
            tokens: 0,
        };
        let tenants = [tenant];

        let mut report = Report::default();
        let n = replay(
            &mut report,
            &learner,
            &enc,
            &tenants,
            &[done(served.clone())],
            |_| false,
        )
        .unwrap();
        assert_eq!(n, (1, 1));
        assert!(report.correct(), "faithful predictions must pass");

        let mut wrong = served;
        wrong[0][0] = if wrong[0][0] == "O" {
            "B-0".into()
        } else {
            "O".into()
        };
        let mut report = Report::default();
        replay(
            &mut report,
            &learner,
            &enc,
            &tenants,
            &[done(wrong)],
            |_| false,
        )
        .unwrap();
        assert!(!report.correct(), "a flipped tag must fail the check");
        assert_eq!(report.failed, 1);
    }
}
