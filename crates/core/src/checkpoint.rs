//! Checkpointing: persist a meta-trained θ_Meta together with the
//! configurations needed to rebuild the exact same model.
//!
//! Algorithm 1 separates *training* (producing θ_Meta) from *adapting*
//! (consuming it); a real deployment trains once and adapts everywhere, so
//! θ_Meta must round-trip through storage byte-exactly. The checkpoint is a
//! single JSON document: backbone hyper-parameters, meta hyper-parameters,
//! and the named parameter tensors.

use std::path::Path;

use fewner_models::{BackboneConfig, Conditioning, EncoderKind, HeadKind, TokenEncoder};
use fewner_tensor::{QuantizedParams, SavedParams, WeightFormat};
use fewner_util::{Error, FromJson, Json, Result, ToJson};

use crate::config::MetaConfig;
use crate::fewner::Fewner;

/// Serialisable mirror of [`BackboneConfig`] (the model crate stays
/// serialisation-free; the mapping lives here with the checkpoint format).
#[derive(Debug, Clone, PartialEq)]
pub struct SavedBackboneConfig {
    /// See [`BackboneConfig::word_dim`].
    pub word_dim: usize,
    /// See [`BackboneConfig::char_dim`].
    pub char_dim: usize,
    /// See [`BackboneConfig::char_filters`].
    pub char_filters: usize,
    /// See [`BackboneConfig::char_widths`].
    pub char_widths: Vec<usize>,
    /// See [`BackboneConfig::hidden`].
    pub hidden: usize,
    /// See [`BackboneConfig::phi_dim`].
    pub phi_dim: usize,
    /// See [`BackboneConfig::slot_ctx_dim`].
    pub slot_ctx_dim: usize,
    /// `"none" | "film" | "concat"`.
    pub conditioning: String,
    /// `"bigru" | "bilstm"`.
    pub encoder: String,
    /// See [`BackboneConfig::dropout`].
    pub dropout: f32,
    /// See [`BackboneConfig::use_char_cnn`].
    pub use_char_cnn: bool,
    /// `("dense", n_ways)` or `("slot_shared", slot_dim, max_slots)`.
    pub head: (String, usize, usize),
}

impl From<&BackboneConfig> for SavedBackboneConfig {
    fn from(c: &BackboneConfig) -> Self {
        SavedBackboneConfig {
            word_dim: c.word_dim,
            char_dim: c.char_dim,
            char_filters: c.char_filters,
            char_widths: c.char_widths.clone(),
            hidden: c.hidden,
            phi_dim: c.phi_dim,
            slot_ctx_dim: c.slot_ctx_dim,
            conditioning: match c.conditioning {
                Conditioning::None => "none",
                Conditioning::Film => "film",
                Conditioning::ConcatInput => "concat",
            }
            .to_string(),
            encoder: match c.encoder {
                EncoderKind::BiGru => "bigru",
                EncoderKind::BiLstm => "bilstm",
            }
            .to_string(),
            dropout: c.dropout,
            use_char_cnn: c.use_char_cnn,
            head: match c.head {
                HeadKind::Dense { n_ways } => ("dense".to_string(), n_ways, 0),
                HeadKind::SlotShared {
                    slot_dim,
                    max_slots,
                } => ("slot_shared".to_string(), slot_dim, max_slots),
            },
        }
    }
}

impl SavedBackboneConfig {
    /// Rebuilds the runtime configuration.
    pub fn to_config(&self) -> Result<BackboneConfig> {
        let conditioning = match self.conditioning.as_str() {
            "none" => Conditioning::None,
            "film" => Conditioning::Film,
            "concat" => Conditioning::ConcatInput,
            other => {
                return Err(Error::Serde(format!("unknown conditioning `{other}`")));
            }
        };
        let encoder = match self.encoder.as_str() {
            "bigru" => EncoderKind::BiGru,
            "bilstm" => EncoderKind::BiLstm,
            other => return Err(Error::Serde(format!("unknown encoder `{other}`"))),
        };
        let head = match self.head.0.as_str() {
            "dense" => HeadKind::Dense {
                n_ways: self.head.1,
            },
            "slot_shared" => HeadKind::SlotShared {
                slot_dim: self.head.1,
                max_slots: self.head.2,
            },
            other => return Err(Error::Serde(format!("unknown head `{other}`"))),
        };
        Ok(BackboneConfig {
            word_dim: self.word_dim,
            char_dim: self.char_dim,
            char_filters: self.char_filters,
            char_widths: self.char_widths.clone(),
            hidden: self.hidden,
            phi_dim: self.phi_dim,
            slot_ctx_dim: self.slot_ctx_dim,
            conditioning,
            dropout: self.dropout,
            use_char_cnn: self.use_char_cnn,
            encoder,
            head,
        })
    }
}

impl ToJson for SavedBackboneConfig {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("word_dim".into(), Json::from(self.word_dim)),
            ("char_dim".into(), Json::from(self.char_dim)),
            ("char_filters".into(), Json::from(self.char_filters)),
            (
                "char_widths".into(),
                Json::Arr(self.char_widths.iter().map(|&w| Json::from(w)).collect()),
            ),
            ("hidden".into(), Json::from(self.hidden)),
            ("phi_dim".into(), Json::from(self.phi_dim)),
            ("slot_ctx_dim".into(), Json::from(self.slot_ctx_dim)),
            (
                "conditioning".into(),
                Json::from(self.conditioning.as_str()),
            ),
            ("encoder".into(), Json::from(self.encoder.as_str())),
            ("dropout".into(), Json::from(self.dropout)),
            ("use_char_cnn".into(), Json::from(self.use_char_cnn)),
            (
                "head".into(),
                Json::Obj(vec![
                    ("kind".into(), Json::from(self.head.0.as_str())),
                    ("a".into(), Json::from(self.head.1)),
                    ("b".into(), Json::from(self.head.2)),
                ]),
            ),
        ])
    }
}

impl FromJson for SavedBackboneConfig {
    fn from_json(json: &Json) -> Result<SavedBackboneConfig> {
        let head = json.field("head")?;
        Ok(SavedBackboneConfig {
            word_dim: json.field("word_dim")?.as_usize()?,
            char_dim: json.field("char_dim")?.as_usize()?,
            char_filters: json.field("char_filters")?.as_usize()?,
            char_widths: json
                .field("char_widths")?
                .as_arr()?
                .iter()
                .map(Json::as_usize)
                .collect::<Result<Vec<_>>>()?,
            hidden: json.field("hidden")?.as_usize()?,
            phi_dim: json.field("phi_dim")?.as_usize()?,
            slot_ctx_dim: json.field("slot_ctx_dim")?.as_usize()?,
            conditioning: json.field("conditioning")?.as_str()?.to_string(),
            encoder: json.field("encoder")?.as_str()?.to_string(),
            dropout: json.field("dropout")?.as_f32()?,
            use_char_cnn: json.field("use_char_cnn")?.as_bool()?,
            head: (
                head.field("kind")?.as_str()?.to_string(),
                head.field("a")?.as_usize()?,
                head.field("b")?.as_usize()?,
            ),
        })
    }
}

/// A complete FEWNER checkpoint.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Format version for forward compatibility.
    pub version: u32,
    /// Backbone hyper-parameters.
    pub backbone: SavedBackboneConfig,
    /// Meta-learning hyper-parameters.
    pub meta: MetaConfig,
    /// θ_Meta tensors (always held dequantized in memory).
    pub theta: SavedParams,
    /// The format θ is serialised in (`F32` = plain `"theta"` tensors;
    /// `F16`/`I8` write a compressed `"theta_q"` payload instead).
    pub weights: WeightFormat,
}

/// Current checkpoint format version. Version 2 stores every tensor as hex
/// bit patterns ([`fewner_util::hex`]); files of any other version are
/// rejected with an explicit error, never migrated.
pub const CHECKPOINT_VERSION: u32 = 2;

impl Checkpoint {
    /// Captures a trained learner.
    pub fn capture(learner: &Fewner) -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            backbone: SavedBackboneConfig::from(learner.backbone.config()),
            meta: learner.config().clone(),
            theta: learner.theta.to_saved(),
            weights: WeightFormat::F32,
        }
    }

    /// Switches the checkpoint to a quantized weight format.
    ///
    /// θ is rounded through the format *immediately* (encode → decode), so
    /// [`Checkpoint::restore`] after this call behaves identically to
    /// saving and re-loading: there is one quantized θ, not an in-memory /
    /// on-disk pair that silently disagrees. Quantization is idempotent, so
    /// re-saving a loaded quantized checkpoint is lossless.
    pub fn quantize_weights(&mut self, format: WeightFormat) {
        self.weights = format;
        if format != WeightFormat::F32 {
            self.theta = QuantizedParams::quantize(&self.theta, format).dequantize();
        }
    }

    /// Restores a learner; the encoder must be the one the model was
    /// trained with (vocabulary sizes are validated through θ's shapes).
    pub fn restore(&self, enc: &TokenEncoder) -> Result<Fewner> {
        if self.version != CHECKPOINT_VERSION {
            return Err(Error::Serde(format!(
                "unsupported checkpoint version {} (expected {CHECKPOINT_VERSION})",
                self.version
            )));
        }
        let mut learner = Fewner::new(self.backbone.to_config()?, enc, self.meta.clone())?;
        learner.theta.load_saved(&self.theta)?;
        Ok(learner)
    }

    /// Writes the checkpoint durably: the JSON payload is framed with a
    /// versioned header and CRC-32, written to a temp file, fsynced, and
    /// atomically renamed into place ([`fewner_util::durable`]). A reader
    /// can never observe a torn checkpoint, and filesystem failures surface
    /// as [`Error::Io`] with the offending path.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let json = self.to_json().to_string();
        fewner_util::durable::write_atomic(path, json.as_bytes())
    }

    /// [`Checkpoint::save`] in an explicit weight format (the CLI's
    /// `--weights` flag): quantizes a copy and writes it durably.
    pub fn save_with_weights(&self, path: impl AsRef<Path>, format: WeightFormat) -> Result<()> {
        let mut copy = self.clone();
        copy.quantize_weights(format);
        copy.save(path)
    }

    /// Reads a checkpoint file, verifying the header and CRC before
    /// parsing: a truncated or bit-flipped file is rejected with a precise
    /// [`Error::Io`] instead of a confusing JSON parse error (or silently
    /// wrong parameters).
    pub fn load(path: impl AsRef<Path>) -> Result<Checkpoint> {
        let json = fewner_util::durable::read_verified_string(path)?;
        Checkpoint::from_json(&Json::parse(&json)?)
    }
}

impl ToJson for Checkpoint {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("version".into(), Json::from(self.version as u64)),
            ("backbone".into(), self.backbone.to_json()),
            ("meta".into(), self.meta.to_json()),
        ];
        if self.weights == WeightFormat::F32 {
            fields.push(("theta".into(), self.theta.to_json()));
        } else {
            fields.push(("weights".into(), Json::from(self.weights.name())));
            fields.push((
                "theta_q".into(),
                QuantizedParams::quantize(&self.theta, self.weights).to_json(),
            ));
        }
        Json::Obj(fields)
    }
}

impl FromJson for Checkpoint {
    fn from_json(json: &Json) -> Result<Checkpoint> {
        // Checked before any tensor is parsed, so an old file names its
        // version instead of failing on a tensor field.
        let version = json.field("version")?.as_u64()?;
        if version != CHECKPOINT_VERSION as u64 {
            return Err(Error::Serde(format!(
                "unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
            )));
        }
        let (theta, weights) = match json.get("theta_q") {
            Some(q) => {
                let q = QuantizedParams::from_json(q)?;
                (q.dequantize(), q.format)
            }
            None => (
                SavedParams::from_json(json.field("theta")?)?,
                WeightFormat::F32,
            ),
        };
        Ok(Checkpoint {
            version: CHECKPOINT_VERSION,
            backbone: SavedBackboneConfig::from_json(json.field("backbone")?)?,
            meta: MetaConfig::from_json(json.field("meta")?)?,
            theta,
            weights,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fewner_corpus::DatasetProfile;
    use fewner_models::TokenEncoder;
    use fewner_text::embed::EmbeddingSpec;

    fn setup() -> (TokenEncoder, Fewner) {
        let d = DatasetProfile::bionlp13cg().generate(0.01).unwrap();
        let enc = TokenEncoder::build(
            &[&d],
            &EmbeddingSpec {
                dim: 16,
                ..EmbeddingSpec::default()
            },
            4,
        );
        let bb = BackboneConfig {
            word_dim: 16,
            hidden: 8,
            phi_dim: 6,
            slot_ctx_dim: 2,
            ..BackboneConfig::default_for(3)
        };
        let learner = Fewner::new(bb, &enc, MetaConfig::default()).unwrap();
        (enc, learner)
    }

    #[test]
    fn capture_restore_round_trip_preserves_theta() {
        let (enc, learner) = setup();
        let ckpt = Checkpoint::capture(&learner);
        let restored = ckpt.restore(&enc).unwrap();
        assert_eq!(learner.theta.snapshot(), restored.theta.snapshot());
        assert_eq!(
            learner.backbone.config().phi_total(),
            restored.backbone.config().phi_total()
        );
    }

    #[test]
    fn file_round_trip() {
        let (enc, learner) = setup();
        let dir = std::env::temp_dir().join("fewner-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        Checkpoint::capture(&learner).save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        let restored = loaded.restore(&enc).unwrap();
        assert_eq!(learner.theta.snapshot(), restored.theta.snapshot());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn quantized_file_round_trip_is_stable() {
        let (enc, learner) = setup();
        let dir = std::env::temp_dir().join(format!("fewner-ckpt-quant-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = Checkpoint::capture(&learner);
        for format in [WeightFormat::F16, WeightFormat::I8] {
            let path = dir.join(format!("model.{}.json", format.name()));
            ckpt.save_with_weights(&path, format).unwrap();
            let loaded = Checkpoint::load(&path).unwrap();
            assert_eq!(loaded.weights, format);
            let restored = loaded.restore(&enc).unwrap();
            // Quantized θ differs from the original but only boundedly so.
            let orig = learner.theta.to_saved();
            for ((n1, a), (n2, b)) in orig.entries.iter().zip(&loaded.theta.entries) {
                assert_eq!(n1, n2);
                let worst = a
                    .data()
                    .iter()
                    .zip(b.data())
                    .map(|(x, y)| (x - y).abs())
                    .fold(0.0f32, f32::max);
                assert!(
                    worst < 0.05,
                    "`{n1}` drifted {worst} under {}",
                    format.name()
                );
            }
            // Re-saving the loaded checkpoint is lossless (idempotence).
            let path2 = dir.join(format!("model2.{}.json", format.name()));
            loaded.save(&path2).unwrap();
            let again = Checkpoint::load(&path2).unwrap();
            assert_eq!(
                again.theta.to_json().to_string(),
                loaded.theta.to_json().to_string()
            );
            // Loading + restoring equals in-memory quantize_all.
            let mut in_mem = learner.theta.clone();
            in_mem.quantize_all(format);
            assert_eq!(in_mem.snapshot(), restored.theta.snapshot());
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn quantized_payload_is_smaller_than_f32() {
        // Fixed-width hex makes the payload sizes exact: 8 digits per f32,
        // 4 per f16 word, 2 per i8 value.
        let (_, learner) = setup();
        let ckpt = Checkpoint::capture(&learner);
        let f32_doc = ckpt.to_json();
        let f32_len = f32_doc.to_string().len();
        let payload = |v: &Json, key: &str| v.field(key).unwrap().as_str().unwrap().len();
        let f32_entries = f32_doc.field("theta").unwrap().as_arr().unwrap();
        for (format, key, ratio) in [
            (WeightFormat::F16, "bits", 2),
            (WeightFormat::I8, "values", 4),
        ] {
            let mut q = ckpt.clone();
            q.quantize_weights(format);
            let q_doc = q.to_json();
            let q_entries = q_doc
                .field("theta_q")
                .unwrap()
                .field("entries")
                .unwrap()
                .as_arr()
                .unwrap();
            assert_eq!(q_entries.len(), f32_entries.len());
            for (fe, qe) in f32_entries.iter().zip(q_entries) {
                let name = fe.field("name").unwrap().as_str().unwrap();
                assert_eq!(qe.field("name").unwrap().as_str().unwrap(), name);
                let full = payload(fe.field("value").unwrap(), "bits");
                assert!(full > 0, "`{name}` is empty");
                assert_eq!(
                    payload(qe.field("value").unwrap(), key) * ratio,
                    full,
                    "`{name}`: {} payload must be exactly 1/{ratio} of f32",
                    format.name()
                );
            }
            let q_len = q_doc.to_string().len();
            assert!(
                q_len < f32_len,
                "{}: {q_len} bytes vs {f32_len} f32 bytes",
                format.name()
            );
        }
    }

    #[test]
    fn truncated_and_bit_flipped_files_are_rejected_with_io_errors() {
        let (_, learner) = setup();
        let dir = std::env::temp_dir().join(format!("fewner-ckpt-bits-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        Checkpoint::capture(&learner).save(&path).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        // Truncation (a crash without atomic rename).
        std::fs::write(&path, &pristine[..pristine.len() / 2]).unwrap();
        assert!(matches!(Checkpoint::load(&path), Err(Error::Io { .. })));

        // A single flipped payload bit (silent disk corruption).
        let mut flipped = pristine.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x08;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(Checkpoint::load(&path), Err(Error::Io { .. })));

        // The pristine bytes still load.
        std::fs::write(&path, &pristine).unwrap();
        Checkpoint::load(&path).unwrap();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn missing_file_is_an_io_error_with_the_path() {
        match Checkpoint::load("/nonexistent/fewner/model.json") {
            Err(Error::Io { path, .. }) => assert!(path.contains("model.json")),
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn version_1_files_are_rejected_before_tensors_are_parsed() {
        let (_, learner) = setup();
        let dir = std::env::temp_dir().join(format!("fewner-ckpt-v1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        let mut doc = Checkpoint::capture(&learner).to_json();
        if let Json::Obj(fields) = &mut doc {
            fields[0].1 = Json::from(1u64);
            // The old layout wrote tensors as decimal numbers.
            let old_tensor = Json::Obj(vec![
                ("rows".into(), Json::from(1usize)),
                ("cols".into(), Json::from(1usize)),
                ("data".into(), Json::Arr(vec![Json::from(0.5f32)])),
            ]);
            fields.last_mut().unwrap().1 = Json::Arr(vec![Json::Obj(vec![
                ("name".into(), Json::from("w")),
                ("value".into(), old_tensor),
            ])]);
        }
        fewner_util::durable::write_atomic(&path, doc.to_string().as_bytes()).unwrap();
        match Checkpoint::load(&path) {
            Err(Error::Serde(msg)) => {
                assert!(msg.contains("unsupported checkpoint version 1"), "{msg}")
            }
            other => panic!("version-1 checkpoint loaded: {other:?}"),
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn wrong_version_is_rejected() {
        let (enc, learner) = setup();
        let mut ckpt = Checkpoint::capture(&learner);
        ckpt.version = 99;
        assert!(ckpt.restore(&enc).is_err());
    }

    #[test]
    fn config_mapping_round_trips_all_variants() {
        for cond in [
            Conditioning::None,
            Conditioning::Film,
            Conditioning::ConcatInput,
        ] {
            for head in [
                HeadKind::Dense { n_ways: 5 },
                HeadKind::SlotShared {
                    slot_dim: 8,
                    max_slots: 16,
                },
            ] {
                let cfg = BackboneConfig {
                    conditioning: cond,
                    head,
                    phi_dim: if cond == Conditioning::None { 0 } else { 8 },
                    slot_ctx_dim: if cond == Conditioning::None { 0 } else { 4 },
                    ..BackboneConfig::default_for(5)
                };
                let saved = SavedBackboneConfig::from(&cfg);
                let back = saved.to_config().unwrap();
                assert_eq!(back.conditioning, cond);
                assert_eq!(back.head, head);
            }
        }
    }

    #[test]
    fn malformed_strings_are_rejected() {
        let (_, learner) = setup();
        let mut saved = SavedBackboneConfig::from(learner.backbone.config());
        saved.conditioning = "quantum".into();
        assert!(saved.to_config().is_err());
        let mut saved = SavedBackboneConfig::from(learner.backbone.config());
        saved.head.0 = "hydra".into();
        assert!(saved.to_config().is_err());
    }
}
