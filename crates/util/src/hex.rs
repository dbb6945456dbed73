//! Fixed-width lowercase hex encoding of tensor words.
//!
//! Durable formats (checkpoints, training snapshots, persisted φ) and the
//! shard gradient exchange store every tensor as the exact bit patterns of
//! its values: one JSON string holding [`HexWord::DIGITS`] lowercase hex
//! digits per value. Bit patterns round-trip exactly by construction —
//! NaN payloads, ±∞, `-0.0` and subnormals included — and a tensor costs
//! one JSON node instead of one per value.
//!
//! Decoding is strict: the text length must be a multiple of the word
//! width and every digit must be one of `0-9a-f`; anything else is an
//! [`Error::Serde`], never a panic.

use crate::error::{Error, Result};

/// A value stored as a fixed number of hex digits.
pub trait HexWord: Copy {
    /// Hex digits per value (two per byte of the bit pattern).
    const DIGITS: usize;
    /// The value's bit pattern, zero-extended.
    fn to_word(self) -> u32;
    /// The value with bit pattern `word` (only the low `4 · DIGITS` bits
    /// can be set).
    fn from_word(word: u32) -> Self;
}

impl HexWord for f32 {
    const DIGITS: usize = 8;
    fn to_word(self) -> u32 {
        self.to_bits()
    }
    fn from_word(word: u32) -> f32 {
        f32::from_bits(word)
    }
}

impl HexWord for u16 {
    const DIGITS: usize = 4;
    fn to_word(self) -> u32 {
        self as u32
    }
    fn from_word(word: u32) -> u16 {
        word as u16
    }
}

impl HexWord for i8 {
    const DIGITS: usize = 2;
    fn to_word(self) -> u32 {
        self as u8 as u32
    }
    fn from_word(word: u32) -> i8 {
        word as u8 as i8
    }
}

const DIGIT_CHARS: &[u8; 16] = b"0123456789abcdef";

/// Nibble value of each byte, or `INVALID` for anything but `0-9a-f`.
const INVALID: u8 = 0xFF;
static NIBBLE: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut i = 0;
    while i < 16 {
        table[DIGIT_CHARS[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// The two hex digits of every byte value.
static BYTE_DIGITS: [[u8; 2]; 256] = {
    let mut table = [[0u8; 2]; 256];
    let mut i = 0;
    while i < 256 {
        table[i] = [DIGIT_CHARS[i >> 4], DIGIT_CHARS[i & 0xF]];
        i += 1;
    }
    table
};

/// Encodes `values` as `W::DIGITS` lowercase hex digits each, most
/// significant digit first.
pub fn encode<W: HexWord>(values: &[W]) -> String {
    let mut out = vec![0u8; values.len() * W::DIGITS];
    for (chunk, &v) in out.chunks_exact_mut(W::DIGITS).zip(values) {
        let word = v.to_word();
        for (i, pair) in chunk.chunks_exact_mut(2).enumerate() {
            let shift = 4 * (W::DIGITS - 2 - 2 * i);
            pair.copy_from_slice(&BYTE_DIGITS[((word >> shift) & 0xFF) as usize]);
        }
    }
    String::from_utf8(out).expect("hex digits are ASCII")
}

/// Decodes text written by [`encode`].
pub fn decode<W: HexWord>(text: &str) -> Result<Vec<W>> {
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(W::DIGITS) {
        return Err(Error::Serde(format!(
            "hex tensor of {} digits is not a whole number of {}-digit values",
            bytes.len(),
            W::DIGITS
        )));
    }
    let mut values = Vec::with_capacity(bytes.len() / W::DIGITS);
    for (i, chunk) in bytes.chunks_exact(W::DIGITS).enumerate() {
        let mut word = 0u32;
        let mut bad = 0u8;
        for &b in chunk {
            let nibble = NIBBLE[b as usize];
            bad |= nibble;
            word = (word << 4) | (nibble & 0xF) as u32;
        }
        if bad == INVALID {
            return Err(Error::Serde(format!(
                "hex tensor value {i} `{}` is not lowercase hex",
                String::from_utf8_lossy(chunk)
            )));
        }
        values.push(W::from_word(word));
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_width_round_trips_its_extremes() {
        let f = [
            0.0f32,
            -0.0,
            1.0,
            f32::INFINITY,
            f32::from_bits(0x7fc0_1234),
        ];
        assert_eq!(
            encode(&f),
            concat!("00000000", "80000000", "3f800000", "7f800000", "7fc01234")
        );
        let back: Vec<f32> = decode(&encode(&f)).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&f));

        let h = [0u16, 0x3c00, 0xffff];
        assert_eq!(encode(&h), "00003c00ffff");
        assert_eq!(decode::<u16>(&encode(&h)).unwrap(), h);

        let q = [-127i8, -1, 0, 1, 127];
        assert_eq!(encode(&q), "81ff00017f");
        assert_eq!(decode::<i8>(&encode(&q)).unwrap(), q);

        assert!(decode::<f32>("").unwrap().is_empty());
    }
}
