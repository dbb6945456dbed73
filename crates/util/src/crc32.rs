//! CRC-32 (IEEE 802.3) checksums.
//!
//! Durable files (checkpoints, training snapshots) carry a CRC over their
//! payload so that truncation and bit rot are detected at load time instead
//! of surfacing as a confusing parse error — or worse, as silently wrong
//! parameters. The workspace builds offline, so the lookup tables are
//! generated in a `const fn` rather than pulled from a crate. Updates fold
//! eight bytes per step (slicing-by-8): a multi-megabyte snapshot is
//! checksummed several times faster than bytewise, with identical digests.

/// The reflected IEEE polynomial used by zip, PNG, Ethernet, …
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes, which lets [`Crc32::update`] fold
/// eight input bytes per step (slicing-by-8) with the same digests.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Streaming CRC-32 state; feed bytes with [`Crc32::update`] and read the
/// digest with [`Crc32::finish`].
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh checksum.
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut blocks = bytes.chunks_exact(8);
        for block in &mut blocks {
            let lo = crc ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][block[4] as usize]
                ^ t[2][block[5] as usize]
                ^ t[1][block[6] as usize]
                ^ t[0][block[7] as usize];
        }
        for &b in blocks.remainder() {
            crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// The final digest.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use proptest::prelude::*;

    /// The classic one-table, one-byte-per-step CRC: the oracle the
    /// slicing-by-8 update must match digest for digest.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = Rng::new(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn slicing_by_8_matches_bytewise_for_every_short_length() {
        let data = random_bytes(64 + 8, 3);
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &data[offset..offset + len];
                assert_eq!(crc32(slice), bytewise(slice), "len {len} offset {offset}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn slicing_by_8_matches_bytewise_at_any_length_alignment_and_split(
            len in 0usize..4096,
            offset in 0usize..8,
            cuts in (0usize..4096, 0usize..4096),
            seed in 0u64..u64::MAX,
        ) {
            let data = random_bytes(offset + len, seed);
            let slice = &data[offset..];
            let expected = bytewise(slice);
            prop_assert_eq!(crc32(slice), expected);

            // Streaming through two arbitrary split points (three updates,
            // any of them possibly empty) gives the same digest.
            let (a, b) = (cuts.0 % (len + 1), cuts.1 % (len + 1));
            let (a, b) = (a.min(b), a.max(b));
            let mut c = Crc32::new();
            c.update(&slice[..a]);
            c.update(&slice[a..b]);
            c.update(&slice[b..]);
            prop_assert_eq!(c.finish(), expected);
        }
    }

    #[test]
    fn known_reference_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"durable checkpoints need integrity checks";
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn single_bit_flip_changes_digest() {
        let mut data = vec![0u8; 64];
        let base = crc32(&data);
        for byte in 0..64 {
            data[byte] ^= 1;
            assert_ne!(crc32(&data), base, "flip at byte {byte} undetected");
            data[byte] ^= 1;
        }
    }
}
