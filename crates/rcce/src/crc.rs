//! CRC-32 (IEEE 802.3) payload checksums.
//!
//! The real RCCE moves payloads through MPB windows and DRAM partitions
//! with no end-to-end integrity check; the fault-tolerant protocol in
//! [`crate::comm`] adds one so injected corruption (see
//! `scc_sim::fault`) is detected rather than silently propagated into
//! frames. The native runner's frame codec checksums every strip twice
//! per hop (once on encode, once on decode), and a 400×200 RGBA strip is
//! 320 KB, so this function sits on the native pipeline's hot path.
//!
//! Reflected polynomial `0xEDB88320`, computed slicing-by-16: sixteen
//! `const`-built 256-entry tables, where table `k` advances a byte's
//! contribution past `k` further bytes, fold 16 input bytes per step with
//! 16 independent lookups. A byte-at-a-time tail handles the last
//! `len % 16` bytes. The values are bit-identical to the classic
//! byte-at-a-time table loop, which the tests keep as an oracle.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC
/// state contribution of byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
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
    while k < 16 {
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

static TABLES: [[u32; 256]; 16] = build_tables();

/// CRC-32/ISO-HDLC of `data` (the common "crc32" with init and final
/// XOR of `0xFFFFFFFF`).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let b: &[u8; 16] = block.try_into().expect("16-byte block");
        let x = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][x as u8 as usize]
            ^ t[14][(x >> 8) as u8 as usize]
            ^ t[13][(x >> 16) as u8 as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &byte in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][(crc as u8 ^ byte) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time table loop: the test oracle for [`crc32`].
    fn reference(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// Deterministic pseudo-random bytes (SplitMix64).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // The standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        for v in [&b"123456789"[..], b"", b"a"] {
            assert_eq!(reference(v), crc32(v));
        }
    }

    #[test]
    fn matches_reference_at_every_short_length_and_offset() {
        // Lengths around the 16-byte block size, starting at every
        // alignment, so every split between blocks and tail is covered.
        let buf = noise(64 + 16, 1);
        for off in 0..16 {
            for len in 0..=64 {
                let s = &buf[off..off + len];
                assert_eq!(crc32(s), reference(s), "offset {off} length {len}");
            }
        }
    }

    #[test]
    fn matches_reference_on_large_random_buffers() {
        for (seed, len) in [(2u64, 1 << 20), (3, 320_000), (4, 65_537), (5, 1_000_003)] {
            let buf = noise(len, seed);
            assert_eq!(crc32(&buf), reference(&buf), "seed {seed} length {len}");
        }
    }

    proptest! {
        #[test]
        fn matches_reference_on_arbitrary_bytes(data in prop::collection::vec(any::<u8>(), 0..4096)) {
            prop_assert_eq!(crc32(&data), reference(&data));
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        for len in [4096usize, 320_000] {
            let data = vec![0xA5u8; len];
            let base = crc32(&data);
            for byte in [0usize, 1, 15, 16, 100, len / 2, len - 17, len - 1] {
                for bit in 0..8 {
                    let mut mutated = data.clone();
                    mutated[byte] ^= 1 << bit;
                    assert_ne!(
                        crc32(&mutated),
                        base,
                        "flip at {byte}:{bit} of {len} undetected"
                    );
                }
            }
        }
    }
}
