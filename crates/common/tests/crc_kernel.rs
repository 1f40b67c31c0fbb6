//! Differential test of the vendored CRC-32 kernel.
//!
//! `vendor/crc32fast` is hand-written (a slicing-by-8 table walk and a
//! PCLMULQDQ folding kernel picked at run time) and is not a workspace
//! member, so its own unit tests do not run under the workspace's
//! `cargo test`. Every frame, WAL entry, DFS sub-block and manifest in
//! the system is only as trustworthy as that crate's output, so the
//! definition of the checksum — one bit at a time, no tables, no
//! constants beyond the polynomial — is written out here and the crate
//! must agree with it at every length and alignment where a lane, word or
//! dispatch boundary could hide a mistake.

use crc32fast::Hasher;
use proptest::prelude::*;

/// CRC-32/IEEE (reflected polynomial `0xEDB88320`, init and final xor
/// all-ones), by definition.
fn reference(buf: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in buf {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// Deterministic bytes with no structure a CRC could be blind to.
fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 24) as u8
        })
        .collect()
}

#[test]
fn standard_check_values() {
    assert_eq!(crc32fast::hash(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32fast::hash(b""), 0);
    assert_eq!(reference(b"123456789"), 0xCBF4_3926);
}

#[test]
fn every_length_at_every_alignment() {
    let data = noise(1100 + 16, 0x00C0_FFEE);
    for align in 0..16 {
        for len in 0..=1100 {
            let buf = &data[align..align + len];
            assert_eq!(
                crc32fast::hash(buf),
                reference(buf),
                "len {len} at alignment {align}"
            );
        }
    }
}

#[test]
fn large_buffers() {
    for len in [4096, 16 * 1024 + 5, 64 * 1024 - 1, 64 * 1024] {
        let buf = noise(len, len as u64);
        assert_eq!(crc32fast::hash(&buf), reference(&buf), "len {len}");
    }
}

/// The data node continues a sub-block's checksum across appends, so a
/// hasher fed in two pieces — or resumed from the first piece's checksum
/// alone — must land where one shot does, wherever the cut falls.
#[test]
fn every_split_point() {
    let data = noise(600, 17);
    let want = reference(&data);
    for split in 0..=data.len() {
        let (a, b) = data.split_at(split);
        let mut h = Hasher::new();
        h.update(a);
        h.update(b);
        assert_eq!(h.finalize(), want, "split at {split}");
        let mut resumed = Hasher::new_with_initial(crc32fast::hash(a));
        resumed.update(b);
        assert_eq!(resumed.finalize(), want, "resumed at {split}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    #[test]
    fn prop_three_random_splits_match_one_shot(
        data in proptest::collection::vec(any::<u8>(), 0..3000),
        cuts in (any::<u16>(), any::<u16>(), any::<u16>()),
    ) {
        let mut cuts = [cuts.0, cuts.1, cuts.2].map(|c| c as usize % (data.len() + 1));
        cuts.sort_unstable();
        let mut h = Hasher::new();
        let mut from = 0;
        for cut in cuts {
            h.update(&data[from..cut]);
            from = cut;
        }
        h.update(&data[from..]);
        prop_assert_eq!(h.finalize(), reference(&data));
    }
}
