//! Golden digest of served int8 answers.
//!
//! `predict_int8` is what the server returns in int8 mode. Its answers
//! must not change when the int8 kernels or the weight layout change:
//! every kernel tier computes the same integers, and the dequantization
//! epilogue keeps its order of operations. This test hashes the
//! `to_bits` of every `(page, offset, probability)` answer of a seeded
//! dense model and a seeded hierarchical model at batch 1, 3 and 8, and
//! compares against a digest recorded before the int8 weights moved to
//! the packed panel layout.
//!
//! The shapes are chosen to hit the kernels' edges: LSTM gate widths
//! of 4 × 21 = 84 columns (five full 16-column panels plus a 4-column
//! tail), reduction depths that are not multiples of 4, a dense page
//! head of 77 classes and hierarchical branch blocks of 12 columns.
//!
//! The probabilities go through `exp`, so the digest is pinned for
//! x86-64 Linux, the platform the repository is built and tested on.

use voyager::{OutputHead, SeqBatch, VoyagerConfig, VoyagerModel};

/// FNV-1a over a stream of `u32` words.
fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn cfg(head: OutputHead) -> VoyagerConfig {
    VoyagerConfig {
        pc_embed: 7,
        page_embed: 9,
        lstm_units: 21,
        seed: 0x5EED_1A7E,
        ..VoyagerConfig::test()
    }
    .with_output_head(head)
}

fn batch(b: usize, l: usize, pages: usize) -> SeqBatch {
    SeqBatch {
        pc: (0..b)
            .map(|i| (0..l).map(|t| (i * 3 + t) % 11).collect())
            .collect(),
        page: (0..b)
            .map(|i| (0..l).map(|t| (i * 7 + t * 5) % pages).collect())
            .collect(),
        offset: (0..b)
            .map(|i| (0..l).map(|t| (i * 13 + t * 17) % 64).collect())
            .collect(),
    }
}

/// Digest of `predict_int8` answers (top 6) over batch 1, 3 and 8.
fn digest(head: OutputHead, pages: usize) -> u64 {
    let cfg = cfg(head);
    let mut m = VoyagerModel::new(&cfg, 11, pages, 64);
    let mut words = Vec::new();
    for b in [1, 3, 8] {
        let answers = m.predict_int8(&batch(b, cfg.seq_len, pages), 6);
        assert_eq!(answers.len(), b);
        for row in &answers {
            words.push(row.len() as u32);
            for &(page, offset, p) in row {
                words.extend([page, offset, p.to_bits()]);
            }
        }
    }
    fnv1a(words)
}

#[test]
fn dense_int8_answers_match_recorded_digest() {
    assert_eq!(digest(OutputHead::Dense, 77), 0xdabb_3cb7_0535_e494);
}

#[test]
fn hier_int8_answers_match_recorded_digest() {
    assert_eq!(digest(OutputHead::Hier, 140), 0x9a3a_8a54_2acd_dbf8);
}
