//! Pass digests pinned for the benchmark's default seeds.
//!
//! A pass digest folds the virtual outputs of every scenario of the
//! first pass (makespans, the virtual-time `SimStats` counters,
//! per-core instants, payload hashes, recovery counters), but not the
//! engine's own bookkeeping (`events`, `heap_pushes`,
//! `coalesced_steps`, `handoffs`). The simulator is deterministic, so a
//! change that only speeds up the host must reproduce these exactly.
//! For any other seed the benchmark prints the digest instead, for
//! comparing a parent and a change by hand.

use crate::workload::Workload;

/// `(workload, seed, pass digest)`.
const PINNED: &[(&str, u64, u64)] = &[
    ("bulk_bcast", 1, 0xd5a8_9cef_7b75_c512),
    ("bulk_bcast", 2, 0x1716_de0a_097a_ae06),
    ("bulk_bcast", 3, 0x75a6_8193_39cf_ce16),
    ("bulk_bcast", 4, 0xaee5_6065_0a2c_70b6),
    ("bulk_bcast", 5, 0x563c_93b5_13ed_29f8),
    ("bulk_bcast", 6, 0x52e6_9a76_0a5f_399d),
    ("bulk_bcast", 7, 0x27c0_4548_baef_ac45),
    ("bulk_bcast", 8, 0x18ae_375c_852f_e704),
    ("bulk_bcast", 9, 0x966b_b9b5_a556_d436),
    ("bulk_bcast", 10, 0x2452_e6b0_ae0b_46c4),
    ("small_bcast", 1, 0x561f_1e00_1ac9_72f1),
    ("small_bcast", 2, 0xaa88_8579_cab8_9ded),
    ("small_bcast", 3, 0xba77_138a_cc80_5885),
    ("small_bcast", 4, 0xa942_82a6_14ab_9d3c),
    ("small_bcast", 5, 0xd863_9e99_db33_144c),
    ("small_bcast", 6, 0xed89_3491_fac0_4d1b),
    ("small_bcast", 7, 0xe963_51d2_e571_74b3),
    ("small_bcast", 8, 0x6b2a_5fba_9f0e_c4f1),
    ("small_bcast", 9, 0xe1e2_d3a1_ec51_14d4),
    ("small_bcast", 10, 0xe0ad_9300_0a96_ba49),
    ("audited_soak", 1, 0x6564_7c06_6f72_fc37),
    ("audited_soak", 2, 0x1c12_b070_6e61_d1af),
    ("audited_soak", 3, 0x67d3_06f3_7ea8_ad62),
    ("audited_soak", 4, 0x0f80_b75b_ef1a_55b7),
    ("audited_soak", 5, 0x172d_d3ae_7943_3fb2),
    ("audited_soak", 6, 0xe86b_48e2_12b5_621f),
    ("audited_soak", 7, 0x067b_47dd_abc2_3a42),
    ("audited_soak", 8, 0xea5b_e67f_93e0_4494),
    ("audited_soak", 9, 0xec5d_5d72_ab29_88b7),
    ("audited_soak", 10, 0x65d9_3d4f_25cd_5d6b),
];

/// The pinned pass digest of `(workload, seed)`, if there is one.
pub fn digest(w: Workload, seed: u64) -> Option<u64> {
    PINNED.iter().find(|(name, s, _)| *name == w.name() && *s == seed).map(|&(_, _, d)| d)
}
