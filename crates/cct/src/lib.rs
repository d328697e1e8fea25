//! # dcp-cct — calling context trees for data-centric profiles
//!
//! The central data structure of the `memgaze` profiler (reproduction of
//! Liu & Mellor-Crummey, SC'13): calling context trees with per-node
//! metric vectors, data-centric dummy frames (static-variable nodes and
//! the heap-data marker), a compact versioned binary profile codec (the
//! paper's space-overhead story — LEB128 v1 plus the delta/sparse v2
//! with streaming, hardened decoding), and merging: a sequential fold in
//! memory and a one-accumulator streaming fold out-of-core over encoded
//! profiles (the paper's analysis-scalability story; its cross-process
//! reduction tree is the serving tier's shard → router combine).

pub mod codec;
pub mod diff;
pub mod merge;
pub mod tree;

pub use codec::{
    decode, decode_named, encode, encode_named, encode_v1, merge_into, validate, CodecError,
    MetricRecord, NodeRecord, ProfileEvent, ProfileNames, ProfileReader, ProfileSummary,
    StringTable,
};
pub use diff::{diff, DiffEntry, ProfileDiff};
pub use merge::{merge_encoded, merge_sequential, IncrementalMerge};
pub use tree::{Cct, Frame, NodeId, ROOT};

#[cfg(test)]
mod proptests {
    use dcp_support::prop::{vec, Just, Strategy, StrategyExt};
    use dcp_support::{one_of, props};

    use crate::codec::{
        decode, decode_named, encode, encode_named, encode_v1, ProfileNames, ProfileReader,
    };
    use crate::merge::{merge_encoded, merge_sequential, IncrementalMerge};
    use crate::tree::{Cct, Frame, ROOT};

    fn arb_frame() -> impl Strategy<Value = Frame> {
        one_of![
            (0u64..20).prop_map(Frame::Proc),
            (0u64..50).prop_map(Frame::CallSite),
            (0u64..50).prop_map(Frame::Stmt),
            (0u64..10).prop_map(Frame::StaticVar),
            Just(Frame::HeapMarker),
        ]
    }

    /// Frames with payloads spread across the whole u64 range, so the
    /// zigzag deltas see large magnitudes of both signs.
    fn arb_wide_frame() -> impl Strategy<Value = Frame> {
        one_of![
            (0u64..u64::MAX).prop_map(Frame::Proc),
            (0u64..u64::MAX).prop_map(Frame::CallSite),
            (0u64..u64::MAX).prop_map(Frame::Stmt),
            (0u64..u64::MAX).prop_map(Frame::StaticVar),
            Just(Frame::HeapMarker),
        ]
    }

    fn arb_cct() -> impl Strategy<Value = Cct> {
        // Random paths with random metric additions.
        vec((vec(arb_frame(), 1..8), 0u64..1_000_000, 0usize..2), 0..40).prop_map(|paths| {
            let mut t = Cct::new(2);
            for (path, v, m) in paths {
                t.insert_path(path, m, v);
            }
            t
        })
    }

    /// Deeper, sparser trees with extreme payloads and metric values:
    /// the stress shape for the wire format (arbitrary depth, sparsity).
    fn arb_deep_cct() -> impl Strategy<Value = Cct> {
        vec((vec(arb_wide_frame(), 1..20), 0u64..u64::MAX, 0usize..3), 0..24).prop_map(|paths| {
            let mut t = Cct::new(3);
            for (path, v, m) in paths {
                t.insert_path(path, m, v);
            }
            t
        })
    }

    /// Unicode-ish names: ASCII, Greek, CJK, and an emoji, so the string
    /// table proves it carries arbitrary UTF-8, not just identifiers.
    fn arb_name() -> impl Strategy<Value = String> {
        vec(
            one_of![0x20u32..0x7f, 0x3b1u32..0x3ca, 0x4e00u32..0x4e20, Just(0x1f600u32)],
            0..12,
        )
        .prop_map(|cps| cps.into_iter().filter_map(char::from_u32).collect())
    }

    props! {
        cases = 64;

        /// v2 roundtrip preserves everything observable.
        fn codec_roundtrip(t in arb_cct()) {
            let back = decode(encode(&t)).unwrap();
            assert_eq!(t.canonical(), back.canonical());
            assert_eq!(t.len(), back.len());
        }

        /// v1 roundtrip: the legacy format still decodes, losslessly.
        fn codec_v1_roundtrip(t in arb_cct()) {
            let back = decode(encode_v1(&t)).unwrap();
            assert_eq!(t.canonical(), back.canonical());
            assert_eq!(t.len(), back.len());
        }

        /// Deep trees with extreme payloads roundtrip through both
        /// formats, and v2 re-encoding is a fixed point (encode∘decode
        /// is the identity on the byte stream).
        fn codec_roundtrip_deep(t in arb_deep_cct()) {
            let v2 = encode(&t);
            let back = decode(v2.clone()).unwrap();
            assert_eq!(t.canonical(), back.canonical());
            assert_eq!(encode(&back), v2);
            let back1 = decode(encode_v1(&t)).unwrap();
            assert_eq!(t.canonical(), back1.canonical());
        }

        /// Frame names survive the v2 name section, including unicode
        /// and duplicate strings (which must dedup, not collide).
        fn codec_named_roundtrip(t in arb_cct(), names in vec((0u64..20, arb_name()), 0..10)) {
            let mut pn = ProfileNames::default();
            for (p, name) in &names {
                pn.name(Frame::Proc(*p), name);
            }
            let bytes = encode_named(&t, &pn);
            let (back, got) = decode_named(bytes.clone()).unwrap();
            assert_eq!(t.canonical(), back.canonical());
            for (p, _) in &names {
                // Later names for the same frame overwrite earlier ones,
                // so compare against the encoder's own view.
                assert_eq!(got.lookup(Frame::Proc(*p)), pn.lookup(Frame::Proc(*p)));
            }
            // The streaming reader sees the same names without decoding.
            let reader = ProfileReader::new(bytes).unwrap();
            for (p, _) in &names {
                assert_eq!(reader.names().lookup(Frame::Proc(*p)), pn.lookup(Frame::Proc(*p)));
            }
        }

        /// Out-of-core merge over encoded profiles re-encodes to the
        /// exact bytes of the in-memory merge.
        fn streamed_merge_matches_in_memory(ts in vec(arb_cct(), 0..10)) {
            let blobs = ts.iter().map(encode).collect();
            let streamed = merge_encoded(blobs, 2).unwrap();
            let in_mem = merge_sequential(ts, 2);
            assert_eq!(encode(&streamed), encode(&in_mem));
        }

        /// Folding pushed blobs at arbitrary points — empty and
        /// single-blob batches included, wire versions mixed — serves
        /// the exact bytes of one streamed fold over all blobs and of
        /// the in-memory fold. `folds[0]` folds
        /// before the first push, `folds[i + 1]` after blob `i`.
        fn incremental_folds_match_one_fold(
            ts in vec(arb_cct(), 0..24),
            folds in vec(0usize..3, 25..26),
        ) {
            let blobs: Vec<_> = ts
                .iter()
                .enumerate()
                .map(|(i, t)| if i % 2 == 0 { encode(t) } else { encode_v1(t) })
                .collect();
            let mut inc = IncrementalMerge::new(2);
            for _ in 0..folds[0] {
                inc.fold().unwrap();
            }
            for (b, &n) in blobs.iter().zip(&folds[1..]) {
                inc.push(b.clone());
                for _ in 0..n {
                    inc.fold().unwrap();
                }
            }
            let got = encode(inc.tree().unwrap());
            assert_eq!(got, encode(&merge_encoded(blobs, 2).unwrap()));
            assert_eq!(got, encode(&merge_sequential(ts, 2)));
        }

        /// Merging conserves metric totals.
        fn merge_conserves_totals(ts in vec(arb_cct(), 0..12)) {
            let want0: u64 = ts.iter().map(|t| t.total(0)).sum();
            let want1: u64 = ts.iter().map(|t| t.total(1)).sum();
            let merged = merge_sequential(ts, 2);
            assert_eq!(merged.total(0), want0);
            assert_eq!(merged.total(1), want1);
        }

        /// Inclusive(root) equals the metric total, for every column.
        fn inclusive_root_is_total(t in arb_cct()) {
            for m in 0..2 {
                let inc = t.inclusive(m);
                assert_eq!(inc[ROOT.0 as usize], t.total(m));
            }
        }

        /// Inclusive value of a parent is at least that of each child.
        fn inclusive_is_monotone(t in arb_cct()) {
            let inc = t.inclusive(0);
            for n in t.preorder() {
                for c in t.children(n) {
                    assert!(inc[n.0 as usize] >= inc[c.0 as usize]);
                }
            }
        }
    }
}
