//! Scalable profile merging.
//!
//! The paper's post-mortem analyzer merges per-thread profiles across
//! threads and processes with an MPI reduction tree so that merge time
//! grows logarithmically with parallelism (§4.2, citing Tallent et al.).
//! Here that tree is the serving tier's ranks → owning shard → router
//! combine (DESIGN.md, "Sharded scatter-gather: the distributed
//! reduction tree"). In memory there is no tree: [`merge_sequential`]
//! folds the trees left to right into the first one. A fork-join
//! reduction tree measured slower on every paper-size analysis, with
//! identical encoded bytes (`reproduce T1 F4/5 F8/9 F10 F11`, 2-core
//! host):
//!
//! | trees merged | fork-join tree | sequential fold |
//! | --- | --- | --- |
//! | 120 | 206 µs | 53 µs |
//! | 240 | 693 µs | 310 µs |
//! | 245 | 346 µs | 57 µs |
//! | 1460 | 1629 µs | 1419 µs |
//!
//! [`merge_encoded`] takes *encoded* profiles instead and folds them
//! into one accumulator in input order, streaming each blob in via
//! [`crate::codec::merge_into`] without materializing it, so peak memory
//! is a single merged profile — not O(sum of all K inputs) — which is
//! what lets a post-mortem pass over thousands of per-thread profiles
//! run on a laptop. It builds no tree either: a reduction over encoded
//! blobs has to decode every leaf pair into a fresh `Cct` (every node
//! allocated, a new index grown) and then merge those trees back up, and
//! on a 2-core host that made the serving daemon's racing dashboard
//! refresh ~6x slower (median 17.7 ms vs 3.0 ms) than this
//! one-accumulator fold. Folding contiguous chunks in parallel on the
//! pool measured within ~15 % of the single fold there (faster median,
//! slower tail) and would put the pool back on the daemon's read path,
//! so it is not used. Every merge path appends first-touch nodes in
//! the walked operand's creation order, so any bracketing of the same
//! operand order produces byte-identical re-encodings (a property the
//! tests pin).

use std::sync::Arc;

use dcp_support::bytes::Bytes;

use crate::codec::{merge_into, CodecError};
use crate::tree::Cct;

/// Fold `profiles` left to right into the first one — the in-memory
/// merge. Returns an empty tree of `width` columns when the list is
/// empty.
pub fn merge_sequential(profiles: Vec<Cct>, width: usize) -> Cct {
    let mut it = profiles.into_iter();
    let mut acc = it.next().unwrap_or_else(|| Cct::new(width));
    for p in it {
        acc.merge_from(&p);
    }
    acc
}

/// Out-of-core streaming fold over *encoded* profiles (either wire
/// version, mixed freely): every blob streams, in input order, into one
/// fresh accumulator of `width` columns, without ever materializing an
/// input tree. Re-encoding
/// the result is byte-identical to decoding everything up front and
/// merging in memory with [`merge_sequential`].
/// Fails with the decode error of the first bad blob in input order.
pub fn merge_encoded(blobs: Vec<Bytes>, width: usize) -> Result<Cct, CodecError> {
    let mut acc = Cct::new(width);
    for b in blobs {
        merge_into(&mut acc, b)?;
    }
    Ok(acc)
}

/// Amortized incremental merge: an accumulator plus a buffer of pending
/// encoded blobs. [`push`](IncrementalMerge::push) is O(1); each
/// [`fold`](IncrementalMerge::fold) streams the pending batch into one
/// fresh batch tree ([`merge_encoded`]) and merges that tree into the
/// accumulator, so adding K blobs to an N-blob set costs one batch fold
/// plus one tree merge — never a re-merge of all N+K inputs. Folding
/// into a separate batch tree is what keeps the accumulator untouched
/// when a blob in the batch turns out to be bad; it is also cheaper than
/// validating the batch and then streaming every blob straight into the
/// (much larger) accumulator, which measured ~2x slower on the serving
/// daemon's racing refresh.
///
/// **Invariant** (pinned by tests): after any sequence of pushes and
/// folds, `tree()` re-encodes byte-identically to [`merge_encoded`]
/// over the same blobs in push order. This holds because every merge
/// path appends first-touch nodes in the walked operand's creation
/// order, so the final creation order is the order of first appearance
/// across the flattened blob list regardless of how the folds were
/// bracketed. The serving layer's concurrent ingest leans on this: fold
/// blobs in client-assigned sequence order and the served profile is
/// deterministic.
///
/// The accumulator lives behind an [`Arc`] so readers can take a
/// zero-copy handle ([`shared_tree`](Self::shared_tree)) — a snapshot of
/// an unchanged class is one refcount bump. A later fold copies the
/// tree only if a reader still holds it (`Arc::make_mut`), so the deep
/// clone happens at most once per outstanding snapshot, and never for
/// classes no ingest touched.
pub struct IncrementalMerge {
    acc: Arc<Cct>,
    pending: Vec<Bytes>,
    pending_bytes: usize,
    blobs: u64,
    folds: u64,
}

impl IncrementalMerge {
    /// An empty accumulator for profiles of `width` metric columns.
    pub fn new(width: usize) -> Self {
        Self::from_tree(Cct::new(width))
    }

    /// An accumulator seeded with an already-merged tree — the restore
    /// path installs a decoded snapshot directly instead of re-folding
    /// its own encoding.
    pub fn from_tree(tree: Cct) -> Self {
        Self { acc: Arc::new(tree), pending: Vec::new(), pending_bytes: 0, blobs: 0, folds: 0 }
    }

    pub fn width(&self) -> usize {
        self.acc.width()
    }

    /// Buffer one encoded profile. The blob is not validated here; a bad
    /// blob surfaces as a typed error from the next [`fold`].
    pub fn push(&mut self, blob: Bytes) {
        self.pending_bytes += blob.len();
        self.pending.push(blob);
        self.blobs += 1;
    }

    /// Number of blobs buffered since the last fold.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Encoded bytes buffered since the last fold.
    pub fn pending_bytes(&self) -> usize {
        self.pending_bytes
    }

    /// Total blobs ever pushed.
    pub fn blobs(&self) -> u64 {
        self.blobs
    }

    /// Number of folds performed (for the server's merge counter).
    pub fn folds(&self) -> u64 {
        self.folds
    }

    /// Merge the pending batch into the accumulator. A no-op when
    /// nothing is pending. On a decode error the accumulator is
    /// unchanged and the pending batch is dropped (the caller is
    /// expected to have validated blobs it cares about before pushing).
    pub fn fold(&mut self) -> Result<(), CodecError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let batch = std::mem::take(&mut self.pending);
        self.pending_bytes = 0;
        let merged = merge_encoded(batch, self.acc.width())?;
        Arc::make_mut(&mut self.acc).merge_from(&merged);
        self.folds += 1;
        Ok(())
    }

    /// Fold anything pending and return the merged tree.
    pub fn tree(&mut self) -> Result<&Cct, CodecError> {
        self.fold()?;
        Ok(&self.acc)
    }

    /// Fold anything pending and return a shared handle to the merged
    /// tree. When nothing was pending this clones nothing — the same
    /// `Arc` is handed out again, which is what makes snapshotting an
    /// untouched class free.
    pub fn shared_tree(&mut self) -> Result<Arc<Cct>, CodecError> {
        self.fold()?;
        Ok(Arc::clone(&self.acc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode, encode_v1};
    use crate::tree::{Frame, ROOT};

    fn make_profile(seed: u64, paths: usize) -> Cct {
        let mut t = Cct::new(2);
        for i in 0..paths as u64 {
            let p = t.child(ROOT, Frame::Proc(1 + (seed + i) % 3));
            let c = t.child(p, Frame::CallSite(100 + (seed * 7 + i) % 10));
            let s = t.child(c, Frame::Stmt(1000 + i % 5));
            t.add(s, 0, seed + i);
            t.add(s, 1, 1);
        }
        t
    }

    #[test]
    fn empty_input_yields_empty_tree() {
        let t = merge_sequential(Vec::new(), 4);
        assert!(t.is_empty());
        assert_eq!(t.width(), 4);
    }

    #[test]
    fn single_profile_passthrough() {
        let p = make_profile(3, 5);
        let want = p.canonical();
        let got = merge_sequential(vec![p], 2);
        assert_eq!(got.canonical(), want);
    }

    #[test]
    fn totals_are_conserved() {
        let profiles: Vec<Cct> = (0..64).map(|s| make_profile(s, 11)).collect();
        let want0: u64 = profiles.iter().map(|p| p.total(0)).sum();
        let want1: u64 = profiles.iter().map(|p| p.total(1)).sum();
        let merged = merge_sequential(profiles, 2);
        assert_eq!(merged.total(0), want0);
        assert_eq!(merged.total(1), want1);
    }

    #[test]
    fn merged_size_is_compact() {
        // 64 threads with identical path sets coalesce to one path set.
        let profiles: Vec<Cct> = (0..64).map(|_| make_profile(1, 23)).collect();
        let one_size = profiles[0].len();
        let merged = merge_sequential(profiles, 2);
        assert_eq!(merged.len(), one_size, "identical profiles must fully coalesce");
    }

    #[test]
    fn streamed_merge_is_byte_identical_to_in_memory() {
        // The acceptance bar: out-of-core and in-memory merges must not
        // just agree canonically — their re-encodings must be the same
        // bytes.
        let profiles: Vec<Cct> = (0..37).map(|s| make_profile(s, 13)).collect();
        let blobs: Vec<Bytes> = profiles.iter().map(encode).collect();
        let in_mem = merge_sequential(profiles, 2);
        let streamed = merge_encoded(blobs, 2).expect("valid blobs");
        assert_eq!(encode(&streamed), encode(&in_mem));
    }

    #[test]
    fn streamed_merge_of_many_profiles_is_byte_identical() {
        // Hundreds of profiles per pool slot: the streamed fold must
        // still produce the exact bytes of the in-memory fold.
        let n = 512 * dcp_support::pool::parallelism();
        let profiles: Vec<Cct> = (0..n as u64).map(|s| make_profile(s, 5)).collect();
        let blobs: Vec<Bytes> = profiles.iter().map(encode).collect();
        let in_mem = merge_sequential(profiles, 2);
        let streamed = merge_encoded(blobs, 2).expect("valid blobs");
        assert_eq!(encode(&streamed), encode(&in_mem));
    }

    #[test]
    fn streamed_merge_accepts_mixed_wire_versions() {
        // Old v1 profiles and new v2 profiles merge together seamlessly.
        let profiles: Vec<Cct> = (0..12).map(|s| make_profile(s, 9)).collect();
        let blobs: Vec<Bytes> = profiles
            .iter()
            .enumerate()
            .map(|(i, p)| if i % 2 == 0 { encode(p) } else { encode_v1(p) })
            .collect();
        let in_mem = merge_sequential(profiles, 2);
        let streamed = merge_encoded(blobs, 2).expect("valid blobs");
        assert_eq!(encode(&streamed), encode(&in_mem));
    }

    #[test]
    fn streamed_sequential_fold_matches_in_memory_fold() {
        let profiles: Vec<Cct> = (0..19).map(|s| make_profile(s, 7)).collect();
        let blobs: Vec<Bytes> = profiles.iter().map(encode).collect();
        let in_mem = merge_sequential(profiles, 2);
        let streamed = merge_encoded(blobs, 2).expect("valid blobs");
        assert_eq!(encode(&streamed), encode(&in_mem));
    }

    #[test]
    fn streamed_merge_empty_and_single() {
        let empty = merge_encoded(Vec::new(), 3).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.width(), 3);

        let p = make_profile(4, 6);
        let merged = merge_encoded(vec![encode(&p)], 2).unwrap();
        assert_eq!(encode(&merged), encode(&p), "single blob round-trips");
    }

    #[test]
    fn incremental_merge_is_byte_identical_to_sequential_fold() {
        // Fold at several irregular points; the result must still be the
        // exact bytes of one sequential fold over the whole push order.
        let profiles: Vec<Cct> = (0..29).map(|s| make_profile(s, 11)).collect();
        let blobs: Vec<Bytes> = profiles.iter().map(encode).collect();

        let mut inc = IncrementalMerge::new(2);
        for (i, b) in blobs.iter().enumerate() {
            inc.push(b.clone());
            if i % 7 == 3 {
                inc.fold().expect("valid blobs");
            }
        }
        assert!(inc.pending() > 0, "test must exercise a trailing fold");
        let want = merge_encoded(blobs, 2).expect("valid blobs");
        assert_eq!(encode(inc.tree().expect("valid blobs")), encode(&want));
        assert_eq!(inc.blobs(), 29);
        assert!(inc.folds() >= 4);
        assert_eq!(inc.pending_bytes(), 0);
    }

    #[test]
    fn incremental_merge_empty_yields_empty_tree() {
        // The empty-ingest edge: a set nobody ever ingested into must
        // serve a defined, empty profile — never an error or panic.
        let mut inc = IncrementalMerge::new(3);
        let t = inc.tree().expect("empty is defined");
        assert!(t.is_empty());
        assert_eq!(t.width(), 3);
        assert_eq!(encode(t), encode(&Cct::new(3)));
    }

    #[test]
    fn incremental_merge_bad_blob_keeps_accumulator() {
        let good = encode(&make_profile(2, 6));
        let mut inc = IncrementalMerge::new(2);
        inc.push(good.clone());
        inc.fold().expect("valid blob");
        let before = encode(inc.tree().expect("folded"));

        inc.push(good.slice(0..good.len() - 3));
        assert_eq!(inc.fold().unwrap_err(), CodecError::Truncated);
        assert_eq!(inc.pending(), 0, "bad batch is dropped");
        assert_eq!(encode(inc.tree().expect("acc intact")), before);

        // A bad blob in the middle of a 5-blob batch: neither the good
        // blobs streamed before it nor its own valid prefix may leak
        // into the accumulator.
        for s in 0..5 {
            if s == 2 {
                let blob = encode(&make_profile(9, 4));
                inc.push(blob.slice(0..blob.len() - 3));
            } else {
                inc.push(encode(&make_profile(10 + s, 6)));
            }
        }
        assert_eq!(inc.pending(), 5);
        assert_eq!(inc.fold().unwrap_err(), CodecError::Truncated);
        assert_eq!(inc.pending(), 0, "bad batch is dropped");
        assert_eq!(encode(inc.tree().expect("acc intact")), before);
    }

    #[test]
    fn shared_tree_is_copy_on_write() {
        let mut inc = IncrementalMerge::new(2);
        inc.push(encode(&make_profile(1, 5)));
        let a = inc.shared_tree().expect("valid");
        let b = inc.shared_tree().expect("valid");
        assert!(Arc::ptr_eq(&a, &b), "no ingest between snapshots: same handle");
        let before = encode(&a);

        // A fold while a reader holds the tree must not mutate the
        // reader's view — the accumulator copies, the handle doesn't.
        inc.push(encode(&make_profile(2, 5)));
        let c = inc.shared_tree().expect("valid");
        assert!(!Arc::ptr_eq(&a, &c), "fold under an outstanding handle re-arcs");
        assert_eq!(encode(&a), before, "outstanding snapshot is immutable");
        assert_ne!(encode(&c), before);
    }

    #[test]
    fn from_tree_installs_without_folding() {
        let t = make_profile(3, 7);
        let want = encode(&t);
        let mut inc = IncrementalMerge::from_tree(t);
        assert_eq!(inc.folds(), 0);
        assert_eq!(encode(inc.tree().expect("no pending")), want);
        assert_eq!(inc.folds(), 0, "reading an installed tree folds nothing");
        assert_eq!(inc.width(), 2);
    }

    #[test]
    fn streamed_merge_propagates_decode_errors() {
        let good = encode(&make_profile(1, 4));
        let bad = good.slice(0..good.len() - 2);
        let blobs = vec![good.clone(), bad, good.clone()];
        assert_eq!(merge_encoded(blobs, 2).unwrap_err(), CodecError::Truncated);

        // Width mismatches are typed errors too, not asserts.
        let err = merge_encoded(vec![good], 5).unwrap_err();
        assert_eq!(err, CodecError::WidthMismatch { expected: 5, found: 2 });
    }

    #[test]
    fn streamed_merge_reports_the_first_bad_blob_in_input_order() {
        let good = encode(&make_profile(1, 4));
        let truncated = good.slice(0..good.len() - 2);
        let wide = encode(&Cct::new(5));
        let err = merge_encoded(vec![good.clone(), truncated.clone(), wide.clone()], 2);
        assert_eq!(err.unwrap_err(), CodecError::Truncated);
        let err = merge_encoded(vec![good, wide, truncated], 2);
        assert_eq!(err.unwrap_err(), CodecError::WidthMismatch { expected: 2, found: 5 });
    }
}
