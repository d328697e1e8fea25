//! Stored profiles: the self-describing measurement bundle and its
//! server-side view evaluator.
//!
//! The serving daemon (`dcp-serve`) holds profiles far from the program
//! that produced them, but must render the exact same views the
//! in-process [`Analysis`](crate::analyze::Analysis) renders. The v2
//! profile codec already carries names for `Proc`/`StaticVar` frames; a
//! **bundle** ("DCPB") goes the rest of the way: it packages one
//! measurement's per-class encoded trees together with display names for
//! *every* frame, the source-level variable hints the heap naming rules
//! consult, the allocation metadata, and the profiler stats. A
//! [`StoredProfiles`] built from bundles implements
//! [`ProfileView`](crate::analyze::ProfileView) over those tables, so
//! `topdown`/`bottomup`/`flat`/`ranking`/`variables`/`compare` render
//! byte-identical text from either side of the wire — the invariant the
//! served-diff golden test pins.

use std::sync::Arc;

use dcp_cct::codec::{get_slice, get_varint, put_varint};
use dcp_cct::{decode, encode, validate, Cct, CodecError, Frame, IncrementalMerge, NodeId};
use dcp_runtime::ir::{Ip, Program};
use dcp_support::bytes::{Bytes, BytesMut};
use dcp_support::FxHashMap;

use crate::analyze::{resolve_frame_name, ProfileView, SymbolSource};
use crate::metrics::{StorageClass, CLASSES, WIDTH};
use crate::profiler::{MeasurementData, ProfStats};

const BUNDLE_MAGIC: &[u8; 4] = b"DCPB";
const BUNDLE_VERSION: u64 = 1;

/// One measurement, fully self-describing: per-class encoded per-thread
/// trees plus every table a remote evaluator needs to render views.
#[derive(Debug, Clone, Default)]
pub struct StoredBundle {
    /// `profiles[class][i]` — the i-th thread's encoded tree (plain v2,
    /// no per-blob name section; the bundle-level `names` table covers
    /// all frames).
    pub profiles: [Vec<Bytes>; CLASSES],
    /// Display name for every distinct frame in any tree, exactly the
    /// string [`resolve_frame_name`] produces in-process.
    pub names: FxHashMap<Frame, String>,
    /// Nonempty source-level hints by instruction (`ip -> "S_diag_j"`).
    pub hints: FxHashMap<u64, String>,
    /// Allocation metadata: `(allocation path, count, bytes, zeroed)`.
    pub alloc_info: Vec<(Vec<Frame>, u64, u64, u64)>,
    pub stats: ProfStats,
}

/// Package one node's measurement data with all symbols resolved
/// against `program`.
pub fn bundle_from_measurement(program: &Program, m: &MeasurementData) -> StoredBundle {
    let mut names: FxHashMap<Frame, String> = FxHashMap::default();
    let mut hints: FxHashMap<u64, String> = FxHashMap::default();
    for class in &m.profiles {
        for tree in class {
            for id in 0..tree.len() as u32 {
                let f = tree.frame(NodeId(id));
                names.entry(f).or_insert_with(|| resolve_frame_name(program, f));
                if let Frame::Stmt(ip) | Frame::CallSite(ip) = f {
                    let hint = program.line_info(Ip(ip)).hint;
                    if !hint.is_empty() {
                        hints.entry(ip).or_insert_with(|| hint.to_string());
                    }
                }
            }
        }
    }
    let profiles = std::array::from_fn(|class| {
        dcp_support::pool::par_map(&m.profiles[class], encode)
    });
    StoredBundle {
        profiles,
        names,
        hints,
        alloc_info: m.alloc_info.clone(),
        stats: m.stats.clone(),
    }
}

fn frame_parts(f: Frame) -> (u8, u64) {
    match f {
        Frame::Root => (0, 0),
        Frame::Proc(p) => (1, p),
        Frame::CallSite(ip) => (2, ip),
        Frame::Stmt(ip) => (3, ip),
        Frame::StaticVar(h) => (4, h),
        Frame::HeapMarker => (5, 0),
    }
}

fn frame_from(tag: u8, payload: u64) -> Result<Frame, CodecError> {
    Ok(match tag {
        0 => Frame::Root,
        1 => Frame::Proc(payload),
        2 => Frame::CallSite(payload),
        3 => Frame::Stmt(payload),
        4 => Frame::StaticVar(payload),
        5 => Frame::HeapMarker,
        t => return Err(CodecError::BadFrameTag(t)),
    })
}

fn put_frame(buf: &mut BytesMut, f: Frame) {
    let (tag, payload) = frame_parts(f);
    buf.put_u8(tag);
    put_varint(buf, payload);
}

fn get_frame(buf: &mut Bytes) -> Result<Frame, CodecError> {
    if !buf.has_remaining() {
        return Err(CodecError::Truncated);
    }
    let tag = buf.get_u8();
    let payload = get_varint(buf)?;
    frame_from(tag, payload)
}

fn put_str(buf: &mut BytesMut, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> Result<String, CodecError> {
    let len = get_varint(buf)?;
    if len > buf.remaining() as u64 {
        return Err(CodecError::Truncated);
    }
    let raw = get_slice(buf, len as usize)?;
    std::str::from_utf8(raw.as_slice())
        .map(str::to_string)
        .map_err(|_| CodecError::BadString)
}

/// A count field that the remaining input cannot possibly back (each
/// element takes at least one byte) is rejected before any allocation.
fn check_count(count: u64, buf: &Bytes) -> Result<usize, CodecError> {
    if count > buf.remaining() as u64 {
        return Err(CodecError::BadCount(count));
    }
    Ok(count as usize)
}

/// Serialize a bundle to the DCPB wire format.
pub fn encode_bundle(b: &StoredBundle) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(BUNDLE_MAGIC);
    put_varint(&mut buf, BUNDLE_VERSION);
    put_varint(&mut buf, WIDTH as u64);
    for class in &b.profiles {
        put_varint(&mut buf, class.len() as u64);
        for blob in class {
            put_varint(&mut buf, blob.len() as u64);
            buf.put_slice(blob);
        }
    }
    encode_meta_into(&mut buf, &b.names, &b.hints, &b.alloc_info, &b.stats);
    buf.freeze()
}

/// The bundle sections after the profile blobs: names, hints, alloc
/// info, stats. Shared by [`encode_bundle`] and
/// [`StoredAccumulator::encode_state`] so the two paths cannot drift a
/// byte apart.
fn encode_meta_into(
    buf: &mut BytesMut,
    names: &FxHashMap<Frame, String>,
    hints: &FxHashMap<u64, String>,
    alloc_info: &[(Vec<Frame>, u64, u64, u64)],
    stats: &ProfStats,
) {
    // Name and hint records in sorted key order, so equal bundles encode
    // to equal bytes no matter how their maps were populated.
    let mut names: Vec<(&Frame, &String)> = names.iter().collect();
    names.sort_by_key(|(f, _)| frame_parts(**f));
    put_varint(buf, names.len() as u64);
    for (f, name) in names {
        put_frame(buf, *f);
        put_str(buf, name);
    }
    let mut hints: Vec<(&u64, &String)> = hints.iter().collect();
    hints.sort_by_key(|(ip, _)| **ip);
    put_varint(buf, hints.len() as u64);
    for (ip, hint) in hints {
        put_varint(buf, *ip);
        put_str(buf, hint);
    }
    put_varint(buf, alloc_info.len() as u64);
    for (path, count, bytes, zeroed) in alloc_info {
        put_varint(buf, path.len() as u64);
        for f in path {
            put_frame(buf, *f);
        }
        put_varint(buf, *count);
        put_varint(buf, *bytes);
        put_varint(buf, *zeroed);
    }
    put_varint(buf, stats.samples);
    for v in stats.samples_by_class {
        put_varint(buf, v);
    }
    put_varint(buf, stats.allocs_seen);
    put_varint(buf, stats.allocs_tracked);
    put_varint(buf, stats.frees_seen);
    put_varint(buf, stats.unwind_frames);
    put_varint(buf, stats.overhead_cycles);
}

/// Decode an untrusted bundle. Every embedded profile blob is checked
/// by a streaming [`validate`] walk — the same parse loop a decode
/// runs, but with zero node materialization, since the blob is kept as
/// raw bytes for the incremental merge anyway — every length is checked
/// against the remaining input, duplicate name/hint keys are rejected
/// (first-wins and last-wins consumers must not be able to disagree),
/// and trailing garbage is rejected — the serve robustness sweep leans
/// on this.
pub fn decode_bundle(mut buf: Bytes) -> Result<StoredBundle, CodecError> {
    if get_slice(&mut buf, BUNDLE_MAGIC.len())?.as_slice() != BUNDLE_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = get_varint(&mut buf)?;
    if version != BUNDLE_VERSION {
        return Err(CodecError::BadFlags(version));
    }
    let width = get_varint(&mut buf)?;
    if width != WIDTH as u64 {
        return Err(CodecError::WidthMismatch { expected: WIDTH, found: width as usize });
    }
    let mut profiles: [Vec<Bytes>; CLASSES] = std::array::from_fn(|_| Vec::new());
    for class in &mut profiles {
        let count = check_count(get_varint(&mut buf)?, &buf)?;
        for _ in 0..count {
            let len = get_varint(&mut buf)?;
            if len > buf.remaining() as u64 {
                return Err(CodecError::Truncated);
            }
            let blob = get_slice(&mut buf, len as usize)?;
            let summary = validate(blob.clone())?;
            if summary.width != WIDTH {
                return Err(CodecError::WidthMismatch { expected: WIDTH, found: summary.width });
            }
            class.push(blob);
        }
    }
    let mut names: FxHashMap<Frame, String> = FxHashMap::default();
    for _ in 0..check_count(get_varint(&mut buf)?, &buf)? {
        let f = get_frame(&mut buf)?;
        let name = get_str(&mut buf)?;
        if names.insert(f, name).is_some() {
            return Err(CodecError::DuplicateKey);
        }
    }
    let mut hints: FxHashMap<u64, String> = FxHashMap::default();
    for _ in 0..check_count(get_varint(&mut buf)?, &buf)? {
        let ip = get_varint(&mut buf)?;
        let hint = get_str(&mut buf)?;
        if hints.insert(ip, hint).is_some() {
            return Err(CodecError::DuplicateKey);
        }
    }
    let mut alloc_info = Vec::new();
    for _ in 0..check_count(get_varint(&mut buf)?, &buf)? {
        let path_len = check_count(get_varint(&mut buf)?, &buf)?;
        let mut path = Vec::with_capacity(path_len);
        for _ in 0..path_len {
            path.push(get_frame(&mut buf)?);
        }
        let count = get_varint(&mut buf)?;
        let bytes = get_varint(&mut buf)?;
        let zeroed = get_varint(&mut buf)?;
        alloc_info.push((path, count, bytes, zeroed));
    }
    let mut stats = ProfStats { samples: get_varint(&mut buf)?, ..ProfStats::default() };
    for v in &mut stats.samples_by_class {
        *v = get_varint(&mut buf)?;
    }
    stats.allocs_seen = get_varint(&mut buf)?;
    stats.allocs_tracked = get_varint(&mut buf)?;
    stats.frees_seen = get_varint(&mut buf)?;
    stats.unwind_frames = get_varint(&mut buf)?;
    stats.overhead_cycles = get_varint(&mut buf)?;
    if buf.has_remaining() {
        return Err(CodecError::BadCount(buf.remaining() as u64));
    }
    Ok(StoredBundle { profiles, names, hints, alloc_info, stats })
}

/// Folds bundles into one merged profile set, amortized: per-class
/// [`IncrementalMerge`] accumulators plus unioned symbol tables. The
/// serve store keeps one of these per named profile set and snapshots a
/// [`StoredProfiles`] whenever the set's epoch advances.
///
/// Determinism: blobs are pushed in bundle-ingest order, and the
/// incremental-merge invariant makes each class tree byte-identical on
/// re-encode to one `merge_encoded` fold over that order — so a fixed
/// ingest order fixes every served byte.
///
/// The read path is incremental. The symbol tables live behind `Arc`s
/// and a [`snapshot`](Self::snapshot) hands out shared per-class tree
/// handles, so snapshotting after an ingest rebuilds (and, lazily,
/// copies) only the classes that actually received blobs — everything
/// untouched is a refcount bump. Per-class encoded bytes are cached and
/// invalidated only by an ingest into that class, so
/// [`encode_state`](Self::encode_state) re-encodes dirty classes and
/// splices cached bytes for the rest.
#[derive(Default)]
pub struct StoredAccumulator {
    merges: Option<[IncrementalMerge; CLASSES]>,
    /// `encode(tree)` per class, invalidated by an ingest into that
    /// class. Splicing a cached entry is sound because the v2 encoder is
    /// deterministic on an unchanged tree (`encode ∘ decode` is pinned
    /// byte-identical).
    cached_encoded: [Option<Bytes>; CLASSES],
    names: Arc<FxHashMap<Frame, String>>,
    hints: Arc<FxHashMap<u64, String>>,
    alloc_info: Arc<FxHashMap<Vec<Frame>, (u64, u64, u64)>>,
    stats: ProfStats,
    bundles: u64,
    blob_bytes: u64,
    /// Classes folded with blobs pending — the observable cost of the
    /// incremental read path (each one is a real merge + re-encode).
    dirty_rebuilds: u64,
}

impl StoredAccumulator {
    pub fn new() -> Self {
        Self {
            merges: Some(std::array::from_fn(|_| IncrementalMerge::new(WIDTH))),
            ..Self::default()
        }
    }

    fn merges_mut(&mut self) -> &mut [IncrementalMerge; CLASSES] {
        self.merges.get_or_insert_with(|| std::array::from_fn(|_| IncrementalMerge::new(WIDTH)))
    }

    /// Buffer one bundle's blobs and fold its metadata. O(bundle size);
    /// tree merging is deferred to [`fold`](Self::fold)/
    /// [`snapshot`](Self::snapshot). Classes that receive blobs have
    /// their cached encodings invalidated; symbol tables are cloned for
    /// writing only when the bundle actually carries a new key, so the
    /// steady state (same workload, same symbols) never copies them.
    pub fn ingest(&mut self, bundle: StoredBundle) {
        let StoredBundle { profiles, names, hints, alloc_info, stats } = bundle;
        for (class, blobs) in profiles.into_iter().enumerate() {
            if !blobs.is_empty() {
                self.cached_encoded[class] = None;
            }
            for blob in blobs {
                self.blob_bytes += blob.len() as u64;
                self.merges_mut()[class].push(blob);
            }
        }
        if names.keys().any(|f| !self.names.contains_key(f)) {
            let dst = Arc::make_mut(&mut self.names);
            for (f, n) in names {
                dst.entry(f).or_insert(n);
            }
        }
        if hints.keys().any(|ip| !self.hints.contains_key(ip)) {
            let dst = Arc::make_mut(&mut self.hints);
            for (ip, h) in hints {
                dst.entry(ip).or_insert(h);
            }
        }
        if !alloc_info.is_empty() {
            let dst = Arc::make_mut(&mut self.alloc_info);
            for (path, count, bytes, zeroed) in alloc_info {
                let e = dst.entry(path).or_insert((0, 0, 0));
                e.0 += count;
                e.1 += bytes;
                e.2 += zeroed;
            }
        }
        self.stats.merge(&stats);
        self.bundles += 1;
    }

    /// Merge everything pending into the per-class accumulators. Only
    /// classes with pending blobs do any work; each counts as one dirty
    /// rebuild.
    pub fn fold(&mut self) -> Result<(), CodecError> {
        for class in 0..CLASSES {
            let inc = &mut self.merges_mut()[class];
            let dirty = inc.pending() > 0;
            inc.fold()?;
            if dirty {
                self.dirty_rebuilds += 1;
            }
        }
        Ok(())
    }

    /// Bundles ingested so far.
    pub fn bundles(&self) -> u64 {
        self.bundles
    }

    /// Total encoded profile bytes ingested so far.
    pub fn blob_bytes(&self) -> u64 {
        self.blob_bytes
    }

    /// Folds performed across all class accumulators.
    pub fn folds(&self) -> u64 {
        self.merges.as_ref().map_or(0, |ms| ms.iter().map(IncrementalMerge::folds).sum())
    }

    /// Classes rebuilt (folded with blobs pending) so far — the work the
    /// dirty-class tracking did NOT skip. A snapshot or partial after an
    /// ingest touching one class advances this by exactly one.
    pub fn dirty_rebuilds(&self) -> u64 {
        self.dirty_rebuilds
    }

    /// The encoded bytes of one class tree, from cache when the class
    /// has not been touched since the last encode. Callers fold first.
    fn class_encoded(&mut self, class: usize) -> Result<Bytes, CodecError> {
        if self.cached_encoded[class].is_none() {
            let bytes = encode(self.merges_mut()[class].tree()?);
            self.cached_encoded[class] = Some(bytes);
        }
        Ok(self.cached_encoded[class].clone().expect("just filled"))
    }

    /// Fold and re-package the accumulated state as one self-describing
    /// bundle — the serve layer's durable snapshot record. Ingesting the
    /// returned bundle into a fresh accumulator reconstructs a state
    /// whose future merges are byte-identical to continuing with this
    /// one: the incremental-merge invariant says fold bracketing never
    /// changes the re-encoded bytes, and replacing N ingested blobs with
    /// their fold is exactly a re-bracketing.
    pub fn to_bundle(&mut self) -> Result<StoredBundle, CodecError> {
        self.fold()?;
        let mut profiles: [Vec<Bytes>; CLASSES] = std::array::from_fn(|_| Vec::new());
        for (class, out) in profiles.iter_mut().enumerate() {
            out.push(self.class_encoded(class)?);
        }
        let mut alloc_info: Vec<(Vec<Frame>, u64, u64, u64)> = self
            .alloc_info
            .iter()
            .map(|(path, &(count, bytes, zeroed))| (path.clone(), count, bytes, zeroed))
            .collect();
        alloc_info.sort();
        Ok(StoredBundle {
            profiles,
            names: (*self.names).clone(),
            hints: (*self.hints).clone(),
            alloc_info,
            stats: self.stats.clone(),
        })
    }

    /// Serialize the accumulated state straight to DCPB wire bytes —
    /// byte-identical to `encode_bundle(&self.to_bundle()?)` (a pinned
    /// test) without materializing the intermediate bundle: dirty
    /// classes re-encode, clean classes splice their cached bytes, and
    /// the metadata tail shares [`encode_bundle`]'s writer.
    pub fn encode_state(&mut self) -> Result<Bytes, CodecError> {
        self.fold()?;
        let mut buf = BytesMut::new();
        buf.put_slice(BUNDLE_MAGIC);
        put_varint(&mut buf, BUNDLE_VERSION);
        put_varint(&mut buf, WIDTH as u64);
        for class in 0..CLASSES {
            let blob = self.class_encoded(class)?;
            put_varint(&mut buf, 1);
            put_varint(&mut buf, blob.len() as u64);
            buf.put_slice(&blob);
        }
        let mut alloc_info: Vec<(Vec<Frame>, u64, u64, u64)> = self
            .alloc_info
            .iter()
            .map(|(path, &(count, bytes, zeroed))| (path.clone(), count, bytes, zeroed))
            .collect();
        alloc_info.sort();
        encode_meta_into(&mut buf, &self.names, &self.hints, &alloc_info, &self.stats);
        Ok(buf.freeze())
    }

    /// Rebuild an accumulator from a snapshot bundle plus the counters a
    /// bundle cannot carry — the inverse of [`to_bundle`](Self::to_bundle).
    ///
    /// A snapshot-shaped bundle (exactly one valid blob per class — what
    /// `to_bundle` emits) installs its decoded trees and metadata
    /// directly: zero folds, and each v2 blob becomes the class's cached
    /// encoding (sound because a v2 re-encode is pinned byte-identical).
    /// Any other shape falls back to the ingest path, whose next fold
    /// surfaces bad blobs the usual way.
    pub fn restore(bundle: StoredBundle, bundles: u64, blob_bytes: u64) -> Self {
        let snapshot_shaped = bundle.profiles.iter().all(|c| c.len() == 1);
        let decoded: Option<Vec<Cct>> = if snapshot_shaped {
            bundle
                .profiles
                .iter()
                .map(|c| decode(c[0].clone()).ok().filter(|t| t.width() == WIDTH))
                .collect()
        } else {
            None
        };
        let Some(trees) = decoded else {
            let mut acc = Self::new();
            acc.ingest(bundle);
            acc.bundles = bundles;
            acc.blob_bytes = blob_bytes;
            return acc;
        };
        let StoredBundle { profiles, names, hints, alloc_info, stats } = bundle;
        let cached_encoded = std::array::from_fn(|class| {
            let blob = &profiles[class][0];
            blob.as_slice().starts_with(b"DCP2").then(|| blob.clone())
        });
        let trees: [Cct; CLASSES] =
            trees.try_into().unwrap_or_else(|_| unreachable!("exactly CLASSES trees"));
        let merges = trees.map(IncrementalMerge::from_tree);
        Self {
            merges: Some(merges),
            cached_encoded,
            names: Arc::new(names),
            hints: Arc::new(hints),
            alloc_info: Arc::new(
                alloc_info.into_iter().map(|(p, c, b, z)| (p, (c, b, z))).collect(),
            ),
            stats,
            bundles,
            blob_bytes,
            dirty_rebuilds: 0,
        }
    }

    /// Fold and take a renderable snapshot of the current state. Classes
    /// no ingest touched hand out the same shared tree as the previous
    /// snapshot; the symbol tables are always shared.
    pub fn snapshot(&mut self) -> Result<StoredProfiles, CodecError> {
        self.fold()?;
        let mut trees = Vec::with_capacity(CLASSES);
        for inc in self.merges_mut() {
            trees.push(inc.shared_tree()?);
        }
        let trees: [Arc<Cct>; CLASSES] =
            trees.try_into().unwrap_or_else(|_| unreachable!("exactly CLASSES trees"));
        Ok(StoredProfiles {
            trees,
            names: Arc::clone(&self.names),
            hints: Arc::clone(&self.hints),
            alloc_info: Arc::clone(&self.alloc_info),
            stats: self.stats.clone(),
        })
    }

    /// Test oracle for [`snapshot`](Self::snapshot): fold, then
    /// deep-clone every class tree and every symbol table.
    #[cfg(test)]
    fn snapshot_cloned(&mut self) -> Result<StoredProfiles, CodecError> {
        self.fold()?;
        let mut trees = Vec::with_capacity(CLASSES);
        for inc in self.merges_mut() {
            trees.push(Arc::new(inc.tree()?.clone()));
        }
        let trees: [Arc<Cct>; CLASSES] =
            trees.try_into().unwrap_or_else(|_| unreachable!("exactly CLASSES trees"));
        Ok(StoredProfiles {
            trees,
            names: Arc::new((*self.names).clone()),
            hints: Arc::new((*self.hints).clone()),
            alloc_info: Arc::new((*self.alloc_info).clone()),
            stats: self.stats.clone(),
        })
    }

    /// Test oracle for [`encode_state`](Self::encode_state): fold, then
    /// re-encode every class from its tree, ignoring the cache.
    #[cfg(test)]
    fn encode_state_recoded(&mut self) -> Result<Bytes, CodecError> {
        self.fold()?;
        let mut buf = BytesMut::new();
        buf.put_slice(BUNDLE_MAGIC);
        put_varint(&mut buf, BUNDLE_VERSION);
        put_varint(&mut buf, WIDTH as u64);
        for class in 0..CLASSES {
            let blob = encode(self.merges_mut()[class].tree()?);
            put_varint(&mut buf, 1);
            put_varint(&mut buf, blob.len() as u64);
            buf.put_slice(&blob);
        }
        let mut alloc_info: Vec<(Vec<Frame>, u64, u64, u64)> = self
            .alloc_info
            .iter()
            .map(|(path, &(count, bytes, zeroed))| (path.clone(), count, bytes, zeroed))
            .collect();
        alloc_info.sort();
        encode_meta_into(&mut buf, &self.names, &self.hints, &alloc_info, &self.stats);
        Ok(buf.freeze())
    }
}

/// A merged profile set evaluated away from the producing program: the
/// per-class trees plus the symbol tables the bundles carried. An empty
/// set (nothing ever ingested) is fully defined — every view renders
/// its empty form.
///
/// Every field sits behind an `Arc`: a snapshot is a handle onto the
/// accumulator's copy-on-write state, so taking one after an ingest
/// that touched a single class clones nothing — the untouched class
/// trees and the symbol maps are shared with the previous snapshot.
#[derive(Debug, Clone)]
pub struct StoredProfiles {
    trees: [Arc<Cct>; CLASSES],
    names: Arc<FxHashMap<Frame, String>>,
    hints: Arc<FxHashMap<u64, String>>,
    alloc_info: Arc<FxHashMap<Vec<Frame>, (u64, u64, u64)>>,
    stats: ProfStats,
}

impl Default for StoredProfiles {
    fn default() -> Self {
        Self {
            trees: std::array::from_fn(|_| Arc::new(Cct::new(WIDTH))),
            names: Arc::default(),
            hints: Arc::default(),
            alloc_info: Arc::default(),
            stats: ProfStats::default(),
        }
    }
}

impl StoredProfiles {
    /// An empty profile set.
    pub fn empty() -> Self {
        Self::default()
    }

    pub fn stats(&self) -> &ProfStats {
        &self.stats
    }

    /// Re-encode one class tree (the serve `export` query; the loopback
    /// byte-identity test reads this).
    pub fn export(&self, c: StorageClass) -> Bytes {
        encode(&self.trees[c.idx()])
    }

    /// The shared handle for one class tree. Snapshot-sharing tests use
    /// `Arc::ptr_eq` on this to prove that a snapshot taken after an
    /// ingest touching one class rebuilt only that class.
    pub fn class_tree_handle(&self, c: StorageClass) -> &Arc<Cct> {
        &self.trees[c.idx()]
    }
}

impl SymbolSource for StoredProfiles {
    fn frame_name(&self, f: Frame) -> String {
        if let Some(n) = self.names.get(&f) {
            return n.clone();
        }
        // Fallbacks mirror resolve_frame_name's unresolvable forms, so a
        // bundle missing a record degrades readably instead of panicking.
        match f {
            Frame::Root => "<program root>".to_string(),
            Frame::HeapMarker => "heap data accesses".to_string(),
            Frame::Proc(p) => format!("<proc {p}>"),
            Frame::CallSite(ip) | Frame::Stmt(ip) => format!("<ip {ip:#x}>"),
            Frame::StaticVar(h) => format!("<static {h:#x}>"),
        }
    }

    fn hint(&self, ip: u64) -> Option<String> {
        self.hints.get(&ip).cloned()
    }
}

impl ProfileView for StoredProfiles {
    fn class_tree(&self, c: StorageClass) -> &Cct {
        &self.trees[c.idx()]
    }

    fn alloc_map(&self) -> &FxHashMap<Vec<Frame>, (u64, u64, u64)> {
        &self.alloc_info
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{compare_report, Analysis};
    use crate::metrics::Metric;
    use crate::view::{bottom_up, flat, ranking, top_down, TopDownOpts};

    // The same fixture the analyzer tests use: one heap variable with a
    // source hint, one static, plus unknown-class samples.
    use crate::profiler::{Profiler, ProfilerConfig};
    use dcp_machine::pmu::SampleOrigin;
    use dcp_machine::{CoreId, DataSource, Sample};
    use dcp_runtime::ir::ex::*;
    use dcp_runtime::ir::ProcId;
    use dcp_runtime::observer::{AllocEvent, ModuleEvent, NodeObserver, ThreadView};
    use dcp_runtime::{FrameInfo, ProgramBuilder};

    fn program() -> dcp_runtime::Program {
        let mut b = ProgramBuilder::new("exe");
        b.static_array("f_elem", 4096);
        let main = b.proc("main", 0, |p| {
            p.line(175);
            let a = p.calloc(c(8192), "S_diag_j");
            p.line(480);
            p.load(l(a), c(0), 8);
        });
        b.build(main)
    }

    fn measured(prog: &dcp_runtime::Program, seed: u64) -> MeasurementData {
        let mut p = Profiler::new(ProfilerConfig::default());
        p.on_module(&ModuleEvent::Loaded {
            module: dcp_runtime::ModuleId(0),
            def: &prog.modules[0],
            rank: 0,
        });
        let stack = vec![FrameInfo { proc: ProcId(0), call_site: None, token: 0 }];
        let view = ThreadView {
            rank: 0,
            thread: 0,
            core: CoreId(0),
            clock: 0,
            frames: &stack,
            leaf_ip: Ip(0),
        };
        let sample = |ea: u64, ip: u64, latency: u32, src: DataSource| Sample {
            origin: SampleOrigin::Ibs,
            precise_ip: ip,
            signal_ip: ip,
            ea: Some(ea),
            latency,
            source: Some(src),
            tlb_miss: false,
            is_store: false,
            core: CoreId(0),
        };
        let alloc_ip = Ip::new(dcp_runtime::ModuleId(0), ProcId(0), 0);
        p.on_alloc(
            &AllocEvent { addr: 0x10_0000, bytes: 8192, zeroed: true, ip: alloc_ip },
            &view,
        );
        let access_ip = Ip::new(dcp_runtime::ModuleId(0), ProcId(0), 1);
        for _ in 0..(4 + seed) {
            p.on_sample(&sample(0x10_0010, access_ip.0, 200, DataSource::RemoteDram), &view);
        }
        let static_addr = dcp_runtime::layout::global(0, prog.modules[0].statics[0].addr);
        for _ in 0..(2 + seed) {
            p.on_sample(&sample(static_addr, access_ip.0, 100, DataSource::LocalDram), &view);
        }
        p.into_measurement()
    }

    fn stored(prog: &dcp_runtime::Program, ms: &[MeasurementData]) -> StoredProfiles {
        let mut acc = StoredAccumulator::new();
        for m in ms {
            let bundle = bundle_from_measurement(prog, m);
            let wire = encode_bundle(&bundle);
            acc.ingest(decode_bundle(wire).expect("own bundle decodes"));
        }
        acc.snapshot().expect("valid blobs")
    }

    fn bytes_of(v: &[u8]) -> Bytes {
        let mut b = BytesMut::new();
        b.put_slice(v);
        b.freeze()
    }

    #[test]
    fn bundle_roundtrips_exactly() {
        let prog = program();
        let b = bundle_from_measurement(&prog, &measured(&prog, 1));
        let wire = encode_bundle(&b);
        let d = decode_bundle(wire.clone()).expect("roundtrip");
        assert_eq!(encode_bundle(&d), wire, "re-encode is byte-identical");
        assert_eq!(d.names.len(), b.names.len());
        assert_eq!(d.stats.samples, b.stats.samples);
        assert_eq!(d.stats.samples_by_class, b.stats.samples_by_class);
        assert_eq!(d.stats.overhead_cycles, b.stats.overhead_cycles);
    }

    #[test]
    fn stored_views_render_identically_to_analysis() {
        // The keystone: every view over StoredProfiles must produce the
        // exact text the in-process Analysis produces.
        let prog = program();
        let ms: Vec<MeasurementData> = (0..3).map(|s| measured(&prog, s)).collect();
        let sp = stored(&prog, &ms);
        let a = Analysis::analyze(&prog, ms);

        for metric in [Metric::Samples, Metric::Latency, Metric::Remote] {
            assert_eq!(ranking(&sp, metric, 20), ranking(&a, metric, 20));
            assert_eq!(bottom_up(&sp, metric), bottom_up(&a, metric));
            for class in StorageClass::ALL {
                assert_eq!(
                    top_down(&sp, class, metric, TopDownOpts::default()),
                    top_down(&a, class, metric, TopDownOpts::default())
                );
                assert_eq!(flat(&sp, class, metric, 20), flat(&a, class, metric, 20));
            }
        }
        let vs = sp.variables(Metric::Latency);
        let va = a.variables(Metric::Latency);
        assert_eq!(vs.len(), va.len());
        for (s, d) in vs.iter().zip(&va) {
            assert_eq!(s.name, d.name);
            assert_eq!(s.metrics, d.metrics);
            assert_eq!(s.alloc_site, d.alloc_site);
        }
    }

    #[test]
    fn stored_compare_matches_analysis_compare() {
        let prog = program();
        let before: Vec<MeasurementData> = vec![measured(&prog, 0)];
        let after: Vec<MeasurementData> = vec![measured(&prog, 5)];
        let sb = stored(&prog, &before);
        let sa = stored(&prog, &after);
        let ab = Analysis::analyze(&prog, before);
        let aa = Analysis::analyze(&prog, after);
        for metric in [Metric::Samples, Metric::Latency] {
            assert_eq!(
                compare_report(&sb, &sa, metric),
                ab.compare(&aa, metric),
                "served diff must match --compare"
            );
        }
    }

    #[test]
    fn empty_stored_profiles_render_defined_views() {
        let sp = StoredProfiles::empty();
        assert!(sp.variables(Metric::Samples).is_empty());
        let r = ranking(&sp, Metric::Latency, 10);
        assert!(r.contains("total 0"));
        let t = top_down(&sp, StorageClass::Heap, Metric::Samples, TopDownOpts::default());
        assert!(t.contains("0.0%"));
        // An accumulator nobody ingested into snapshots to the same.
        let from_acc = StoredAccumulator::new().snapshot().expect("empty is defined");
        assert_eq!(ranking(&from_acc, Metric::Latency, 10), r);
    }

    #[test]
    fn incremental_snapshots_equal_one_shot_ingest() {
        // Snapshotting mid-stream must not change the final state.
        let prog = program();
        let ms: Vec<MeasurementData> = (0..4).map(|s| measured(&prog, s)).collect();
        let mut inc = StoredAccumulator::new();
        for m in &ms {
            inc.ingest(bundle_from_measurement(&prog, m));
            let _ = inc.snapshot().expect("valid");
        }
        let one = stored(&prog, &ms);
        let last = inc.snapshot().expect("valid");
        for c in StorageClass::ALL {
            assert_eq!(last.export(c), one.export(c), "class {c:?}");
        }
        assert_eq!(ranking(&last, Metric::Latency, 20), ranking(&one, Metric::Latency, 20));
    }

    #[test]
    fn to_bundle_restore_midstream_is_byte_identical() {
        // The durability keystone: snapshot an accumulator mid-stream,
        // rebuild from the snapshot bundle (through its wire encoding,
        // as recovery does), ingest the rest — every export and view
        // must match the uninterrupted accumulator byte for byte.
        let prog = program();
        let ms: Vec<MeasurementData> = (0..4).map(|s| measured(&prog, s)).collect();
        let bundles: Vec<StoredBundle> =
            ms.iter().map(|m| bundle_from_measurement(&prog, m)).collect();

        let mut straight = StoredAccumulator::new();
        for b in &bundles {
            straight.ingest(b.clone());
        }

        let mut first = StoredAccumulator::new();
        first.ingest(bundles[0].clone());
        first.ingest(bundles[1].clone());
        let snap_wire = encode_bundle(&first.to_bundle().expect("valid blobs"));
        let snap = decode_bundle(snap_wire).expect("snapshot bundle decodes");
        let mut resumed = StoredAccumulator::restore(snap, first.bundles(), first.blob_bytes());
        assert_eq!(resumed.bundles(), 2);
        resumed.ingest(bundles[2].clone());
        resumed.ingest(bundles[3].clone());

        let a = straight.snapshot().expect("valid");
        let b = resumed.snapshot().expect("valid");
        for c in StorageClass::ALL {
            assert_eq!(a.export(c), b.export(c), "class {c:?}");
        }
        assert_eq!(ranking(&a, Metric::Latency, 20), ranking(&b, Metric::Latency, 20));
        assert_eq!(bottom_up(&a, Metric::Remote), bottom_up(&b, Metric::Remote));
        assert_eq!(a.stats().samples, b.stats().samples);
        let va = a.variables(Metric::Latency);
        let vb = b.variables(Metric::Latency);
        assert_eq!(va.len(), vb.len());
        for (x, y) in va.iter().zip(&vb) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.metrics, y.metrics);
            assert_eq!((x.alloc_count, x.alloc_bytes), (y.alloc_count, y.alloc_bytes));
        }
    }

    #[test]
    fn bundle_decode_rejects_corruption_with_typed_errors() {
        let prog = program();
        let wire = encode_bundle(&bundle_from_measurement(&prog, &measured(&prog, 1)));
        // Every truncation.
        for cut in 0..wire.len() {
            let r = decode_bundle(wire.slice(0..cut));
            assert!(r.is_err(), "truncation at {cut} must fail");
        }
        // Bad magic.
        let mut bad = wire.to_vec();
        bad[0] ^= 0xff;
        assert!(matches!(decode_bundle(bytes_of(&bad)), Err(CodecError::BadMagic)));
        // Trailing garbage.
        let mut long = wire.to_vec();
        long.push(0);
        assert!(decode_bundle(bytes_of(&long)).is_err());
    }

    #[test]
    fn restore_installs_without_folding() {
        // The regression the direct constructor exists for: rebuilding
        // from a snapshot bundle must not fold (the old path round-
        // tripped through ingest and paid a spurious full merge).
        let prog = program();
        let mut acc = StoredAccumulator::new();
        for s in 0..3 {
            acc.ingest(bundle_from_measurement(&prog, &measured(&prog, s)));
        }
        let wire = encode_bundle(&acc.to_bundle().expect("valid blobs"));
        let snap = decode_bundle(wire).expect("snapshot bundle decodes");
        let mut resumed = StoredAccumulator::restore(snap, acc.bundles(), acc.blob_bytes());
        assert_eq!(resumed.folds(), 0, "restore must install, not re-merge");
        assert_eq!(resumed.dirty_rebuilds(), 0);
        // Snapshotting the untouched restore still does no merge work,
        // and serves the exact bytes of the original accumulator.
        let sp = resumed.snapshot().expect("valid");
        assert_eq!(resumed.folds(), 0);
        assert_eq!(resumed.dirty_rebuilds(), 0);
        let orig = acc.snapshot().expect("valid");
        for c in StorageClass::ALL {
            assert_eq!(sp.export(c), orig.export(c), "class {c:?}");
        }
        // And its encoded state splices the cached snapshot blobs
        // without a single re-encode-triggering fold.
        assert_eq!(
            resumed.encode_state().expect("valid"),
            encode_bundle(&acc.to_bundle().expect("valid"))
        );
        assert_eq!(resumed.folds(), 0);
    }

    #[test]
    fn encode_state_matches_encode_bundle_bytes() {
        // encode_state (the cached-splice path) must be byte-identical
        // to encode_bundle(to_bundle()) at every point in a stream.
        let prog = program();
        let bundles: Vec<StoredBundle> =
            (0..3).map(|s| bundle_from_measurement(&prog, &measured(&prog, s))).collect();
        let mut fast = StoredAccumulator::new();
        let mut slow = StoredAccumulator::new();
        for b in &bundles {
            fast.ingest(b.clone());
            slow.ingest(b.clone());
            assert_eq!(
                fast.encode_state().expect("valid"),
                encode_bundle(&slow.to_bundle().expect("valid"))
            );
        }
        // A second encode with nothing new serves entirely from cache.
        let rebuilds = fast.dirty_rebuilds();
        assert_eq!(
            fast.encode_state().expect("valid"),
            encode_bundle(&slow.to_bundle().expect("valid"))
        );
        assert_eq!(fast.dirty_rebuilds(), rebuilds, "clean encode must not rebuild");
    }

    #[test]
    fn incremental_reads_match_the_recode_and_clone_oracles() {
        // A clean ingest touching several classes, then heap-only deltas:
        // after every epoch the cached-splice encoding and the shared-tree
        // snapshot must equal the re-encode-everything and
        // deep-clone-everything oracles byte for byte.
        let prog = program();
        let mut acc = StoredAccumulator::new();
        let first = bundle_from_measurement(&prog, &measured(&prog, 0));
        let touched = first.profiles.iter().filter(|c| !c.is_empty()).count() as u64;
        assert!(touched > 1, "the clean ingest must span several classes");
        acc.ingest(first);
        for epoch in 0..4 {
            if epoch > 0 {
                let mut delta = bundle_from_measurement(&prog, &measured(&prog, epoch));
                for c in StorageClass::ALL.into_iter().filter(|&c| c != StorageClass::Heap) {
                    delta.profiles[c.idx()].clear();
                }
                acc.ingest(delta);
            }
            assert_eq!(
                acc.encode_state().expect("valid"),
                acc.encode_state_recoded().expect("valid"),
                "epoch {epoch}"
            );
            let shared = acc.snapshot().expect("valid");
            let cloned = acc.snapshot_cloned().expect("valid");
            for c in StorageClass::ALL {
                assert_eq!(shared.export(c), cloned.export(c), "epoch {epoch} class {c:?}");
            }
        }
        // Each heap-only delta rebuilt exactly one class.
        assert_eq!(acc.dirty_rebuilds(), touched + 3);
    }

    /// A hand-assembled bundle with no profile blobs and the given name
    /// and hint records, in the order given — the encoder can't emit
    /// duplicates (its maps dedup), so adversarial wire is built here.
    fn meta_wire(names: &[(Frame, &str)], hints: &[(u64, &str)]) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_slice(BUNDLE_MAGIC);
        put_varint(&mut buf, BUNDLE_VERSION);
        put_varint(&mut buf, WIDTH as u64);
        for _ in 0..CLASSES {
            put_varint(&mut buf, 0);
        }
        put_varint(&mut buf, names.len() as u64);
        for (f, n) in names {
            put_frame(&mut buf, *f);
            put_str(&mut buf, n);
        }
        put_varint(&mut buf, hints.len() as u64);
        for (ip, h) in hints {
            put_varint(&mut buf, *ip);
            put_str(&mut buf, h);
        }
        put_varint(&mut buf, 0); // alloc_info
        let stat_fields = 1 + ProfStats::default().samples_by_class.len() + 5;
        for _ in 0..stat_fields {
            put_varint(&mut buf, 0);
        }
        buf.freeze()
    }

    #[test]
    fn bundle_decode_rejects_duplicate_keys() {
        // Distinct keys decode fine.
        let ok = meta_wire(
            &[(Frame::Proc(1), "a"), (Frame::Proc(2), "b")],
            &[(0x10, "x"), (0x20, "y")],
        );
        let d = decode_bundle(ok).expect("distinct keys decode");
        assert_eq!(d.names.len(), 2);
        assert_eq!(d.hints.len(), 2);
        // A repeated name key is a typed error, even with an identical
        // value: first-wins (ingest) and last-wins (a naive map build)
        // consumers must never be able to disagree about a bundle.
        let dup_name = meta_wire(&[(Frame::Proc(1), "a"), (Frame::Proc(1), "a")], &[]);
        assert!(matches!(decode_bundle(dup_name), Err(CodecError::DuplicateKey)));
        let dup_name2 = meta_wire(&[(Frame::Proc(1), "a"), (Frame::Proc(1), "b")], &[]);
        assert!(matches!(decode_bundle(dup_name2), Err(CodecError::DuplicateKey)));
        // Same for hints.
        let dup_hint = meta_wire(&[], &[(0x10, "x"), (0x10, "y")]);
        assert!(matches!(decode_bundle(dup_hint), Err(CodecError::DuplicateKey)));
    }

    /// A bundle touching only the heap class, for the dirty-class tests.
    fn heap_only_bundle(seed: u64) -> StoredBundle {
        let mut t = Cct::new(WIDTH);
        t.insert_path(vec![Frame::HeapMarker, Frame::Proc(seed % 3)], 0, 1 + seed);
        let mut b = StoredBundle::default();
        b.profiles[StorageClass::Heap.idx()].push(encode(&t));
        b.stats.samples = 1 + seed;
        b
    }

    #[test]
    fn snapshot_shares_every_untouched_class() {
        let mut acc = StoredAccumulator::new();
        acc.ingest(heap_only_bundle(1));
        let s1 = acc.snapshot().expect("valid");
        assert_eq!(acc.dirty_rebuilds(), 1, "one class received blobs");
        acc.ingest(heap_only_bundle(2));
        let s2 = acc.snapshot().expect("valid");
        assert_eq!(acc.dirty_rebuilds(), 2, "still only the heap class rebuilt");
        for c in StorageClass::ALL {
            if c == StorageClass::Heap {
                assert!(
                    !Arc::ptr_eq(s1.class_tree_handle(c), s2.class_tree_handle(c)),
                    "the dirty class must be a fresh tree"
                );
            } else {
                assert!(
                    Arc::ptr_eq(s1.class_tree_handle(c), s2.class_tree_handle(c)),
                    "untouched class {c:?} must share its tree across snapshots"
                );
            }
        }
        // Symbol tables are shared too (no names ingested, no copy).
        assert!(Arc::ptr_eq(&s1.names, &s2.names));
        assert!(Arc::ptr_eq(&s1.alloc_info, &s2.alloc_info));
        // The earlier snapshot stayed immutable: it still renders the
        // single-bundle heap total.
        assert_eq!(s1.class_tree(StorageClass::Heap).total(0), 2);
        assert_eq!(s2.class_tree(StorageClass::Heap).total(0), 5);
    }
}
