//! Single-file index bundles.
//!
//! The paper's deployment story is build-once/search-forever, which
//! needs the graph *and* the vectors it indexes to travel together
//! (they must stay aligned: a graph over a different row order is
//! silently wrong). The bundle format keeps them in one artifact:
//!
//! ```text
//! magic "CGIX" | version u32 | metric u8 | dim u64 | n u64
//! | relabel u8 [ | n * u32 old_of_new ]          (version >= 2)
//! | storage u8                                   (version >= 3)
//! | storage 0: n * dim f32 vectors | CAGR graph blob
//! | storage 1: codebook blob | n * m codes | CAGR graph blob
//! |            pad u8 | pad zero bytes | n * dim f32 vectors
//! ```
//!
//! Version 2 added the locality-relabel section: a strategy tag (0 =
//! not relabeled) followed, when nonzero, by the `old_of_new`
//! permutation that maps internal row positions back to original ids.
//! Version-1 bundles load unchanged as identity-labeled indexes.
//!
//! Version 3 adds the storage tag, and every bundle is written as v3.
//! Tag 0 is the plain f32 layout of v2; tag 1 is a product-quantized
//! bundle: the codebook and `n x m` code matrix (internal row order,
//! matching the graph), then the graph, then the **full-precision
//! vectors in original id order**, zero-padded so the f32 region starts
//! on an 8-byte-aligned file offset. The loader memory-maps that tail
//! region ([`crate::mmap::MmapVectors`]) and attaches it as the index's
//! two-phase rerank source, so a multi-million-point bundle keeps only
//! `m` bytes per vector resident.
//!
//! There is one loader, [`read_bundle`], which takes whichever storage
//! a file carries, plus one typed wrapper, [`read_index_pq`], for
//! callers that need the PQ index. Both read a path, so every
//! allocation a header sizes is first checked against the bytes the
//! file actually holds: a corrupt header is a typed error, never an
//! abort.

use crate::mmap::MmapVectors;
use crate::search::index::CagraIndex;
use dataset::pq::{PqCodebook, PqStore};
use dataset::{Dataset, VectorStore};
use distance::Metric;
use graph::relabel::{IdMap, Permutation, RelabelStrategy};
use std::io::{self, BufReader, Read, Write};
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"CGIX";
/// The version every bundle is written as (the reader also takes 1, 2).
const VERSION: u32 = 3;
/// Storage tags (v3+).
const STORAGE_F32: u8 = 0;
const STORAGE_PQ: u8 = 1;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn metric_tag(m: Metric) -> u8 {
    match m {
        Metric::SquaredL2 => 0,
        Metric::InnerProduct => 1,
        Metric::Cosine => 2,
    }
}

fn tag_metric(t: u8) -> io::Result<Metric> {
    match t {
        0 => Ok(Metric::SquaredL2),
        1 => Ok(Metric::InnerProduct),
        2 => Ok(Metric::Cosine),
        other => Err(invalid(format!("bad metric tag {other}"))),
    }
}

/// The bundle prefix: header, relabel section and storage tag
/// (everything before the storage-dependent body).
fn write_prefix<S: VectorStore, W: Write>(
    w: &mut W,
    index: &CagraIndex<S>,
    storage: u8,
) -> io::Result<()> {
    let store = index.store();
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&[metric_tag(index.metric())])?;
    w.write_all(&(store.dim() as u64).to_le_bytes())?;
    w.write_all(&(store.len() as u64).to_le_bytes())?;
    match index.id_map() {
        None => w.write_all(&[0u8])?,
        Some(m) => {
            w.write_all(&[m.strategy.tag()])?;
            let mut raw = Vec::with_capacity(m.len() * 4);
            for &old in m.perm.old_of_new_slice() {
                raw.extend_from_slice(&old.to_le_bytes());
            }
            w.write_all(&raw)?;
        }
    }
    w.write_all(&[storage])
}

/// Stream f32 values little-endian in bounded chunks.
fn write_f32s<W: Write>(w: &mut W, flat: &[f32]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(64 * 1024);
    for chunk in flat.chunks(16 * 1024) {
        buf.clear();
        for &x in chunk {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        w.write_all(&buf)?;
    }
    Ok(())
}

/// Serialize a full index (vectors + graph + metric) to one stream.
pub fn write_index<W: Write>(mut w: W, index: &CagraIndex<Dataset>) -> io::Result<()> {
    write_prefix(&mut w, index, STORAGE_F32)?;
    write_f32s(&mut w, index.store().as_flat())?;
    graph::io::write_fixed(&mut w, index.graph())?;
    // A buffered writer dropped unflushed would swallow a failed last write.
    w.flush()
}

/// Serialize a product-quantized index: codes + graph up front, then
/// `full`'s f32 rows as the 8-aligned tail region [`read_bundle`]
/// memory-maps for the two-phase rerank.
///
/// `full` must hold the full-precision vectors in **original** id
/// order (the order before any locality relabel — search results carry
/// original ids, so the rerank source never needs the permutation);
/// a `full` of another shape than the index is an
/// [`io::ErrorKind::InvalidInput`] error.
pub fn write_index_pq<W: Write>(
    w: W,
    index: &CagraIndex<PqStore>,
    full: &Dataset,
) -> io::Result<()> {
    let store = index.store();
    let (rows, want) = ((full.len(), full.dim()), (store.len(), store.dim()));
    if rows != want {
        let msg = format!("full-precision rows are {rows:?} (n, dim) but the index is {want:?}");
        return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
    }
    let mut w = CountWriter { inner: w, pos: 0 };
    write_prefix(&mut w, index, STORAGE_PQ)?;
    store.codebook().write_to(&mut w)?;
    w.write_all(store.codes())?;
    graph::io::write_fixed(&mut w, index.graph())?;
    // One pad-length byte plus that many zeros lands the f32 region on
    // an 8-aligned offset (mmap hands out 4-aligned f32 rows, and 8
    // keeps the door open for wider payloads).
    let pad = ((8 - (w.pos + 1) % 8) % 8) as u8;
    w.write_all(&[pad])?;
    w.write_all(&[0u8; 8][..pad as usize])?;
    debug_assert_eq!(w.pos % 8, 0);
    write_f32s(&mut w, full.as_flat())?;
    w.flush()
}

/// Which body follows the bundle prefix.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Storage {
    F32,
    Pq,
}

/// Everything before the storage-dependent body: the fixed header, the
/// relabel section (version >= 2; version 1 predates relabeling and is
/// identity-labeled) and the storage tag (version >= 3; earlier
/// versions are always plain f32).
struct Prefix {
    metric: Metric,
    dim: usize,
    n: usize,
    id_map: Option<IdMap>,
    storage: Storage,
}

fn read_prefix<R: Read>(r: &mut CountReader<R>) -> io::Result<Prefix> {
    let mut header = [0u8; 4 + 4 + 1 + 8 + 8];
    r.read_exact(&mut header)?;
    if &header[0..4] != MAGIC {
        return Err(invalid("bad index magic"));
    }
    let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if version == 0 || version > VERSION {
        return Err(invalid(format!("unsupported index version {version}")));
    }
    let metric = tag_metric(header[8])?;
    let dim = u64::from_le_bytes(header[9..17].try_into().unwrap()) as usize;
    let n = u64::from_le_bytes(header[17..25].try_into().unwrap()) as usize;
    if dim == 0 {
        return Err(invalid("zero dimension"));
    }
    let id_map = if version >= 2 { read_id_map(r, n)? } else { None };
    let storage = if version >= 3 {
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)?;
        match tag[0] {
            STORAGE_F32 => Storage::F32,
            STORAGE_PQ => Storage::Pq,
            other => return Err(invalid(format!("bad storage tag {other}"))),
        }
    } else {
        Storage::F32
    };
    Ok(Prefix { metric, dim, n, id_map, storage })
}

fn read_graph<R: Read>(r: R, n: usize) -> io::Result<graph::FixedDegreeGraph> {
    let g = graph::io::read_fixed(r)?;
    if g.len() != n {
        return Err(invalid(format!("graph covers {} nodes but bundle has {n} vectors", g.len())));
    }
    Ok(g)
}

/// The plain-f32 body: `n * dim` vectors, then the graph.
fn read_f32_body<R: Read>(mut r: CountReader<R>, p: Prefix) -> io::Result<CagraIndex<Dataset>> {
    let total =
        p.n.checked_mul(p.dim)
            .and_then(|t| t.checked_mul(4))
            .ok_or_else(|| invalid("index size overflow"))?;
    let body = r.read_vec(total, "vector block")?;
    let flat: Vec<f32> =
        body.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect();
    let store = Dataset::from_flat(flat, p.dim);
    let g = read_graph(r, p.n)?;
    Ok(CagraIndex::from_parts_mapped(store, g, p.metric, p.id_map))
}

/// The PQ body: codebook, codes and graph are read into memory; the
/// trailing full-precision region of `path` is memory-mapped
/// ([`MmapVectors`]) and attached as the index's rerank source.
fn read_pq_body<R: Read>(
    r: &mut CountReader<R>,
    p: Prefix,
    path: &Path,
) -> io::Result<CagraIndex<PqStore>> {
    // The codebook stores at least one f32 per dimension: a header
    // `dim` the file cannot hold is refused before its tables are sized.
    if (p.dim as u64).saturating_mul(4) > r.remaining() {
        return Err(invalid(format!("dimension {} exceeds what the file holds", p.dim)));
    }
    let codebook = PqCodebook::read_from(r, p.dim)?;
    let code_bytes =
        p.n.checked_mul(codebook.m()).ok_or_else(|| invalid("code matrix overflow"))?;
    let codes = r.read_vec(code_bytes, "code matrix")?;
    let g = read_graph(&mut *r, p.n)?;
    let mut pad = [0u8; 1];
    r.read_exact(&mut pad)?;
    if pad[0] >= 8 {
        return Err(invalid("bad vector-region padding"));
    }
    let mut padding = [0u8; 8];
    r.read_exact(&mut padding[..pad[0] as usize])?;
    let vec_off = r.pos;
    if !vec_off.is_multiple_of(8) {
        return Err(invalid("misaligned vector region"));
    }
    let store = PqStore::from_parts(Arc::new(codebook), codes, p.n);
    let vectors = MmapVectors::open(path, vec_off, p.n, p.dim)?;
    let mut index = CagraIndex::from_parts_mapped(store, g, p.metric, p.id_map);
    index.set_rerank_store(Box::new(vectors));
    Ok(index)
}

fn open_bundle(path: &Path) -> io::Result<(CountReader<BufReader<std::fs::File>>, Prefix)> {
    let file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    let mut r = CountReader { inner: BufReader::new(file), pos: 0, len };
    let prefix = read_prefix(&mut r)?;
    Ok((r, prefix))
}

/// A loaded bundle of either storage flavour.
pub enum Bundle {
    /// Plain f32 vectors (any version).
    F32(CagraIndex<Dataset>),
    /// Product-quantized codes with a memory-mapped rerank tail (v3).
    Pq(CagraIndex<PqStore>),
}

/// Load a bundle from disk, whichever storage it carries.
pub fn read_bundle(path: &Path) -> io::Result<Bundle> {
    let (mut r, prefix) = open_bundle(path)?;
    match prefix.storage {
        Storage::F32 => read_f32_body(r, prefix).map(Bundle::F32),
        Storage::Pq => read_pq_body(&mut r, prefix, path).map(Bundle::Pq),
    }
}

/// Load a product-quantized v3 bundle from disk. Searches with
/// `rerank_depth > 0` work out of the box (the full-precision tail is
/// mapped, not read) while resident memory stays at `m` bytes per
/// vector.
pub fn read_index_pq(path: &Path) -> io::Result<CagraIndex<PqStore>> {
    let (mut r, prefix) = open_bundle(path)?;
    if prefix.storage != Storage::Pq {
        return Err(invalid("bundle stores plain f32 vectors; load it with read_bundle"));
    }
    read_pq_body(&mut r, prefix, path)
}

/// Write adapter tracking the absolute byte position — lets the PQ
/// writer compute the padding that 8-aligns the f32 region.
struct CountWriter<W> {
    inner: W,
    pos: u64,
}

impl<W: Write> Write for CountWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let written = self.inner.write(buf)?;
        self.pos += written as u64;
        Ok(written)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Read adapter tracking the absolute byte position — yields the file
/// offset of the mapped vector region after the sequential prefix —
/// against the file's length, which bounds every header-sized read.
struct CountReader<R> {
    inner: R,
    pos: u64,
    len: u64,
}

impl<R: Read> CountReader<R> {
    fn remaining(&self) -> u64 {
        self.len.saturating_sub(self.pos)
    }

    /// Read `bytes` bytes of a section the header sized, refusing
    /// before allocating when the file cannot hold them.
    fn read_vec(&mut self, bytes: usize, what: &str) -> io::Result<Vec<u8>> {
        let left = self.remaining();
        if bytes as u64 > left {
            return Err(invalid(format!(
                "{what} claims {bytes} bytes but only {left} remain in the file"
            )));
        }
        let mut buf = vec![0u8; bytes];
        self.read_exact(&mut buf)?;
        Ok(buf)
    }
}

impl<R: Read> Read for CountReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let read = self.inner.read(buf)?;
        self.pos += read as u64;
        Ok(read)
    }
}

/// Read the version-2 relabel section: a strategy tag, then (when the
/// tag is nonzero) the `old_of_new` permutation, validated as a
/// bijection so a corrupt bundle fails here instead of panicking (or
/// silently mis-mapping) at search time.
fn read_id_map<R: Read>(r: &mut CountReader<R>, n: usize) -> io::Result<Option<IdMap>> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    let strategy = match tag[0] {
        0 => return Ok(None),
        t => RelabelStrategy::from_tag(t).ok_or_else(|| invalid(format!("bad relabel tag {t}")))?,
    };
    let bytes = n.checked_mul(4).ok_or_else(|| invalid("permutation size overflow"))?;
    let raw = r.read_vec(bytes, "relabel permutation")?;
    let old_of_new: Vec<u32> =
        raw.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect();
    let mut seen = vec![false; n];
    for &old in &old_of_new {
        if (old as usize) >= n || std::mem::replace(&mut seen[old as usize], true) {
            return Err(invalid(format!("relabel permutation is not a bijection over {n} nodes")));
        }
    }
    Ok(Some(IdMap { perm: Permutation::from_old_of_new(old_of_new), strategy }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::GraphConfig;
    use crate::params::SearchParams;
    use dataset::synth::{Family, SynthSpec};

    fn build() -> CagraIndex<Dataset> {
        let (base, _) =
            SynthSpec { dim: 12, n: 300, queries: 0, family: Family::Gaussian, seed: 31 }
                .generate();
        CagraIndex::build(base, Metric::SquaredL2, &GraphConfig::new(8)).0
    }

    fn tmpfile(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("cagra_bundle_{}_{tag}.cgix", std::process::id()))
    }

    /// Load `bytes` through [`read_bundle`] from a temp file named by
    /// `tag` (tests run in parallel, so every call site uses its own).
    fn load(tag: &str, bytes: &[u8]) -> io::Result<Bundle> {
        let path = tmpfile(tag);
        std::fs::write(&path, bytes).unwrap();
        let out = read_bundle(&path);
        std::fs::remove_file(&path).ok();
        out
    }

    /// [`load`] a bundle that must carry plain f32 storage.
    fn load_f32(tag: &str, bytes: &[u8]) -> io::Result<CagraIndex<Dataset>> {
        match load(tag, bytes)? {
            Bundle::F32(index) => Ok(index),
            Bundle::Pq(_) => panic!("f32 bundle loaded as PQ"),
        }
    }

    fn write(index: &CagraIndex<Dataset>) -> Vec<u8> {
        let mut buf = Vec::new();
        write_index(&mut buf, index).unwrap();
        buf
    }

    #[test]
    fn bundle_round_trip_searches_identically() {
        let index = build();
        let back = load_f32("rt", &write(&index)).unwrap();
        assert_eq!(back.metric(), Metric::SquaredL2);
        assert_eq!(back.graph(), index.graph());
        let q: Vec<f32> = index.store().row(5).to_vec();
        let p = SearchParams::for_k(5);
        assert_eq!(index.search(&q, 5, &p), back.search(&q, 5, &p));
    }

    #[test]
    fn corrupt_magic_and_version_rejected() {
        let buf = write(&build());
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(load_f32("bad_magic", &bad).is_err());
        let mut bad = buf.clone();
        bad[4] = 9;
        assert!(load_f32("bad_version", &bad).is_err());
        let mut bad = buf;
        bad[8] = 7; // invalid metric tag
        assert!(load_f32("bad_metric", &bad).is_err());
    }

    #[test]
    fn truncated_bundle_rejected() {
        let mut buf = write(&build());
        buf.truncate(buf.len() / 2);
        assert!(load_f32("trunc", &buf).is_err());
    }

    #[test]
    fn relabeled_bundle_round_trips_map_and_results() {
        let mut index = build();
        let q: Vec<f32> = index.store().row(5).to_vec();
        let p = SearchParams::for_k(5);
        let baseline = index.search(&q, 5, &p);
        index.relabel(crate::RelabelStrategy::Rcm);
        let back = load_f32("relabel_rt", &write(&index)).unwrap();
        let m = back.id_map().expect("relabeled bundle must carry its map");
        assert_eq!(m.strategy, crate::RelabelStrategy::Rcm);
        assert_eq!(m.perm, index.id_map().unwrap().perm);
        assert_eq!(back.search(&q, 5, &p), baseline);
    }

    /// Rewrite an unrelabeled v3 f32 bundle as an older version: v2
    /// drops the storage tag (offset 26), v1 also drops the relabel tag
    /// (offset 25, right after the header).
    fn downgrade(mut buf: Vec<u8>, version: u32) -> Vec<u8> {
        assert_eq!(buf[4..8], VERSION.to_le_bytes());
        assert_eq!((buf[25], buf[26]), (0, STORAGE_F32), "unrelabeled f32 bundle");
        buf[4..8].copy_from_slice(&version.to_le_bytes());
        buf.drain(if version == 1 { 25..27 } else { 26..27 });
        buf
    }

    #[test]
    fn older_versions_load_as_identity_f32() {
        let index = build();
        let q: Vec<f32> = index.store().row(7).to_vec();
        let p = SearchParams::for_k(5);
        for version in [1, 2] {
            let back =
                load_f32(&format!("v{version}"), &downgrade(write(&index), version)).unwrap();
            assert!(back.id_map().is_none());
            assert_eq!(back.graph(), index.graph());
            assert_eq!(back.search(&q, 5, &p), index.search(&q, 5, &p));
        }
    }

    #[test]
    fn corrupt_relabel_section_rejected() {
        let mut index = build();
        index.relabel(crate::RelabelStrategy::Degree);
        let buf = write(&index);
        let mut bad = buf.clone();
        bad[25] = 9; // unknown strategy tag
        assert!(load_f32("bad_relabel_tag", &bad).is_err());
        let mut bad = buf;
        let dup: [u8; 4] = bad[30..34].try_into().unwrap();
        bad[26..30].copy_from_slice(&dup); // duplicate id
        assert!(load_f32("dup_relabel_id", &bad).is_err());
    }

    #[test]
    fn every_metric_round_trips() {
        for m in [Metric::SquaredL2, Metric::InnerProduct, Metric::Cosine] {
            let (base, _) =
                SynthSpec { dim: 6, n: 120, queries: 0, family: Family::Gaussian, seed: 2 }
                    .generate();
            let index = CagraIndex::build(base, m, &GraphConfig::new(8)).0;
            let tag = format!("metric_{}", metric_tag(m));
            assert_eq!(load_f32(&tag, &write(&index)).unwrap().metric(), m);
        }
    }

    fn build_pq() -> (CagraIndex<PqStore>, Dataset, Dataset) {
        use dataset::pq::PqConfig;
        let (base, queries) =
            SynthSpec { dim: 12, n: 400, queries: 10, family: Family::Gaussian, seed: 47 }
                .generate();
        let store = dataset::pq::build(&base, &PqConfig::new(4));
        let (g, _) = crate::build::build_graph(&base, Metric::SquaredL2, &GraphConfig::new(8));
        let mut index = CagraIndex::from_parts(store, g, Metric::SquaredL2);
        index.set_rerank_store(Box::new(Dataset::from_flat(base.as_flat().to_vec(), base.dim())));
        (index, base, queries)
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    }

    /// PQ training, encoding and the v3 layout, pinned byte for byte.
    /// The constants were taken at commit b10a9ed, the last one whose
    /// codebook could carry a rotation, by running this same test.
    #[test]
    fn pq_codebook_and_bundle_bytes_are_pinned() {
        let (index, base, _) = build_pq();
        let mut blob = Vec::new();
        index.store().codebook().write_to(&mut blob).unwrap();
        assert_eq!((blob.len(), fnv1a(&blob)), (12321, 0x1d6d_b001_d138_ee14), "codebook blob");
        let mut bundle = Vec::new();
        write_index_pq(&mut bundle, &index, &base).unwrap();
        assert_eq!((bundle.len(), fnv1a(&bundle)), (45976, 0x344f_6617_9c4f_f58f), "v3 bundle");
    }

    #[test]
    fn read_bundle_branches_on_the_storage_tag() {
        let (pq_index, base, _) = build_pq();
        let path = tmpfile("any_pq");
        write_index_pq(std::fs::File::create(&path).unwrap(), &pq_index, &base).unwrap();
        match read_bundle(&path).unwrap() {
            Bundle::Pq(back) => assert_eq!(back.store().codes(), pq_index.store().codes()),
            Bundle::F32(_) => panic!("PQ bundle loaded as f32"),
        }

        // Plain storage is tag 0 (older versions: `older_versions_load_as_identity_f32`).
        let index = build();
        let v3 = write(&index);
        let mut bad_tag = v3.clone();
        bad_tag[26] = 7;
        std::fs::write(&path, &v3).unwrap();
        match read_bundle(&path).unwrap() {
            Bundle::F32(back) => assert_eq!(back.graph(), index.graph()),
            Bundle::Pq(_) => panic!("f32 bundle loaded as PQ"),
        }
        std::fs::write(&path, &bad_tag).unwrap();
        assert_eq!(read_bundle(&path).err().unwrap().kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_index_pq_refuses_rows_of_another_shape() {
        let (index, base, _) = build_pq();
        let short = Dataset::from_flat(base.as_flat()[base.dim()..].to_vec(), base.dim());
        let narrow = Dataset::from_flat(vec![0.0; base.len() * 4], 4);
        for full in [short, narrow] {
            let err = write_index_pq(Vec::new(), &index, &full).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        }
    }

    /// A sink whose every write fails: behind a buffer that holds a
    /// whole bundle, only the final flush reaches it.
    struct Full;

    impl Write for Full {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("no space left"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failed_final_flush_is_an_error() {
        let sink = || io::BufWriter::with_capacity(1 << 20, Full);
        assert!(write_index(sink(), &build()).is_err());
        let (index, base, _) = build_pq();
        assert!(write_index_pq(sink(), &index, &base).is_err());
    }

    #[test]
    fn pq_bundle_round_trips_with_mapped_rerank() {
        let (index, base, queries) = build_pq();
        let path = tmpfile("pq_rt");
        write_index_pq(std::fs::File::create(&path).unwrap(), &index, &base).unwrap();
        let back = read_index_pq(&path).unwrap();
        assert_eq!(back.metric(), Metric::SquaredL2);
        assert_eq!(back.graph(), index.graph());
        assert_eq!(back.store().codes(), index.store().codes());
        let src = back.rerank_store().expect("loader must attach the rerank source");
        assert_eq!((src.len(), src.dim()), (base.len(), base.dim()));
        let mut p = SearchParams::for_k(5);
        p.rerank_depth = 32;
        // Mapped rows are bit-identical to the heap source: two-phase
        // results must match the in-memory index exactly.
        for qi in 0..queries.len() {
            assert_eq!(
                back.search(queries.row(qi), 5, &p),
                index.search(queries.row(qi), 5, &p),
                "query {qi}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn relabeled_pq_bundle_round_trips() {
        let (mut index, base, queries) = build_pq();
        let mut p = SearchParams::for_k(5);
        p.rerank_depth = 32;
        let baseline: Vec<_> =
            (0..queries.len()).map(|qi| index.search(queries.row(qi), 5, &p)).collect();
        index.relabel(crate::RelabelStrategy::Rcm);
        let path = tmpfile("pq_relabel");
        write_index_pq(std::fs::File::create(&path).unwrap(), &index, &base).unwrap();
        let back = read_index_pq(&path).unwrap();
        assert_eq!(
            back.id_map().map(|m| m.strategy),
            Some(crate::RelabelStrategy::Rcm),
            "relabel map must survive the round trip"
        );
        for (qi, want) in baseline.iter().enumerate() {
            assert_eq!(&back.search(queries.row(qi), 5, &p), want, "query {qi}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pq_reader_rejects_f32_bundle_with_pointer() {
        let f32_index = build();
        let path = tmpfile("f32_as_pq");
        write_index(std::fs::File::create(&path).unwrap(), &f32_index).unwrap();
        let err = read_index_pq(&path).err().expect("PQ reader must reject f32 bundle");
        assert!(err.to_string().contains("read_bundle"), "got: {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_pq_bundle_rejected() {
        let (index, base, _) = build_pq();
        let mut bytes = Vec::new();
        write_index_pq(&mut bytes, &index, &base).unwrap();
        let path = tmpfile("pq_trunc");
        // Cut into the mapped f32 region: the open-time bounds check
        // must fail instead of faulting at rerank time.
        std::fs::write(&path, &bytes[..bytes.len() - 64]).unwrap();
        assert!(read_index_pq(&path).is_err());
        // Cut into the sequential prefix too.
        std::fs::write(&path, &bytes[..200]).unwrap();
        assert!(read_index_pq(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
