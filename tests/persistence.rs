//! Integration: on-disk round trips through real files (an fvecs
//! dataset and a CAGR graph) reproduce identical search results, and
//! corrupt headers are typed errors rather than panics or allocation
//! aborts.

use cagra::index_io::{read_bundle, write_index, write_index_pq, Bundle};
use cagra_repro::prelude::*;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, ErrorKind};

#[test]
fn full_index_round_trips_through_disk() {
    let dir = std::env::temp_dir().join(format!("cagra_it_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let spec = SynthSpec { dim: 16, n: 800, queries: 5, family: Family::Gaussian, seed: 5 };
    let (base, queries) = spec.generate();
    let (index, _) = CagraIndex::build(base, Metric::SquaredL2, &GraphConfig::new(8));

    let vec_path = dir.join("base.fvecs");
    let graph_path = dir.join("graph.bin");
    dataset::io::write_fvecs(BufWriter::new(File::create(&vec_path).unwrap()), index.store())
        .unwrap();
    graph::io::write_fixed(BufWriter::new(File::create(&graph_path).unwrap()), index.graph())
        .unwrap();

    let base2 = dataset::io::read_fvecs(BufReader::new(File::open(&vec_path).unwrap())).unwrap();
    let graph2 = graph::io::read_fixed(BufReader::new(File::open(&graph_path).unwrap())).unwrap();
    assert_eq!(base2.as_flat(), index.store().as_flat());
    assert_eq!(&graph2, index.graph());

    let reloaded = CagraIndex::from_parts(base2, graph2, Metric::SquaredL2);
    let params = SearchParams::for_k(5);
    for qi in 0..queries.len() {
        assert_eq!(
            index.search(queries.row(qi), 5, &params),
            reloaded.search(queries.row(qi), 5, &params),
            "query {qi}"
        );
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn ground_truth_round_trips_as_ivecs() {
    let spec = SynthSpec { dim: 8, n: 300, queries: 10, family: Family::Gaussian, seed: 9 };
    let (base, queries) = spec.generate();
    let gt = knn::brute::ground_truth(&base, Metric::SquaredL2, &queries, 10);

    let dir = std::env::temp_dir().join(format!("cagra_gt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("gt.ivecs");
    dataset::io::write_ivecs(BufWriter::new(File::create(&path).unwrap()), &gt).unwrap();
    let back = dataset::io::read_ivecs(BufReader::new(File::open(&path).unwrap())).unwrap();
    assert_eq!(gt, back);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A CAGR graph header claiming `n` rows of `degree` neighbours.
fn graph_header(n: u64, degree: u64) -> Vec<u8> {
    let mut h = b"CAGR".to_vec();
    h.extend_from_slice(&1u32.to_le_bytes());
    h.extend_from_slice(&n.to_le_bytes());
    h.extend_from_slice(&degree.to_le_bytes());
    h
}

fn read_graph(bytes: &[u8]) -> ErrorKind {
    graph::io::read_fixed(bytes).expect_err("corrupt graph header must be rejected").kind()
}

#[test]
fn read_fixed_rejects_zero_degree() {
    let mut bytes = graph_header(4, 0);
    bytes.extend_from_slice(&[0u8; 16]);
    assert_eq!(read_graph(&bytes), ErrorKind::InvalidData);
}

#[test]
fn read_fixed_rejects_a_wrapping_body_size() {
    // 2^62 rows x 1 neighbour x 4 bytes wraps a 64-bit size to zero.
    assert_eq!(read_graph(&graph_header(1 << 62, 1)), ErrorKind::InvalidData);
}

#[test]
fn read_fixed_does_not_allocate_what_a_short_stream_claims() {
    let mut bytes = graph_header(1 << 40, 1);
    bytes.extend_from_slice(&[0u8; 64]);
    assert_eq!(read_graph(&bytes), ErrorKind::UnexpectedEof);
}

/// Load `bytes` through the bundle reader the CLI and server use.
fn load(tag: &str, bytes: &[u8]) -> io::Result<Bundle> {
    let path = std::env::temp_dir().join(format!("cagra_hdr_{}_{tag}.cgix", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    let out = read_bundle(&path);
    std::fs::remove_file(&path).ok();
    out
}

fn rejected(tag: &str, bytes: &[u8]) -> ErrorKind {
    load(tag, bytes).err().expect("corrupt bundle must be rejected").kind()
}

/// A v2 bundle header: magic, version, metric, dim, n, relabel tag.
fn bundle_header(dim: u64, n: u64, relabel: u8) -> Vec<u8> {
    let mut h = b"CGIX".to_vec();
    h.extend_from_slice(&2u32.to_le_bytes());
    h.push(0);
    h.extend_from_slice(&dim.to_le_bytes());
    h.extend_from_slice(&n.to_le_bytes());
    h.push(relabel);
    h
}

#[test]
fn read_bundle_refuses_a_vector_block_larger_than_the_file() {
    // 98 bytes claiming 2^42 one-dimensional vectors (16 TiB).
    let mut bytes = bundle_header(1, 1 << 42, 0);
    bytes.resize(98, 0);
    assert_eq!(rejected("huge_f32", &bytes), ErrorKind::InvalidData);
}

#[test]
fn read_bundle_refuses_a_relabel_permutation_larger_than_the_file() {
    let mut bytes = bundle_header(1, 1 << 42, 1);
    bytes.resize(98, 0);
    assert_eq!(rejected("huge_perm", &bytes), ErrorKind::InvalidData);
}

fn small_index() -> CagraIndex<Dataset> {
    let spec = SynthSpec { dim: 4, n: 60, queries: 0, family: Family::Gaussian, seed: 3 };
    CagraIndex::build(spec.generate().0, Metric::SquaredL2, &GraphConfig::new(4)).0
}

#[test]
fn read_bundle_refuses_a_code_matrix_larger_than_the_file() {
    let index = small_index();
    let pq = dataset::pq::build(index.store(), &dataset::pq::PqConfig::new(2));
    let pq_index = CagraIndex::from_parts(pq, index.graph().clone(), Metric::SquaredL2);
    let mut bytes = Vec::new();
    write_index_pq(&mut bytes, &pq_index, index.store()).unwrap();
    assert!(matches!(load("pq_ok", &bytes), Ok(Bundle::Pq(_))));
    bytes[17..25].copy_from_slice(&(1u64 << 42).to_le_bytes()); // n
    assert_eq!(rejected("huge_codes", &bytes), ErrorKind::InvalidData);
}

#[test]
fn read_bundle_rejects_corrupt_graph_headers() {
    let index = small_index();
    let mut bytes = Vec::new();
    write_index(&mut bytes, &index).unwrap();
    assert!(matches!(load("f32_ok", &bytes), Ok(Bundle::F32(_))));
    // The graph blob follows the 27-byte v3 prefix and the f32 block.
    let graph_at = 27 + index.store().len() * index.store().dim() * 4;
    let mut zero_degree = bytes.clone();
    zero_degree[graph_at + 16..graph_at + 24].copy_from_slice(&0u64.to_le_bytes());
    assert_eq!(rejected("zero_degree", &zero_degree), ErrorKind::InvalidData);
    let mut wrapping = bytes;
    wrapping[graph_at + 8..graph_at + 24].copy_from_slice(&graph_header(1 << 62, 1)[8..]);
    assert_eq!(rejected("wrapping", &wrapping), ErrorKind::InvalidData);
}
