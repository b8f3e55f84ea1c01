//! Build once, search forever: persist a CAGRA index to disk and
//! reload it — the reuse pattern the paper motivates ("a proximity
//! graph can be reused once it is constructed").
//!
//! The index travels as one bundle (`cagra::index_io`): the vectors,
//! the graph and the metric in a single file, so a reloaded graph can
//! never meet a different row order or metric than it was built for.
//!
//! ```text
//! cargo run --release --example index_persistence
//! ```

use cagra::index_io::{read_bundle, write_index, Bundle};
use cagra_repro::prelude::*;
use std::fs::File;
use std::io::BufWriter;

fn main() -> std::io::Result<()> {
    let dir = std::env::temp_dir().join("cagra_repro_example");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("index.cgix");

    // Build and persist.
    let spec = SynthSpec { dim: 48, n: 10_000, queries: 3, family: Family::Gaussian, seed: 11 };
    let (base, queries) = spec.generate();
    let (index, _) = CagraIndex::build(base, Metric::SquaredL2, &GraphConfig::new(16));
    write_index(BufWriter::new(File::create(&path)?), &index)?;
    println!(
        "persisted {} vectors and the degree-{} graph to {}",
        index.store().len(),
        index.graph().degree(),
        path.display()
    );

    // Reload into a fresh index — no rebuild, no restated metric.
    let Bundle::F32(reloaded) = read_bundle(&path)? else {
        return Err(std::io::Error::other("write_index stores f32 vectors"));
    };

    // Identical results from the original and the reloaded index.
    let params = SearchParams::for_k(5);
    for qi in 0..queries.len() {
        let a = index.search(queries.row(qi), 5, &params);
        let b = reloaded.search(queries.row(qi), 5, &params);
        assert_eq!(a, b, "reloaded index must search identically");
        println!("query {qi}: {:?}", a.iter().map(|n| n.id).collect::<Vec<_>>());
    }
    println!("reloaded index verified");
    Ok(())
}
