//! Binary serialization for graphs.
//!
//! Built indexes are reusable across runs (the paper stresses that a
//! proximity graph is constructed once and searched many times), so a
//! compact little-endian format is provided:
//!
//! ```text
//! magic "CAGR" | version u32 | n u64 | degree u64 | n*degree u32 ids
//! ```

use crate::fixed::FixedDegreeGraph;
use bytes::{Buf, BufMut};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"CAGR";
const VERSION: u32 = 1;

/// Serialize a fixed-degree graph.
pub fn write_fixed<W: Write>(mut w: W, g: &FixedDegreeGraph) -> io::Result<()> {
    let mut header = Vec::with_capacity(4 + 4 + 16);
    header.put_slice(MAGIC);
    header.put_u32_le(VERSION);
    header.put_u64_le(g.len() as u64);
    header.put_u64_le(g.degree() as u64);
    w.write_all(&header)?;
    // Stream the body in chunks to bound memory.
    let mut buf = Vec::with_capacity(64 * 1024);
    for chunk in g.as_flat().chunks(16 * 1024) {
        buf.clear();
        for &v in chunk {
            buf.put_u32_le(v);
        }
        w.write_all(&buf)?;
    }
    Ok(())
}

/// Deserialize a fixed-degree graph.
pub fn read_fixed<R: Read>(mut r: R) -> io::Result<FixedDegreeGraph> {
    let mut header = [0u8; 4 + 4 + 16];
    r.read_exact(&mut header)?;
    let mut cursor = &header[..];
    let mut magic = [0u8; 4];
    cursor.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad graph magic"));
    }
    let version = cursor.get_u32_le();
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported graph version {version}"),
        ));
    }
    let n = cursor.get_u64_le() as usize;
    let degree = cursor.get_u64_le() as usize;
    if degree == 0 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "graph degree is zero"));
    }
    let bytes = n
        .checked_mul(degree)
        .and_then(|t| t.checked_mul(4))
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "graph size overflow"))?;
    // The header is untrusted: grow the body as bytes actually arrive
    // instead of allocating what it claims up front.
    let mut body = Vec::new();
    r.take(bytes as u64).read_to_end(&mut body)?;
    if body.len() != bytes {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated graph body"));
    }
    let neighbors = body
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect::<Vec<_>>();
    if neighbors.iter().any(|&v| (v as usize) >= n) {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "neighbor id out of range"));
    }
    Ok(FixedDegreeGraph::from_flat(neighbors, n, degree))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let g = FixedDegreeGraph::from_flat(vec![1, 2, 2, 0, 0, 1], 3, 2);
        let mut buf = Vec::new();
        write_fixed(&mut buf, &g).unwrap();
        let back = read_fixed(&buf[..]).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        write_fixed(&mut buf, &FixedDegreeGraph::from_flat(vec![0], 1, 1)).unwrap();
        buf[0] = b'X';
        assert!(read_fixed(&buf[..]).is_err());
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = Vec::new();
        write_fixed(&mut buf, &FixedDegreeGraph::from_flat(vec![0], 1, 1)).unwrap();
        buf[4] = 99;
        assert!(read_fixed(&buf[..]).is_err());
    }

    #[test]
    fn truncated_body_rejected() {
        let mut buf = Vec::new();
        write_fixed(&mut buf, &FixedDegreeGraph::from_flat(vec![1, 0, 0, 1], 2, 2)).unwrap();
        buf.truncate(buf.len() - 2);
        assert!(read_fixed(&buf[..]).is_err());
    }

    #[test]
    fn corrupt_neighbor_id_rejected() {
        let mut buf = Vec::new();
        write_fixed(&mut buf, &FixedDegreeGraph::from_flat(vec![1, 0], 2, 1)).unwrap();
        let last = buf.len() - 4;
        buf[last..].copy_from_slice(&77u32.to_le_bytes());
        assert!(read_fixed(&buf[..]).is_err());
    }
}
