//! Out-of-core chunked trace store.
//!
//! The streaming campaign engine never needs the full trace matrix in
//! memory, but some workloads still want *replay* — re-attacking a
//! recorded campaign with a different model, or auditing individual
//! traces. The store appends each campaign block (a [`TraceSet`]) as
//! one chunk file and writes a small index at the end, so a
//! 10⁶-trace campaign on disk costs O(block) memory to write and to
//! read back.
//!
//! # On-disk format (version 1)
//!
//! A store is a directory:
//!
//! * `index.bin` — magic `SECFTRC1`, then `u32` samples-per-trace,
//!   `u32` chunk count, then one `u32` trace count per chunk (all
//!   little-endian).
//! * `chunk-NNNNN.bin` — `u32` trace count, then per trace:
//!   `samples × f64` energy samples, `u8` CL, `u8` CR, `f64` total
//!   energy (all little-endian).
//!
//! Chunks replay in index order, so a replayed stream sees traces in
//! the exact order the campaign produced them — the determinism
//! contract of [`crate::streaming`] carries over to replays.

use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use crate::harness::TraceSet;

const MAGIC: &[u8; 8] = b"SECFTRC1";

/// A typed trace-store failure (never a panic: store paths come from
/// user input).
#[derive(Debug)]
pub enum StoreError {
    /// An OS-level I/O failure on `path` during `op`.
    Io {
        path: PathBuf,
        op: &'static str,
        source: io::Error,
    },
    /// The on-disk bytes do not form a valid store.
    Corrupt { path: PathBuf, detail: String },
    /// An appended block violates the store's shape (samples per
    /// trace other than the store's, ragged trace, mismatched
    /// ciphertext/energy counts).
    Shape { detail: String },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, op, source } => {
                write!(f, "trace store: {op} {} failed: {source}", path.display())
            }
            StoreError::Corrupt { path, detail } => {
                write!(f, "trace store: {} is corrupt: {detail}", path.display())
            }
            StoreError::Shape { detail } => write!(f, "trace store: bad block shape: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err(path: &Path, op: &'static str, source: io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        op,
        source,
    }
}

fn chunk_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("chunk-{i:05}.bin"))
}

/// Append-only writer; call [`StoreWriter::finish`] to commit the
/// index (a store without an index does not open).
pub struct StoreWriter {
    dir: PathBuf,
    samples: usize,
    chunk_counts: Vec<u32>,
}

impl StoreWriter {
    /// Creates (or re-creates) a store directory for traces of
    /// `samples` samples each.
    pub fn create(dir: &Path, samples: usize) -> Result<Self, StoreError> {
        fs::create_dir_all(dir).map_err(|e| io_err(dir, "create", e))?;
        // Drop a stale index so a crash mid-write can't pair the old
        // index with new chunks.
        let index = dir.join("index.bin");
        match fs::remove_file(&index) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err(&index, "remove", e)),
        }
        Ok(StoreWriter {
            dir: dir.to_path_buf(),
            samples,
            chunk_counts: Vec::new(),
        })
    }

    /// Appends one block as a new chunk file.
    pub fn append_block(&mut self, block: &TraceSet) -> Result<(), StoreError> {
        if block.samples_per_trace != self.samples {
            return Err(StoreError::Shape {
                detail: format!(
                    "block has {} samples per trace, store expects {}",
                    block.samples_per_trace, self.samples
                ),
            });
        }
        let n = block.traces.len();
        if block.ciphertexts.len() != n || block.energies.len() != n {
            return Err(StoreError::Shape {
                detail: format!(
                    "{n} traces but {} ciphertexts / {} energies",
                    block.ciphertexts.len(),
                    block.energies.len()
                ),
            });
        }
        let mut buf = Vec::with_capacity(4 + n * (self.samples * 8 + 10));
        buf.extend_from_slice(&(n as u32).to_le_bytes());
        for (i, t) in block.traces.iter().enumerate() {
            if t.len() != self.samples {
                return Err(StoreError::Shape {
                    detail: format!(
                        "trace {i} has {} samples, store expects {}",
                        t.len(),
                        self.samples
                    ),
                });
            }
            for &v in t {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            let (cl, cr) = block.ciphertexts[i];
            buf.push(cl);
            buf.push(cr);
            buf.extend_from_slice(&block.energies[i].to_le_bytes());
        }
        let path = chunk_path(&self.dir, self.chunk_counts.len());
        let mut f = fs::File::create(&path).map_err(|e| io_err(&path, "create", e))?;
        f.write_all(&buf).map_err(|e| io_err(&path, "write", e))?;
        self.chunk_counts.push(n as u32);
        Ok(())
    }

    /// Traces appended so far.
    pub fn n_traces(&self) -> usize {
        self.chunk_counts.iter().map(|&c| c as usize).sum()
    }

    /// Writes the index, committing the store.
    pub fn finish(self) -> Result<(), StoreError> {
        let mut buf = Vec::with_capacity(16 + self.chunk_counts.len() * 4);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&(self.samples as u32).to_le_bytes());
        buf.extend_from_slice(&(self.chunk_counts.len() as u32).to_le_bytes());
        for &c in &self.chunk_counts {
            buf.extend_from_slice(&c.to_le_bytes());
        }
        let path = self.dir.join("index.bin");
        let mut f = fs::File::create(&path).map_err(|e| io_err(&path, "create", e))?;
        f.write_all(&buf).map_err(|e| io_err(&path, "write", e))?;
        Ok(())
    }
}

/// A committed store opened for replay.
pub struct TraceStore {
    dir: PathBuf,
    samples: usize,
    chunk_counts: Vec<u32>,
}

impl TraceStore {
    /// Opens a store directory written by [`StoreWriter`].
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        let path = dir.join("index.bin");
        let mut f = fs::File::open(&path).map_err(|e| io_err(&path, "open", e))?;
        let mut buf = Vec::new();
        f.read_to_end(&mut buf).map_err(|e| io_err(&path, "read", e))?;
        let corrupt = |detail: String| StoreError::Corrupt {
            path: path.clone(),
            detail,
        };
        if buf.len() < 16 {
            return Err(corrupt(format!("index is {} bytes, need >= 16", buf.len())));
        }
        if &buf[..8] != MAGIC {
            return Err(corrupt("bad magic (not a secflow trace store)".into()));
        }
        let samples = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]) as usize;
        let n_chunks = u32::from_le_bytes([buf[12], buf[13], buf[14], buf[15]]) as usize;
        if buf.len() != 16 + n_chunks * 4 {
            return Err(corrupt(format!(
                "index lists {n_chunks} chunks but is {} bytes",
                buf.len()
            )));
        }
        let chunk_counts = (0..n_chunks)
            .map(|i| {
                let o = 16 + i * 4;
                u32::from_le_bytes([buf[o], buf[o + 1], buf[o + 2], buf[o + 3]])
            })
            .collect();
        Ok(TraceStore {
            dir: dir.to_path_buf(),
            samples,
            chunk_counts,
        })
    }

    /// Samples per trace.
    pub fn samples_per_trace(&self) -> usize {
        self.samples
    }

    /// Total traces across all chunks.
    pub fn n_traces(&self) -> usize {
        self.chunk_counts.iter().map(|&c| c as usize).sum()
    }

    /// Number of chunk files.
    pub fn n_chunks(&self) -> usize {
        self.chunk_counts.len()
    }

    fn read_chunk(&self, i: usize) -> Result<TraceSet, StoreError> {
        let path = chunk_path(&self.dir, i);
        let mut f = fs::File::open(&path).map_err(|e| io_err(&path, "open", e))?;
        let mut buf = Vec::new();
        f.read_to_end(&mut buf).map_err(|e| io_err(&path, "read", e))?;
        let corrupt = |detail: String| StoreError::Corrupt {
            path: path.clone(),
            detail,
        };
        if buf.len() < 4 {
            return Err(corrupt("chunk shorter than its header".into()));
        }
        let n = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        if n != self.chunk_counts[i] as usize {
            return Err(corrupt(format!(
                "chunk holds {n} traces, index says {}",
                self.chunk_counts[i]
            )));
        }
        // Both counts are untrusted, so the size is computed checked:
        // a wrapped product would admit a short chunk.
        let expected = self
            .samples
            .checked_mul(8)
            .and_then(|b| b.checked_add(10))
            .and_then(|rec| rec.checked_mul(n))
            .and_then(|b| b.checked_add(4));
        if expected != Some(buf.len()) {
            return Err(corrupt(format!(
                "chunk is {} bytes, expected {} for {n} traces × {} samples",
                buf.len(),
                expected.map_or_else(|| "more than usize::MAX".to_string(), |e| e.to_string()),
                self.samples
            )));
        }
        let mut block = TraceSet {
            traces: Vec::with_capacity(n),
            ciphertexts: Vec::with_capacity(n),
            energies: Vec::with_capacity(n),
            samples_per_trace: self.samples,
        };
        let mut o = 4;
        for _ in 0..n {
            let mut t = Vec::with_capacity(self.samples);
            for _ in 0..self.samples {
                let mut b = [0u8; 8];
                b.copy_from_slice(&buf[o..o + 8]);
                t.push(f64::from_le_bytes(b));
                o += 8;
            }
            block.traces.push(t);
            block.ciphertexts.push((buf[o], buf[o + 1]));
            o += 2;
            let mut b = [0u8; 8];
            b.copy_from_slice(&buf[o..o + 8]);
            block.energies.push(f64::from_le_bytes(b));
            o += 8;
        }
        Ok(block)
    }

    /// Replays chunks lazily, in campaign order; holds one chunk in
    /// memory at a time.
    pub fn blocks(&self) -> impl Iterator<Item = Result<TraceSet, StoreError>> + '_ {
        (0..self.chunk_counts.len()).map(|i| self.read_chunk(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(n: usize, samples: usize, tag: f64) -> TraceSet {
        TraceSet {
            traces: (0..n)
                .map(|i| (0..samples).map(|s| tag + i as f64 + s as f64 * 0.5).collect())
                .collect(),
            ciphertexts: (0..n).map(|i| (i as u8, (i as u8) ^ 0x2a)).collect(),
            energies: (0..n).map(|i| tag * 10.0 + i as f64).collect(),
            samples_per_trace: samples,
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("secflow-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn roundtrip_preserves_blocks_bitwise() {
        let dir = tmp_dir("roundtrip");
        let blocks = [block(3, 5, 1.0), block(1, 5, 2.0), block(7, 5, 3.0)];
        let mut w = StoreWriter::create(&dir, 5).unwrap();
        for b in &blocks {
            w.append_block(b).unwrap();
        }
        assert_eq!(w.n_traces(), 11);
        w.finish().unwrap();

        let store = TraceStore::open(&dir).unwrap();
        assert_eq!(store.samples_per_trace(), 5);
        assert_eq!(store.n_traces(), 11);
        assert_eq!(store.n_chunks(), 3);
        let got: Vec<TraceSet> = store.blocks().map(|b| b.unwrap()).collect();
        for (g, want) in got.iter().zip(&blocks) {
            assert_eq!(g, want);
            for (gt, wt) in g.traces.iter().zip(&want.traces) {
                let gb: Vec<u64> = gt.iter().map(|v| v.to_bits()).collect();
                let wb: Vec<u64> = wt.iter().map(|v| v.to_bits()).collect();
                assert_eq!(gb, wb);
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_rejects_missing_and_corrupt_stores() {
        let dir = tmp_dir("corrupt");
        assert!(matches!(
            TraceStore::open(&dir),
            Err(StoreError::Io { op: "open", .. })
        ));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("index.bin"), b"NOTASTORE_______").unwrap();
        assert!(matches!(
            TraceStore::open(&dir),
            Err(StoreError::Corrupt { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn writer_rejects_bad_shapes() {
        let dir = tmp_dir("shape");
        let mut w = StoreWriter::create(&dir, 4).unwrap();
        let mut b = block(2, 4, 1.0);
        b.energies.pop();
        assert!(matches!(
            w.append_block(&b),
            Err(StoreError::Shape { .. })
        ));
        let ragged = block(2, 3, 1.0);
        assert!(matches!(
            w.append_block(&ragged),
            Err(StoreError::Shape { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    /// `samples = u32::MAX` and 2^29 traces make the chunk size
    /// `4 + n × (8 · samples + 10)` wrap to 1 GiB + 4 in 64-bit
    /// arithmetic. A short chunk must be refused, not read past.
    #[test]
    fn oversized_counts_are_a_corrupt_chunk_not_an_overflow() {
        let dir = tmp_dir("overflow");
        fs::create_dir_all(&dir).unwrap();
        let n = 1u32 << 29;
        let mut index = MAGIC.to_vec();
        index.extend_from_slice(&u32::MAX.to_le_bytes());
        index.extend_from_slice(&1u32.to_le_bytes());
        index.extend_from_slice(&n.to_le_bytes());
        fs::write(dir.join("index.bin"), &index).unwrap();
        let mut chunk = n.to_le_bytes().to_vec();
        chunk.extend_from_slice(&[0u8; 64]);
        fs::write(chunk_path(&dir, 0), &chunk).unwrap();

        let store = TraceStore::open(&dir).unwrap();
        let err = store.blocks().next().unwrap().unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unfinished_store_does_not_open() {
        let dir = tmp_dir("unfinished");
        let mut w = StoreWriter::create(&dir, 4).unwrap();
        w.append_block(&block(2, 4, 1.0)).unwrap();
        drop(w); // no finish(): index never written
        assert!(TraceStore::open(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
