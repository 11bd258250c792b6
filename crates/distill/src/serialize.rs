//! Binary save/load of [`DistilledTables`] (`VDT1` format).
//!
//! Mirrors `voyager_nn::serialize`'s VNNP/VNNT discipline: a magic +
//! version header, little-endian fixed-width fields, and strict
//! validation on load. Because the table layout is deterministic, a
//! save → load → save round-trip is bit-identical — the property tests
//! pin this, and it is what lets `CheckpointManager` treat table
//! snapshots exactly like weight checkpoints.
//!
//! Format:
//!
//! ```text
//! magic "VDT1"            4 bytes
//! version u32 LE
//! history, page_topk, offset_topk,
//!   page_buckets_log2, offset_buckets_log2   u32 LE each
//! memory_budget_bytes u64 LE
//! distill_batch u32 LE
//! per layer (pages, then offsets):
//!   buckets u64 LE tags, buckets f32 LE mass,
//!   buckets*topk u32 LE tokens, buckets*topk f32 LE weights
//! ```

use std::io::{self, Read, Write};

use crate::table::{DistilledTables, OwnedRawTables, TableConfig};

const MAGIC: &[u8; 4] = b"VDT1";
const VERSION: u32 = 1;

/// One deserialized layer: `(tags, mass, tokens, weights)` flat arrays.
type LayerArrays = (Vec<u64>, Vec<f32>, Vec<u32>, Vec<f32>);

/// Errors returned by [`load_tables`].
#[derive(Debug)]
pub enum TableIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a distilled-table snapshot.
    BadMagic,
    /// Unsupported snapshot version.
    BadVersion(u32),
    /// Structurally invalid snapshot (bad geometry fields).
    Corrupt(&'static str),
}

impl std::fmt::Display for TableIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableIoError::Io(e) => write!(f, "i/o error: {e}"),
            TableIoError::BadMagic => write!(f, "not a distilled-table snapshot (bad magic)"),
            TableIoError::BadVersion(v) => write!(f, "unsupported table snapshot version {v}"),
            TableIoError::Corrupt(what) => write!(f, "corrupt table snapshot: {what}"),
        }
    }
}

impl std::error::Error for TableIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TableIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TableIoError {
    fn from(e: io::Error) -> Self {
        TableIoError::Io(e)
    }
}

/// Writes `tables` to `writer` in the `VDT1` format. A `&mut`
/// reference may be passed for `writer`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save_tables<W: Write>(mut writer: W, tables: &DistilledTables) -> io::Result<()> {
    let cfg = tables.config();
    writer.write_all(MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    for field in [
        cfg.history,
        cfg.page_topk,
        cfg.offset_topk,
        cfg.page_buckets_log2 as usize,
        cfg.offset_buckets_log2 as usize,
    ] {
        writer.write_all(&(field as u32).to_le_bytes())?;
    }
    writer.write_all(&(cfg.memory_budget_bytes as u64).to_le_bytes())?;
    writer.write_all(&(cfg.distill_batch as u32).to_le_bytes())?;
    let raw = tables.raw();
    for (tags, mass, tokens, weights) in [
        (
            raw.page_tags,
            raw.page_mass,
            raw.page_tokens,
            raw.page_weights,
        ),
        (
            raw.offset_tags,
            raw.offset_mass,
            raw.offset_tokens,
            raw.offset_weights,
        ),
    ] {
        for &t in tags {
            writer.write_all(&t.to_le_bytes())?;
        }
        for &m in mass {
            writer.write_all(&m.to_le_bytes())?;
        }
        for &t in tokens {
            writer.write_all(&t.to_le_bytes())?;
        }
        for &w in weights {
            writer.write_all(&w.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Restores tables written by [`save_tables`]. A `&mut` reference may
/// be passed for `reader`.
///
/// # Errors
///
/// Returns [`TableIoError`] on malformed input: wrong magic or
/// version, geometry fields that do not describe a valid
/// [`TableConfig`], or truncated payload.
pub fn load_tables<R: Read>(mut reader: R) -> Result<DistilledTables, TableIoError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(TableIoError::BadMagic);
    }
    let version = read_u32(&mut reader)?;
    if version != VERSION {
        return Err(TableIoError::BadVersion(version));
    }
    let history = read_u32(&mut reader)? as usize;
    let page_topk = read_u32(&mut reader)? as usize;
    let offset_topk = read_u32(&mut reader)? as usize;
    let page_buckets_log2 = read_u32(&mut reader)?;
    let offset_buckets_log2 = read_u32(&mut reader)?;
    let memory_budget_bytes = u64::from_le_bytes(read_array(&mut reader)?) as usize;
    let distill_batch = read_u32(&mut reader)? as usize;
    if history == 0 || page_topk == 0 || offset_topk == 0 || distill_batch == 0 {
        return Err(TableIoError::Corrupt("zero geometry field"));
    }
    if page_buckets_log2 > 28 || offset_buckets_log2 > 28 {
        return Err(TableIoError::Corrupt("bucket exponent too large"));
    }
    let cfg = TableConfig {
        history,
        page_topk,
        offset_topk,
        page_buckets_log2,
        offset_buckets_log2,
        memory_budget_bytes,
        distill_batch,
    };
    // The budget is read from the same file, so it bounds nothing by
    // itself: it only rejects self-inconsistent headers. What keeps a
    // corrupt header from allocating gigabytes is `read_vec`, which
    // grows each array only with bytes the reader actually supplied.
    match cfg.layout_bytes() {
        None => return Err(TableIoError::Corrupt("layout size overflows")),
        Some(bytes) if bytes > cfg.memory_budget_bytes => {
            return Err(TableIoError::Corrupt("layout exceeds recorded budget"))
        }
        Some(_) => {}
    }
    let page_buckets = 1usize << page_buckets_log2;
    let offset_buckets = 1usize << offset_buckets_log2;
    let layer =
        |buckets: usize, topk: usize, reader: &mut R| -> Result<LayerArrays, TableIoError> {
            let slots = buckets
                .checked_mul(topk)
                .ok_or(TableIoError::Corrupt("layer size overflows"))?;
            Ok((
                read_vec(reader, buckets, u64::from_le_bytes)?,
                read_vec(reader, buckets, f32::from_le_bytes)?,
                read_vec(reader, slots, u32::from_le_bytes)?,
                read_vec(reader, slots, f32::from_le_bytes)?,
            ))
        };
    let (page_tags, page_mass, page_tokens, page_weights) =
        layer(page_buckets, page_topk, &mut reader)?;
    let (offset_tags, offset_mass, offset_tokens, offset_weights) =
        layer(offset_buckets, offset_topk, &mut reader)?;
    Ok(DistilledTables::from_raw(
        cfg,
        OwnedRawTables {
            page_tags,
            page_mass,
            page_tokens,
            page_weights,
            offset_tags,
            offset_mass,
            offset_tokens,
            offset_weights,
        },
    ))
}

/// Reads `len` little-endian `N`-byte values. The length is untrusted:
/// the byte buffer grows only as the reader supplies data, so a huge
/// `len` over a short stream fails with `UnexpectedEof` after
/// allocating no more than the stream held.
fn read_vec<T, const N: usize, R: Read>(
    reader: &mut R,
    len: usize,
    decode: fn([u8; N]) -> T,
) -> Result<Vec<T>, TableIoError> {
    let want = len
        .checked_mul(N)
        .ok_or(TableIoError::Corrupt("array size overflows"))? as u64;
    let mut bytes = Vec::new();
    reader.take(want).read_to_end(&mut bytes)?;
    if bytes.len() as u64 != want {
        return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
    }
    Ok(bytes
        .chunks_exact(N)
        .map(|chunk| {
            let mut raw = [0u8; N];
            raw.copy_from_slice(chunk);
            decode(raw)
        })
        .collect())
}

fn read_array<const N: usize, R: Read>(reader: &mut R) -> io::Result<[u8; N]> {
    let mut buf = [0u8; N];
    reader.read_exact(&mut buf)?;
    Ok(buf)
}

fn read_u32<R: Read>(reader: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    reader.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tables() -> DistilledTables {
        let cfg = TableConfig {
            history: 2,
            page_topk: 3,
            offset_topk: 2,
            page_buckets_log2: 4,
            offset_buckets_log2: 3,
            memory_budget_bytes: 64 * 1024,
            distill_batch: 8,
        };
        let mut t = DistilledTables::new(&cfg);
        for i in 0..40usize {
            t.insert_page(
                &[i % 11, i % 7],
                &[(i as u32 % 9, 0.4), (i as u32 % 5, 0.3)],
            );
            t.insert_offset(i % 13, &[(i as u32 % 64, 0.8)]);
        }
        t
    }

    #[test]
    fn roundtrip_restores_equal_tables() {
        let t = sample_tables();
        let mut buf = Vec::new();
        save_tables(&mut buf, &t).unwrap();
        let restored = load_tables(buf.as_slice()).unwrap();
        assert_eq!(restored, t);
        assert_eq!(
            restored.predict_quiet(&[3, 0], 1, 4),
            t.predict_quiet(&[3, 0], 1, 4)
        );
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        assert!(matches!(
            load_tables(&b"XXXXxxxx"[..]).unwrap_err(),
            TableIoError::BadMagic
        ));
        let mut buf = Vec::new();
        save_tables(&mut buf, &sample_tables()).unwrap();
        buf[4] = 9; // corrupt the version field
        assert!(matches!(
            load_tables(buf.as_slice()).unwrap_err(),
            TableIoError::BadVersion(9)
        ));
    }

    /// Header with the largest bucket exponents the loader accepts and
    /// a budget that admits them: 2^28 buckets per layer, followed by
    /// no payload at all.
    fn huge_header() -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        for field in [1u32, 1, 1, 28, 28] {
            buf.extend_from_slice(&field.to_le_bytes());
        }
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf
    }

    #[test]
    fn huge_geometry_over_a_short_stream_is_an_io_error() {
        assert!(matches!(
            load_tables(huge_header().as_slice()).unwrap_err(),
            TableIoError::Io(_)
        ));
    }

    #[test]
    fn overflowing_layout_is_corrupt() {
        let mut buf = huge_header();
        buf[12..16].copy_from_slice(&u32::MAX.to_le_bytes()); // page_topk
        buf[16..20].copy_from_slice(&u32::MAX.to_le_bytes()); // offset_topk
        assert!(matches!(
            load_tables(buf.as_slice()).unwrap_err(),
            TableIoError::Corrupt(_)
        ));
    }

    #[test]
    fn every_truncation_and_header_flip_errs_or_loads_a_valid_table() {
        let mut buf = Vec::new();
        save_tables(&mut buf, &sample_tables()).unwrap();
        for len in 0..buf.len() {
            assert!(load_tables(&buf[..len]).is_err(), "truncated at {len}");
        }
        // magic, version, five u32 geometry fields, u64 budget, u32 batch.
        const HEADER: usize = 4 + 4 + 5 * 4 + 8 + 4;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for byte in 0..HEADER {
            for _ in 0..16 {
                // xorshift64: a fixed-seed stream of nonzero flip masks.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let mask = (state as u8).max(1);
                let mut flipped = buf.clone();
                flipped[byte] ^= mask;
                if let Ok(t) = load_tables(flipped.as_slice()) {
                    t.config().validate();
                    assert!(t.memory_bytes() <= t.config().memory_budget_bytes);
                    t.predict_quiet(&[3, 0], 1, 4);
                }
            }
        }
    }

    #[test]
    fn truncation_and_corrupt_geometry_are_rejected() {
        let mut buf = Vec::new();
        save_tables(&mut buf, &sample_tables()).unwrap();
        let truncated = &buf[..buf.len() - 3];
        assert!(matches!(
            load_tables(truncated).unwrap_err(),
            TableIoError::Io(_)
        ));
        let mut zeroed = buf.clone();
        zeroed[8] = 0; // history -> 0
        zeroed[9] = 0;
        zeroed[10] = 0;
        zeroed[11] = 0;
        assert!(matches!(
            load_tables(zeroed.as_slice()).unwrap_err(),
            TableIoError::Corrupt(_)
        ));
    }
}
