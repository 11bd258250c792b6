//! Binary trace serialization.
//!
//! A compact, versioned on-disk format so traces can be generated once
//! and replayed across experiments (or exchanged with other tools):
//!
//! ```text
//! magic  "VTRC"            4 bytes
//! version u32 LE           4 bytes
//! name length u32 LE, name bytes (UTF-8)
//! access count u64 LE
//! per access: pc u64 LE, addr u64 LE, bubble u8
//! ```

use std::io::{self, Read, Write};

use crate::{MemoryAccess, Trace};

const MAGIC: &[u8; 4] = b"VTRC";
const VERSION: u32 = 1;

/// Errors returned by [`read_trace`].
#[derive(Debug)]
pub enum ReadTraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream does not start with the `VTRC` magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// The name field is not valid UTF-8.
    BadName,
}

impl std::fmt::Display for ReadTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadTraceError::Io(e) => write!(f, "i/o error: {e}"),
            ReadTraceError::BadMagic => write!(f, "not a voyager trace (bad magic)"),
            ReadTraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            ReadTraceError::BadName => write!(f, "trace name is not valid utf-8"),
        }
    }
}

impl std::error::Error for ReadTraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadTraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ReadTraceError {
    fn from(e: io::Error) -> Self {
        ReadTraceError::Io(e)
    }
}

/// Writes a trace in the binary format. A `&mut` reference may be
/// passed for `writer`.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_trace<W: Write>(mut writer: W, trace: &Trace) -> io::Result<()> {
    writer.write_all(MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    let name = trace.name().as_bytes();
    writer.write_all(&(name.len() as u32).to_le_bytes())?;
    writer.write_all(name)?;
    writer.write_all(&(trace.len() as u64).to_le_bytes())?;
    for a in trace {
        writer.write_all(&a.pc.to_le_bytes())?;
        writer.write_all(&a.addr.to_le_bytes())?;
        writer.write_all(&[a.bubble])?;
    }
    Ok(())
}

/// Reads a trace written by [`write_trace`]. A `&mut` reference may be
/// passed for `reader`.
///
/// # Errors
///
/// Returns [`ReadTraceError`] on malformed input or I/O failure.
pub fn read_trace<R: Read>(mut reader: R) -> Result<Trace, ReadTraceError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(ReadTraceError::BadMagic);
    }
    let version = read_u32(&mut reader)?;
    if version != VERSION {
        return Err(ReadTraceError::BadVersion(version));
    }
    // The length field is untrusted: read through `take` so the buffer
    // only ever grows with bytes the stream actually supplied.
    let name_len = u64::from(read_u32(&mut reader)?);
    let mut name_bytes = Vec::new();
    (&mut reader).take(name_len).read_to_end(&mut name_bytes)?;
    if name_bytes.len() as u64 != name_len {
        return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
    }
    let name = String::from_utf8(name_bytes).map_err(|_| ReadTraceError::BadName)?;
    let count = read_u64(&mut reader)? as usize;
    let mut trace = Trace::new(name);
    for _ in 0..count {
        let pc = read_u64(&mut reader)?;
        let addr = read_u64(&mut reader)?;
        let mut bubble = [0u8; 1];
        reader.read_exact(&mut bubble)?;
        trace.push(MemoryAccess {
            pc,
            addr,
            bubble: bubble[0],
        });
    }
    Ok(trace)
}

fn read_u32<R: Read>(reader: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    reader.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64<R: Read>(reader: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    reader.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::from_accesses(
            "sample",
            vec![
                MemoryAccess {
                    pc: 0x400000,
                    addr: 0xdead_beef,
                    bubble: 3,
                },
                MemoryAccess {
                    pc: 0x400008,
                    addr: 0,
                    bubble: 0,
                },
                MemoryAccess {
                    pc: u64::MAX,
                    addr: u64::MAX,
                    bubble: 255,
                },
            ],
        )
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let trace = sample();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let restored = read_trace(buf.as_slice()).unwrap();
        assert_eq!(restored, trace);
        assert_eq!(restored.name(), "sample");
    }

    #[test]
    fn empty_trace_roundtrips() {
        let trace = Trace::new("empty");
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        assert_eq!(read_trace(buf.as_slice()).unwrap(), trace);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_trace(&b"NOPE............"[..]).unwrap_err();
        assert!(matches!(err, ReadTraceError::BadMagic));
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample()).unwrap();
        buf[4] = 99; // corrupt version
        assert!(matches!(
            read_trace(buf.as_slice()).unwrap_err(),
            ReadTraceError::BadVersion(_)
        ));
    }

    #[test]
    fn truncated_stream_is_an_io_error() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample()).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            read_trace(buf.as_slice()).unwrap_err(),
            ReadTraceError::Io(_)
        ));
    }

    #[test]
    fn huge_name_length_over_a_short_stream_is_an_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_trace(buf.as_slice()).unwrap_err(),
            ReadTraceError::Io(_)
        ));
        buf.extend_from_slice(b"short name");
        assert!(read_trace(buf.as_slice()).is_err());
    }

    #[test]
    fn every_truncation_is_an_error() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample()).unwrap();
        for len in 0..buf.len() {
            assert!(read_trace(&buf[..len]).is_err(), "truncated at {len}");
        }
        assert_eq!(read_trace(buf.as_slice()).unwrap(), sample());
    }

    #[test]
    fn generated_trace_roundtrips() {
        let trace = crate::gen::Benchmark::Sphinx.generate(&crate::gen::GeneratorConfig::small());
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let restored = read_trace(buf.as_slice()).unwrap();
        assert_eq!(restored, trace);
    }
}
