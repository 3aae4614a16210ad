//! CRC-framed append-only write-ahead log, std-only I/O.
//!
//! One WAL file is a header followed by frames:
//!
//! ```text
//! header:  "KWAL" (4 bytes)  version u32 LE
//! frame:   len u32 LE | crc32(payload) u32 LE | payload (len bytes)
//! ```
//!
//! Appends are atomic at bin granularity: the daemon writes one frame
//! per closed-bin batch and fsyncs before acknowledging the bin. A
//! crash can therefore leave at most one *tail* frame incomplete
//! (truncated write) or corrupt (torn write); [`read_frames`] stops at
//! the first frame whose length or checksum does not hold and reports
//! how many tail bytes it dropped, so recovery is total: every fully
//! fsynced frame survives, a damaged tail never poisons the replay.

use crate::codec::crc32;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"KWAL";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 8;

/// Rejects a file that does not start with this format's header: the
/// magic, then a version this build reads.
fn check_header(bytes: &[u8], path: &Path) -> std::io::Result<()> {
    let invalid = |what: String| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
    if bytes.len() < HEADER_LEN || &bytes[..4] != MAGIC {
        return Err(invalid(format!("{} is not a kepler WAL", path.display())));
    }
    let version = u32::from_le_bytes(bytes[4..HEADER_LEN].try_into().unwrap());
    if version != VERSION {
        return Err(invalid(format!("{}: unsupported WAL version {version}", path.display())));
    }
    Ok(())
}

/// Appends CRC-framed records to a WAL file.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
}

impl WalWriter {
    /// Opens `path` for appending, writing the header if the file is new
    /// (or empty). An existing file must carry a valid header of this
    /// version.
    pub fn open(path: &Path) -> std::io::Result<WalWriter> {
        let mut file = OpenOptions::new().read(true).create(true).append(true).open(path)?;
        let len = file.metadata()?.len();
        if len == 0 {
            file.write_all(MAGIC)?;
            file.write_all(&VERSION.to_le_bytes())?;
            file.sync_all()?;
        } else {
            let mut header = [0u8; HEADER_LEN];
            File::open(path)?.read_exact(&mut header)?;
            check_header(&header, path)?;
        }
        Ok(WalWriter { file })
    }

    /// Appends one frame; `fill` writes its payload straight behind the
    /// `len | crc` header, so the frame is built once, in one buffer. It
    /// is durable only after [`sync`](Self::sync) returns.
    pub fn append(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> std::io::Result<()> {
        let mut frame = vec![0; 8];
        fill(&mut frame);
        let payload = &frame[8..];
        let len = u32::try_from(payload.len()).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large")
        })?;
        let crc = crc32(payload);
        frame[..4].copy_from_slice(&len.to_le_bytes());
        frame[4..8].copy_from_slice(&crc.to_le_bytes());
        // One write per frame: a crash mid-call tears at most this frame.
        self.file.write_all(&frame)
    }

    /// Flushes appended frames to stable storage (fsync).
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_all()
    }
}

/// The result of scanning a WAL file.
#[derive(Debug, Default)]
pub struct WalScan {
    /// Payloads of every intact frame, in append order.
    pub frames: Vec<Vec<u8>>,
    /// Bytes dropped from the tail (truncated or torn final write).
    /// Zero for a cleanly closed log.
    pub dropped_bytes: u64,
}

/// Reads every intact frame of the WAL at `path`. A missing file is an
/// empty log. Scanning stops at the first frame whose length runs past
/// the file or whose CRC does not match — the damaged tail is counted,
/// not replayed.
pub fn read_frames(path: &Path) -> std::io::Result<WalScan> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalScan::default()),
        Err(e) => return Err(e),
    };
    check_header(&bytes, path)?;
    let mut scan = WalScan::default();
    let mut pos = HEADER_LEN;
    while pos < bytes.len() {
        let rest = bytes.len() - pos;
        if rest < 8 {
            break; // truncated frame header
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if rest - 8 < len {
            break; // truncated payload
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            break; // torn write
        }
        scan.frames.push(payload.to_vec());
        pos += 8 + len;
    }
    scan.dropped_bytes = (bytes.len() - pos) as u64;
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(w: &mut WalWriter, payload: &[u8]) {
        w.append(|frame| frame.extend_from_slice(payload)).unwrap();
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("kepler-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn frames_round_trip_in_order() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal.log");
        let mut w = WalWriter::open(&path).unwrap();
        for i in 0..10u8 {
            put(&mut w, &vec![i; (i as usize + 1) * 3]);
        }
        w.sync().unwrap();
        let scan = read_frames(&path).unwrap();
        assert_eq!(scan.frames.len(), 10);
        assert_eq!(scan.dropped_bytes, 0);
        assert_eq!(scan.frames[4], vec![4u8; 15]);
        // Reopening appends after existing frames.
        let mut w = WalWriter::open(&path).unwrap();
        put(&mut w, b"tail");
        w.sync().unwrap();
        let scan = read_frames(&path).unwrap();
        assert_eq!(scan.frames.len(), 11);
        assert_eq!(scan.frames[10], b"tail");
    }

    #[test]
    fn truncated_tail_is_dropped_not_fatal() {
        let dir = tmpdir("truncated");
        let path = dir.join("wal.log");
        let mut w = WalWriter::open(&path).unwrap();
        put(&mut w, b"frame-one");
        put(&mut w, b"frame-two-longer");
        w.sync().unwrap();
        drop(w);
        // Chop mid-way into the last frame's payload.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let scan = read_frames(&path).unwrap();
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.frames[0], b"frame-one");
        assert!(scan.dropped_bytes > 0);
    }

    #[test]
    fn torn_frame_fails_crc_and_is_dropped() {
        let dir = tmpdir("torn");
        let path = dir.join("wal.log");
        let mut w = WalWriter::open(&path).unwrap();
        put(&mut w, b"frame-one");
        put(&mut w, b"frame-two");
        w.sync().unwrap();
        drop(w);
        // Flip a byte inside the last frame's payload: length holds, CRC
        // must not.
        let mut full = std::fs::read(&path).unwrap();
        let n = full.len();
        full[n - 2] ^= 0xFF;
        std::fs::write(&path, &full).unwrap();
        let scan = read_frames(&path).unwrap();
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.frames[0], b"frame-one");
        assert_eq!(scan.dropped_bytes, (8 + b"frame-two".len()) as u64);
    }

    #[test]
    fn unknown_version_is_rejected_by_reader_and_writer() {
        let dir = tmpdir("version");
        let path = dir.join("wal.log");
        let mut w = WalWriter::open(&path).unwrap();
        put(&mut w, b"frame");
        w.sync().unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&(VERSION + 1).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        // A later format must not be replayed — or appended to — as v1.
        let err = read_frames(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let err = WalWriter::open(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "a rejected log is left untouched");
    }

    #[test]
    fn missing_file_is_an_empty_log_and_garbage_is_rejected() {
        let dir = tmpdir("edge");
        let scan = read_frames(&dir.join("absent.log")).unwrap();
        assert!(scan.frames.is_empty());
        let bad = dir.join("garbage.log");
        std::fs::write(&bad, b"not a wal at all").unwrap();
        assert!(read_frames(&bad).is_err());
        assert!(WalWriter::open(&bad).is_err());
    }
}
