//! Length-prefixed frames over a byte stream.
//!
//! Every protocol message travels as one frame: a 4-byte big-endian
//! payload length followed by that many bytes of UTF-8 text. Frames make
//! the text protocol self-delimiting — a reader never has to scan for a
//! terminator inside a multi-kilobyte shard artifact — and make the two
//! failure modes the coordinator must reject structurally detectable:
//!
//! - **truncated**: the stream ends mid-length or mid-payload
//!   ([`FrameError::Truncated`]);
//! - **oversized**: the length prefix exceeds [`MAX_FRAME`]
//!   ([`FrameError::Oversized`]) — a corrupt or hostile peer cannot make
//!   the receiver allocate unbounded memory. Below the cap the payload
//!   buffer grows only with the bytes actually received.

use std::io::{self, Read, Write};

/// Hard ceiling on one frame's payload (64 MiB). The largest legitimate
/// frame is an ARTIFACT carrying a whole shard's records; a paper-scale
/// 30 000-run campaign serializes to single-digit MiB, so the ceiling has
/// an order of magnitude of headroom while still rejecting a garbage
/// length prefix instantly.
pub const MAX_FRAME: usize = 64 << 20;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed (including read timeouts).
    Io(io::Error),
    /// The stream ended mid-frame.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized(usize),
    /// The payload is not UTF-8.
    NotText,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Oversized(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::NotText => write!(f, "frame payload is not UTF-8"),
        }
    }
}

impl FrameError {
    /// Whether this error is an orderly end of stream *between* frames —
    /// the peer closed the connection cleanly rather than mid-message.
    pub fn is_clean_eof(&self) -> bool {
        matches!(self, FrameError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof)
    }
}

/// Writes `payload` as one frame and flushes.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidInput, "frame payload exceeds u32 len")
    })?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// Reads one frame's payload.
///
/// An EOF before the first length byte is reported as
/// [`FrameError::Io`] with `UnexpectedEof` (see
/// [`FrameError::is_clean_eof`]); an EOF anywhere later is
/// [`FrameError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<String, FrameError> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < len.len() {
        match r.read(&mut len[got..]) {
            Ok(0) if got == 0 => {
                return Err(FrameError::Io(io::ErrorKind::UnexpectedEof.into()));
            }
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::Oversized(len));
    }
    // Grow with the bytes that actually arrive: a forged length below the
    // cap followed by a short stream costs what was sent, not `len`.
    let mut buf = Vec::new();
    r.take(len as u64)
        .read_to_end(&mut buf)
        .map_err(FrameError::Io)?;
    if buf.len() < len {
        return Err(FrameError::Truncated);
    }
    String::from_utf8(buf).map_err(|_| FrameError::NotText)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        for payload in [
            "",
            "HELLO",
            "ART 3\nline one\nline two\n",
            &"x".repeat(70_000),
        ] {
            buf.clear();
            write_frame(&mut buf, payload).expect("write");
            let back = read_frame(&mut Cursor::new(&buf)).expect("read");
            assert_eq!(back, payload);
        }
        // Two frames back to back stay delimited.
        buf.clear();
        write_frame(&mut buf, "one").expect("write");
        write_frame(&mut buf, "two").expect("write");
        let mut c = Cursor::new(&buf);
        assert_eq!(read_frame(&mut c).expect("first"), "one");
        assert_eq!(read_frame(&mut c).expect("second"), "two");
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "payload").expect("write");
        // Cut anywhere: inside the length prefix or inside the payload.
        for cut in [1, 3, 4, buf.len() - 1] {
            let err = read_frame(&mut Cursor::new(&buf[..cut])).expect_err("must reject");
            assert!(matches!(err, FrameError::Truncated), "cut at {cut}: {err}");
        }
        // A clean EOF between frames is not truncation.
        let err = read_frame(&mut Cursor::new(&[] as &[u8])).expect_err("eof");
        assert!(err.is_clean_eof(), "{err}");
    }

    #[test]
    fn oversized_and_non_utf8_frames_are_rejected() {
        let huge = ((MAX_FRAME + 1) as u32).to_be_bytes();
        let err = read_frame(&mut Cursor::new(&huge)).expect_err("must reject");
        assert!(
            matches!(err, FrameError::Oversized(n) if n == MAX_FRAME + 1),
            "{err}"
        );
        let err = read_frame(&mut Cursor::new(&u32::MAX.to_be_bytes())).expect_err("u32::MAX");
        assert!(matches!(err, FrameError::Oversized(_)), "{err}");
        // At the cap, a short stream is truncation, not an allocation.
        let err = read_frame(&mut Cursor::new(&(MAX_FRAME as u32).to_be_bytes())).expect_err("cap");
        assert!(matches!(err, FrameError::Truncated), "{err}");

        let mut bad = Vec::from(4u32.to_be_bytes());
        bad.extend_from_slice(&[0xff, 0xfe, 0x01, 0x02]);
        let err = read_frame(&mut Cursor::new(&bad)).expect_err("must reject");
        assert!(matches!(err, FrameError::NotText), "{err}");
    }
}
