//! `prkb-wire/v3` framing: length-prefixed, CRC32-guarded binary frames.
//!
//! The frame layout reuses the discipline proven by the durability layer's
//! write-ahead log ([`prkb_edbms::durability`]): every frame is
//!
//! ```text
//! len: u32 LE | crc: u32 LE | payload (len bytes)
//! ```
//!
//! where `crc` is CRC32 (IEEE, reflected — [`frame_is_intact`]) over `len || payload`,
//! so a damaged length field cannot silently misframe the stream. Unlike the
//! WAL there is no file header: a TCP connection is a fresh stream and every
//! frame is self-describing. Protocol versioning lives one layer up, in the
//! first payload byte (see [`crate::proto`]).
//!
//! Decoding is incremental and allocation-bounded: [`decode_frame`] works on
//! whatever bytes have arrived so far, answers "need more" without consuming
//! anything, and rejects a length field above the configured cap *before*
//! allocating — a lying length is a protocol error, not a 4 GiB allocation
//! request (mirroring `MAX_RECORD_LEN` in the WAL).
//!
//! Neither direction copies a frame to checksum it: a sender builds the
//! frame once, payload behind a reserved header ([`begin_frame`] →
//! [`seal_frame`]), and a receiver verifies `len || payload` where it lies
//! with the streaming CRC. [`FrameReader`] reads the remainder of a frame
//! straight into its buffer and lends the payload out of it.

pub use prkb_edbms::durability::{begin_frame, seal_frame, FRAME_HEADER_LEN};

use prkb_edbms::durability::frame_is_intact;
use std::fmt;
use std::io::{self, Read, Write};

/// Cap on a single frame's payload (1 MiB), on the server and the client.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 1 << 20;

/// Why a frame could not be decoded.
#[derive(Debug)]
pub enum FrameError {
    /// The length field exceeds the configured cap. Unrecoverable for the
    /// stream: the decoder cannot know where the next frame starts.
    TooLarge {
        /// The claimed payload length.
        len: u32,
        /// The configured cap.
        max: u32,
    },
    /// The checksum failed: the frame (or its length field) is damaged.
    /// Unrecoverable for the stream.
    BadCrc,
    /// The peer closed the stream in the middle of a frame.
    Truncated,
    /// An I/O failure on the underlying stream.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds cap of {max}")
            }
            FrameError::BadCrc => write!(f, "frame checksum mismatch"),
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Io(e) => write!(f, "frame I/O failure: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Encodes one frame around `payload`.
///
/// # Panics
/// Panics if `payload` exceeds `u32::MAX` bytes (callers cap far below).
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = begin_frame(payload.len());
    frame.extend_from_slice(payload);
    seal_frame(&mut frame);
    frame
}

/// Looks at the frame `bytes` starts with: `Ok(total)` when all `total`
/// bytes of it are there and its checksum holds, `Err(missing)` when at
/// least `missing` more must arrive first. The length field is judged
/// against `max_len` here, before anyone sizes a buffer by it.
fn front_frame(bytes: &[u8], max_len: u32) -> Result<Result<usize, usize>, FrameError> {
    if bytes.len() < FRAME_HEADER_LEN {
        return Ok(Err(FRAME_HEADER_LEN - bytes.len()));
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
    if len > max_len {
        return Err(FrameError::TooLarge { len, max: max_len });
    }
    let total = FRAME_HEADER_LEN + len as usize;
    if bytes.len() < total {
        return Ok(Err(total - bytes.len()));
    }
    if !frame_is_intact(&bytes[..total]) {
        return Err(FrameError::BadCrc);
    }
    Ok(Ok(total))
}

/// Attempts to decode one frame from the front of `bytes`.
///
/// Returns `Ok(None)` when the buffer holds only a prefix of a frame (read
/// more and retry), or `Ok(Some((payload, consumed)))` on success.
///
/// # Errors
/// [`FrameError::TooLarge`] and [`FrameError::BadCrc`] are stream-fatal:
/// framing is lost and the connection must be closed.
pub fn decode_frame(bytes: &[u8], max_len: u32) -> Result<Option<(Vec<u8>, usize)>, FrameError> {
    let front = front_frame(bytes, max_len)?.ok();
    Ok(front.map(|total| (bytes[FRAME_HEADER_LEN..total].to_vec(), total)))
}

/// Writes one frame to a blocking stream.
///
/// # Errors
/// Propagates the underlying I/O failure.
pub(crate) fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    w.write_all(&encode_frame(payload))?;
    w.flush()
}

/// Smallest read offered to the stream: enough to pick up a run of small
/// pipelined frames in one call.
const MIN_READ: usize = 4096;

/// Largest amount the buffer grows ahead of the bytes actually received.
/// A peer's length field sizes reads only up to this step, so claiming
/// 1 MiB and sending 9 bytes costs 64 KiB, not 1 MiB.
const READ_STEP: usize = 64 * 1024;

/// Incremental frame reader: buffers partial frames across reads so a slow
/// sender never blocks progress. Works over both read-timeout-armed
/// blocking streams and non-blocking sockets — `WouldBlock`/`TimedOut` map
/// to [`ReadStep::Idle`]/[`ReadStep::Stalled`], which is exactly the
/// "wait for the next readiness event" answer the epoll reactor needs.
///
/// Once a frame's header is in, the rest of it is read straight into the
/// buffer in steps of up to 64 KiB; the checksum runs over the buffer in
/// place and the payload is lent out of it. The storage is kept between
/// frames, so a connection that carries large frames sizes it once.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Storage. `buf[head..tail]` is received and not yet handed out; the
    /// bytes past `tail` are scratch for the next read.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

/// One step of [`FrameReader::poll`].
#[derive(Debug)]
pub enum ReadStep<'a> {
    /// A complete frame; `bytes_consumed` includes the 8-byte header.
    Frame {
        /// The frame payload, valid until the reader is polled again.
        payload: &'a [u8],
        /// Wire bytes this frame occupied (header included).
        bytes_consumed: usize,
    },
    /// The read timed out with **no** partial frame buffered (idle tick —
    /// check deadlines/shutdown and poll again).
    Idle,
    /// The read timed out mid-frame (slow or stalled sender — check the
    /// connection deadline and poll again).
    Stalled,
    /// The peer closed the stream at a clean frame boundary.
    Closed,
}

impl FrameReader {
    /// Creates an empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Bytes currently buffered (a partial frame, or zero between frames).
    /// The reactor compares this across polls to detect byte-level
    /// progress for its stall deadline.
    pub(crate) fn buffered(&self) -> usize {
        self.tail - self.head
    }

    /// True when a partial frame is buffered — the connection should be
    /// judged by the stall deadline, not the idle deadline.
    pub(crate) fn mid_frame(&self) -> bool {
        self.buffered() > 0
    }

    /// Reads until one of: a full frame, a timeout tick, EOF, or an error.
    ///
    /// # Errors
    /// Stream-fatal framing damage ([`FrameError::BadCrc`],
    /// [`FrameError::TooLarge`]), EOF mid-frame ([`FrameError::Truncated`]),
    /// or I/O failure.
    pub fn poll<R: Read>(&mut self, r: &mut R, max_len: u32) -> Result<ReadStep<'_>, FrameError> {
        loop {
            let missing = match front_frame(&self.buf[self.head..self.tail], max_len)? {
                Ok(total) => {
                    let start = self.head;
                    self.head += total;
                    return Ok(ReadStep::Frame {
                        payload: &self.buf[start + FRAME_HEADER_LEN..start + total],
                        bytes_consumed: total,
                    });
                }
                Err(missing) => missing,
            };
            match self.read_more(r, missing.clamp(MIN_READ, READ_STEP)) {
                Ok(0) if self.mid_frame() => return Err(FrameError::Truncated),
                Ok(0) => return Ok(ReadStep::Closed),
                Ok(n) => self.tail += n,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(if self.mid_frame() {
                        ReadStep::Stalled
                    } else {
                        ReadStep::Idle
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }

    /// One `read` into the storage behind the buffered bytes, first making
    /// room for `want` of them — and never for more than that, so the
    /// storage outgrows what has actually arrived by at most one step.
    fn read_more<R: Read>(&mut self, r: &mut R, want: usize) -> io::Result<usize> {
        if self.head > 0 {
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
        }
        if self.buf.len() < self.tail + want {
            self.buf.reserve_exact(self.tail + want - self.buf.len());
            self.buf.resize(self.tail + want, 0);
        }
        r.read(&mut self.buf[self.tail..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let frame = encode_frame(b"hello wire");
        let (payload, consumed) = decode_frame(&frame, DEFAULT_MAX_FRAME_LEN)
            .expect("ok")
            .expect("complete");
        assert_eq!(payload, b"hello wire");
        assert_eq!(consumed, frame.len());
    }

    #[test]
    fn empty_payload_is_legal() {
        let frame = encode_frame(b"");
        let (payload, consumed) = decode_frame(&frame, DEFAULT_MAX_FRAME_LEN)
            .expect("ok")
            .expect("complete");
        assert!(payload.is_empty());
        assert_eq!(consumed, FRAME_HEADER_LEN);
    }

    #[test]
    fn prefix_needs_more() {
        let frame = encode_frame(b"0123456789");
        for cut in 0..frame.len() {
            assert!(
                decode_frame(&frame[..cut], DEFAULT_MAX_FRAME_LEN)
                    .expect("prefix is not an error")
                    .is_none(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bit_flip_fails_crc() {
        let frame = encode_frame(b"sensitive");
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x01;
            match decode_frame(&bad, DEFAULT_MAX_FRAME_LEN) {
                Err(FrameError::BadCrc) | Err(FrameError::TooLarge { .. }) | Ok(None) => {}
                other => panic!("flip at {i}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut frame = encode_frame(b"x");
        frame[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&frame, DEFAULT_MAX_FRAME_LEN),
            Err(FrameError::TooLarge { len: u32::MAX, .. })
        ));
    }

    #[test]
    fn back_to_back_frames_consume_exactly() {
        let mut stream = encode_frame(b"first");
        stream.extend_from_slice(&encode_frame(b"second"));
        let (p1, c1) = decode_frame(&stream, DEFAULT_MAX_FRAME_LEN)
            .expect("ok")
            .expect("complete");
        assert_eq!(p1, b"first");
        let (p2, _) = decode_frame(&stream[c1..], DEFAULT_MAX_FRAME_LEN)
            .expect("ok")
            .expect("complete");
        assert_eq!(p2, b"second");
    }

    #[test]
    fn frame_reader_reassembles_split_frames() {
        let mut stream = encode_frame(b"alpha");
        stream.extend_from_slice(&encode_frame(b"beta"));
        // Feed the reader one byte at a time via a cursor chunked reader.
        struct OneByte<'a>(&'a [u8], usize);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.1 >= self.0.len() {
                    return Ok(0);
                }
                buf[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let mut r = OneByte(&stream, 0);
        let mut reader = FrameReader::new();
        let mut seen = Vec::new();
        loop {
            match reader.poll(&mut r, DEFAULT_MAX_FRAME_LEN).expect("ok") {
                ReadStep::Frame { payload, .. } => seen.push(payload.to_vec()),
                ReadStep::Closed => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(seen, vec![b"alpha".to_vec(), b"beta".to_vec()]);
    }

    #[test]
    fn eof_mid_frame_is_truncated() {
        let frame = encode_frame(b"doomed");
        let cut = &frame[..frame.len() - 2];
        let mut reader = FrameReader::new();
        let mut r = io::Cursor::new(cut.to_vec());
        let err = loop {
            match reader.poll(&mut r, DEFAULT_MAX_FRAME_LEN) {
                Ok(ReadStep::Frame { .. }) => panic!("frame cannot complete"),
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(matches!(err, FrameError::Truncated));
    }

    /// A non-blocking socket in miniature: each `read` hands over the next
    /// scripted delivery, then answers `WouldBlock` until the script moves
    /// on (an empty delivery is an explicit "nothing yet").
    struct Deliveries(std::collections::VecDeque<Vec<u8>>);

    impl Deliveries {
        fn new<I: IntoIterator<Item = Vec<u8>>>(chunks: I) -> Self {
            // Interleave "nothing yet" so every delivery ends one poll.
            Deliveries(chunks.into_iter().flat_map(|c| [c, Vec::new()]).collect())
        }
    }

    impl Read for Deliveries {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.0.pop_front() {
                Some(chunk) if !chunk.is_empty() => {
                    assert!(chunk.len() <= buf.len(), "delivery larger than the read");
                    buf[..chunk.len()].copy_from_slice(&chunk);
                    Ok(chunk.len())
                }
                _ => Err(io::ErrorKind::WouldBlock.into()),
            }
        }
    }

    #[test]
    fn golden_frame_decodes_and_reencodes_byte_for_byte() {
        // `Response::Selection { seq: 3, tuples: [5, 1, 9], .. }` as framed
        // by the commit before build-once framing: a v2 payload, whose
        // Selection is a bare list. The frame re-encodes byte for byte; the
        // payload still decodes, and re-encodes as today's v3 bitmap.
        let golden: &[u8] = include_bytes!("../tests/fixtures/parent_frame.bin");
        let (payload, consumed) = decode_frame(golden, DEFAULT_MAX_FRAME_LEN)
            .expect("parent-built frame verifies")
            .expect("complete");
        assert_eq!(consumed, golden.len());
        assert_eq!(encode_frame(&payload), golden);
        let resp = crate::proto::Response::decode(&payload).expect("payload decodes");
        assert!(matches!(
            &resp,
            crate::proto::Response::Selection { seq: 3, tuples, .. } if tuples == &[5, 1, 9]
        ));
        let bitmap: &[u8] = include_bytes!("../tests/fixtures/selection_v3_bitmap.bin");
        assert_eq!(resp.encode_framed(), bitmap);
    }

    #[test]
    fn v3_golden_frames_decode_and_reencode_byte_for_byte() {
        // Both id-set forms of `Selection { seq: 3, .. }` with the parent
        // frame's stats, written out by hand from the layout: the list
        // `[5, 1, 900]` (form 0, engine order kept), and `{1, 5, 9}` as a
        // bitmap (form 1: first 1, two bytes 0x11 0x01).
        let list: &[u8] = include_bytes!("../tests/fixtures/selection_v3_list.bin");
        let bitmap: &[u8] = include_bytes!("../tests/fixtures/selection_v3_bitmap.bin");
        for (golden, ids) in [(list, [5, 1, 900]), (bitmap, [1, 5, 9])] {
            let (payload, _) = decode_frame(golden, DEFAULT_MAX_FRAME_LEN)
                .expect("fixture verifies")
                .expect("complete");
            let resp = crate::proto::Response::decode(&payload).expect("payload decodes");
            let crate::proto::Response::Selection { seq, tuples, stats } = &resp else {
                panic!("not a selection: {resp:?}");
            };
            assert_eq!((*seq, tuples.as_slice()), (3, &ids[..]));
            assert_eq!((stats.qpf_uses, stats.overflow_scanned), (100, 2));
            assert_eq!(resp.encode(), payload);
            assert_eq!(resp.encode_framed(), golden);
        }
    }

    #[test]
    fn clocks_see_every_byte_of_a_trickled_frame() {
        // What the reactor's stall clock reads: `buffered()` moves with
        // every byte, `mid_frame()` holds from the first byte to the last.
        let frame = encode_frame(b"one byte at a time");
        let mut r = Deliveries::new(frame.iter().map(|&b| vec![b]));
        let mut reader = FrameReader::new();
        for received in 1..frame.len() {
            let step = reader.poll(&mut r, DEFAULT_MAX_FRAME_LEN).expect("ok");
            assert!(
                matches!(step, ReadStep::Stalled),
                "byte {received}: {step:?}"
            );
            assert_eq!(reader.buffered(), received);
            assert!(reader.mid_frame());
        }
        match reader.poll(&mut r, DEFAULT_MAX_FRAME_LEN).expect("ok") {
            ReadStep::Frame {
                payload,
                bytes_consumed,
            } => {
                assert_eq!(payload, b"one byte at a time");
                assert_eq!(bytes_consumed, frame.len());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(reader.buffered(), 0);
        assert!(!reader.mid_frame());
        assert!(matches!(
            reader.poll(&mut r, DEFAULT_MAX_FRAME_LEN),
            Ok(ReadStep::Idle)
        ));
    }

    #[test]
    fn two_pipelined_frames_in_one_read() {
        let first = encode_frame(b"first");
        let second = encode_frame(b"second, and longer");
        let mut both = first.clone();
        both.extend_from_slice(&second);
        let mut r = Deliveries::new([both]);
        let mut reader = FrameReader::new();
        match reader.poll(&mut r, DEFAULT_MAX_FRAME_LEN).expect("ok") {
            ReadStep::Frame { payload, .. } => assert_eq!(payload, b"first"),
            other => panic!("unexpected {other:?}"),
        }
        // The second frame is already in: counted as buffered, and handed
        // out without another read (the script would answer WouldBlock).
        assert_eq!(reader.buffered(), second.len());
        assert!(reader.mid_frame());
        match reader.poll(&mut r, DEFAULT_MAX_FRAME_LEN).expect("ok") {
            ReadStep::Frame {
                payload,
                bytes_consumed,
            } => {
                assert_eq!(payload, b"second, and longer");
                assert_eq!(bytes_consumed, second.len());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(reader.buffered(), 0);
        assert!(matches!(
            reader.poll(&mut r, DEFAULT_MAX_FRAME_LEN),
            Ok(ReadStep::Idle)
        ));
    }

    #[test]
    fn lying_length_costs_one_step_not_the_claim() {
        // Claims the full 1 MiB, delivers 9 bytes, then goes quiet.
        let mut head = DEFAULT_MAX_FRAME_LEN.to_le_bytes().to_vec();
        head.extend_from_slice(&[0; 5]);
        let mut r = Deliveries::new([head]);
        let mut reader = FrameReader::new();
        for _ in 0..4 {
            assert!(matches!(
                reader.poll(&mut r, DEFAULT_MAX_FRAME_LEN),
                Ok(ReadStep::Stalled)
            ));
            assert_eq!(reader.buffered(), 9);
            assert!(reader.buf.capacity() <= 9 + READ_STEP);
        }
        // One byte over the cap is refused before any of this.
        let mut over = (DEFAULT_MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        over.extend_from_slice(&[0; 4]);
        let mut reader = FrameReader::new();
        assert!(matches!(
            reader.poll(&mut Deliveries::new([over]), DEFAULT_MAX_FRAME_LEN),
            Err(FrameError::TooLarge { .. })
        ));
        assert!(reader.buf.capacity() <= MIN_READ);
    }

    #[test]
    fn large_frame_arrives_in_sized_steps_and_storage_is_reused() {
        let payload: Vec<u8> = (0..300_000u32).map(|i| (i * 31) as u8).collect();
        let frame = encode_frame(&payload);
        let mut stream = frame.clone();
        stream.extend_from_slice(&frame);
        let mut r = io::Cursor::new(stream);
        let mut reader = FrameReader::new();
        for _ in 0..2 {
            match reader.poll(&mut r, DEFAULT_MAX_FRAME_LEN).expect("ok") {
                ReadStep::Frame { payload: got, .. } => assert_eq!(got, payload),
                other => panic!("unexpected {other:?}"),
            }
            // Never sized past the frame by more than one step.
            assert!(reader.buf.capacity() <= frame.len() + READ_STEP);
        }
        assert!(matches!(
            reader.poll(&mut r, DEFAULT_MAX_FRAME_LEN),
            Ok(ReadStep::Closed)
        ));
    }
}
