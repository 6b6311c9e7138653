//! The binary wire codec: bit-exact message payloads in length-prefixed,
//! round-sequenced frames.
//!
//! The CONGEST model bounds every message at `O(log n)` **bits**, and the
//! simulator's accounting ([`MessageSize::bit_size`]) records exactly that
//! quantity.  This module makes the accounting *honest*: every message type
//! defines a [`WireMessage`] encoding whose payload occupies **exactly**
//! `bit_size()` bits on the wire, so a run over a socket transport transmits
//! what the metrics claim — a codec that silently fattened messages past the
//! CONGEST bound would fail the bandwidth cross-check tests.
//!
//! # Payloads
//!
//! Payloads are written MSB-first through a [`BitWriter`] and read back
//! through a [`BitReader`].  Variable-width fields use the same width rule as
//! the `bit_size` accounting (`bits_for(value + 1)` for color-like fields,
//! the plain bit length for raw `u64`s), and decoders *validate
//! canonicality*: a payload whose claimed width does not match the decoded
//! value's own width is rejected with [`WireError::NonCanonical`] instead of
//! being silently accepted.
//!
//! Because a payload's width is derived from its value, the width travels
//! out-of-band in the frame entry header (`bits`), together with one
//! type-specific `aux` byte for messages with more than one variable-width
//! field (e.g. the color/priority split of a list-coloring proposal).  Entry
//! headers are *framing*, not message payload — exactly like the destination
//! slot and sender id that accompany every routed message — so they are not
//! charged against the CONGEST bound.
//!
//! # Frames
//!
//! A frame is the unit the transport moves per shard pair per round:
//!
//! ```text
//! [body_len: u32 LE]                                 length prefix
//! [kind: u8][round: u64 LE][from: u16 LE][to: u16 LE]   13-byte header
//! <kind-specific payload>
//! ```
//!
//! * `kind` — [`FrameKind`]: `Data` (a batch of routed messages),
//!   `RoundStart` (coordinator → worker round decision / stop signal),
//!   `Vote` (worker → coordinator halting vote: the shard's active count),
//!   `Output` (worker → coordinator final outputs + counters),
//!   `Topology` (coordinator → worker pass-1 shard-plan chunk),
//!   `Peers` (mesh address exchange) for the scale-out handshake,
//!   `Stats` (worker → coordinator periodic telemetry snapshot, strictly
//!   out-of-band: sent just before a `Vote`, never affecting round
//!   decisions) and `Trace` (worker → coordinator final stamped
//!   trace-event blob, sent just before the `Output` frame when the
//!   coordinator requested tracing — equally out-of-band) — see
//!   `transport`.
//! * `round` — every frame is stamped with the round it belongs to;
//!   receivers reject out-of-sequence frames with
//!   [`WireError::RoundMismatch`].
//! * `from` / `to` — shard indices, validated on receipt.
//!
//! A `Data` payload is `[count: u32 LE]` followed by `count` entries:
//!
//! ```text
//! [slot: u32 LE][sender: u32 LE][bits: u16 LE][aux: u8][payload: ⌈bits/8⌉ bytes]
//! ```
//!
//! Decoders verify the length prefix, the entry count, exact payload
//! consumption and zero padding bits; every malformed input is reported as a
//! [`WireError`] — never a panic.
//!
//! # One copy per direction
//!
//! A round's data frame can run to tens of megabytes.  The sending side
//! holds it once: a [`DataFrameBuilder`] encodes entries straight into the
//! buffer the socket writes from.  The receiving side does not hold it at
//! all: a [`FrameBuffer`] reads the socket into one fixed window of
//! [`READ_WINDOW`] bytes per link, and a [`DataDecoder`] decodes each entry
//! there as soon as its bytes are in, so a link's receive memory is one
//! window whatever a frame's length.  Large control frames are built in
//! place behind [`FRAME_PREFIX_BYTES`] of room ([`seal_frame`]), and
//! [`read_frame`] reads a payload straight into its own `Vec`.

use crate::algorithm::MessageSize;

/// Upper bound on a frame body, as a cheap sanity check against corrupted
/// length prefixes (a body this large would mean gigabytes of staged
/// messages for one shard pair in one round).
pub const MAX_FRAME_BODY: usize = 1 << 28;

/// Size of the fixed frame header (`kind` + `round` + `from` + `to`).
pub const FRAME_HEADER_BYTES: usize = 1 + 8 + 2 + 2;

/// The length prefix and the header: every frame starts with this many
/// bytes, and a frame built in place leaves this much room at its front for
/// [`seal_frame`].
pub const FRAME_PREFIX_BYTES: usize = 4 + FRAME_HEADER_BYTES;

/// The room a [`DataFrameBuilder`] leaves before its entries: the frame
/// prefix and the entry count.
const DATA_PREFIX_BYTES: usize = FRAME_PREFIX_BYTES + 4;

/// The bytes of a data entry before its payload: slot, sender, bits, aux.
const ENTRY_HEADER_BYTES: usize = 4 + 4 + 2 + 1;

/// The memory of a [`FrameBuffer`]: one fixed window per link.
pub const READ_WINDOW: usize = 64 * 1024;

// The largest data entry, a payload of `u16::MAX` bits behind its header,
// fits in one window, so the bytes a decoder leaves unread never fill it.
const _: () = assert!(ENTRY_HEADER_BYTES + (u16::MAX as usize).div_ceil(8) < READ_WINDOW);

/// A decoding error of the wire codec.
///
/// Malformed frames and payloads are *reported*, never panicked on: a
/// transport endpoint must survive a truncated or corrupted peer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The input ended before the decoder read everything it needed.
    Truncated {
        /// Bytes (frame layer) or bits (payload layer) required.
        needed: usize,
        /// Bytes/bits actually available.
        got: usize,
    },
    /// A length field exceeds its hard bound or is inconsistent.
    BadLength {
        /// The offending length.
        len: usize,
        /// The largest acceptable value.
        limit: usize,
    },
    /// An unknown [`FrameKind`] tag.
    BadKind(u8),
    /// An unknown message variant tag inside a payload.
    BadTag(u64),
    /// A frame was stamped with a different round than the receiver expects.
    RoundMismatch {
        /// The round the receiver is in.
        expected: u64,
        /// The round the frame claims.
        got: u64,
    },
    /// A frame's `from`/`to` shard fields do not match the link it arrived
    /// on.
    ShardMismatch {
        /// What the receiving endpoint expected.
        expected: (u16, u16),
        /// What the frame claims.
        got: (u16, u16),
    },
    /// A payload decoded to a value whose canonical width differs from the
    /// claimed width (or its padding bits were nonzero).
    NonCanonical,
    /// A payload or frame body had bytes left over after decoding.
    TrailingBytes(usize),
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "truncated input: needed {needed}, got {got}")
            }
            WireError::BadLength { len, limit } => {
                write!(f, "length {len} exceeds limit {limit}")
            }
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::RoundMismatch { expected, got } => {
                write!(f, "round mismatch: expected {expected}, frame says {got}")
            }
            WireError::ShardMismatch { expected, got } => write!(
                f,
                "shard mismatch: expected {}->{}, frame says {}->{}",
                expected.0, expected.1, got.0, got.1
            ),
            WireError::NonCanonical => write!(f, "non-canonical payload encoding"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for std::io::Error {
    fn from(e: WireError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// MSB-first bit sink for message payloads.
///
/// Reusable: [`BitWriter::clear`] resets it without freeing the buffer, so
/// the per-message encode on the transport hot path does not allocate.
#[derive(Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    bit_len: usize,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the low `width` bits of `value`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or `value` does not fit in `width` bits —
    /// both are encoder bugs, not input errors.
    pub fn write_bits(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "bit width {width} > 64");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        // This is the per-message transport hot path, so the loop shape is
        // head → whole bytes → tail instead of a uniform chunk loop: top up
        // the current partial byte once, then emit full bytes with a plain
        // shift each (no masking, no re-deriving the bit offset), then park
        // the leftover bits MSB-aligned in a fresh byte.  Byte-identical to
        // the uniform loop it replaced (pinned by the codec tests).
        let mut rem = width;
        let bit_off = (self.bit_len % 8) as u32;
        if bit_off != 0 {
            let space = 8 - bit_off;
            let take = rem.min(space);
            let chunk = ((value >> (rem - take)) & ((1u64 << take) - 1)) as u8;
            *self.bytes.last_mut().expect("partial byte exists") |= chunk << (space - take);
            self.bit_len += take as usize;
            rem -= take;
        }
        while rem >= 8 {
            rem -= 8;
            self.bytes.push((value >> rem) as u8);
            self.bit_len += 8;
        }
        if rem > 0 {
            let chunk = (value & ((1u64 << rem) - 1)) as u8;
            self.bytes.push(chunk << (8 - rem));
            self.bit_len += rem as usize;
        }
    }

    /// Number of bits written so far.
    pub fn bits_written(&self) -> usize {
        self.bit_len
    }

    /// The written bytes (the final partial byte is zero-padded).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Resets the writer, keeping its allocation.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.bit_len = 0;
    }
}

/// MSB-first bit source over a byte slice, bounded to a bit limit.
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    limit: usize,
}

impl<'a> BitReader<'a> {
    /// Reads up to `bit_limit` bits from `bytes`.
    ///
    /// Returns [`WireError::Truncated`] if `bytes` holds fewer than
    /// `bit_limit` bits.
    pub fn new(bytes: &'a [u8], bit_limit: usize) -> Result<Self, WireError> {
        if bytes.len() * 8 < bit_limit {
            return Err(WireError::Truncated {
                needed: bit_limit,
                got: bytes.len() * 8,
            });
        }
        Ok(Self {
            bytes,
            pos: 0,
            limit: bit_limit,
        })
    }

    /// Reads `width` bits, most significant first.
    pub fn read_bits(&mut self, width: u32) -> Result<u64, WireError> {
        if width > 64 {
            return Err(WireError::BadLength {
                len: width as usize,
                limit: 64,
            });
        }
        if self.pos + width as usize > self.limit {
            return Err(WireError::Truncated {
                needed: width as usize,
                got: self.limit - self.pos,
            });
        }
        // Head → whole bytes → tail, mirroring `BitWriter::write_bits`:
        // drain the current partial byte once, then fold in full bytes with
        // a shift-or each, then pick the leftover bits off the top of the
        // next byte.
        let mut v = 0u64;
        let mut rem = width;
        let bit_off = (self.pos % 8) as u32;
        if bit_off != 0 {
            let space = 8 - bit_off;
            let take = rem.min(space);
            let byte = self.bytes[self.pos / 8];
            let chunk = (byte >> (space - take)) & (((1u16 << take) - 1) as u8);
            v = chunk as u64;
            self.pos += take as usize;
            rem -= take;
        }
        while rem >= 8 {
            v = (v << 8) | self.bytes[self.pos / 8] as u64;
            self.pos += 8;
            rem -= 8;
        }
        if rem > 0 {
            let chunk = self.bytes[self.pos / 8] >> (8 - rem);
            v = (v << rem) | chunk as u64;
            self.pos += rem as usize;
        }
        Ok(v)
    }

    /// Bits left before the limit.
    pub fn remaining(&self) -> usize {
        self.limit - self.pos
    }
}

/// A message that can cross a process boundary.
///
/// The contract every implementation must (and the codec tests do) uphold:
///
/// * [`WireMessage::encode`] writes **exactly** `self.bit_size()` bits —
///   the payload on the wire is the payload the CONGEST accounting charges;
/// * `decode(encode(m)) == m` for every value (round-trip identity);
/// * `decode` rejects malformed input with a [`WireError`], never a panic,
///   and rejects non-canonical encodings (claimed widths that do not match
///   the decoded values).
///
/// The `aux` byte returned by `encode` and handed back to `decode` is
/// out-of-band framing for messages with more than one variable-width field
/// (it typically carries the width of the first field, so the decoder can
/// split the payload); single-field messages return 0 and ignore it.
pub trait WireMessage: Sized {
    /// Encodes the payload into `w`; returns the `aux` framing byte.
    fn encode(&self, w: &mut BitWriter) -> u8;

    /// Decodes a payload of exactly `bits` bits with framing byte `aux`.
    fn decode(r: &mut BitReader<'_>, bits: u16, aux: u8) -> Result<Self, WireError>;
}

impl WireMessage for u64 {
    fn encode(&self, w: &mut BitWriter) -> u8 {
        w.write_bits(*self, self.bit_size() as u32);
        0
    }

    fn decode(r: &mut BitReader<'_>, bits: u16, _aux: u8) -> Result<Self, WireError> {
        if bits > 64 {
            return Err(WireError::BadLength {
                len: bits as usize,
                limit: 64,
            });
        }
        let v = r.read_bits(bits as u32)?;
        if v.bit_size() != bits as u64 {
            return Err(WireError::NonCanonical);
        }
        Ok(v)
    }
}

impl WireMessage for () {
    fn encode(&self, w: &mut BitWriter) -> u8 {
        w.write_bits(0, 1);
        0
    }

    fn decode(r: &mut BitReader<'_>, bits: u16, _aux: u8) -> Result<Self, WireError> {
        if bits != 1 {
            return Err(WireError::BadLength {
                len: bits as usize,
                limit: 1,
            });
        }
        if r.read_bits(1)? != 0 {
            return Err(WireError::NonCanonical);
        }
        Ok(())
    }
}

/// The wire width of a color-like value: `bits_for(value + 1)` in the
/// accounting the coloring messages use (at least one bit, so a value is
/// distinguishable from silence).  This mirrors `dcme_algebra`'s `bits_for`
/// — restated here because the simulator crate is a dependency leaf.
pub fn color_width(value: u64) -> u32 {
    if value == 0 {
        1
    } else {
        64 - value.leading_zeros()
    }
}

/// Writes a color-like value in its [`color_width`] bits.
pub fn write_color(w: &mut BitWriter, value: u64) {
    w.write_bits(value, color_width(value));
}

/// Reads a color-like value of the given width, rejecting non-canonical
/// encodings (a value whose own [`color_width`] differs from `width`).
pub fn read_color(r: &mut BitReader<'_>, width: u32) -> Result<u64, WireError> {
    if width == 0 || width > 64 {
        return Err(WireError::BadLength {
            len: width as usize,
            limit: 64,
        });
    }
    let v = r.read_bits(width)?;
    if color_width(v) != width {
        return Err(WireError::NonCanonical);
    }
    Ok(v)
}

/// Encodes `msg` into a standalone `(bits, aux, bytes)` payload triple —
/// the form the frame entries carry.  Mostly useful to tests and to
/// one-shot encoders; batch encoding goes through [`DataFrameBuilder`].
pub fn encode_payload<M: WireMessage>(msg: &M) -> (u16, u8, Vec<u8>) {
    let mut w = BitWriter::new();
    let aux = msg.encode(&mut w);
    let bits = u16::try_from(w.bits_written()).expect("payload exceeds u16 bits");
    (bits, aux, w.as_bytes().to_vec())
}

/// Decodes a standalone payload produced by [`encode_payload`], validating
/// exact consumption and zero padding.
pub fn decode_payload<M: WireMessage>(bits: u16, aux: u8, bytes: &[u8]) -> Result<M, WireError> {
    let needed = (bits as usize).div_ceil(8);
    if bytes.len() != needed {
        return Err(WireError::BadLength {
            len: bytes.len(),
            limit: needed,
        });
    }
    // Padding bits of the final partial byte must be zero.
    if bits % 8 != 0 {
        if let Some(&last) = bytes.last() {
            if last & ((1u8 << (8 - bits % 8)) - 1) != 0 {
                return Err(WireError::NonCanonical);
            }
        }
    }
    let mut r = BitReader::new(bytes, bits as usize)?;
    let msg = M::decode(&mut r, bits, aux)?;
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining().div_ceil(8)));
    }
    Ok(msg)
}

/// The frame kinds of the transport protocol (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A batch of routed cross-shard messages.
    Data,
    /// Coordinator → worker: the next round number, or the stop signal.
    RoundStart,
    /// Worker → coordinator: the shard's halting vote (active node count).
    Vote,
    /// Worker → coordinator: final outputs and per-shard counters.
    Output,
    /// Coordinator → worker: one chunk of the serialized pass-1
    /// [`ShardPlan`](crate::ShardPlan) (shard boundaries + degree header),
    /// from which a mesh worker builds only its own topology slice.
    Topology,
    /// Peer address exchange for the direct worker↔worker data mesh: a
    /// worker announces its mesh listener to the coordinator, and the
    /// coordinator broadcasts the full `shard → address` list back.
    Peers,
    /// Worker → coordinator: a periodic telemetry snapshot (round progress,
    /// active count, wire bytes, peak RSS, elapsed time).  Strictly
    /// out-of-band — emitted every `stats_every` rounds immediately before
    /// that round's `Vote`, consumed and rendered by the coordinator without
    /// influencing any round decision.
    Stats,
    /// Worker → coordinator: the worker's captured trace-event stream (a
    /// stamped blob, see [`crate::trace::encode_stamped`]), shipped once,
    /// immediately before the final `Output` frame, when the run is traced
    /// ([`crate::transport::ServeOptions::trace`]).  Strictly out-of-band
    /// like `Stats`: the coordinator merges (or discards) it without any
    /// effect on round decisions, outputs or merged counters.
    Trace,
}

impl FrameKind {
    fn to_u8(self) -> u8 {
        match self {
            FrameKind::Data => 0,
            FrameKind::RoundStart => 1,
            FrameKind::Vote => 2,
            FrameKind::Output => 3,
            FrameKind::Topology => 4,
            FrameKind::Peers => 5,
            FrameKind::Stats => 6,
            FrameKind::Trace => 7,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        match v {
            0 => Ok(FrameKind::Data),
            1 => Ok(FrameKind::RoundStart),
            2 => Ok(FrameKind::Vote),
            3 => Ok(FrameKind::Output),
            4 => Ok(FrameKind::Topology),
            5 => Ok(FrameKind::Peers),
            6 => Ok(FrameKind::Stats),
            7 => Ok(FrameKind::Trace),
            other => Err(WireError::BadKind(other)),
        }
    }
}

/// The fixed per-frame header: kind, round stamp, and shard addressing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// What the frame carries.
    pub kind: FrameKind,
    /// The round this frame belongs to (sequencing check on receipt).
    pub round: u64,
    /// Sending shard.
    pub from: u16,
    /// Receiving shard (or the coordinator's pseudo-index).
    pub to: u16,
}

impl FrameHeader {
    /// Validates round and addressing against what the receiver expects.
    pub fn expect(&self, round: u64, from: u16, to: u16) -> Result<(), WireError> {
        if self.round != round {
            return Err(WireError::RoundMismatch {
                expected: round,
                got: self.round,
            });
        }
        if (self.from, self.to) != (from, to) {
            return Err(WireError::ShardMismatch {
                expected: (from, to),
                got: (self.from, self.to),
            });
        }
        Ok(())
    }
}

/// A frame read off a blocking link ([`read_frame`]): header plus owned
/// payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The decoded header.
    pub header: FrameHeader,
    /// The kind-specific payload.
    pub payload: Vec<u8>,
}

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn get_u16(bytes: &[u8], at: usize) -> Result<u16, WireError> {
    bytes
        .get(at..at + 2)
        .map(|b| u16::from_le_bytes([b[0], b[1]]))
        .ok_or(WireError::Truncated {
            needed: at + 2,
            got: bytes.len(),
        })
}

pub(crate) fn get_u32(bytes: &[u8], at: usize) -> Result<u32, WireError> {
    bytes
        .get(at..at + 4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .ok_or(WireError::Truncated {
            needed: at + 4,
            got: bytes.len(),
        })
}

pub(crate) fn get_u64(bytes: &[u8], at: usize) -> Result<u64, WireError> {
    bytes
        .get(at..at + 8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
        .ok_or(WireError::Truncated {
            needed: at + 8,
            got: bytes.len(),
        })
}

/// Fills in the length prefix and header of a frame built in place:
/// `frame` holds [`FRAME_PREFIX_BYTES`] of room, then the payload.  Returns
/// the frame's length, length prefix included.
///
/// # Panics
///
/// Panics if `frame` is shorter than the room or its body exceeds
/// [`MAX_FRAME_BODY`].
pub fn seal_frame(frame: &mut [u8], header: FrameHeader) -> usize {
    assert!(
        frame.len() >= FRAME_PREFIX_BYTES && frame.len() - 4 <= MAX_FRAME_BODY,
        "a frame needs room for its prefix and a body within MAX_FRAME_BODY"
    );
    let body_len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&body_len.to_le_bytes());
    frame[4] = header.kind.to_u8();
    frame[5..13].copy_from_slice(&header.round.to_le_bytes());
    frame[13..15].copy_from_slice(&header.from.to_le_bytes());
    frame[15..17].copy_from_slice(&header.to.to_le_bytes());
    frame.len()
}

/// Appends one complete frame (`length prefix + header + payload`) to `out`;
/// returns the number of bytes appended.
pub fn frame_into(out: &mut Vec<u8>, header: FrameHeader, payload: &[u8]) -> usize {
    let at = out.len();
    out.resize(at + FRAME_PREFIX_BYTES, 0);
    out.extend_from_slice(payload);
    seal_frame(&mut out[at..], header)
}

/// The body length a frame's length prefix claims, checked against
/// [`MAX_FRAME_BODY`] and against the header every body holds.
fn body_len(prefix: &[u8]) -> Result<usize, WireError> {
    let len = get_u32(prefix, 0)? as usize;
    if len > MAX_FRAME_BODY {
        return Err(WireError::BadLength {
            len,
            limit: MAX_FRAME_BODY,
        });
    }
    if len < FRAME_HEADER_BYTES {
        return Err(WireError::Truncated {
            needed: FRAME_HEADER_BYTES,
            got: len,
        });
    }
    Ok(len)
}

/// Decodes the header at the front of a frame body.
fn parse_header(body: &[u8]) -> Result<FrameHeader, WireError> {
    Ok(FrameHeader {
        kind: FrameKind::from_u8(*body.first().ok_or(WireError::Truncated {
            needed: FRAME_HEADER_BYTES,
            got: 0,
        })?)?,
        round: get_u64(body, 1)?,
        from: get_u16(body, 9)?,
        to: get_u16(body, 11)?,
    })
}

/// One fixed read window over an untrusted byte stream.
///
/// [`FrameBuffer::read_from`] reads the stream straight into the window,
/// behind the bytes not yet consumed; a [`DataDecoder`] decodes
/// [`FrameBuffer::unread`] where it lies, and [`FrameBuffer::consume`]
/// drops the bytes it used.  The window is [`READ_WINDOW`] bytes, allocated
/// on the first read, and it never grows, whatever a length prefix claims.
/// A decoder consumes every entry that is whole, and the largest entry fits
/// in the window, so what it leaves never fills the window.  Used by the
/// nonblocking worker mesh; blocking links use [`read_frame`] instead.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    /// The window; `buf[start..end]` holds the unread bytes.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameBuffer {
    /// Creates an empty buffer; it allocates its window on its first read.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the unread bytes to the front of the window and reads once
    /// from `source` into the memory behind them; returns the bytes read, 0
    /// at the end of the stream.
    ///
    /// # Errors
    ///
    /// Returns `source`'s error, with nothing read.
    ///
    /// # Panics
    ///
    /// Panics if the unread bytes fill the whole window, which a caller
    /// that decodes after every read never lets happen.
    pub fn read_from(&mut self, source: &mut impl std::io::Read) -> std::io::Result<usize> {
        if self.buf.is_empty() {
            self.buf = vec![0; READ_WINDOW];
        } else if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
        }
        assert!(
            self.end < READ_WINDOW,
            "the unread bytes fill the read window"
        );
        let n = source.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// The bytes read and not yet consumed.
    pub fn unread(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Drops the first `n` unread bytes.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` bytes are unread.
    pub fn consume(&mut self, n: usize) {
        assert!(
            n <= self.end - self.start,
            "consumed bytes that were not read"
        );
        self.start += n;
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        }
    }

    /// The bytes of memory the buffer holds: 0 before its first read,
    /// [`READ_WINDOW`] after it.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

/// Reads exactly one frame from a blocking stream: its length prefix and
/// header in one call, then its payload straight into the frame's own
/// `Vec`.
///
/// # Errors
///
/// Propagates the stream's errors; a malformed prefix or header is an
/// [`InvalidData`](std::io::ErrorKind::InvalidData) error carrying its
/// [`WireError`].
pub fn read_frame(r: &mut impl std::io::Read) -> std::io::Result<Frame> {
    let mut prefix = [0u8; FRAME_PREFIX_BYTES];
    r.read_exact(&mut prefix)?;
    let len = body_len(&prefix)?;
    let header = parse_header(&prefix[4..])?;
    let mut payload = vec![0u8; len - FRAME_HEADER_BYTES];
    r.read_exact(&mut payload)?;
    Ok(Frame { header, payload })
}

/// Writes one complete frame to a blocking stream in one call; returns
/// bytes written.  The payload is copied behind the prefix first, which
/// suits small frames; large ones are built in place ([`seal_frame`]).
pub fn write_frame(
    w: &mut impl std::io::Write,
    header: FrameHeader,
    payload: &[u8],
) -> std::io::Result<u64> {
    let mut out = Vec::with_capacity(FRAME_PREFIX_BYTES + payload.len());
    let n = frame_into(&mut out, header, payload);
    w.write_all(&out)?;
    Ok(n as u64)
}

/// Builds one `Data` frame in place: entries are encoded straight into the
/// buffer the frame is written from, after room for its length prefix,
/// header and entry count, which [`DataFrameBuilder::seal`] fills in.
///
/// Reusable across rounds: [`DataFrameBuilder::clear`] drops the frame and
/// keeps the allocation, so the transport hot path performs no per-message
/// allocation.
#[derive(Debug)]
pub struct DataFrameBuilder {
    /// The frame: room for the prefix and the entry count, then the
    /// entries.
    frame: Vec<u8>,
    count: u32,
    sealed: bool,
    scratch: BitWriter,
}

impl Default for DataFrameBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DataFrameBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self {
            frame: vec![0; DATA_PREFIX_BYTES],
            count: 0,
            sealed: false,
            scratch: BitWriter::new(),
        }
    }

    /// Appends one routed message (`destination slot`, `sender`, payload).
    pub fn push<M: WireMessage>(&mut self, slot: u32, sender: u32, msg: &M) {
        self.push_run(&[slot], sender, msg);
    }

    /// Appends `sender`'s message once per slot of `slots`, encoding it
    /// once: exactly the bytes of one [`DataFrameBuilder::push`] per slot.
    pub fn push_run<M: WireMessage>(&mut self, slots: &[u32], sender: u32, msg: &M) {
        debug_assert!(!self.sealed, "clear a sealed frame before pushing");
        let Some((&first, rest)) = slots.split_first() else {
            return;
        };
        self.scratch.clear();
        let aux = msg.encode(&mut self.scratch);
        let bits = u16::try_from(self.scratch.bits_written()).expect("payload exceeds u16 bits");
        let payload = self.scratch.as_bytes();
        let frame = &mut self.frame;
        frame.reserve(slots.len() * (ENTRY_HEADER_BYTES + payload.len()));
        let at = frame.len();
        put_u32(frame, first);
        put_u32(frame, sender);
        put_u16(frame, bits);
        frame.push(aux);
        frame.extend_from_slice(payload);
        // Every later entry of the run is its slot, then the first entry's
        // bytes after the slot.
        let tail = at + 4..frame.len();
        for &slot in rest {
            put_u32(frame, slot);
            frame.extend_from_within(tail.clone());
        }
        self.count += slots.len() as u32;
    }

    /// Number of staged messages.
    pub fn len(&self) -> u32 {
        self.count
    }

    /// Whether no message is staged.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Fills in the frame's length prefix, header and entry count, and
    /// returns the finished frame.  The builder holds it
    /// ([`DataFrameBuilder::sealed`]) until [`DataFrameBuilder::clear`].
    pub fn seal(&mut self, round: u64, from: u16, to: u16) -> &[u8] {
        let header = FrameHeader {
            kind: FrameKind::Data,
            round,
            from,
            to,
        };
        self.frame[FRAME_PREFIX_BYTES..DATA_PREFIX_BYTES]
            .copy_from_slice(&self.count.to_le_bytes());
        seal_frame(&mut self.frame, header);
        self.sealed = true;
        &self.frame
    }

    /// The sealed frame, length prefix included; empty until
    /// [`DataFrameBuilder::seal`].
    pub fn sealed(&self) -> &[u8] {
        if self.sealed {
            &self.frame
        } else {
            &[]
        }
    }

    /// Drops the frame, sealed or not, keeping the allocation.
    pub fn clear(&mut self) {
        self.frame.truncate(DATA_PREFIX_BYTES);
        self.count = 0;
        self.sealed = false;
    }
}

/// The one decoder of `Data` frames: it decodes a frame's entries as its
/// bytes arrive, in pieces of any size.
///
/// [`DataDecoder::decode`] takes the frame's next bytes, from its length
/// prefix on.  Once the prefix and header are in, it hands the header to
/// the caller's check; then it decodes every entry that is whole and
/// returns how many bytes it used.  The bytes it leaves must be offered
/// again, with more behind them.  It checks what [`for_each_data_entry`],
/// which runs it over a whole payload, checks: the entry count, each
/// entry's length against the body the length prefix leaves, zero padding,
/// canonical payloads and no trailing bytes.  So it never waits for a byte
/// the length prefix does not claim, and every malformed frame is a
/// [`WireError`], never a panic.
#[derive(Debug, Default)]
pub struct DataDecoder {
    /// The payload's decoded bytes and its length, once the header is in.
    payload: Option<(usize, usize)>,
    /// The entries left to decode, once the count is in.
    left: Option<u32>,
}

impl DataDecoder {
    /// A decoder for one frame, which has not seen its length prefix yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decodes from `bytes`, the frame's next bytes: its prefix and header
    /// once all 17 bytes are in, handing the header to `check`, then the
    /// entry count and every whole entry, each to `sink(slot, sender,
    /// message)`.  Returns the bytes it used.
    ///
    /// # Errors
    ///
    /// `check`'s error, or a [`WireError`] for a malformed prefix, header,
    /// count or entry.  After an error the decoder is spent.
    pub fn decode<M: WireMessage, E: From<WireError>>(
        &mut self,
        bytes: &[u8],
        check: impl FnOnce(FrameHeader) -> Result<(), E>,
        sink: &mut impl FnMut(u32, u32, M),
    ) -> Result<usize, E> {
        let mut used = 0;
        if self.payload.is_none() {
            if bytes.len() < 4 {
                return Ok(0);
            }
            let len = body_len(bytes)?;
            if bytes.len() < FRAME_PREFIX_BYTES {
                return Ok(0);
            }
            check(parse_header(&bytes[4..])?)?;
            self.payload = Some((0, len - FRAME_HEADER_BYTES));
            used = FRAME_PREFIX_BYTES;
        }
        Ok(used + self.entries(&bytes[used..], sink)?)
    }

    /// Whether the frame's last entry is decoded.
    pub fn is_done(&self) -> bool {
        self.left == Some(0)
    }

    /// Decodes the entry count, if it is not in yet, then every whole
    /// entry from `bytes`, the payload's next bytes; returns the bytes it
    /// used.
    fn entries<M: WireMessage>(
        &mut self,
        bytes: &[u8],
        sink: &mut impl FnMut(u32, u32, M),
    ) -> Result<usize, WireError> {
        let Some((mut at, len)) = self.payload else {
            return Ok(0);
        };
        let mut used = 0;
        let mut left = match self.left {
            Some(left) => left,
            None if len - at < 4 => {
                return Err(WireError::Truncated {
                    needed: at + 4,
                    got: len,
                })
            }
            None => match bytes.get(..4) {
                Some(count) => {
                    (used, at) = (4, at + 4);
                    u32::from_le_bytes(count.try_into().expect("4 bytes"))
                }
                None => return Ok(0),
            },
        };
        while left > 0 {
            let rest = &bytes[used..];
            let truncated = |needed| WireError::Truncated {
                needed: at + needed,
                got: len,
            };
            if len - at < ENTRY_HEADER_BYTES {
                return Err(truncated(ENTRY_HEADER_BYTES));
            }
            let Some(head) = rest.get(..ENTRY_HEADER_BYTES) else {
                break;
            };
            let bits = u16::from_le_bytes([head[8], head[9]]);
            let size = ENTRY_HEADER_BYTES + (bits as usize).div_ceil(8);
            if len - at < size {
                return Err(truncated(size));
            }
            let Some(entry) = rest.get(..size) else {
                break;
            };
            let msg = decode_payload::<M>(bits, head[10], &entry[ENTRY_HEADER_BYTES..])?;
            let word = |i: usize| u32::from_le_bytes(head[i..i + 4].try_into().expect("4 bytes"));
            sink(word(0), word(4), msg);
            (used, at, left) = (used + size, at + size, left - 1);
        }
        if left == 0 && at != len {
            return Err(WireError::TrailingBytes(len - at));
        }
        (self.payload, self.left) = (Some((at, len)), Some(left));
        Ok(used)
    }
}

/// Decodes every entry of a `Data` frame payload, invoking
/// `sink(slot, sender, message)` per entry: the [`DataDecoder`] run over
/// the whole payload at once.
///
/// Validates the entry count, per-entry lengths, zero padding and exact
/// payload consumption; any malformation is a [`WireError`].
pub fn for_each_data_entry<M: WireMessage>(
    payload: &[u8],
    mut sink: impl FnMut(u32, u32, M),
) -> Result<(), WireError> {
    let mut decoder = DataDecoder {
        payload: Some((0, payload.len())),
        left: None,
    };
    decoder.entries(payload, &mut sink)?;
    debug_assert!(decoder.is_done(), "a whole payload decodes to its end");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_writer_reader_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0, 0);
        w.write_bits(0xABCD, 16);
        w.write_bits(1, 1);
        assert_eq!(w.bits_written(), 20);
        let mut r = BitReader::new(w.as_bytes(), 20).unwrap();
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(0).unwrap(), 0);
        assert_eq!(r.read_bits(16).unwrap(), 0xABCD);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        assert_eq!(r.remaining(), 0);
        assert!(matches!(r.read_bits(1), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn u64_payload_is_bit_exact_and_canonical() {
        for v in [0u64, 1, 2, 255, 256, u64::MAX] {
            let (bits, aux, bytes) = encode_payload(&v);
            assert_eq!(bits as u64, v.bit_size(), "payload width must be bit_size");
            let back: u64 = decode_payload(bits, aux, &bytes).unwrap();
            assert_eq!(back, v);
        }
        // Claiming 3 bits for value 1 is non-canonical.
        assert_eq!(
            decode_payload::<u64>(3, 0, &[0b0010_0000]),
            Err(WireError::NonCanonical)
        );
        // Nonzero padding bits are rejected.
        assert_eq!(
            decode_payload::<u64>(3, 0, &[0b1010_0001]),
            Err(WireError::NonCanonical)
        );
    }

    #[test]
    fn unit_payload_round_trips() {
        let (bits, aux, bytes) = encode_payload(&());
        assert_eq!(bits, 1);
        decode_payload::<()>(bits, aux, &bytes).unwrap();
        assert!(decode_payload::<()>(2, 0, &[0, 0]).is_err());
    }

    /// The headers a decode checked, the `u64` entries it decoded, and
    /// whether the frame was done after each read.
    type Decoded = (Vec<FrameHeader>, Vec<(u32, u32, u64)>, Vec<bool>);

    /// Reads `bytes` through a `FrameBuffer`, at most `step` bytes per
    /// read, and decodes them with a `DataDecoder` after every read; the
    /// first error stops it.
    fn decode_in_steps(bytes: &[u8], step: usize) -> Result<Decoded, WireError> {
        let (mut fb, mut decoder) = (FrameBuffer::new(), DataDecoder::new());
        let (mut headers, mut entries, mut done) = (Vec::new(), Vec::new(), Vec::new());
        for piece in bytes.chunks(step) {
            assert_eq!(fb.read_from(&mut &piece[..]).unwrap(), piece.len());
            let check = |header| {
                headers.push(header);
                Ok::<_, WireError>(())
            };
            let used = decoder.decode(fb.unread(), check, &mut |slot, sender, msg| {
                entries.push((slot, sender, msg));
            })?;
            fb.consume(used);
            done.push(decoder.is_done());
        }
        Ok((headers, entries, done))
    }

    #[test]
    fn frame_round_trips_through_buffer() {
        let mut b = DataFrameBuilder::new();
        b.push(10, 1, &5u64);
        b.push(11, 2, &300u64);
        let out = b.seal(42, 3, 0).to_vec();
        // Read byte by byte: the header is checked once its 17 bytes are
        // in, each entry is decoded once it is whole, and the frame is done
        // at its last byte only.
        let (headers, entries, done) = decode_in_steps(&out, 1).unwrap();
        let header = FrameHeader {
            kind: FrameKind::Data,
            round: 42,
            from: 3,
            to: 0,
        };
        assert_eq!(headers, [header]);
        assert_eq!(entries, [(10, 1, 5), (11, 2, 300)]);
        assert_eq!(done.iter().position(|&d| d), Some(out.len() - 1));
        assert_eq!(decode_in_steps(&out, out.len()).unwrap().1, entries);
    }

    #[test]
    fn handshake_frame_kinds_round_trip() {
        // The scale-out handshake kinds (Topology, Peers) and the telemetry
        // kinds (Stats, Trace) travel through the same codec as the
        // round-loop kinds.
        for kind in [
            FrameKind::Topology,
            FrameKind::Peers,
            FrameKind::Stats,
            FrameKind::Trace,
        ] {
            let header = FrameHeader {
                kind,
                round: 0,
                from: u16::MAX,
                to: 2,
            };
            let mut out = Vec::new();
            frame_into(&mut out, header, &[5, 6, 7, 8]);
            let frame = read_frame(&mut &out[..]).unwrap();
            assert_eq!(frame.header, header);
            assert_eq!(frame.payload, [5, 6, 7, 8]);
        }
    }

    #[test]
    fn malformed_frames_are_errors_not_panics() {
        // Unknown kind (8 is the first unassigned tag).
        let mut frame = (FRAME_HEADER_BYTES as u32).to_le_bytes().to_vec();
        frame.push(8u8);
        frame.extend_from_slice(&0u64.to_le_bytes());
        frame.extend_from_slice(&0u16.to_le_bytes());
        frame.extend_from_slice(&0u16.to_le_bytes());
        assert_eq!(
            decode_in_steps(&frame, frame.len()),
            Err(WireError::BadKind(8))
        );
        // Truncated header.
        let short = [5, 0, 0, 0, 0, 0, 0, 0, 0];
        assert!(matches!(
            decode_in_steps(&short, short.len()),
            Err(WireError::Truncated { .. })
        ));
        // Oversized length prefix.
        assert!(matches!(
            decode_in_steps(&u32::MAX.to_le_bytes(), 4),
            Err(WireError::BadLength { .. })
        ));
        // A data header with no room for the entry count.
        frame[4] = 0;
        assert!(matches!(
            decode_in_steps(&frame, 1),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn data_frame_builder_round_trips_and_rejects_corruption() {
        let mut b = DataFrameBuilder::new();
        b.push(10, 1, &5u64);
        b.push(11, 2, &0u64);
        b.push(4_000_000_000, 3, &u64::MAX);
        assert_eq!(b.len(), 3);
        let out = b.seal(7, 1, 2).to_vec();
        assert_eq!(b.sealed(), out);
        b.clear();
        assert!(b.is_empty());
        assert!(b.sealed().is_empty());

        let Frame { header, payload } = read_frame(&mut &out[..]).unwrap();
        header.expect(7, 1, 2).unwrap();
        assert_eq!(
            header.expect(8, 1, 2),
            Err(WireError::RoundMismatch {
                expected: 8,
                got: 7
            })
        );
        assert!(header.expect(7, 2, 1).is_err());
        let mut got = Vec::new();
        for_each_data_entry::<u64>(&payload, |slot, sender, msg| {
            got.push((slot, sender, msg));
        })
        .unwrap();
        assert_eq!(
            got,
            vec![(10, 1, 5), (11, 2, 0), (4_000_000_000, 3, u64::MAX)]
        );

        // Truncating the payload anywhere must produce an error, not a panic.
        for cut in 0..payload.len() {
            let res = for_each_data_entry::<u64>(&payload[..cut], |_, _, _: u64| {});
            assert!(res.is_err(), "cut at {cut} must error");
        }
        // An inflated count over the same bytes is a truncation error.
        let mut inflated = payload.to_vec();
        inflated[0] = inflated[0].wrapping_add(1);
        assert!(for_each_data_entry::<u64>(&inflated, |_, _, _: u64| {}).is_err());
    }

    #[test]
    fn blocking_read_write_frame() {
        let mut buf = Vec::new();
        let header = FrameHeader {
            kind: FrameKind::RoundStart,
            round: 3,
            from: 0,
            to: 1,
        };
        let n = write_frame(&mut buf, header, &[1]).unwrap();
        assert_eq!(n as usize, buf.len());
        let frame = read_frame(&mut &buf[..]).unwrap();
        assert_eq!(frame.header, header);
        assert_eq!(frame.payload, vec![1]);
        // Truncated stream -> io error.
        assert!(read_frame(&mut &buf[..buf.len() - 1]).is_err());
    }
}
