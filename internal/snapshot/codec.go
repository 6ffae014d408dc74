// Package snapshot implements the crash-safe checkpoint layer of the
// SPOT detector: a versioned binary section codec, a checkpoint keeper
// doing atomic write-temp-fsync-rename rotation with verified-fallback
// loading, and fault injectors (FaultWriter/FaultReader) that the
// recovery tests drive short writes, torn renames, bit flips and
// truncation through.
//
// Wire format (version 1):
//
//	header   magic "SPOTSNP1" (8 bytes) · format version (uint32 LE)
//	section  id (uint32) · payload length (uint64) · payload ·
//	         CRC32-IEEE over id+length+payload (uint32)
//	...      more sections
//	end      a section with id EndSection and empty payload
//
// All integers are little-endian; float64s travel as their IEEE-754
// bit patterns, so an encode/decode round trip is bit-exact — the
// property the detector's verdict-bit-identical restore contract is
// built on. Every section carries its own CRC, so corruption is
// localized: a reader knows exactly which section died, and the keeper
// can fall back to an older generation. A stream that ends before the
// end marker is reported as ErrTruncated — a torn write never decodes
// as a shorter-but-valid checkpoint.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Magic identifies a SPOT snapshot stream; it is the first 8 bytes of
// every checkpoint.
const Magic = "SPOTSNP1"

// Version is the current snapshot format version. Readers reject any
// other version with ErrVersion: the format carries full detector
// state whose semantics are pinned by the writing build, so version
// skew is a hard error rather than a best-effort migration (the
// version-skew policy is documented in docs/ARCHITECTURE.md).
//
// History: 1 — initial format; 2 — the stream meta section gained the
// scoring fields (Scoring flag, top-K capacity) and a top-K heap
// section follows the evolver state when scoring retains one; 3 — the
// meta section gained the auto-threshold fields (enabled flag, Risk,
// Level), the top-K section gained the ranking-key rebase anchor, and
// an EVT calibrator section trails the stream when auto-thresholding
// is on; 4 — base-cell entries shrank to (key, density, last tick),
// and the base-cell section is empty when no evolver is configured.
const Version uint32 = 4

// EndSection is the reserved section ID of the end-of-stream marker.
const EndSection uint32 = 0xFFFFFFFF

// maxSectionSize bounds a single section's declared payload length.
// A corrupt or adversarial length field beyond it is rejected before
// any allocation is attempted.
const maxSectionSize = 1 << 31

// readChunk is the granularity section payloads are read in: a lying
// length field on a truncated stream fails with ErrTruncated after
// buffering at most one extra chunk, never after allocating the full
// claimed size.
const readChunk = 1 << 20

// Typed error taxonomy of the snapshot layer. Callers branch with
// errors.Is; every failure path wraps one of these.
var (
	// ErrBadMagic marks a stream that is not a SPOT snapshot at all.
	ErrBadMagic = errors.New("snapshot: bad magic")
	// ErrVersion marks a snapshot written by an incompatible format
	// version.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrChecksum marks a section whose CRC32 does not match its
	// payload — a bit flip or torn overwrite.
	ErrChecksum = errors.New("snapshot: section checksum mismatch")
	// ErrTruncated marks a stream that ended before its end marker — a
	// short write or truncation.
	ErrTruncated = errors.New("snapshot: truncated stream")
	// ErrCorrupt marks structurally invalid contents: an impossible
	// length field, a field read past a section's end, or section
	// contents that fail semantic validation downstream.
	ErrCorrupt = errors.New("snapshot: corrupt stream")
	// ErrNoCheckpoint is returned by Keeper.Load when no retained
	// generation decodes cleanly (or none exists).
	ErrNoCheckpoint = errors.New("snapshot: no usable checkpoint")
)

// Writer encodes a snapshot stream section by section. Sections are
// buffered in memory until End so their length and CRC can be written
// up front; the underlying writer only ever sees complete sections.
// The first write error sticks and is returned by every subsequent
// End/Close, so callers may defer error handling to Close.
type Writer struct {
	w    io.Writer
	buf  []byte
	id   uint32
	open bool
	n    int64
	err  error
}

// NewWriter writes the snapshot header to w and returns a Writer for
// its sections.
func NewWriter(w io.Writer) (*Writer, error) {
	sw := &Writer{w: w}
	var hdr [len(Magic) + 4]byte
	copy(hdr[:], Magic)
	binary.LittleEndian.PutUint32(hdr[len(Magic):], Version)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, err
	}
	sw.n = int64(len(hdr))
	return sw, nil
}

// Bytes returns the number of bytes emitted to the underlying writer
// so far, including the header and every completed section.
func (w *Writer) Bytes() int64 { return w.n }

// Begin starts buffering a new section with the given ID. Sections may
// not nest; Begin panics if the previous section was not ended —
// that is a programming error in the snapshot producer, not a data
// fault.
func (w *Writer) Begin(id uint32) {
	if w.open {
		panic("snapshot: Begin inside an open section")
	}
	if id == EndSection {
		panic("snapshot: EndSection is reserved for Close")
	}
	w.id = id
	w.open = true
	w.buf = w.buf[:0]
}

// U8 appends one byte to the open section.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a boolean as one byte (0 or 1) to the open section.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U16 appends a little-endian uint16 to the open section.
func (w *Writer) U16(v uint16) {
	w.buf = binary.LittleEndian.AppendUint16(w.buf, v)
}

// U32 appends a little-endian uint32 to the open section.
func (w *Writer) U32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// U64 appends a little-endian uint64 to the open section.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// F64 appends a float64 as its IEEE-754 bit pattern, so the value
// round-trips bit-exactly (including NaN payloads and signed zeros).
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes32 appends a uint32-length-prefixed byte string to the open
// section.
func (w *Writer) Bytes32(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// End completes the open section: its framing, payload and CRC are
// flushed to the underlying writer.
func (w *Writer) End() error {
	if !w.open {
		panic("snapshot: End without Begin")
	}
	w.open = false
	if w.err != nil {
		return w.err
	}
	w.err = w.emit(w.id, w.buf)
	return w.err
}

// Close writes the end-of-stream marker. It does not close the
// underlying writer; the caller owns fsync/close of the file.
func (w *Writer) Close() error {
	if w.open {
		panic("snapshot: Close inside an open section")
	}
	if w.err != nil {
		return w.err
	}
	w.err = w.emit(EndSection, nil)
	return w.err
}

// emit frames one section onto the underlying writer.
func (w *Writer) emit(id uint32, payload []byte) error {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], id)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(len(payload)))
	crc := crc32.NewIEEE()
	crc.Write(hdr[:])
	crc.Write(payload)
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	for _, b := range [][]byte{hdr[:], payload, sum[:]} {
		n, err := w.w.Write(b)
		w.n += int64(n)
		if err != nil {
			return err
		}
	}
	return nil
}

// Reader decodes a snapshot stream section by section, verifying the
// header once and each section's CRC as it is read.
type Reader struct {
	r    io.Reader
	done bool
}

// NewReader validates the snapshot header of r and returns a Reader
// for its sections.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [len(Magic) + 4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if string(hdr[:len(Magic)]) != Magic {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(hdr[len(Magic):]); v != Version {
		return nil, fmt.Errorf("%w: got %d, this build reads %d", ErrVersion, v, Version)
	}
	return &Reader{r: r}, nil
}

// Next reads, CRC-verifies and returns the next section. It returns
// io.EOF after the end-of-stream marker; a stream that ends without
// one yields ErrTruncated, and a CRC mismatch yields ErrChecksum.
func (r *Reader) Next() (*Section, error) {
	if r.done {
		return nil, io.EOF
	}
	var hdr [12]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: section header: %v", ErrTruncated, err)
	}
	id := binary.LittleEndian.Uint32(hdr[0:])
	size := binary.LittleEndian.Uint64(hdr[4:])
	if size > maxSectionSize {
		return nil, fmt.Errorf("%w: section %d declares %d bytes", ErrCorrupt, id, size)
	}
	// Chunked payload read: a lying length on a truncated stream fails
	// after at most one extra chunk of buffering, never by allocating
	// the full claimed size up front.
	payload := make([]byte, 0, min(size, readChunk))
	for uint64(len(payload)) < size {
		chunk := min(size-uint64(len(payload)), readChunk)
		off := len(payload)
		payload = append(payload, make([]byte, chunk)...)
		if _, err := io.ReadFull(r.r, payload[off:]); err != nil {
			return nil, fmt.Errorf("%w: section %d payload: %v", ErrTruncated, id, err)
		}
	}
	var sum [4]byte
	if _, err := io.ReadFull(r.r, sum[:]); err != nil {
		return nil, fmt.Errorf("%w: section %d checksum: %v", ErrTruncated, id, err)
	}
	crc := crc32.NewIEEE()
	crc.Write(hdr[:])
	crc.Write(payload)
	if crc.Sum32() != binary.LittleEndian.Uint32(sum[:]) {
		return nil, fmt.Errorf("%w: section %d", ErrChecksum, id)
	}
	if id == EndSection {
		r.done = true
		return nil, io.EOF
	}
	return &Section{ID: id, data: payload}, nil
}

// Section is one CRC-verified unit of a snapshot stream. Field reads
// consume the payload in order; the first out-of-bounds read sets a
// sticky error (checked via Err) and every subsequent read returns
// zero, so decode loops stay linear and validate once at the end.
type Section struct {
	// ID is the section's type tag as written by Writer.Begin.
	ID   uint32
	data []byte
	off  int
	err  error
}

// take consumes n payload bytes, arming the sticky error on underflow.
func (s *Section) take(n int) []byte {
	if s.err != nil {
		return nil
	}
	if s.off+n > len(s.data) || s.off+n < s.off {
		s.err = fmt.Errorf("%w: section %d: read past payload end", ErrCorrupt, s.ID)
		return nil
	}
	b := s.data[s.off : s.off+n]
	s.off += n
	return b
}

// Err returns the sticky decode error, nil while every read so far was
// in bounds.
func (s *Section) Err() error { return s.err }

// Remaining returns the number of unread payload bytes.
func (s *Section) Remaining() int { return len(s.data) - s.off }

// U8 consumes one byte.
func (s *Section) U8() uint8 {
	if b := s.take(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool consumes one byte, rejecting values other than 0 and 1 so a
// corrupt flag cannot smuggle extra states past validation.
func (s *Section) Bool() bool {
	v := s.U8()
	if v > 1 && s.err == nil {
		s.err = fmt.Errorf("%w: section %d: boolean byte %d", ErrCorrupt, s.ID, v)
	}
	return v == 1
}

// U16 consumes a little-endian uint16.
func (s *Section) U16() uint16 {
	if b := s.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 consumes a little-endian uint32.
func (s *Section) U32() uint32 {
	if b := s.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 consumes a little-endian uint64.
func (s *Section) U64() uint64 {
	if b := s.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// F64 consumes a float64 bit pattern.
func (s *Section) F64() float64 { return math.Float64frombits(s.U64()) }

// Bytes32 consumes a uint32-length-prefixed byte string. The returned
// slice aliases the section's payload; callers that retain it copy it
// themselves.
func (s *Section) Bytes32() []byte {
	n := s.U32()
	if s.err == nil && int(n) > s.Remaining() {
		s.err = fmt.Errorf("%w: section %d: byte string of %d exceeds payload", ErrCorrupt, s.ID, n)
		return nil
	}
	return s.take(int(n))
}

// Count consumes a uint32 element count and validates it against the
// remaining payload at minSize bytes per element, so a corrupt count
// fails cleanly here instead of sizing a huge allocation downstream.
func (s *Section) Count(minSize int) int {
	n := s.U32()
	if s.err == nil && minSize > 0 && uint64(n)*uint64(minSize) > uint64(s.Remaining()) {
		s.err = fmt.Errorf("%w: section %d: count %d exceeds payload", ErrCorrupt, s.ID, n)
		return 0
	}
	return int(n)
}

// Verify walks a snapshot stream end to end, checking the header and
// every section CRC, without interpreting any section's contents. It
// returns nil when the stream is structurally sound and the typed
// error of the first fault otherwise (ErrBadMagic, ErrVersion,
// ErrChecksum, ErrTruncated, ErrCorrupt). Semantic validity — whether
// the sections decode into a detector — is Restore's job; Verify is
// the cheap integrity probe health endpoints and keepers use.
func Verify(r io.Reader) error {
	sr, err := NewReader(r)
	if err != nil {
		return err
	}
	for {
		if _, err := sr.Next(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}
