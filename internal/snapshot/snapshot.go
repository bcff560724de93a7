// Package snapshot is the repository's one binary codec: the total,
// bounds-checked Writer/Reader primitives every payload is encoded with,
// the CRC frame every durable or shipped byte stream is cut into, and the
// versioned container for checkpoint files built from both.
//
// A frame is
//
//	uvarint len | body | crc32(body) LE
//
// AppendFrame writes one; NextFrame parses one off a slice, ReadFrame off
// a stream (refusing a length over the caller's limit, MaxFrame off a
// socket, before allocating). WAL records, checkpoint sections, and
// replication and TCP transport messages are all frames. ErrTruncated,
// ErrCorrupt and ErrVersion (a well-formed header of another format
// version) are the only framing errors in the repository.
//
// A snapshot file is a sequence of named sections behind a magic+version
// header, each section body one frame:
//
//	"DSNP" | uvarint major | uvarint minor | uvarint nSections
//	then per section: string name | frame(body)
//
// Open checks every CRC eagerly, so torn writes and bit rot surface before
// any state is rebuilt. Decoding is total: any input either decodes or
// returns an error, never panics and never allocates more than the input
// could justify (FuzzOpen and FuzzFrame enforce this). Readers refuse a
// file of another major version outright — no compatibility shims,
// matching wire's handshake policy; the minor version is informational.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Magic identifies a snapshot file.
const Magic = "DSNP"

// Major and Minor are the format version this build writes. A reader
// accepts exactly its own major. Major 2 dropped the per-peer and collector
// term stores from engine sections: an engine's tuples refer into the one
// store its session serializes. Major 3 is the standing-query session: one
// query relation with the index columns in its head instead of a versioned
// query rule per append, and no query version in the diagnoser section.
// Major 4 holds a session as its template's fingerprint plus what the
// session added past the template: no rules, program or rewriters.
const (
	Major = 4
	Minor = 0
)

// MaxSnapshot bounds the size of a snapshot file this package will open
// (256 MiB) — like MaxFrame it stops a corrupt length from forcing a
// giant allocation, scaled up because a checkpoint carries whole stores,
// not single messages.
const MaxSnapshot = 1 << 28

// MaxFrame bounds one frame body read off a stream (64 MiB), so a
// corrupt or hostile length prefix cannot force a giant allocation.
const MaxFrame = 1 << 26

// ErrTruncated reports an input that ended mid-structure.
var ErrTruncated = errors.New("snapshot: truncated input")

// ErrCorrupt reports structurally invalid input (bad magic, CRC mismatch,
// out-of-range reference, trailing bytes).
var ErrCorrupt = errors.New("snapshot: corrupt input")

// ErrVersion reports a snapshot written by an incompatible major version.
var ErrVersion = errors.New("snapshot: unsupported version")

// --- frames --------------------------------------------------------------

// AppendFrame appends body to dst as one frame.
func AppendFrame(dst, body []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	dst = append(dst, body...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
}

// FrameSize reports the encoded size of a frame with an n-byte body.
func FrameSize(n int) int {
	var hdr [binary.MaxVarintLen64]byte
	return binary.PutUvarint(hdr[:], uint64(n)) + n + 4
}

// NextFrame parses the frame at the head of b and returns its body (a
// view into b) and the bytes after the frame. It never panics and never
// allocates.
func NextFrame(b []byte) (body, rest []byte, err error) {
	n, k := binary.Uvarint(b)
	if k == 0 {
		return nil, nil, ErrTruncated
	}
	if k < 0 {
		return nil, nil, fmt.Errorf("%w: frame length overflows", ErrCorrupt)
	}
	b = b[k:]
	if n > uint64(len(b)) || len(b)-int(n) < 4 {
		return nil, nil, ErrTruncated
	}
	body, rest = b[:n], b[n+4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(b[n:]) {
		return nil, nil, fmt.Errorf("%w: frame CRC mismatch", ErrCorrupt)
	}
	return body, rest, nil
}

// ReadFrame reads one frame off br, refusing a length over max before
// allocating. A stream that ends before the frame's first byte returns
// io.EOF (a clean close between frames), one that ends inside it
// ErrTruncated; other read errors pass through.
func ReadFrame(br *bufio.Reader, max int) ([]byte, error) {
	var buf [binary.MaxVarintLen64 + 1]byte // the length prefix, decoded as NextFrame would
	hdr := buf[:0]
	for len(hdr) == 0 || hdr[len(hdr)-1] >= 0x80 && len(hdr) < len(buf) {
		c, err := br.ReadByte()
		if err == io.EOF && len(hdr) > 0 {
			err = ErrTruncated
		}
		if err != nil {
			return nil, err
		}
		hdr = append(hdr, c)
	}
	n, k := binary.Uvarint(hdr)
	if k <= 0 {
		return nil, fmt.Errorf("%w: frame length overflows", ErrCorrupt)
	}
	if n > uint64(max) {
		return nil, fmt.Errorf("%w: %d-byte frame exceeds the %d-byte limit", ErrCorrupt, n, max)
	}
	frame := make([]byte, n+4)
	if _, err := io.ReadFull(br, frame); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = ErrTruncated
		}
		return nil, err
	}
	body := frame[:n]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(frame[n:]) {
		return nil, fmt.Errorf("%w: frame CRC mismatch", ErrCorrupt)
	}
	return body, nil
}

// --- writing -------------------------------------------------------------

// File accumulates sections for one snapshot. Sections are written in
// Section call order and read back by name.
type File struct {
	names    []string
	sections []*Writer
}

// New returns an empty snapshot file.
func New() *File {
	return &File{}
}

// Section starts a new named section and returns its writer. Adding two
// sections with the same name panics: section names are the schema.
func (f *File) Section(name string) *Writer {
	for _, n := range f.names {
		if n == name {
			panic(fmt.Sprintf("snapshot: duplicate section %q", name))
		}
	}
	w := &Writer{}
	f.names = append(f.names, name)
	f.sections = append(f.sections, w)
	return w
}

// Bytes serializes the whole file: header, then each section's name and
// framed body.
func (f *File) Bytes() []byte {
	out := make([]byte, 0, 64)
	out = append(out, Magic...)
	out = binary.AppendUvarint(out, Major)
	out = binary.AppendUvarint(out, Minor)
	out = binary.AppendUvarint(out, uint64(len(f.sections)))
	for i, w := range f.sections {
		out = binary.AppendUvarint(out, uint64(len(f.names[i])))
		out = append(out, f.names[i]...)
		out = AppendFrame(out, w.b)
	}
	return out
}

// Writer builds one section body.
type Writer struct {
	b []byte
}

// Len reports the bytes written so far.
func (w *Writer) Len() int { return len(w.b) }

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }

// Int appends a signed value (zigzag varint).
func (w *Writer) Int(v int64) { w.b = binary.AppendVarint(w.b, v) }

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.b = binary.AppendUvarint(w.b, uint64(len(s)))
	w.b = append(w.b, s...)
}

// Bytes appends a length-prefixed byte slice.
func (w *Writer) Bytes(p []byte) {
	w.b = binary.AppendUvarint(w.b, uint64(len(p)))
	w.b = append(w.b, p...)
}

// Bool appends a boolean byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}

// Byte appends one raw byte.
func (w *Writer) Byte(v byte) { w.b = append(w.b, v) }

// Body returns the bytes written so far. Together with NewReader it
// lets the section primitives double as a standalone payload codec —
// internal/wal record payloads are encoded exactly this way, without
// the file container around them.
func (w *Writer) Body() []byte { return w.b }

// --- reading -------------------------------------------------------------

// OpenFile is a parsed snapshot whose sections have passed their CRC
// checks. Sections are decoded lazily via Section.
type OpenFile struct {
	major, minor int
	order        []string
	bodies       map[string][]byte
}

// Open parses and validates a snapshot: magic, version, section framing
// and every section CRC. It never panics on arbitrary input.
func Open(b []byte) (*OpenFile, error) {
	if len(b) > MaxSnapshot {
		return nil, fmt.Errorf("%w: %d bytes exceeds MaxSnapshot", ErrCorrupt, len(b))
	}
	if len(b) < len(Magic) || string(b[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	r := &Reader{b: b, off: len(Magic)}
	major := r.Uvarint()
	minor := r.Uvarint()
	if r.err == nil && major != Major {
		return nil, fmt.Errorf("%w: file has major version %d, this build reads %d", ErrVersion, major, Major)
	}
	// name(≥1) + bodyLen(≥1) + crc(4) is the smallest possible section.
	n := r.Count(6)
	o := &OpenFile{major: int(major), minor: int(minor), bodies: make(map[string][]byte, n)}
	for i := 0; i < n && r.err == nil; i++ {
		name := r.String()
		if r.err != nil {
			break
		}
		body, rest, err := NextFrame(b[r.off:])
		if err != nil {
			return nil, fmt.Errorf("section %q: %w", name, err)
		}
		r.off = len(b) - len(rest)
		if _, dup := o.bodies[name]; dup {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrCorrupt, name)
		}
		o.order = append(o.order, name)
		o.bodies[name] = body
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(b)-r.off)
	}
	return o, nil
}

// Major reports the file's major format version.
func (o *OpenFile) Major() int { return o.major }

// Minor reports the file's minor format version.
func (o *OpenFile) Minor() int { return o.minor }

// Sections lists the section names in file order.
func (o *OpenFile) Sections() []string {
	out := make([]string, len(o.order))
	copy(out, o.order)
	return out
}

// Has reports whether a section is present.
func (o *OpenFile) Has(name string) bool {
	_, ok := o.bodies[name]
	return ok
}

// Section returns a reader over the named section body, or an error if
// the section is absent.
func (o *OpenFile) Section(name string) (*Reader, error) {
	body, ok := o.bodies[name]
	if !ok {
		return nil, fmt.Errorf("%w: missing section %q", ErrCorrupt, name)
	}
	return &Reader{b: body}, nil
}

// Reader is a bounds-checked cursor over one section body. Like the wire
// decoder it is total: methods return zero values once an error is set,
// and Err/Finish surface it. It never panics.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over a standalone byte slice — the decode
// side of Writer.Body for payloads that travel outside a snapshot file
// (WAL records).
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Fail marks the reader corrupt (or truncated, at end of input). Decoders
// layered on top call it when a domain invariant fails.
func (r *Reader) Fail() {
	if r.err == nil {
		if r.off >= len(r.b) {
			r.err = ErrTruncated
		} else {
			r.err = ErrCorrupt
		}
	}
}

// Failf marks the reader corrupt with a specific cause.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// Finish checks that the section decoded cleanly and was fully consumed.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes in section", ErrCorrupt, len(r.b)-r.off)
	}
	return nil
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.Fail()
		return 0
	}
	r.off += n
	return v
}

// Int reads a signed (zigzag varint) value.
func (r *Reader) Int() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.Fail()
		return 0
	}
	r.off += n
	return v
}

// Count reads a collection length and validates it against the bytes
// still available, given that each element occupies at least min bytes —
// the allocation guard inherited from the wire decoder.
func (r *Reader) Count(min int) int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if v > uint64(len(r.b)-r.off)/uint64(min)+1 {
		r.err = ErrCorrupt
		return 0
	}
	return int(v)
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.off) {
		r.Fail()
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// Bytes reads a length-prefixed byte slice (copied out of the input).
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off) {
		r.Fail()
		return nil
	}
	out := make([]byte, n)
	copy(out, r.b[r.off:r.off+int(n)])
	r.off += int(n)
	return out
}

// Bool reads a boolean byte; any value other than 0 or 1 is corrupt.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.b) {
		r.err = ErrTruncated
		return false
	}
	b := r.b[r.off]
	r.off++
	if b > 1 {
		r.err = ErrCorrupt
		return false
	}
	return b == 1
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.err = ErrTruncated
		return 0
	}
	b := r.b[r.off]
	r.off++
	return b
}

// --- files ---------------------------------------------------------------

// WriteFile atomically writes the snapshot to path: the bytes land in a
// temp file in the same directory, which is fsynced and renamed over the
// target, so a crash mid-write leaves either the old snapshot or the new
// one — never a torn file.
func WriteFile(path string, f *File) (int, error) {
	data := f.Bytes()
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snap-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	return len(data), nil
}

// ReadFile opens and validates the snapshot at path.
func ReadFile(path string) (*OpenFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	o, err := Open(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return o, nil
}
