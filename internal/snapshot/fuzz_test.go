package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// seedCorpus: well-formed files of varying shape plus corrupt prefixes,
// so the smoke -fuzztime run exercises every Open path.
func seedCorpus(f *testing.F) {
	empty := New()
	f.Add(empty.Bytes())

	one := New()
	w := one.Section("meta")
	w.Uvarint(7)
	w.Int(-3)
	w.String("engine")
	w.Bool(true)
	f.Add(one.Bytes())

	multi := New()
	multi.Section("term.store").String("cells")
	multi.Section("engine").Bytes([]byte{1, 2, 3, 4})
	multi.Section("session").Uvarint(99)
	f.Add(multi.Bytes())

	f.Add([]byte{})
	f.Add([]byte("DSNP"))
	f.Add([]byte("DSNQ\x01\x00\x00"))
	f.Add(append([]byte("DSNP"), 0x80, 0x80, 0x80, 0x80, 0x80, 0x02))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
}

// FuzzOpen: Open is total — arbitrary bytes either parse into a CRC-valid
// file or return an error; they never panic and never over-allocate. A
// file that opens must round-trip through re-encoding.
func FuzzOpen(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		o, err := Open(b)
		if err != nil {
			return
		}
		// Rebuild a file with the same sections: it must open again with
		// identical content.
		re := New()
		for _, name := range o.Sections() {
			r, err := o.Section(name)
			if err != nil {
				t.Fatalf("listed section %q missing: %v", name, err)
			}
			re.Section(name).b = append([]byte(nil), r.b...)
		}
		o2, err := Open(re.Bytes())
		if err != nil {
			t.Fatalf("re-encoded file failed to open: %v", err)
		}
		for _, name := range o.Sections() {
			r1, _ := o.Section(name)
			r2, _ := o2.Section(name)
			if !bytes.Equal(r1.b, r2.b) {
				t.Fatalf("section %q changed across re-encode", name)
			}
		}
	})
}

// FuzzReader: the primitive readers are total over one fuzzed section
// body driven by a fuzzed opcode string.
func FuzzReader(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte("usbi"))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, []byte("uuuuu"))
	f.Add([]byte{}, []byte("cbs"))
	f.Fuzz(func(t *testing.T, body, ops []byte) {
		r := &Reader{b: body}
		for _, op := range ops {
			switch op {
			case 'u':
				r.Uvarint()
			case 'i':
				r.Int()
			case 's':
				_ = r.String()
			case 'b':
				r.Bool()
			case 'y':
				r.Byte()
			case 'z':
				r.Bytes()
			case 'c':
				n := r.Count(4)
				if r.Err() == nil && n > len(body)+1 {
					t.Fatalf("Count let %d elements through a %d-byte body", n, len(body))
				}
			}
			if r.Err() != nil {
				return
			}
		}
	})
}

// FuzzFrame: frame parsing is total and agrees across its two readers.
// Over arbitrary bytes, NextFrame either errors or returns a frame, and
// ReadFrame over the same stream returns the same bodies and the same
// failure kind; every body round-trips through AppendFrame.
func FuzzFrame(f *testing.F) {
	f.Add(AppendFrame(nil, []byte("body")))
	f.Add(AppendFrame(AppendFrame(nil, nil), []byte{1, 2, 3}))
	f.Add(AppendFrame(nil, []byte("body"))[:5])
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}) // huge length
	f.Add(bytes.Repeat([]byte{0x80}, 11))                                     // overflowing length
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		br := bufio.NewReader(bytes.NewReader(b))
		rest := b
		for len(rest) > 0 {
			body, next, err := NextFrame(rest)
			got, rerr := ReadFrame(br, MaxFrame)
			if err != nil {
				if rerr == nil {
					t.Fatalf("NextFrame: %v, but ReadFrame read %d bytes", err, len(got))
				}
				n, _ := binary.Uvarint(rest)
				if n <= MaxFrame && errors.Is(err, ErrTruncated) != errors.Is(rerr, ErrTruncated) {
					t.Fatalf("NextFrame: %v, ReadFrame: %v", err, rerr)
				}
				return
			}
			if rerr != nil || !bytes.Equal(got, body) {
				t.Fatalf("NextFrame read %q, ReadFrame %q (%v)", body, got, rerr)
			}
			enc := AppendFrame(nil, body)
			again, tail, err := NextFrame(enc)
			if err != nil || len(tail) != 0 || !bytes.Equal(again, body) || len(enc) != FrameSize(len(body)) {
				t.Fatalf("frame of %q does not round-trip: %q, %d trailing bytes, %v", body, again, len(tail), err)
			}
			rest = next
		}
		if _, err := ReadFrame(br, MaxFrame); err != io.EOF {
			t.Fatalf("ReadFrame at the end of the stream: %v, want io.EOF", err)
		}
	})
}
