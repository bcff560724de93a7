package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/snapshot"
)

// validSegment builds a well-formed segment with n records for seeding.
func validSegment(n int) []byte {
	b := []byte(Magic)
	b = binary.AppendUvarint(b, Version)
	b = binary.AppendUvarint(b, 1)
	for i := 0; i < n; i++ {
		body := binary.AppendUvarint(nil, uint64(i+1))
		body = append(body, bytes.Repeat([]byte{byte(i)}, i)...)
		b = snapshot.AppendFrame(b, body)
	}
	return b
}

// FuzzSegment: Open over arbitrary segment bytes is total — it repairs
// or discards, never panics, and the repaired file opens cleanly a
// second time with the same contents (repair is idempotent). The one
// input Open refuses is a segment of another format version, which it
// must leave byte for byte as it was.
func FuzzSegment(f *testing.F) {
	f.Add(validSegment(0))
	f.Add(validSegment(3))
	f.Add(validSegment(3)[:10])
	f.Add([]byte{})
	f.Add([]byte("DWAL"))
	f.Add([]byte("DWAX\x01\x01"))
	f.Add([]byte("DWAL\x01\x01")) // another version: refused, untouched
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	corrupt := validSegment(2)
	corrupt[len(corrupt)-1] ^= 0xA5
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, b []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, fmt.Sprintf("%020d%s", 1, segmentExt))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{Fsync: SyncNever})
		if errors.Is(err, snapshot.ErrVersion) {
			if after, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(after, b) {
				t.Fatalf("Open refused the segment (%v) but changed it", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("Open must repair, not fail: %v", err)
		}
		var first [][]byte
		if err := readAll(l, 1, func(seq uint64, payload []byte) error {
			if seq != uint64(len(first)+1) {
				t.Fatalf("replay out of sequence: %d after %d records", seq, len(first))
			}
			first = append(first, append([]byte(nil), payload...))
			return nil
		}); err != nil {
			t.Fatalf("replay of repaired log: %v", err)
		}
		l.Close()

		// Idempotence: the repaired directory reopens with no further tear
		// and identical records.
		m := newTestMetrics()
		l2, err := Open(dir, Options{Metrics: m, Fsync: SyncNever})
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer l2.Close()
		if m.counter("wal_truncated_tail_total") != 0 {
			t.Fatal("repair was not idempotent: second Open found another tear")
		}
		i := 0
		readAll(l2, 1, func(seq uint64, payload []byte) error { //nolint:errcheck
			if i >= len(first) || !bytes.Equal(payload, first[i]) {
				t.Fatalf("record %d changed across repair", i)
			}
			i++
			return nil
		})
		if i != len(first) {
			t.Fatalf("second replay saw %d records, first saw %d", i, len(first))
		}
	})
}

// FuzzReplay: append fuzzed payload chunks, cut the segment at a
// fuzzed offset, and check the recovered prefix is exactly the records
// whose bytes fully survived — no partial record ever surfaces.
func FuzzReplay(f *testing.F) {
	f.Add([]byte("abcdefgh"), uint8(3), uint16(0))
	f.Add([]byte(""), uint8(1), uint16(4))
	f.Add(bytes.Repeat([]byte{0x42}, 100), uint8(7), uint16(55))
	f.Add([]byte("xy"), uint8(2), uint16(9999))
	f.Fuzz(func(t *testing.T, data []byte, nRecords uint8, cut uint16) {
		n := int(nRecords)%8 + 1
		dir := t.TempDir()
		l, err := Open(dir, Options{Fsync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		var want [][]byte
		for i := 0; i < n; i++ {
			lo := (len(data) * i) / n
			hi := (len(data) * (i + 1)) / n
			p := data[lo:hi]
			want = append(want, append([]byte(nil), p...))
			if _, err := l.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()

		path := filepath.Join(dir, fmt.Sprintf("%020d%s", 1, segmentExt))
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		c := int(cut) % (len(b) + 1)
		if err := os.WriteFile(path, b[:c], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(dir, Options{Fsync: SyncNever})
		if err != nil {
			t.Fatalf("Open on cut log: %v", err)
		}
		defer l2.Close()
		i := 0
		readAll(l2, 1, func(seq uint64, payload []byte) error { //nolint:errcheck
			if seq != uint64(i+1) {
				t.Fatalf("replay out of sequence: %d", seq)
			}
			if i >= len(want) || !bytes.Equal(payload, want[i]) {
				t.Fatalf("record %d: got %q, want %q", i, payload, want[i])
			}
			i++
			return nil
		})
	})
}
