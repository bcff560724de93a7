package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/snapshot"
)

// buildSegment writes a log of n records into a fresh directory and
// returns the single segment file's bytes plus the clean truncation
// boundaries: the header end and each record end. Truncating the file
// at any other offset is a torn tail.
func buildSegment(t *testing.T, n int) (data []byte, boundaries map[int]int) {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		// Varying payload sizes, including empty, so the offsets exercise
		// different framing shapes.
		p := bytes.Repeat([]byte{byte('a' + i)}, i*3)
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if countSegments(t, dir) != 1 {
		t.Fatalf("want exactly one segment, got %d", countSegments(t, dir))
	}
	path := filepath.Join(dir, fmt.Sprintf("%020d%s", 1, segmentExt))
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Recompute the record boundaries independently of the writer.
	boundaries = map[int]int{} // offset -> number of complete records at it
	rest, err := parseHeader(data, 1)
	if err != nil {
		t.Fatalf("segment has no valid header: %v", err)
	}
	boundaries[len(data)-len(rest)] = 0
	records := 0
	for len(rest) > 0 {
		_, next, err := snapshot.NextFrame(rest)
		if err != nil {
			t.Fatalf("writer produced an invalid record at offset %d: %v", len(data)-len(rest), err)
		}
		rest = next
		records++
		boundaries[len(data)-len(rest)] = records
	}
	if records != n {
		t.Fatalf("segment holds %d records, want %d", records, n)
	}
	return data, boundaries
}

// TestTornTailEveryOffset is the exhaustive torn-tail acceptance: a
// multi-record segment truncated at EVERY byte offset must always open
// without a panic, replay exactly the longest prefix of complete
// records, report the tear (wal_truncated_tail_total) when there is
// one, and accept new appends afterwards.
func TestTornTailEveryOffset(t *testing.T) {
	data, boundaries := buildSegment(t, 6)
	for cut := 0; cut <= len(data); cut++ {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, fmt.Sprintf("%020d%s", 1, segmentExt))
			if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			m := newTestMetrics()
			l, err := Open(dir, Options{Metrics: m, Fsync: SyncNever})
			if err != nil {
				t.Fatalf("Open on %d-byte prefix: %v", cut, err)
			}
			defer l.Close()

			// The longest valid prefix: the highest boundary <= cut.
			wantRecords := 0
			clean := false
			for b, n := range boundaries {
				if b <= cut && n >= wantRecords {
					wantRecords = n
				}
				if b == cut {
					clean = true
				}
			}
			seqs, payloads := collect(t, l, 1)
			if len(seqs) != wantRecords {
				t.Fatalf("replayed %d records, want %d", len(seqs), wantRecords)
			}
			for i, seq := range seqs {
				if seq != uint64(i+1) {
					t.Fatalf("record %d has seq %d", i, seq)
				}
				want := bytes.Repeat([]byte{byte('a' + i)}, i*3)
				if !bytes.Equal(payloads[i], want) {
					t.Fatalf("record %d payload %q, want %q (partial record surfaced)", i, payloads[i], want)
				}
			}
			if torn := m.counter("wal_truncated_tail_total"); clean && torn != 0 {
				t.Fatalf("clean boundary %d reported a torn tail", cut)
			} else if !clean && torn != 1 {
				t.Fatalf("torn cut %d reported wal_truncated_tail_total=%d, want 1", cut, torn)
			}
			if got := l.LastSeq(); got != uint64(wantRecords) {
				t.Fatalf("LastSeq = %d, want %d", got, wantRecords)
			}

			// The repaired log must keep appending from the right seq.
			seq, err := l.Append([]byte("resumed"))
			if err != nil {
				t.Fatalf("append after repair: %v", err)
			}
			if seq != uint64(wantRecords+1) {
				t.Fatalf("append after repair got seq %d, want %d", seq, wantRecords+1)
			}
		})
	}
}

// TestTornTailDropsLaterSegments: garbage in the middle of the chain
// makes everything after it unreachable — replay must stop at the last
// record before the tear, even though later segments were intact.
func TestTornTailDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 24, Fsync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := l.Append([]byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := countSegments(t, dir); n < 3 {
		t.Fatalf("need >= 3 segments, got %d", n)
	}
	// Corrupt one byte inside the third segment's record area.
	path := filepath.Join(dir, fmt.Sprintf("%020d%s", 3, segmentExt))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-2] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	m := newTestMetrics()
	l2, err := Open(dir, Options{Metrics: m, Fsync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	seqs, _ := collect(t, l2, 1)
	if len(seqs) != 2 || seqs[len(seqs)-1] != 2 {
		t.Fatalf("replay after mid-chain corruption = %v, want [1 2]", seqs)
	}
	if m.counter("wal_truncated_tail_total") != 1 {
		t.Fatalf("tear not reported")
	}
	if countSegments(t, dir) > 3 {
		t.Fatalf("later segments survived the tear: %d files", countSegments(t, dir))
	}
}
