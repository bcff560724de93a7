package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// replayAll collects (seq, payload) pairs from seq from onward.
func replayAll(t *testing.T, l *Log, from uint64) (seqs []uint64, payloads []string) {
	t.Helper()
	err := readAll(l, from, func(seq uint64, payload []byte) error {
		seqs = append(seqs, seq)
		payloads = append(payloads, string(payload))
		return nil
	})
	if err != nil {
		t.Fatalf("read from %d: %v", from, err)
	}
	return
}

// checkSuffixProperty asserts that for every k, reading from k equals
// the suffix of reading from 1 starting at the first seq >= k — the
// resume invariant the replication primary depends on.
func checkSuffixProperty(t *testing.T, l *Log) {
	t.Helper()
	allSeqs, allPayloads := replayAll(t, l, 1)
	last := uint64(0)
	if n := len(allSeqs); n > 0 {
		last = allSeqs[n-1]
	}
	for k := uint64(1); k <= last+2; k++ {
		seqs, payloads := replayAll(t, l, k)
		cut := sort.Search(len(allSeqs), func(i int) bool { return allSeqs[i] >= k })
		wantSeqs, wantPayloads := allSeqs[cut:], allPayloads[cut:]
		if len(seqs) != len(wantSeqs) {
			t.Fatalf("read from %d: %d records, want %d", k, len(seqs), len(wantSeqs))
		}
		for i := range seqs {
			if seqs[i] != wantSeqs[i] || payloads[i] != wantPayloads[i] {
				t.Fatalf("read from %d: record %d = (%d, %q), want (%d, %q)",
					k, i, seqs[i], payloads[i], wantSeqs[i], wantPayloads[i])
			}
		}
	}
}

// TestReplayFromBoundaryProperty drives the suffix property over a
// multi-segment log: every from=k boundary, including ones that land
// exactly on segment rotation edges, must yield the suffix of a full
// replay. It then crashes the tail mid-record and checks the property
// still holds over the repaired log.
func TestReplayFromBoundaryProperty(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force many rotations, so plenty of from=k boundaries
	// coincide with segment starts.
	l, err := Open(dir, Options{Fsync: SyncNever, SegmentBytes: 96})
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	for i := 0; i < n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("payload-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	segBefore := countSegments(t, dir)
	if segBefore < 3 {
		t.Fatalf("want a multi-segment log, got %d segments", segBefore)
	}
	checkSuffixProperty(t, l)
	l.Close()

	// Tear the tail mid-record: chop a few bytes off the last segment,
	// as a crash during a write would.
	names, err := filepath.Glob(filepath.Join(dir, "*"+segmentExt))
	if err != nil || len(names) == 0 {
		t.Fatalf("glob: %v (%d files)", err, len(names))
	}
	sort.Strings(names)
	tail := names[len(names)-1]
	fi, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(tail, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	// Open repairs the tear; the property must hold over what survived.
	l2, err := Open(dir, Options{Fsync: SyncNever, SegmentBytes: 96})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	seqs, _ := replayAll(t, l2, 1)
	if len(seqs) == 0 || len(seqs) >= n {
		t.Fatalf("torn log replayed %d records, want 0 < r < %d", len(seqs), n)
	}
	checkSuffixProperty(t, l2)

	// And appends after the repair keep the property intact across the
	// repaired boundary.
	for i := 0; i < 10; i++ {
		if _, err := l2.Append([]byte(fmt.Sprintf("post-crash-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	checkSuffixProperty(t, l2)

	// Sanity: segment names still parse as first-seq numbers (guards the
	// glob above against picking up stray files).
	for _, name := range names {
		base := strings.TrimSuffix(filepath.Base(name), segmentExt)
		if len(base) != 20 {
			t.Fatalf("segment name %q is not %%020d", name)
		}
	}
}
