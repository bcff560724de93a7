package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/snapshot"
)

// readAll streams every record with seq >= from to fn, as a boot
// replay reads the log: from its first record still on disk to its last.
func readAll(l *Log, from uint64, fn func(seq uint64, payload []byte) error) error {
	return l.ReadRange(max(from, l.FirstSeq()), l.LastSeq(), fn)
}

// collect reads the log from seq from into a slice.
func collect(t *testing.T, l *Log, from uint64) (seqs []uint64, payloads [][]byte) {
	t.Helper()
	err := readAll(l, from, func(seq uint64, payload []byte) error {
		seqs = append(seqs, seq)
		payloads = append(payloads, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return seqs, payloads
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 20; i++ {
		p := []byte(fmt.Sprintf("record-%02d", i))
		want = append(want, p)
		seq, err := l.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d: seq %d, want %d", i, seq, i+1)
		}
	}
	if got := l.LastSeq(); got != 20 {
		t.Fatalf("LastSeq = %d, want 20", got)
	}
	seqs, payloads := collect(t, l, 1)
	if len(seqs) != 20 {
		t.Fatalf("replayed %d records, want 20", len(seqs))
	}
	for i := range seqs {
		if seqs[i] != uint64(i+1) || !bytes.Equal(payloads[i], want[i]) {
			t.Fatalf("record %d: seq %d payload %q, want seq %d payload %q",
				i, seqs[i], payloads[i], i+1, want[i])
		}
	}
	// Replay from the middle.
	seqs, _ = collect(t, l, 15)
	if len(seqs) != 6 || seqs[0] != 15 {
		t.Fatalf("read from 15 = %v", seqs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	for round := 0; round < 3; round++ {
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		seq, err := l.Append([]byte{byte(round)})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if seq != uint64(round+1) {
			t.Fatalf("round %d: seq %d, want %d", round, seq, round+1)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	seqs, payloads := collect(t, l, 1)
	if len(seqs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(seqs))
	}
	for i := range seqs {
		if payloads[i][0] != byte(i) {
			t.Fatalf("record %d holds %v", i, payloads[i])
		}
	}
}

// TestOpenRefusesOtherVersion: a segment whose complete header names
// another format version is not a torn tail to repair. Open fails with
// ErrVersion naming both versions, and every segment stays as it was.
func TestOpenRefusesOtherVersion(t *testing.T) {
	for _, v := range []byte{1, Version + 1} {
		dir := t.TempDir()
		l, err := Open(dir, Options{Fsync: SyncNever, SegmentBytes: 64})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if _, err := l.Append(bytes.Repeat([]byte{byte(i)}, 20)); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		// Rewrite the first segment's version: a log another build wrote.
		first := filepath.Join(dir, fmt.Sprintf("%020d%s", 1, segmentExt))
		b, err := os.ReadFile(first)
		if err != nil {
			t.Fatal(err)
		}
		b[len(Magic)] = v
		if err := os.WriteFile(first, b, 0o644); err != nil {
			t.Fatal(err)
		}
		before := readDir(t, dir)

		_, err = Open(dir, Options{Fsync: SyncNever})
		if !errors.Is(err, snapshot.ErrVersion) {
			t.Fatalf("version %d: Open = %v, want ErrVersion", v, err)
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("version %d", v)) || !strings.Contains(msg, fmt.Sprintf("reads %d", Version)) {
			t.Fatalf("version %d: error %q does not name both versions", v, msg)
		}
		if after := readDir(t, dir); !reflect.DeepEqual(after, before) || len(after) < 2 {
			t.Fatalf("version %d: Open touched the log: %d segments before, %d after", v, len(before), len(after))
		}
	}
}

// readDir maps every file in dir to its contents.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

func TestRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record should land in its own file.
	l, err := Open(dir, Options{SegmentBytes: 24, Fsync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := l.Append([]byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	if n := countSegments(t, dir); n < 4 {
		t.Fatalf("expected rotation to produce several segments, got %d", n)
	}
	if err := l.Truncate(5); err != nil {
		t.Fatal(err)
	}
	seqs, _ := collect(t, l, 1)
	if len(seqs) == 0 || seqs[len(seqs)-1] != 8 {
		t.Fatalf("post-truncate replay = %v", seqs)
	}
	if seqs[0] > 6 {
		t.Fatalf("truncate(5) removed uncovered records: first surviving seq %d", seqs[0])
	}
	for _, s := range seqs {
		if s <= 5 && s < seqs[0] {
			t.Fatalf("non-contiguous replay %v", seqs)
		}
	}
	// Truncating everything must keep the active segment usable.
	if err := l.Truncate(l.LastSeq()); err != nil {
		t.Fatal(err)
	}
	if seq, err := l.Append([]byte("after")); err != nil || seq != 9 {
		t.Fatalf("append after full truncate: seq %d err %v", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// And survive a reopen.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.LastSeq(); got != 9 {
		t.Fatalf("reopened LastSeq = %d, want 9", got)
	}
}

func countSegments(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == segmentExt {
			n++
		}
	}
	return n
}

// testMetrics is a minimal Metrics capturing counters.
type testMetrics struct {
	mu       sync.Mutex
	counters map[string]int64
	observed map[string]int
}

func newTestMetrics() *testMetrics {
	return &testMetrics{counters: map[string]int64{}, observed: map[string]int{}}
}
func (m *testMetrics) Add(name string, delta int64) {
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}
func (m *testMetrics) Observe(name string, d time.Duration) {
	m.mu.Lock()
	m.observed[name]++
	m.mu.Unlock()
}
func (m *testMetrics) counter(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

func TestMetricsFeed(t *testing.T) {
	dir := t.TempDir()
	m := newTestMetrics()
	l, err := Open(dir, Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.counter("wal_appends_total"); got != 3 {
		t.Fatalf("wal_appends_total = %d, want 3", got)
	}
	if got := m.counter("wal_bytes_total"); got <= 0 {
		t.Fatalf("wal_bytes_total = %d, want > 0", got)
	}
	m.mu.Lock()
	fsyncs := m.observed["wal_fsync_seconds"]
	m.mu.Unlock()
	if fsyncs < 3 {
		t.Fatalf("wal_fsync_seconds observed %d times, want >= 3 (SyncAlways)", fsyncs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSyncIntervalFlushes(t *testing.T) {
	dir := t.TempDir()
	m := newTestMetrics()
	l, err := Open(dir, Options{Fsync: SyncInterval, SyncEvery: time.Millisecond, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		m.mu.Lock()
		n := m.observed["wal_fsync_seconds"]
		m.mu.Unlock()
		if n > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("interval flusher never synced")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, name := range []string{"always", "interval", "never"} {
		p, err := ParsePolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.String() != name {
			t.Fatalf("ParsePolicy(%q).String() = %q", name, p.String())
		}
	}
	if p, err := ParsePolicy(""); err != nil || p != SyncAlways {
		t.Fatalf("empty policy: %v %v", p, err)
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("ParsePolicy accepted garbage")
	}
}

func TestClosedLogRefuses(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := l.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("Append on closed log: %v", err)
	}
	if err := l.Truncate(1); err != ErrClosed {
		t.Fatalf("Truncate on closed log: %v", err)
	}
}
