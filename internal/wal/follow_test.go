package wal

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestGroupCommitDurable checks that concurrent SyncAlways appends all
// survive a reopen: the shared fsync must cover every record whose
// Append returned.
func TestGroupCommitDurable(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: SyncAlways, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("append: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	seqs, _ := collect(t, l2, 1)
	if len(seqs) != writers*per {
		t.Fatalf("replayed %d records, want %d", len(seqs), writers*per)
	}
}

// TestGroupCommitShares checks that concurrent appenders actually share
// fsyncs: with a stalled sync, 8 writers must finish with far fewer
// fsyncs than appends, and wal_group_commit_size must account for every
// record exactly once.
func TestGroupCommitShares(t *testing.T) {
	m := newTestMetrics()
	l, err := Open(t.TempDir(), Options{Fsync: SyncAlways, SyncDelay: time.Millisecond, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const writers, per = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := l.Append([]byte("x")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	total := int64(writers * per)
	if got := m.counter("wal_group_commit_size"); got != total {
		t.Fatalf("wal_group_commit_size = %d, want %d (every record in exactly one batch)", got, total)
	}
	m.mu.Lock()
	fsyncs := m.observed["wal_fsync_seconds"]
	m.mu.Unlock()
	if fsyncs >= int(total) {
		t.Fatalf("%d fsyncs for %d appends: no batching happened", fsyncs, total)
	}
}

func TestWaitSeqFollowsTail(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Fsync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan uint64, 1)
	go func() {
		last, err := l.WaitSeq(3, nil)
		if err != nil {
			t.Error(err)
		}
		done <- last
	}()
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case last := <-done:
		if last < 3 {
			t.Fatalf("WaitSeq returned %d, want >= 3", last)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitSeq never woke")
	}

	// Stop channel cancels a parked wait.
	stop := make(chan struct{})
	res := make(chan error, 1)
	go func() {
		_, err := l.WaitSeq(100, stop)
		res <- err
	}()
	close(stop)
	if err := <-res; !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped wait: err = %v, want ErrStopped", err)
	}

	// Close wakes parked waiters with ErrClosed.
	res2 := make(chan error, 1)
	go func() {
		_, err := l.WaitSeq(100, nil)
		res2 <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it park
	l.Close()
	select {
	case err := <-res2:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("wait over closed log: err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not wake WaitSeq")
	}
}

func TestReadRangeConcurrentAndCompacted(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Fsync: SyncNever, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Read a middle range while another goroutine keeps appending.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				l.Append([]byte("noise")) //nolint:errcheck
			}
		}
	}()
	var got []uint64
	err = l.ReadRange(10, 30, func(seq uint64, payload []byte) error {
		got = append(got, seq)
		return nil
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("ReadRange: %v", err)
	}
	if len(got) != 21 || got[0] != 10 || got[20] != 30 {
		t.Fatalf("ReadRange delivered %v, want 10..30", got)
	}

	// Compact the prefix: reading it must fail with ErrCompacted.
	if err := l.Truncate(20); err != nil {
		t.Fatal(err)
	}
	if l.FirstSeq() <= 1 {
		t.Fatalf("FirstSeq = %d after Truncate(20), want > 1", l.FirstSeq())
	}
	err = l.ReadRange(1, 30, func(uint64, []byte) error { return nil })
	if !errors.Is(err, ErrCompacted) {
		t.Fatalf("ReadRange over compacted prefix: err = %v, want ErrCompacted", err)
	}
}

func TestSkipToMirrorsNumbering(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.SkipTo(42); err != nil {
		t.Fatal(err)
	}
	if got := l.LastSeq(); got != 41 {
		t.Fatalf("LastSeq after SkipTo(42) = %d, want 41", got)
	}
	if got := l.FirstSeq(); got != 0 {
		t.Fatalf("FirstSeq after SkipTo = %d, want 0 (no records)", got)
	}
	seq, err := l.Append([]byte("new"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 {
		t.Fatalf("first append after SkipTo(42) got seq %d", seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The mirrored numbering must survive a reopen.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	seqs, payloads := collect(t, l2, 1)
	if len(seqs) != 1 || seqs[0] != 42 || string(payloads[0]) != "new" {
		t.Fatalf("after reopen: seqs %v payloads %q", seqs, payloads)
	}
}

// BenchmarkAppend8Writers measures SyncAlways append throughput with 8
// concurrent writers. SyncDelay models a device where fsync is not free;
// group commit shares that cost across the writers waiting on one sync.
func BenchmarkAppend8Writers(b *testing.B) {
	l, err := Open(b.TempDir(), Options{Fsync: SyncAlways, SyncDelay: 200 * time.Microsecond})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, 128)
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := l.Append(payload); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
