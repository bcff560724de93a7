// Package wal is a segmented, append-only write-ahead log: the one
// durable store of a served session. Every intent that gets an
// acknowledgement is logged (and, per policy, fsynced) here first.
// Because the online dQSQ evaluation is deterministic per append (the
// paper's Remark 2), replaying a session's records reproduces
// byte-identical diagnoses, derived-fact counts and message counts; a
// checkpoint is just one more record, holding the session's encoded
// state so recovery need not re-run everything before it.
//
// Layout. The log is a directory of segment files named
// <firstSeq>.wal. Each segment opens with a magic+version header and
// its first sequence number, then carries one snapshot frame (see
// internal/snapshot) per record:
//
//	"DWAL" | uvarint version | uvarint firstSeq
//	then per record: frame(uvarint seq | payload)
//
// The frame's CRC covers the seq and the payload, so a bit flip in
// either surfaces. Sequence numbers are assigned by the log, start at 1
// and increase by exactly one per record; a CRC-valid record with the
// wrong sequence number is treated as corruption. A segment whose
// complete header names another version is refused: Open fails with an
// error wrapping snapshot.ErrVersion and touches no file.
//
// Torn tails. A crash mid-write leaves a partial record at the end of
// the active segment. Open scans every segment and stops at the first
// short read, bad CRC or sequence break: the file is truncated back to
// the last valid record, any later segments are deleted, and a read
// never surfaces a partial record. What is lost is exactly the appends
// that were never acknowledged.
//
// Durability is tunable per Options.Fsync: SyncAlways fsyncs before
// Append returns (an acknowledged append survives kill -9), SyncInterval
// fsyncs on a timer (bounded loss, near-zero per-append cost), SyncNever
// leaves flushing to the OS. Truncate(upTo) drops whole segments once
// later records (checkpoints, deletes) make theirs redundant —
// compaction, not history rewriting: the active segment is never
// touched.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/snapshot"
)

// Magic identifies a WAL segment file.
const Magic = "DWAL"

// Version is the segment format version this build writes and the only
// one it reads (matching the snapshot container's no-shims policy).
// Version 2 framed each record with the snapshot frame.
const Version = 2

// segmentExt names segment files inside the log directory.
const segmentExt = ".wal"

// ErrClosed reports use of a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrCompacted reports a read of records that Truncate already dropped.
// Replication primaries treat it as "restart the follower from the
// first record still held".
var ErrCompacted = errors.New("wal: records compacted away")

// ErrStopped reports a WaitSeq canceled by its stop channel.
var ErrStopped = errors.New("wal: wait stopped")

// Policy selects when appends reach stable storage.
type Policy int

const (
	// SyncAlways fsyncs before Append returns: an acknowledged append
	// survives kill -9. The default.
	SyncAlways Policy = iota
	// SyncInterval fsyncs on a timer (Options.SyncEvery): per-append cost
	// of a buffered write, loss bounded by the interval.
	SyncInterval
	// SyncNever leaves flushing to the OS page cache.
	SyncNever
)

// ParsePolicy maps the flag spelling onto a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always | interval | never)", s)
	}
}

// String is the inverse of ParsePolicy.
func (p Policy) String() string {
	switch p {
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return "always"
	}
}

// Metrics is the registry surface the log feeds (a subset of
// obs.Registry; internal/serve's *Metrics satisfies it). All methods
// must be safe for concurrent use. A nil Metrics disables reporting.
type Metrics interface {
	Add(name string, delta int64)
	Observe(name string, d time.Duration)
}

// Options tunes a log.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size.
	// 0 means 4 MiB.
	SegmentBytes int
	// Fsync is the durability policy (default SyncAlways).
	Fsync Policy
	// SyncEvery is the SyncInterval flush period. 0 means 100ms.
	SyncEvery time.Duration
	// Metrics receives wal_appends_total, wal_bytes_total,
	// wal_fsync_seconds, wal_truncated_tail_total and
	// wal_group_commit_size. nil discards them.
	Metrics Metrics
	// SyncDelay stalls every fsync by this much extra. It is a benchmark
	// hook modeling a device with non-trivial sync latency, so the
	// group-commit batching effect stays measurable on CI filesystems
	// where a real fsync is nearly free. 0 (production) disables it.
	SyncDelay time.Duration
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	return o
}

// segment is one on-disk segment file.
type segment struct {
	first uint64 // sequence number of its first record
	last  uint64 // sequence number of its last record; first-1 when empty
	path  string
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use; appends are serialized by the log's mutex.
type Log struct {
	dir string
	opt Options

	mu      sync.Mutex
	segs    []segment
	active  *os.File // nil until the first append after Open/rotation
	size    int      // bytes in the active segment
	nextSeq uint64
	synced  uint64        // highest seq known durable (group-commit)
	wake    chan struct{} // non-nil while a WaitSeq is parked; closed on progress
	dirty   bool          // unsynced writes (SyncInterval bookkeeping)
	closed  bool

	// syncMu serializes group-commit fsyncs. Lock order: syncMu before
	// mu, never the reverse — Append releases mu before electing a
	// group-commit leader.
	syncMu sync.Mutex

	tickStop chan struct{}
	tickDone chan struct{}
}

// Open creates dir if needed, scans the segments already there,
// truncates any torn tail (counting it on wal_truncated_tail_total) and
// returns a log positioned to append after the last valid record. A
// segment of another format version fails Open with an error wrapping
// snapshot.ErrVersion, before any file is touched.
func Open(dir string, opt Options) (*Log, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opt: opt, nextSeq: 1}
	if err := l.scan(); err != nil {
		return nil, err
	}
	l.synced = l.nextSeq - 1 // what scan found on disk needs no fsync
	if opt.Fsync == SyncInterval {
		l.tickStop = make(chan struct{})
		l.tickDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

// LastSeq reports the sequence number of the last record in the log (0
// when empty).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// FirstSeq reports the sequence number of the oldest record still on
// disk, or 0 when the log holds no records (empty, or everything
// compacted and nothing appended since).
func (l *Log) FirstSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.segs {
		if s.last >= s.first {
			return s.first
		}
	}
	return 0
}

// Sealed reports the sequence number of the last record in the oldest
// sealed segment — the one Truncate would drop first — or 0 while the
// active segment is the only one holding records.
func (l *Log) Sealed() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segs) < 2 {
		return 0
	}
	return l.segs[0].last
}

// wakeLocked releases every parked WaitSeq. Callers hold l.mu.
func (l *Log) wakeLocked() {
	if l.wake != nil {
		close(l.wake)
		l.wake = nil
	}
}

// WaitSeq blocks until the log holds a record with sequence >= seq,
// returning the then-current LastSeq. It returns ErrClosed once the log
// closes and ErrStopped when stop is closed first. Replication
// primaries use it to follow the tail without polling.
func (l *Log) WaitSeq(seq uint64, stop <-chan struct{}) (uint64, error) {
	for {
		l.mu.Lock()
		last := l.nextSeq - 1
		if last >= seq {
			l.mu.Unlock()
			return last, nil
		}
		if l.closed {
			l.mu.Unlock()
			return last, ErrClosed
		}
		if l.wake == nil {
			l.wake = make(chan struct{})
		}
		ch := l.wake
		l.mu.Unlock()
		select {
		case <-ch:
		case <-stop:
			return last, ErrStopped
		}
	}
}

// scan validates the on-disk segments, repairing the torn tail: the
// first invalid byte truncates its file back to the last valid record
// and deletes every later segment.
func (l *Log) scan() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segmentExt) {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(name, segmentExt), 10, 64)
		if err != nil || first == 0 {
			continue // not a segment of ours; leave it alone
		}
		segs = append(segs, segment{first: first, path: filepath.Join(l.dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })

	torn := false
	for i := 0; i < len(segs); i++ {
		s := &segs[i]
		// Segments must chain: a gap means the earlier tail was lost, so
		// everything after the gap is unreachable history.
		if i > 0 && s.first != segs[i-1].last+1 {
			torn = true
			l.dropFrom(segs, i)
			segs = segs[:i]
			break
		}
		b, err := os.ReadFile(s.path)
		if err != nil {
			return err
		}
		s.last = s.first - 1
		validLen, err := walk(b, s.first, func(seq uint64, _ []byte) bool {
			s.last = seq
			return true
		})
		if errors.Is(err, snapshot.ErrVersion) {
			return fmt.Errorf("wal: %s: %w", s.path, err)
		}
		if err != nil {
			torn = true
			keep := i + 1
			if validLen == 0 {
				// Not even a whole header: the file holds nothing usable.
				keep, err = i, os.Remove(s.path)
			} else {
				err = os.Truncate(s.path, int64(validLen))
			}
			if err != nil {
				return err
			}
			l.dropFrom(segs, i+1)
			segs = segs[:keep]
			break
		}
	}
	if torn {
		l.metricAdd("wal_truncated_tail_total", 1)
	}
	l.segs = segs
	if n := len(segs); n > 0 {
		l.nextSeq = segs[n-1].last + 1
		if fi, err := os.Stat(segs[n-1].path); err == nil {
			l.size = int(fi.Size())
		}
	}
	return nil
}

// dropFrom removes the segment files at and after index i.
func (l *Log) dropFrom(segs []segment, i int) {
	for ; i < len(segs); i++ {
		os.Remove(segs[i].path) //nolint:errcheck // already past the valid prefix
	}
}

// parseHeader checks a segment's header against the first sequence
// number its file name promises and returns the bytes after it. A
// complete header of another version is ErrVersion; anything else that
// does not parse is a torn or foreign file.
func parseHeader(b []byte, first uint64) ([]byte, error) {
	if len(b) < len(Magic) || string(b[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: no segment magic", snapshot.ErrCorrupt)
	}
	v, n := binary.Uvarint(b[len(Magic):])
	if n <= 0 {
		return nil, snapshot.ErrTruncated
	}
	b = b[len(Magic)+n:]
	f, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, snapshot.ErrTruncated
	}
	if v != Version {
		return nil, fmt.Errorf("%w: segment has version %d, this build reads %d", snapshot.ErrVersion, v, Version)
	}
	if f != first {
		return nil, fmt.Errorf("%w: segment header names first seq %d, its file name %d", snapshot.ErrCorrupt, f, first)
	}
	return b[n:], nil
}

// walk parses one segment: its header, then each record, which must
// carry the sequence numbers first, first+1, ... in turn. fn sees each
// record's seq and payload (a view into b) and returns false to stop.
// walk returns the byte length of the prefix it accepted (0 when the
// header is bad) and the first parse error; a stop by fn is none. It
// never panics on arbitrary input.
func walk(b []byte, first uint64, fn func(seq uint64, payload []byte) bool) (int, error) {
	rest, err := parseHeader(b, first)
	if err != nil {
		return 0, err
	}
	for seq := first; len(rest) > 0; seq++ {
		body, next, err := snapshot.NextFrame(rest)
		if err != nil {
			return len(b) - len(rest), err
		}
		got, n := binary.Uvarint(body)
		if n <= 0 || got != seq {
			return len(b) - len(rest), fmt.Errorf("%w: record %d where %d belongs", snapshot.ErrCorrupt, got, seq)
		}
		rest = next
		if !fn(seq, body[n:]) {
			break
		}
	}
	return len(b) - len(rest), nil
}

// Append durably logs one record per the fsync policy and returns its
// sequence number. The payload is copied into the OS before return;
// callers may reuse the slice.
//
// Under SyncAlways, concurrent appenders group-commit: the record is
// written under the log lock, the lock is released, and the first
// caller to reach the sync lock fsyncs on behalf of everyone who wrote
// before it (leader/follower around a single Sync). Later callers find
// their record already durable and return without touching the disk,
// so throughput scales with concurrency instead of paying one fsync
// per append.
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	body := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+len(payload)), l.nextSeq)
	body = append(body, payload...)
	rec := snapshot.AppendFrame(make([]byte, 0, snapshot.FrameSize(len(body))), body)

	if err := l.ensureActiveLocked(len(rec)); err != nil {
		l.mu.Unlock()
		return 0, err
	}
	if _, err := l.active.Write(rec); err != nil {
		l.mu.Unlock()
		return 0, err
	}
	l.size += len(rec)
	seq := l.nextSeq
	l.nextSeq++
	l.segs[len(l.segs)-1].last = seq
	l.metricAdd("wal_appends_total", 1)
	l.metricAdd("wal_bytes_total", int64(len(rec)))
	l.wakeLocked()
	switch l.opt.Fsync {
	case SyncAlways:
		l.mu.Unlock()
		if err := l.groupSync(seq); err != nil {
			return 0, err
		}
		return seq, nil
	case SyncInterval:
		l.dirty = true
	}
	l.mu.Unlock()
	return seq, nil
}

// groupSync makes the record at seq durable, sharing the fsync with
// every record written before the leader runs. Lock order: syncMu is
// taken without holding mu.
func (l *Log) groupSync(seq uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	if l.synced >= seq {
		l.mu.Unlock()
		return nil // a previous leader's fsync covered us
	}
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	f := l.active
	target := l.nextSeq - 1 // everything written so far rides this fsync
	l.mu.Unlock()

	start := time.Now()
	if f != nil {
		if err := f.Sync(); err != nil {
			return err
		}
	}
	if l.opt.SyncDelay > 0 {
		time.Sleep(l.opt.SyncDelay)
	}
	l.metricObserve("wal_fsync_seconds", time.Since(start))

	l.mu.Lock()
	// Records below target live either in f (just synced) or in sealed
	// segments, which were flushed before rotation.
	if target > l.synced {
		l.metricAdd("wal_group_commit_size", int64(target-l.synced))
		l.synced = target
	}
	if l.nextSeq-1 == target {
		l.dirty = false
	}
	l.mu.Unlock()
	return nil
}

// ensureActiveLocked readies a segment with room for a need-byte record:
// reopen the tail segment Open found, rotate a full one, or create the
// first. An empty tail is reused, never sealed — its filename already
// carries nextSeq.
func (l *Log) ensureActiveLocked(need int) error {
	if l.active == nil && len(l.segs) > 0 {
		s := l.segs[len(l.segs)-1]
		f, err := os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		l.active = f
		if fi, err := f.Stat(); err == nil {
			l.size = int(fi.Size())
		}
	}
	if l.active == nil {
		return l.newSegmentLocked()
	}
	tail := l.segs[len(l.segs)-1]
	if l.size+need > l.opt.SegmentBytes && tail.last >= tail.first {
		// Seal the full segment: flush it first (unless the policy is
		// SyncNever) so a sealed segment is durable before anything lands
		// after it.
		if l.opt.Fsync != SyncNever {
			if err := l.syncLocked(); err != nil {
				return err
			}
		}
		if err := l.active.Close(); err != nil {
			return err
		}
		l.active = nil
		return l.newSegmentLocked()
	}
	return nil
}

// newSegmentLocked creates the segment whose first record will be
// nextSeq and writes its header.
func (l *Log) newSegmentLocked() error {
	first := l.nextSeq
	path := filepath.Join(l.dir, fmt.Sprintf("%020d%s", first, segmentExt))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	hdr := make([]byte, 0, 16)
	hdr = append(hdr, Magic...)
	hdr = binary.AppendUvarint(hdr, Version)
	hdr = binary.AppendUvarint(hdr, first)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		os.Remove(path) //nolint:errcheck
		return err
	}
	l.active = f
	l.size = len(hdr)
	l.segs = append(l.segs, segment{first: first, last: first - 1, path: path})
	syncDir(l.dir) // the new name must survive a crash too
	return nil
}

// Sync flushes the active segment to stable storage, whatever the
// policy. Consumers call it to put a floor under SyncInterval/SyncNever
// (e.g. before acknowledging something that must not be lost).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.active == nil {
		return nil
	}
	start := time.Now()
	if err := l.active.Sync(); err != nil {
		return err
	}
	if l.opt.SyncDelay > 0 {
		time.Sleep(l.opt.SyncDelay)
	}
	l.metricObserve("wal_fsync_seconds", time.Since(start))
	l.dirty = false
	if l.nextSeq-1 > l.synced {
		l.synced = l.nextSeq - 1
	}
	return nil
}

// syncLoop is the SyncInterval flusher.
func (l *Log) syncLoop() {
	defer close(l.tickDone)
	t := time.NewTicker(l.opt.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-l.tickStop:
			return
		case <-t.C:
			l.mu.Lock()
			if l.dirty && !l.closed {
				l.syncLocked() //nolint:errcheck // the next Append surfaces a sick disk
			}
			l.mu.Unlock()
		}
	}
}

// ReadRange streams the records with from <= seq <= to, in order, to
// fn. It is safe during concurrent appends, provided to <= LastSeq()
// at the time of the call: a record's bytes are fully written before
// its sequence number is published, so the range is readable even while
// later records land. It returns ErrCompacted when
// Truncate has already dropped part of the range and an error if a
// promised record turns out unreadable.
func (l *Log) ReadRange(from, to uint64, fn func(seq uint64, payload []byte) error) error {
	if from == 0 {
		from = 1
	}
	if to < from {
		return nil
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	last := l.nextSeq - 1
	segs := append([]segment(nil), l.segs...)
	l.mu.Unlock()
	if to > last {
		return fmt.Errorf("wal: ReadRange(%d, %d) past end %d", from, to, last)
	}
	first := uint64(0)
	for _, s := range segs {
		if s.last >= s.first {
			first = s.first
			break
		}
	}
	if first == 0 || from < first {
		return ErrCompacted
	}
	for _, s := range segs {
		if s.last < from || s.first > to {
			continue
		}
		b, err := os.ReadFile(s.path)
		if err != nil {
			if os.IsNotExist(err) {
				return ErrCompacted // raced a Truncate
			}
			return err
		}
		var ferr error
		done := false
		n, err := walk(b, s.first, func(seq uint64, payload []byte) bool {
			if seq < from {
				return true
			}
			ferr = fn(seq, payload)
			done = seq == to
			return ferr == nil && !done
		})
		if ferr != nil {
			return ferr
		}
		if err != nil {
			// Bytes up to `to` were fully written before their seq was
			// published; an unreadable record inside the promised range
			// is real corruption, not a concurrent-append tail.
			return fmt.Errorf("wal: segment %s unreadable at offset %d: %w", s.path, n, err)
		}
		if done {
			return nil
		}
	}
	return nil
}

// SkipTo discards every record and positions the log so the next
// append is assigned sequence seq. Replication followers call it when
// they restart from the primary's first record: the local log must
// mirror the primary's numbering from there on. Anything previously in
// the log — possibly a divergent history from a fenced primary — is
// deleted.
func (l *Log) SkipTo(seq uint64) error {
	if seq == 0 {
		return fmt.Errorf("wal: SkipTo(0): sequences start at 1")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.active != nil {
		l.active.Close() //nolint:errcheck // contents are being discarded
		l.active = nil
	}
	for _, s := range l.segs {
		if err := os.Remove(s.path); err != nil {
			return err
		}
	}
	l.segs = nil
	l.size = 0
	l.nextSeq = seq
	l.synced = seq - 1
	l.dirty = false
	l.wakeLocked()
	syncDir(l.dir)
	return nil
}

// Truncate drops every segment whose records are all at or below seq
// upTo — compaction once later records make a prefix redundant. The active (last)
// segment is never removed, so Truncate(LastSeq()) keeps the log
// append-ready; rotation retires it eventually.
func (l *Log) Truncate(upTo uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	cut := 0
	for cut < len(l.segs)-1 && l.segs[cut].last <= upTo {
		cut++
	}
	if cut == 0 {
		return nil
	}
	for i := 0; i < cut; i++ {
		if err := os.Remove(l.segs[i].path); err != nil {
			l.segs = l.segs[i:]
			return err
		}
	}
	l.segs = l.segs[cut:]
	syncDir(l.dir)
	return nil
}

// Close flushes (per policy) and closes the log. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.wakeLocked()
	var err error
	if l.active != nil {
		if l.opt.Fsync != SyncNever {
			start := time.Now()
			if serr := l.active.Sync(); serr == nil {
				l.metricObserve("wal_fsync_seconds", time.Since(start))
			} else {
				err = serr
			}
		}
		if cerr := l.active.Close(); err == nil {
			err = cerr
		}
		l.active = nil
	}
	stop := l.tickStop
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.tickDone
	}
	return err
}

func (l *Log) metricAdd(name string, delta int64) {
	if l.opt.Metrics != nil {
		l.opt.Metrics.Add(name, delta)
	}
}

func (l *Log) metricObserve(name string, d time.Duration) {
	if l.opt.Metrics != nil {
		l.opt.Metrics.Observe(name, d)
	}
}

// syncDir best-effort fsyncs a directory so renames/creates/removals in
// it survive a crash (not all platforms support it; errors are ignored).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync() //nolint:errcheck
	d.Close()
}
