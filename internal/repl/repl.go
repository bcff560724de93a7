// Package repl ships a diagnosed server's durable state — WAL records
// and, when the log alone cannot reconstruct it, whole .dsnp session
// snapshots — from a primary to read-only followers over TCP, so a
// replica can take over serving live sessions the moment the primary
// dies. The paper's supervisor observes an asynchronous distributed
// system; this package makes the supervisor itself survive being part
// of one.
//
// Protocol. Both directions speak the snapshot package's CRC frames
// (at most snapshot.MaxFrame per body, so session snapshots ship in
// chunks), with bodies encoded by the snapshot section primitives (the
// same codec WAL record payloads use). A session opens with the follower's
// Hello carrying its last applied WAL sequence plus the CRC of that
// record; the primary verifies the CRC against its own log and either
// resumes the stream at lastSeq+1 or — for fresh followers, after
// compaction gaps, or on CRC mismatch (a divergent history) — ships a
// full snapshot dump first and streams from the dump's resume point.
// Records then flow as they land in the primary's log (a tail-follow
// over wal.WaitSeq/ReadRange), interleaved with heartbeats; the
// follower acks applied sequences so the primary can report lag.
//
// Fencing. Every primary→follower frame carries a monotonic epoch.
// A follower tracks the highest epoch it has ever seen (persisted via
// Options.PersistEpoch) and drops the connection on any frame with a
// lower one — so after a follower is promoted (epoch+1), a partitioned
// ex-primary that comes back can never feed it stale state. The
// follower's Hello also reports that epoch, letting a superseded
// primary discover its own demotion and refuse the session.
package repl

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/snapshot"
)

// ProtoVersion is the stream protocol version. There are no
// compatibility shims: both ends must match (the wire/snapshot policy).
const ProtoVersion = 1

// snapChunk is the chunk size for shipping snapshot bodies (256 KiB):
// large enough to amortize framing, small enough to interleave
// heartbeats on slow links.
const snapChunk = 1 << 18

// Frame kinds. Hello and Ack travel follower→primary; the rest
// primary→follower.
const (
	kindHello     = 1 // proto version, lastSeq, lastCRC, epochSeen
	kindWelcome   = 2 // proto version, epoch, resync?, startSeq
	kindSnap      = 3 // epoch, session id, done?, chunk
	kindSnapDone  = 4 // epoch, resumeSeq, session count
	kindRecord    = 5 // epoch, seq, payload
	kindHeartbeat = 6 // epoch, lastSeq, wallMicros
	kindAck       = 7 // last applied seq
)

// ErrFenced reports a frame carrying an epoch below the highest this
// node has seen: a partitioned ex-primary trying to feed stale state.
var ErrFenced = errors.New("repl: frame from fenced primary (stale epoch)")

// ErrBadFrame reports a frame that arrives out of protocol order. A
// frame that is torn, corrupted or does not decode is snapshot's
// ErrTruncated or ErrCorrupt.
var ErrBadFrame = errors.New("repl: bad frame")

// Metrics is the registry surface both ends feed (a subset of what
// internal/serve's *Metrics provides). nil disables reporting.
type Metrics interface {
	Add(name string, delta int64)
	SetGauge(name string, value int64)
}

// Snapshot is one session's encoded .dsnp container, shipped whole
// during a resync.
type Snapshot struct {
	ID   string
	Data []byte
}

// Source is the primary's view of the server state it replicates: a
// dump is every live session freshly encoded, plus the WAL sequence
// the follower must stream from so that dump+suffix equals the
// primary's own recovery state.
type Source interface {
	Dump() (snaps []Snapshot, resume uint64, err error)
}

// Applier is the follower's side: the same replay path the server uses
// at boot, plus the bookkeeping repl needs for resume.
type Applier interface {
	// LastApplied reports the last locally mirrored WAL sequence and the
	// CRC-32 of that record's payload (0, 0 when nothing is applied).
	LastApplied() (seq uint64, crc uint32)
	// Resync replaces all local state with the shipped dump and
	// repositions the local WAL mirror at resume.
	Resync(snaps []Snapshot, resume uint64) error
	// Apply mirrors one record into the local WAL and applies it through
	// the boot replay path. seq must be exactly LastApplied()+1.
	Apply(seq uint64, payload []byte) error
}

// --- frame bodies --------------------------------------------------------

// frame is the decoded union of every message kind.
type frame struct {
	kind byte

	version  uint64 // hello, welcome
	lastSeq  uint64 // hello, heartbeat
	lastCRC  uint32 // hello
	epoch    uint64 // every primary→follower frame; hello carries epochSeen
	resync   bool   // welcome
	startSeq uint64 // welcome
	id       string // snap
	done     bool   // snap
	chunk    []byte // snap
	resume   uint64 // snapDone
	sessions uint64 // snapDone
	seq      uint64 // record
	payload  []byte // record
	wall     int64  // heartbeat
	acked    uint64 // ack
}

// decodeFrame parses one frame body. It is total: any input either
// decodes or returns an error, never panics (FuzzDecodeFrame enforces
// this).
func decodeFrame(body []byte) (*frame, error) {
	r := snapshot.NewReader(body)
	f := &frame{kind: r.Byte()}
	switch f.kind {
	case kindHello:
		f.version = r.Uvarint()
		f.lastSeq = r.Uvarint()
		f.lastCRC = uint32(r.Uvarint())
		f.epoch = r.Uvarint()
	case kindWelcome:
		f.version = r.Uvarint()
		f.epoch = r.Uvarint()
		f.resync = r.Bool()
		f.startSeq = r.Uvarint()
	case kindSnap:
		f.epoch = r.Uvarint()
		f.id = r.String()
		f.done = r.Bool()
		f.chunk = r.Bytes()
	case kindSnapDone:
		f.epoch = r.Uvarint()
		f.resume = r.Uvarint()
		f.sessions = r.Uvarint()
	case kindRecord:
		f.epoch = r.Uvarint()
		f.seq = r.Uvarint()
		f.payload = r.Bytes()
	case kindHeartbeat:
		f.epoch = r.Uvarint()
		f.lastSeq = r.Uvarint()
		f.wall = r.Int()
	case kindAck:
		f.acked = r.Uvarint()
	default:
		return nil, fmt.Errorf("repl: %w: unknown frame kind %d", snapshot.ErrCorrupt, f.kind)
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("repl: frame kind %d: %w", f.kind, err)
	}
	return f, nil
}

func encodeHello(lastSeq uint64, lastCRC uint32, epochSeen uint64) []byte {
	w := &snapshot.Writer{}
	w.Byte(kindHello)
	w.Uvarint(ProtoVersion)
	w.Uvarint(lastSeq)
	w.Uvarint(uint64(lastCRC))
	w.Uvarint(epochSeen)
	return w.Body()
}

func encodeWelcome(epoch uint64, resync bool, startSeq uint64) []byte {
	w := &snapshot.Writer{}
	w.Byte(kindWelcome)
	w.Uvarint(ProtoVersion)
	w.Uvarint(epoch)
	w.Bool(resync)
	w.Uvarint(startSeq)
	return w.Body()
}

func encodeSnap(epoch uint64, id string, done bool, chunk []byte) []byte {
	w := &snapshot.Writer{}
	w.Byte(kindSnap)
	w.Uvarint(epoch)
	w.String(id)
	w.Bool(done)
	w.Bytes(chunk)
	return w.Body()
}

func encodeSnapDone(epoch, resume, sessions uint64) []byte {
	w := &snapshot.Writer{}
	w.Byte(kindSnapDone)
	w.Uvarint(epoch)
	w.Uvarint(resume)
	w.Uvarint(sessions)
	return w.Body()
}

func encodeRecord(epoch, seq uint64, payload []byte) []byte {
	w := &snapshot.Writer{}
	w.Byte(kindRecord)
	w.Uvarint(epoch)
	w.Uvarint(seq)
	w.Bytes(payload)
	return w.Body()
}

func encodeHeartbeat(epoch, lastSeq uint64, wallMicros int64) []byte {
	w := &snapshot.Writer{}
	w.Byte(kindHeartbeat)
	w.Uvarint(epoch)
	w.Uvarint(lastSeq)
	w.Int(wallMicros)
	return w.Body()
}

func encodeAck(acked uint64) []byte {
	w := &snapshot.Writer{}
	w.Byte(kindAck)
	w.Uvarint(acked)
	return w.Body()
}

// --- epoch persistence ---------------------------------------------------

// EpochFile names the fencing-epoch file inside a data directory.
const EpochFile = "repl.epoch"

// LoadEpoch reads the persisted fencing epoch, defaulting to 1 when the
// file does not exist yet (a never-promoted node).
func LoadEpoch(path string) (uint64, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 1, nil
	}
	if err != nil {
		return 0, err
	}
	e, err := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("repl: corrupt epoch file %s: %w", path, err)
	}
	return e, nil
}

// SaveEpoch durably records the fencing epoch: temp file, fsync,
// rename, directory sync — an epoch bump must survive the very crash
// it is guarding against.
func SaveEpoch(path string, epoch uint64) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".epoch-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := fmt.Fprintf(tmp, "%d\n", epoch); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync() //nolint:errcheck // best effort, like wal.syncDir
		d.Close()
	}
	return nil
}

func nowMicros() int64 { return time.Now().UnixMicro() }
