// Package repl ships a diagnosed server's write-ahead log from a
// primary to read-only followers over TCP, so a replica can take over
// serving live sessions the moment the primary dies. The log is the
// whole durable state — session checkpoints are records of it — so the
// stream is the only thing ever shipped. The paper's supervisor observes
// an asynchronous distributed system; this package makes the supervisor
// itself survive being part of one.
//
// Protocol. Both directions speak the snapshot package's CRC frames,
// with bodies encoded by the snapshot section primitives (the same codec
// WAL record payloads use). A session opens with the follower's Hello
// carrying its last applied WAL sequence plus the CRC of that record;
// the primary verifies the CRC against its own log and either resumes
// the stream at lastSeq+1 or — for fresh followers, after compaction
// gaps, or on CRC mismatch (a divergent history) — has the follower wipe
// its state and streams from the first record it still holds, which
// rebuilds every live session (compaction never drops a live session's
// create or latest checkpoint). Records then flow as they land in the
// primary's log (a tail-follow over wal.WaitSeq/ReadRange), interleaved
// with heartbeats; the follower acks applied sequences so the primary
// can report lag. A follower that lags past compaction mid-stream gets
// a fresh Welcome telling it to wipe again.
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
// Version 2 dropped the snapshot ship: a follower that cannot resume
// wipes its state and streams from the primary's first record.
const ProtoVersion = 2

// Frame kinds. Hello and Ack travel follower→primary; the rest
// primary→follower.
const (
	kindHello     = 1 // proto version, lastSeq, lastCRC, epochSeen
	kindWelcome   = 2 // proto version, epoch, wipe?, startSeq
	kindRecord    = 3 // epoch, seq, payload
	kindHeartbeat = 4 // epoch, lastSeq, wallMicros
	kindAck       = 5 // last applied seq
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

// Applier is the follower's side: the same replay path the server uses
// at boot, plus the bookkeeping repl needs for resume.
type Applier interface {
	// LastApplied reports the last locally mirrored WAL sequence and the
	// CRC-32 of that record's payload (0, 0 when nothing is applied).
	LastApplied() (seq uint64, crc uint32)
	// Wipe drops all local state and positions the local WAL mirror so
	// the next applied record is next.
	Wipe(next uint64) error
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
	wipe     bool   // welcome
	startSeq uint64 // welcome
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
		f.wipe = r.Bool()
		f.startSeq = r.Uvarint()
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

func encodeWelcome(epoch uint64, wipe bool, startSeq uint64) []byte {
	w := &snapshot.Writer{}
	w.Byte(kindWelcome)
	w.Uvarint(ProtoVersion)
	w.Uvarint(epoch)
	w.Bool(wipe)
	w.Uvarint(startSeq)
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
