// Package repl ships a diagnosed server's write-ahead log from a
// primary to read-only followers over the peer transport
// (internal/transport), so a replica can take over serving live
// sessions the moment the primary dies. The log is the whole durable
// state — session checkpoints are records of it — so the stream is the
// only thing ever shipped. The paper's supervisor observes an
// asynchronous distributed system; this package makes the supervisor
// itself survive being part of one.
//
// Protocol. Followers pull. A wire.ReplPull carries a nonce, the
// follower's last applied WAL sequence plus the CRC of that record, the
// highest epoch it has seen and how long the primary may hold an empty
// answer. The primary answers each follower's latest pull with one
// wire.ReplBatch. It resumes at last+1 only when its own record at last
// carries that CRC; anything else — a fresh follower, a divergent
// history, records compacted away — has the follower wipe its state and
// streams from the first record the primary still holds, which rebuilds
// every live session (compaction never drops a live session's create or
// latest checkpoint). The answer goes out at once when the log holds
// records past the pull, else when the log grows or the wait elapses:
// that empty batch is the heartbeat. A batch holds at most 1 MiB of
// records (or one larger record), so it crosses a slow link well inside
// the six waits after which a follower pulls again; the primary buffers
// one batch per follower, and one goroutine answers every follower.
// Transport replays can deliver a batch late, so a follower applies only
// the answer to its latest pull, then pulls again.
//
// Fencing. Every batch carries the primary's monotonic epoch. A
// follower persists a higher epoch (FollowerOptions.PersistEpoch) before
// applying anything under it and drops a batch with a lower one — so
// after a follower is promoted (epoch+1), a partitioned ex-primary that
// comes back can never feed it stale state. A pull carries the
// follower's epoch too, letting a superseded primary discover its own
// demotion and refuse to answer.
package repl

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// ErrFenced reports a batch carrying an epoch below the highest this
// node has seen: a partitioned ex-primary trying to feed stale state.
var ErrFenced = errors.New("repl: batch from fenced primary (stale epoch)")

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

// nopMetrics is the nil-Metrics default.
type nopMetrics struct{}

func (nopMetrics) Add(string, int64)      {}
func (nopMetrics) SetGauge(string, int64) {}

func orNop(m Metrics) Metrics {
	if m == nil {
		return nopMetrics{}
	}
	return m
}

// orDiscard is the nil-Logger default, matching serve's idiom.
func orDiscard(l *slog.Logger) *slog.Logger {
	if l == nil {
		return slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return l
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
	_, err = fmt.Fprintf(tmp, "%d\n", epoch)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync() //nolint:errcheck // best effort, like wal.syncDir
		d.Close()
	}
	return nil
}
