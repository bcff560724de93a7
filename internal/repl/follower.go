package repl

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// errSilent reports a pull left unanswered for six heartbeats;
// errStopped a pull cut short by Stop.
var (
	errSilent  = errors.New("repl: primary silent")
	errStopped = errors.New("repl: follower stopped")
)

// FollowerOptions tunes the applying side.
type FollowerOptions struct {
	// Epoch is the highest fencing epoch this node has seen (loaded from
	// the epoch file at boot). 0 means 1.
	Epoch uint64
	// PersistEpoch durably records a newly seen (higher) epoch before it
	// takes effect; nil skips persistence (tests).
	PersistEpoch func(uint64) error
	// Heartbeat is how long the primary may hold an empty answer to a
	// pull (default 500ms); a pull unanswered for six of them is sent
	// again.
	Heartbeat time.Duration
	// Metrics receives repl_lag_seqs, repl_records_applied_total,
	// repl_resyncs_total, repl_reconnects_total,
	// repl_epoch_rejected_total and repl_epoch. nil discards them.
	Metrics Metrics
	// Logger receives stream logs; nil discards them.
	Logger *slog.Logger
}

// Status is a point-in-time view of the follower, for health checks
// and admin surfaces.
type Status struct {
	Connected    bool // the latest pull was answered
	Epoch        uint64
	Applied      uint64        // last locally applied sequence
	PrimaryLast  uint64        // primary's LastSeq per its latest batch
	SinceContact time.Duration // time since a batch last arrived, or since Start
}

// Follower pulls a primary's log over a transport and applies it
// through the server's boot replay path, until Stop. One Follower
// follows one primary.
type Follower struct {
	tr      transport.Transport
	primary string
	app     Applier
	opt     FollowerOptions
	logger  *slog.Logger
	metrics Metrics
	// batches holds delivered batches until the pull loop reads them. A
	// few late answers to superseded pulls may queue ahead of the one
	// that counts; should they fill it, that one is dropped and the pull
	// is sent again after six heartbeats.
	batches chan wire.ReplBatch

	// nonce is the latest pull's. Nonces count up from a random start,
	// so a host that can reach the follower's port cannot guess one its
	// forged batch would need.
	nonce     uint64
	epoch     atomic.Uint64
	connected atomic.Bool

	stop     chan struct{}
	stopOnce sync.Once
	running  sync.WaitGroup

	mu          sync.Mutex
	primaryLast uint64
	lastContact time.Time // of the latest batch, or of Start
}

// NewFollower builds a follower of the transport node primary and
// starts receiving on tr; Start begins pulling. The Follower owns tr
// from here on: Stop closes it.
func NewFollower(tr transport.Transport, primary string, app Applier, opt FollowerOptions) (*Follower, error) {
	if opt.Heartbeat <= 0 {
		opt.Heartbeat = 500 * time.Millisecond
	}
	f := &Follower{
		tr:      tr,
		primary: primary,
		app:     app,
		opt:     opt,
		logger:  orDiscard(opt.Logger),
		metrics: orNop(opt.Metrics),
		batches: make(chan wire.ReplBatch, 8),
		stop:    make(chan struct{}),
	}
	if err := binary.Read(crand.Reader, binary.LittleEndian, &f.nonce); err != nil {
		return nil, err
	}
	f.epoch.Store(max(opt.Epoch, 1))
	f.metrics.SetGauge("repl_epoch", int64(f.epoch.Load()))
	if err := tr.Start(f.handle); err != nil {
		return nil, err
	}
	return f, nil
}

// Start launches the pull loop.
func (f *Follower) Start() {
	f.mu.Lock()
	f.lastContact = time.Now()
	f.mu.Unlock()
	f.running.Add(1)
	go f.run()
}

// Stop ends the stream: no further batch is applied, and the transport
// closes without waiting on a primary that is gone. It is the first step
// of a promote.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.running.Wait()
	f.tr.Release(f.primary)
	f.tr.Close()
}

// Epoch reports the highest fencing epoch seen.
func (f *Follower) Epoch() uint64 { return f.epoch.Load() }

// Status reports the follower's current view of the stream.
func (f *Follower) Status() Status {
	applied, _ := f.app.LastApplied()
	f.mu.Lock()
	defer f.mu.Unlock()
	return Status{Connected: f.connected.Load(), Epoch: f.Epoch(), Applied: applied,
		PrimaryLast: f.primaryLast, SinceContact: time.Since(f.lastContact)}
}

// handle queues a batch from the transport's receive path for the pull
// loop. A batch that finds the queue full is dropped: the loop re-pulls.
func (f *Follower) handle(_ string, fr wire.Frame) {
	if b, ok := fr.(wire.ReplBatch); ok {
		select {
		case f.batches <- b:
		default:
		}
	}
}

// run pulls until Stop. A pull six heartbeats silent is sent again on a
// fresh transport stream, so pulls queued for a dead primary do not pile
// up.
func (f *Follower) run() {
	defer f.running.Done()
	for {
		err := f.pull()
		switch {
		case err == nil:
		case errors.Is(err, errStopped):
			return
		case errors.Is(err, errSilent):
			f.connected.Store(false)
			f.metrics.Add("repl_reconnects_total", 1)
			f.tr.Release(f.primary)
			f.logger.Warn("repl: primary silent; pulling again", "primary", f.primary)
		default:
			f.logger.Warn("repl: pull failed", "primary", f.primary, "err", err)
			select {
			case <-f.stop:
				return
			case <-time.After(f.opt.Heartbeat):
			}
		}
	}
}

// pull sends one pull and applies the batch that answers it.
func (f *Follower) pull() error {
	last, crc := f.app.LastApplied()
	f.nonce++
	req := wire.ReplPull{Nonce: f.nonce, Last: last, CRC: crc, Epoch: f.Epoch(),
		WaitMS: uint32(max(f.opt.Heartbeat/time.Millisecond, 1))}
	if err := f.tr.Send(f.primary, req); err != nil {
		return err
	}
	silent := time.NewTimer(6 * f.opt.Heartbeat)
	defer silent.Stop()
	for {
		select {
		case <-f.stop:
			return errStopped
		case <-silent.C:
			return errSilent
		case b := <-f.batches:
			if b.Nonce != req.Nonce {
				continue // the late answer to a superseded pull
			}
			return f.apply(b, last)
		}
	}
}

// apply checks a batch's epoch and applies its records after last.
func (f *Follower) apply(b wire.ReplBatch, last uint64) error {
	// Fencing: anything below the highest epoch we have ever seen is a
	// partitioned ex-primary.
	if err := f.noteEpoch(b.Epoch); err != nil {
		return err
	}
	f.connected.Store(true)
	f.mu.Lock()
	f.lastContact, f.primaryLast = time.Now(), max(f.primaryLast, b.Last)
	f.mu.Unlock()
	if b.Wipe {
		if b.Start == 0 {
			return errors.New("repl: wipe to sequence 0")
		}
		if err := f.app.Wipe(b.Start); err != nil {
			return fmt.Errorf("repl: wipe failed: %w", err)
		}
		f.metrics.Add("repl_resyncs_total", 1)
		f.logger.Info("repl: wiped; streaming from the primary's first record", "from", b.Start)
		last = b.Start - 1
	} else if b.Start != last+1 {
		return fmt.Errorf("repl: primary resumes at %d, expected %d", b.Start, last+1)
	}
	for _, rec := range b.Records {
		if err := f.app.Apply(last+1, rec); err != nil {
			return fmt.Errorf("repl: apply seq %d: %w", last+1, err)
		}
		last++
		f.metrics.Add("repl_records_applied_total", 1)
	}
	f.metrics.SetGauge("repl_lag_seqs", int64(b.Last-min(b.Last, last)))
	return nil
}

// noteEpoch enforces the fencing invariant and persists a newly seen
// higher epoch before accepting anything stamped with it.
func (f *Follower) noteEpoch(epoch uint64) error {
	cur := f.epoch.Load()
	if epoch < cur {
		f.metrics.Add("repl_epoch_rejected_total", 1)
		return fmt.Errorf("%w: batch epoch %d < seen %d", ErrFenced, epoch, cur)
	}
	if epoch > cur {
		if f.opt.PersistEpoch != nil {
			if err := f.opt.PersistEpoch(epoch); err != nil {
				return fmt.Errorf("repl: persisting epoch %d: %w", epoch, err)
			}
		}
		f.epoch.Store(epoch)
		f.metrics.SetGauge("repl_epoch", int64(epoch))
		f.logger.Info("repl: epoch advanced", "epoch", epoch)
	}
	return nil
}
