package repl

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wire"
)

// batchBudget bounds a batch's records with their length prefixes. A
// batch must arrive within six of the follower's heartbeats, or the
// follower pulls again and throws it away: 1 MiB crosses the default
// 3 s on a link of 3 Mbit/s. A record larger than this still ships,
// alone in its batch.
const batchBudget = 1 << 20

// errFull stops a batch's log read once the batch is full.
var errFull = errors.New("repl: batch full")

// PrimaryOptions tunes the shipping side.
type PrimaryOptions struct {
	// Epoch is the fencing epoch stamped on every batch. 0 means 1.
	Epoch uint64
	// Metrics receives repl_followers, repl_lag_seqs,
	// repl_bytes_shipped_total, repl_records_shipped_total,
	// repl_wipes_sent_total, repl_stale_primary_total and repl_epoch.
	// nil discards them.
	Metrics Metrics
	// Logger receives per-follower logs; nil discards them.
	Logger *slog.Logger
}

// Primary answers followers' pulls from the server's log. One goroutine,
// the shipper, serves every follower; the transport carries the frames.
type Primary struct {
	log     *wal.Log
	tr      transport.Transport
	logger  *slog.Logger
	metrics Metrics
	epoch   atomic.Uint64
	fols    map[string]*follower // by transport node name; the shipper's own

	kick chan struct{} // a pull arrived, a wait elapsed, or Close
	done chan struct{} // the shipper exited

	mu     sync.Mutex
	inbox  map[string]follower // pulls the shipper has not taken yet
	closed bool
}

// follower is what the primary knows of one follower: its latest pull,
// and where the follower stands once it has applied what it was sent.
type follower struct {
	pull     wire.ReplPull
	at       time.Time // when pull arrived
	answered bool
	known    bool // last and crc are a position verified against the log
	last     uint64
	crc      uint32
}

// wait is how long the primary may hold an empty answer to f's pull.
func (f *follower) wait() time.Duration { return time.Duration(f.pull.WaitMS) * time.Millisecond }

// NewPrimary starts answering pulls that arrive on tr from the server's
// log. The Primary owns tr from here on: Close closes it.
func NewPrimary(log *wal.Log, tr transport.Transport, opt PrimaryOptions) (*Primary, error) {
	p := &Primary{
		log:     log,
		tr:      tr,
		logger:  orDiscard(opt.Logger),
		metrics: orNop(opt.Metrics),
		fols:    make(map[string]*follower),
		kick:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		inbox:   make(map[string]follower),
	}
	p.SetEpoch(max(opt.Epoch, 1))
	if err := tr.Start(p.handle); err != nil {
		return nil, err
	}
	go p.ship()
	return p, nil
}

// Epoch reports the current fencing epoch.
func (p *Primary) Epoch() uint64 { return p.epoch.Load() }

// SetEpoch bumps the fencing epoch stamped on outbound batches (a
// promoted node that keeps serving its own followers).
func (p *Primary) SetEpoch(e uint64) {
	p.epoch.Store(e)
	p.metrics.SetGauge("repl_epoch", int64(e))
}

// Close stops answering pulls and closes the transport.
func (p *Primary) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.poke()
	<-p.done
	p.tr.Close()
}

// handle leaves a follower's pull for the shipper; it runs on the
// transport's receive path.
func (p *Primary) handle(from string, f wire.Frame) {
	if pull, ok := f.(wire.ReplPull); ok {
		p.mu.Lock()
		p.inbox[from] = follower{pull: pull, at: time.Now()}
		p.mu.Unlock()
		p.poke()
	}
}

func (p *Primary) poke() {
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// ship answers pulls until Close: each round answers what it can, then
// sleeps until the log grows past what a waiting pull lacks, a pull
// arrives, or the earliest wait elapses.
func (p *Primary) ship() {
	defer close(p.done)
	for {
		grow, sleep, ok := p.round()
		if !ok {
			return
		}
		want := uint64(math.MaxUint64)
		if grow {
			want = p.log.LastSeq() + 1
		}
		timer := time.AfterFunc(sleep, p.poke)
		_, err := p.log.WaitSeq(want, p.kick)
		timer.Stop()
		if errors.Is(err, wal.ErrClosed) {
			return
		}
	}
}

// round takes the new pulls, answers every pull it can and drops the
// followers that stopped pulling. It reports whether a pull waits for
// the log to grow and how long until the next empty answer falls due or
// the next follower falls silent (a minute at most); ok is false once
// closed.
func (p *Primary) round() (grow bool, sleep time.Duration, ok bool) {
	p.mu.Lock()
	inbox, closed := p.inbox, p.closed
	p.inbox = make(map[string]follower)
	p.mu.Unlock()
	if closed {
		return false, 0, false
	}
	for name, in := range inbox {
		if fo := p.fols[name]; fo != nil {
			in.known, in.last, in.crc = fo.known, fo.last, fo.crc
		}
		p.fols[name] = &in
	}
	now, last := time.Now(), p.log.LastSeq()
	sleep = time.Minute
	for name, fo := range p.fols {
		at, gone := fo.at.Add(fo.wait()).Sub(now), fo.at.Add(6*fo.wait()).Sub(now)
		if !fo.answered && !p.answer(name, fo, last, at > 0) {
			grow, sleep = true, min(sleep, at)
		} else if gone < 0 {
			p.logger.Info("repl: follower stopped pulling", "follower", name)
			p.drop(name)
		} else {
			sleep = min(sleep, gone)
		}
	}
	lag := uint64(0)
	for _, fo := range p.fols {
		lag = max(lag, last-min(last, fo.pull.Last))
	}
	p.metrics.SetGauge("repl_followers", int64(len(p.fols)))
	p.metrics.SetGauge("repl_lag_seqs", int64(lag))
	return grow, sleep, true
}

// answer sends fo's pull its batch. It reports false, sending nothing,
// when the pull may wait (hold) and the log holds nothing past it.
func (p *Primary) answer(name string, fo *follower, last uint64, hold bool) bool {
	pull, epoch := fo.pull, p.epoch.Load()
	if pull.Epoch > epoch {
		// The follower has seen a higher epoch than ours: we are a fenced
		// ex-primary. Refuse rather than feed it stale state.
		p.metrics.Add("repl_stale_primary_total", 1)
		p.logger.Warn("repl: superseded by a higher epoch; refusing follower", "follower", name, "seen", pull.Epoch, "local", epoch)
		p.drop(name)
		return true
	}
	// Resume only when the follower's last record provably matches ours
	// (or is where our last batch left it); anything else — fresh
	// follower, compacted history, divergent tail from a fenced primary —
	// wipes and streams from our first record.
	b := wire.ReplBatch{Nonce: pull.Nonce, Epoch: epoch, Start: pull.Last + 1, Last: last}
	b.Wipe = !(fo.known && pull.Last == fo.last && pull.CRC == fo.crc) &&
		(pull.Last == 0 || !p.verifyTail(pull.Last, pull.CRC))
	fo.known, fo.last, fo.crc = !b.Wipe, pull.Last, pull.CRC
	if !b.Wipe && b.Start > last && hold {
		return false
	}
	var size, bytes int
	for {
		if b.Wipe {
			b.Start = p.first()
			fo.last, fo.crc = b.Start-1, 0
		}
		b.Records, size, bytes = b.Records[:0], 0, 0
		err := p.log.ReadRange(b.Start, last, func(seq uint64, payload []byte) error {
			if size += binary.MaxVarintLen64 + len(payload); size > batchBudget && len(b.Records) > 0 {
				return errFull
			}
			b.Records, bytes = append(b.Records, payload), bytes+len(payload)
			fo.last, fo.crc = seq, crc32.ChecksumIEEE(payload)
			return nil
		})
		if errors.Is(err, wal.ErrCompacted) {
			b.Wipe = true // the follower lags past compaction
			continue
		}
		if err == nil || errors.Is(err, errFull) {
			err = p.tr.Send(name, b)
		}
		if err != nil {
			p.logger.Warn("repl: batch not sent", "follower", name, "err", err)
			p.drop(name)
			return true
		}
		break
	}
	fo.answered, fo.known = true, true
	if b.Wipe {
		p.metrics.Add("repl_wipes_sent_total", 1)
		p.logger.Info("repl: follower wiped; streaming from the first record", "follower", name, "from", b.Start)
	}
	p.metrics.Add("repl_records_shipped_total", int64(len(b.Records)))
	p.metrics.Add("repl_bytes_shipped_total", int64(bytes))
	return true
}

// drop forgets a follower and its transport stream; a later pull from it
// starts over.
func (p *Primary) drop(name string) {
	delete(p.fols, name)
	p.tr.Release(name)
}

// verifyTail checks that our record at seq carries the CRC the
// follower reported — the resume-safety test that catches divergent
// histories (e.g. a follower that applied records a crashed primary
// lost before fsync).
func (p *Primary) verifyTail(seq uint64, want uint32) bool {
	match := false
	err := p.log.ReadRange(seq, seq, func(_ uint64, payload []byte) error {
		match = crc32.ChecksumIEEE(payload) == want
		return nil
	})
	return err == nil && match
}

// first is the sequence a wiped follower streams from: the first
// record the log still holds. Those records rebuild every live session.
func (p *Primary) first() uint64 {
	if first := p.log.FirstSeq(); first != 0 {
		return first
	}
	return p.log.LastSeq() + 1
}
