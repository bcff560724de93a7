package repl

import (
	"bufio"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/snapshot"
)

// ackEvery is how many applied records ride between acks; heartbeats
// always trigger one, so an idle stream still reports progress.
const ackEvery = 32

// FollowerOptions tunes the applying side.
type FollowerOptions struct {
	// Epoch is the highest fencing epoch this node has seen (loaded from
	// the epoch file at boot). 0 means 1.
	Epoch uint64
	// PersistEpoch durably records a newly seen (higher) epoch before it
	// takes effect; nil skips persistence (tests).
	PersistEpoch func(uint64) error
	// Heartbeat must match the primary's interval (default 500ms); read
	// deadlines derive from it.
	Heartbeat time.Duration
	// Metrics receives repl_lag_seqs, repl_records_applied_total,
	// repl_resyncs_total, repl_reconnects_total,
	// repl_epoch_rejected_total and repl_epoch. nil discards them.
	Metrics Metrics
	// Logger receives session logs; nil discards them.
	Logger *slog.Logger
}

func (o FollowerOptions) withDefaults() FollowerOptions {
	if o.Epoch == 0 {
		o.Epoch = 1
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = 500 * time.Millisecond
	}
	if o.Logger == nil {
		o.Logger = discardLogger()
	}
	return o
}

// Status is a point-in-time view of the follower, for health checks
// and admin surfaces.
type Status struct {
	Connected    bool
	Epoch        uint64
	Applied      uint64        // last locally applied sequence
	PrimaryLast  uint64        // primary's LastSeq per its latest frame
	SinceContact time.Duration // time since any frame arrived
}

// Follower dials a primary, applies its stream through the server's
// boot replay path, and keeps reconnecting (with sequence resume)
// until Stop. One Follower serves one upstream address.
type Follower struct {
	addr string
	app  Applier
	opt  FollowerOptions

	stop chan struct{}
	done chan struct{}

	mu          sync.Mutex
	conn        net.Conn
	epoch       uint64
	primaryLast uint64
	lastContact time.Time
	connected   bool
	sessions    int // completed connect count, for reconnect accounting
	started     time.Time
}

// NewFollower builds a follower of the primary at addr. Call Start.
func NewFollower(addr string, app Applier, opt FollowerOptions) *Follower {
	opt = opt.withDefaults()
	f := &Follower{
		addr:  addr,
		app:   app,
		opt:   opt,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		epoch: opt.Epoch,
	}
	f.setGauge("repl_epoch", int64(f.epoch))
	return f
}

// Start launches the dial-apply-reconnect loop.
func (f *Follower) Start() {
	f.mu.Lock()
	f.started = time.Now()
	f.mu.Unlock()
	go f.run()
}

// Stop drains the stream: the connection closes, the loop exits, and
// no further records are applied. It is the first step of a promote.
func (f *Follower) Stop() {
	f.mu.Lock()
	select {
	case <-f.stop:
		f.mu.Unlock()
		<-f.done
		return
	default:
	}
	close(f.stop)
	if f.conn != nil {
		f.conn.Close()
	}
	f.mu.Unlock()
	<-f.done
}

// Epoch reports the highest fencing epoch seen.
func (f *Follower) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// Status reports the follower's current view of the stream.
func (f *Follower) Status() Status {
	applied, _ := f.app.LastApplied()
	f.mu.Lock()
	defer f.mu.Unlock()
	s := Status{
		Connected:   f.connected,
		Epoch:       f.epoch,
		Applied:     applied,
		PrimaryLast: f.primaryLast,
	}
	contact := f.lastContact
	if contact.IsZero() {
		contact = f.started
	}
	if !contact.IsZero() {
		s.SinceContact = time.Since(contact)
	}
	return s
}

// run is the reconnect loop.
func (f *Follower) run() {
	defer close(f.done)
	backoff := 100 * time.Millisecond
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		conn, err := net.DialTimeout("tcp", f.addr, 3*time.Second)
		if err != nil {
			f.opt.Logger.Warn("repl: dial failed", "addr", f.addr, "err", err)
			if !f.sleep(backoff) {
				return
			}
			backoff = nextBackoff(backoff)
			continue
		}
		f.mu.Lock()
		stopped := false
		select {
		case <-f.stop:
			stopped = true
		default:
			f.conn = conn
			f.connected = true
			f.sessions++
			if f.sessions > 1 {
				f.metricAdd("repl_reconnects_total", 1)
			}
		}
		f.mu.Unlock()
		if stopped {
			conn.Close()
			return
		}
		start := time.Now()
		err = f.session(conn)
		conn.Close()
		f.mu.Lock()
		f.conn = nil
		f.connected = false
		f.mu.Unlock()
		select {
		case <-f.stop:
			return
		default:
		}
		f.opt.Logger.Warn("repl: session ended; reconnecting", "err", err)
		if time.Since(start) > 10*time.Second {
			backoff = 100 * time.Millisecond // the link was healthy; retry fast
		}
		if !f.sleep(backoff) {
			return
		}
		backoff = nextBackoff(backoff)
	}
}

// session speaks one connection: hello, welcome, then frames until the
// stream breaks, the epoch check fails, or Stop closes the conn.
func (f *Follower) session(conn net.Conn) error {
	hb := f.opt.Heartbeat
	br := bufio.NewReader(conn)
	lastSeq, lastCRC := f.app.LastApplied()
	conn.SetWriteDeadline(time.Now().Add(6 * hb)) //nolint:errcheck
	if _, err := conn.Write(snapshot.AppendFrame(nil, encodeHello(lastSeq, lastCRC, f.Epoch()))); err != nil {
		return err
	}

	unacked := 0
	sawWelcome := false
	for {
		conn.SetReadDeadline(time.Now().Add(6 * hb)) //nolint:errcheck
		body, err := snapshot.ReadFrame(br, snapshot.MaxFrame)
		if err != nil {
			return err
		}
		fr, err := decodeFrame(body)
		if err != nil {
			return err
		}
		if fr.kind == kindAck || fr.kind == kindHello {
			return fmt.Errorf("%w: unexpected kind %d from primary", ErrBadFrame, fr.kind)
		}
		// Fencing: every primary frame carries the epoch. Anything below
		// the highest we have ever seen is a partitioned ex-primary.
		if err := f.noteEpoch(fr.epoch); err != nil {
			return err
		}
		f.touch()

		switch fr.kind {
		case kindWelcome:
			if fr.version != ProtoVersion {
				return fmt.Errorf("repl: protocol version mismatch (primary %d, local %d)", fr.version, ProtoVersion)
			}
			sawWelcome = true
			if !fr.wipe {
				if fr.startSeq != lastSeq+1 {
					return fmt.Errorf("repl: primary resumes at %d, expected %d", fr.startSeq, lastSeq+1)
				}
				continue
			}
			if fr.startSeq == 0 {
				return fmt.Errorf("%w: wipe to sequence 0", ErrBadFrame)
			}
			if err := f.app.Wipe(fr.startSeq); err != nil {
				return fmt.Errorf("repl: wipe failed: %w", err)
			}
			f.metricAdd("repl_resyncs_total", 1)
			f.opt.Logger.Info("repl: wiped; streaming from the primary's first record", "from", fr.startSeq)
			lastSeq = fr.startSeq - 1
			f.publishLag()
			if err := f.ack(conn); err != nil {
				return err
			}
		case kindRecord:
			if !sawWelcome {
				return fmt.Errorf("%w: record before welcome", ErrBadFrame)
			}
			if fr.seq != lastSeq+1 {
				return fmt.Errorf("repl: record seq %d, expected %d", fr.seq, lastSeq+1)
			}
			if err := f.app.Apply(fr.seq, fr.payload); err != nil {
				return fmt.Errorf("repl: apply seq %d: %w", fr.seq, err)
			}
			lastSeq = fr.seq
			f.metricAdd("repl_records_applied_total", 1)
			f.notePrimaryLast(fr.seq)
			f.publishLag()
			if unacked++; unacked >= ackEvery {
				if err := f.ack(conn); err != nil {
					return err
				}
				unacked = 0
			}
		case kindHeartbeat:
			f.notePrimaryLast(fr.lastSeq)
			f.publishLag()
			if err := f.ack(conn); err != nil {
				return err
			}
			unacked = 0
		}
	}
}

// noteEpoch enforces the fencing invariant and persists a newly seen
// higher epoch before accepting anything stamped with it.
func (f *Follower) noteEpoch(epoch uint64) error {
	f.mu.Lock()
	cur := f.epoch
	f.mu.Unlock()
	if epoch < cur {
		f.metricAdd("repl_epoch_rejected_total", 1)
		return fmt.Errorf("%w: frame epoch %d < seen %d", ErrFenced, epoch, cur)
	}
	if epoch > cur {
		if f.opt.PersistEpoch != nil {
			if err := f.opt.PersistEpoch(epoch); err != nil {
				return fmt.Errorf("repl: persisting epoch %d: %w", epoch, err)
			}
		}
		f.mu.Lock()
		if epoch > f.epoch {
			f.epoch = epoch
		}
		f.mu.Unlock()
		f.setGauge("repl_epoch", int64(epoch))
		f.opt.Logger.Info("repl: epoch advanced", "epoch", epoch)
	}
	return nil
}

func (f *Follower) ack(conn net.Conn) error {
	applied, _ := f.app.LastApplied()
	conn.SetWriteDeadline(time.Now().Add(6 * f.opt.Heartbeat)) //nolint:errcheck
	_, err := conn.Write(snapshot.AppendFrame(nil, encodeAck(applied)))
	return err
}

func (f *Follower) touch() {
	f.mu.Lock()
	f.lastContact = time.Now()
	f.mu.Unlock()
}

func (f *Follower) notePrimaryLast(seq uint64) {
	f.mu.Lock()
	if seq > f.primaryLast {
		f.primaryLast = seq
	}
	f.mu.Unlock()
}

// publishLag refreshes the sequence-lag gauge (primaryLast - applied).
func (f *Follower) publishLag() {
	st := f.Status()
	lag := int64(0)
	if st.PrimaryLast > st.Applied {
		lag = int64(st.PrimaryLast - st.Applied)
	}
	f.setGauge("repl_lag_seqs", lag)
}

// sleep waits d or until Stop; false means stopping.
func (f *Follower) sleep(d time.Duration) bool {
	select {
	case <-f.stop:
		return false
	case <-time.After(d):
		return true
	}
}

// nextBackoff doubles with jitter, capped at 3s.
func nextBackoff(d time.Duration) time.Duration {
	d *= 2
	if d > 3*time.Second {
		d = 3 * time.Second
	}
	return d + time.Duration(rand.Int63n(int64(d)/4+1))
}

func (f *Follower) metricAdd(name string, delta int64) {
	if f.opt.Metrics != nil {
		f.opt.Metrics.Add(name, delta)
	}
}

func (f *Follower) setGauge(name string, v int64) {
	if f.opt.Metrics != nil {
		f.opt.Metrics.SetGauge(name, v)
	}
}
