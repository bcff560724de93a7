package repl

import (
	"bufio"
	"errors"
	"hash/crc32"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/snapshot"
	"repro/internal/wal"
)

// PrimaryOptions tunes the shipping side.
type PrimaryOptions struct {
	// Epoch is the fencing epoch stamped on every outbound frame.
	// 0 means 1.
	Epoch uint64
	// Heartbeat is the keepalive interval (default 500ms). Read
	// deadlines on both ends derive from it.
	Heartbeat time.Duration
	// Metrics receives repl_followers, repl_lag_seqs,
	// repl_bytes_shipped_total, repl_records_shipped_total,
	// repl_wipes_sent_total, repl_stale_primary_total and repl_epoch.
	// nil discards them.
	Metrics Metrics
	// Logger receives per-follower session logs; nil discards them.
	Logger *slog.Logger
}

func (o PrimaryOptions) withDefaults() PrimaryOptions {
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

// Primary streams a server's WAL to any number of followers. One
// Primary serves many concurrent follower connections; each gets its
// own tail-follow over the shared log.
type Primary struct {
	log   *wal.Log
	opt   PrimaryOptions
	epoch atomic.Uint64

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]*connState
	closed bool
	wg     sync.WaitGroup
	stop   chan struct{}
}

// connState is the per-follower bookkeeping the ack reader maintains.
type connState struct {
	mu    sync.Mutex // serializes frame writes (stream vs heartbeat)
	acked uint64
}

// NewPrimary builds a shipping primary over the server's log. Call
// Serve with a listener to start accepting.
func NewPrimary(log *wal.Log, opt PrimaryOptions) *Primary {
	opt = opt.withDefaults()
	p := &Primary{
		log:   log,
		opt:   opt,
		conns: make(map[net.Conn]*connState),
		stop:  make(chan struct{}),
	}
	p.epoch.Store(opt.Epoch)
	p.setGauge("repl_epoch", int64(opt.Epoch))
	return p
}

// Epoch reports the current fencing epoch.
func (p *Primary) Epoch() uint64 { return p.epoch.Load() }

// SetEpoch bumps the fencing epoch stamped on outbound frames (a
// promoted node that keeps serving its own followers).
func (p *Primary) SetEpoch(e uint64) {
	p.epoch.Store(e)
	p.setGauge("repl_epoch", int64(e))
}

// Serve accepts follower connections on ln until Close. It blocks.
func (p *Primary) Serve(ln net.Listener) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		ln.Close()
		return errors.New("repl: primary closed")
	}
	p.ln = ln
	p.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-p.stop:
				return nil
			default:
				return err
			}
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return nil
		}
		st := &connState{}
		p.conns[conn] = st
		p.setGauge("repl_followers", int64(len(p.conns)))
		p.wg.Add(1)
		p.mu.Unlock()
		go func() {
			defer p.wg.Done()
			p.serveFollower(conn, st)
			p.dropConn(conn)
		}()
	}
}

// Close stops accepting, drops every follower and waits for the
// per-connection goroutines.
func (p *Primary) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	close(p.stop)
	if p.ln != nil {
		p.ln.Close()
	}
	for conn := range p.conns {
		conn.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// Lag reports the worst follower lag in sequences and the follower
// count (0, 0 with no followers).
func (p *Primary) Lag() (seqs uint64, followers int) {
	last := p.log.LastSeq()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, st := range p.conns {
		st.mu.Lock()
		acked := st.acked
		st.mu.Unlock()
		if last > acked && last-acked > seqs {
			seqs = last - acked
		}
	}
	return seqs, len(p.conns)
}

func (p *Primary) dropConn(conn net.Conn) {
	conn.Close()
	p.mu.Lock()
	delete(p.conns, conn)
	p.setGauge("repl_followers", int64(len(p.conns)))
	p.mu.Unlock()
}

// serveFollower runs one follower session: handshake, then the record
// stream with heartbeats, while a reader goroutine consumes acks.
func (p *Primary) serveFollower(conn net.Conn, st *connState) {
	log := p.opt.Logger.With("follower", conn.RemoteAddr().String())
	hb := p.opt.Heartbeat
	br := bufio.NewReader(conn)

	conn.SetReadDeadline(time.Now().Add(6 * hb)) //nolint:errcheck
	body, err := snapshot.ReadFrame(br, snapshot.MaxFrame)
	if err != nil {
		log.Warn("repl: handshake read failed", "err", err)
		return
	}
	hello, err := decodeFrame(body)
	if err != nil || hello.kind != kindHello {
		log.Warn("repl: bad handshake frame", "err", err)
		return
	}
	if hello.version != ProtoVersion {
		log.Warn("repl: protocol version mismatch", "follower", hello.version, "local", ProtoVersion)
		return
	}
	if hello.epoch > p.epoch.Load() {
		// The follower has seen a higher epoch than ours: we are a fenced
		// ex-primary. Refuse the session rather than feed it stale state.
		p.metricAdd("repl_stale_primary_total", 1)
		log.Warn("repl: superseded by a higher epoch; refusing follower", "seen", hello.epoch, "local", p.epoch.Load())
		return
	}

	// Resume only when the follower's last record provably matches ours;
	// anything else — fresh follower, compacted history, divergent tail
	// from a fenced primary — wipes and streams from our first record.
	start := hello.lastSeq + 1
	wipe := hello.lastSeq == 0 || !p.verifyTail(hello.lastSeq, hello.lastCRC)
	if wipe {
		start = p.first()
	}
	if err := p.welcome(conn, st, wipe, start); err != nil {
		log.Warn("repl: welcome write failed", "err", err)
		return
	}
	log.Info("repl: follower streaming", "from", start, "wiped", wipe)

	// Ack reader: its exit (deadline, close, error) tears the session down.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			conn.SetReadDeadline(time.Now().Add(6 * hb)) //nolint:errcheck
			body, err := snapshot.ReadFrame(br, snapshot.MaxFrame)
			if err != nil {
				return
			}
			f, err := decodeFrame(body)
			if err != nil || f.kind != kindAck {
				return
			}
			st.mu.Lock()
			if f.acked > st.acked {
				st.acked = f.acked
			}
			st.mu.Unlock()
			p.publishLag()
		}
	}()

	// Heartbeats ride a ticker; records ride the tail-follow loop below.
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(hb)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-t.C:
				if err := p.send(conn, st, encodeHeartbeat(p.epoch.Load(), p.log.LastSeq(), nowMicros())); err != nil {
					conn.Close() // unblocks the stream loop's WaitSeq via read side
					return
				}
				p.publishLag()
			}
		}
	}()
	defer func() {
		close(hbStop)
		hbWG.Wait()
	}()

	// sessStop ends the tail-follow when either the primary stops or the
	// follower goes away (its ack reader exits) — otherwise an idle log
	// would park WaitSeq forever on behalf of a dead connection.
	sessStop := make(chan struct{})
	go func() {
		select {
		case <-readerDone:
		case <-p.stop:
		}
		close(sessStop)
	}()

	// Stream loop: follow the log tail, shipping each new record. A
	// compaction gap mid-stream (slow follower) restarts it from the first
	// record on the same connection.
	next := start
	for {
		last, err := p.log.WaitSeq(next, sessStop)
		if err != nil {
			return // log closed, primary stopping, or follower gone
		}
		err = p.log.ReadRange(next, last, func(seq uint64, payload []byte) error {
			if err := p.send(conn, st, encodeRecord(p.epoch.Load(), seq, payload)); err != nil {
				return err
			}
			p.metricAdd("repl_records_shipped_total", 1)
			return nil
		})
		switch {
		case errors.Is(err, wal.ErrCompacted):
			next = p.first()
			if err := p.welcome(conn, st, true, next); err != nil {
				log.Warn("repl: welcome write failed", "err", err)
				return
			}
			log.Info("repl: follower lagged past compaction; wiped", "from", next)
		case err != nil:
			log.Info("repl: stream ended", "err", err)
			return
		default:
			next = last + 1
		}
	}
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

// welcome tells the follower where the stream starts and whether to
// wipe its state first.
func (p *Primary) welcome(conn net.Conn, st *connState, wipe bool, start uint64) error {
	if err := p.send(conn, st, encodeWelcome(p.epoch.Load(), wipe, start)); err != nil {
		return err
	}
	if wipe {
		p.metricAdd("repl_wipes_sent_total", 1)
	}
	return nil
}

// send writes one frame under the connection's write lock, counting
// bytes shipped.
func (p *Primary) send(conn net.Conn, st *connState, body []byte) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	conn.SetWriteDeadline(time.Now().Add(6 * p.opt.Heartbeat)) //nolint:errcheck
	n, err := conn.Write(snapshot.AppendFrame(nil, body))
	if n > 0 {
		p.metricAdd("repl_bytes_shipped_total", int64(n))
	}
	return err
}

// publishLag refreshes the worst-follower lag gauge.
func (p *Primary) publishLag() {
	lag, _ := p.Lag()
	p.setGauge("repl_lag_seqs", int64(lag))
}

func (p *Primary) metricAdd(name string, delta int64) {
	if p.opt.Metrics != nil {
		p.opt.Metrics.Add(name, delta)
	}
}

func (p *Primary) setGauge(name string, v int64) {
	if p.opt.Metrics != nil {
		p.opt.Metrics.SetGauge(name, v)
	}
}

// discardLogger is the nil-Logger default, matching serve's idiom.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}
