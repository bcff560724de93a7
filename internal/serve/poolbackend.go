package serve

// The worker side of the session pool. PoolBackend adapts a session
// Store to pool.Backend, so a peerd process can execute the session
// operations a diagnosed frontend ships to it. Every method runs the
// same Store operation the HTTP handler runs, so it returns the exact
// JSON body — or the exact error message — the handler would have
// written: a pooled session's responses are byte-identical to a local
// one's, refusals included.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/snapshot"
	"repro/internal/wire"
)

// PoolBackend executes pooled session operations against a Store.
type PoolBackend struct {
	store *Store
}

// NewPoolBackend wraps the store. The backend counts every series into
// the store's registry — the one a Server over the same store would
// count into — so metrics is not used: a worker that passes its store's
// registry again (cmd/peerd does) counts each delete once, not twice.
func NewPoolBackend(store *Store, metrics *Metrics) *PoolBackend {
	return &PoolBackend{store: store}
}

// Create implements pool.Backend: admit a session under the
// frontend-assigned ID. Admission reuses Adopt's budget semantics — a
// full table or spent global budget refuses with ErrOverloaded, which
// the pool classifies as SessSaturated and places elsewhere.
func (b *PoolBackend) Create(id, netText, engineName string, maxFacts int) ([]byte, error) {
	sess, err := b.store.build(id, netText, engineName, maxFacts, time.Now())
	if err != nil {
		return nil, err
	}
	if err := b.store.Adopt(sess); err != nil {
		return nil, err
	}
	b.store.metrics.Add("diagnosed_sessions_created_total", 1)
	return encodeBody(newCreateResponse(sess)), nil
}

// Append implements pool.Backend: the append path handleAppend runs.
func (b *PoolBackend) Append(id, alarms string, timeout time.Duration) ([]byte, error) {
	return b.store.appendBody(id, alarms, timeout)
}

// Get implements pool.Backend: the session-state body of handleGet.
func (b *PoolBackend) Get(id string) ([]byte, error) { return b.store.getBody(id) }

// Delete implements pool.Backend.
func (b *PoolBackend) Delete(id string) error {
	if !b.store.Delete(id) {
		return errNoSession
	}
	return nil
}

// Ship implements pool.Backend: the session's checkpoint bytes, the
// same container a checkpoint record of the write-ahead log holds.
func (b *PoolBackend) Ship(id string) ([]byte, error) {
	sess, ok := b.store.Get(id, time.Now())
	if !ok {
		return nil, errNoSession
	}
	f := snapshot.New()
	if err := sess.EncodeSnapshot(f); err != nil {
		return nil, err
	}
	return f.Bytes(), nil
}

// Replay implements pool.Backend: rebuild the session from its
// frontend's records (serverWAL.Records packs them) with the apply path
// of boot replay, in place of any copy live under the ID. A record that
// does not apply is skipped, as boot replay skips it. A worker keeps no
// log, so its copy reports no checkpoint age.
func (b *PoolBackend) Replay(id string, records []byte, timeout time.Duration) error {
	b.store.Delete(id)
	for len(records) > 0 {
		rec, rest, err := snapshot.NextFrame(records)
		if err != nil {
			return badInput(err)
		}
		b.store.applyRecord(0, rec, timeout) //nolint:errcheck // skipped, see above
		records = rest
	}
	sess, ok := b.store.Get(id, time.Now())
	if !ok {
		return fmt.Errorf("session %s not rebuilt from its records: %w", id, errNoSession)
	}
	sess.lastSnap.Store(0)
	return nil
}

// Classify implements pool.Backend: the wire-code analogue of
// Server.fail's error→status mapping.
func (b *PoolBackend) Classify(err error) (code uint32, retryAfterMS uint32) {
	switch {
	case errors.Is(err, ErrBadInput):
		return wire.SessBad, 0
	case errors.Is(err, ErrExhausted):
		return wire.SessExhausted, 0
	case errors.Is(err, ErrOverloaded):
		return wire.SessSaturated, 1000
	case errors.Is(err, ErrDraining):
		return wire.SessDraining, 1000
	case errors.Is(err, ErrClosed):
		return wire.SessNotFound, 0
	case timeoutErr(err):
		return wire.SessTimeout, 0
	default:
		return wire.SessRetry, 0
	}
}

// Active implements pool.Backend.
func (b *PoolBackend) Active() int { return b.store.Len() }
