package diagnosis

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/datalog"
	"repro/internal/ddatalog"
	"repro/internal/dqsq"
	"repro/internal/obs"
	"repro/internal/petri"
	"repro/internal/term"
)

// This file holds what an online supervisor computes once per net.
//
// Figure 5's rewriting reads the program and the query's adornment, never
// the data, and the engine's activation (which drives Remark 2's lazy
// rewriting) walks rule bodies, not tuples. A session asks one query for
// its whole life, the standing query
//
//	q(z, i_1…i_k) :- configPrefixes(z, w, y, i_1…i_k), cut(z, m)
//
// with every argument free (a configuration id z lists its events, so z
// alone names a diagnosis). Everything its evaluation installs is thus a
// function of the net: Prog(N,M), the supervisor's rules, their distributed
// rewriting, its compiled per-peer form, which relations are active and who
// subscribes to whom, and what the alarm-free base facts already derive. A
// template is that state, built by priming a dQSQ session with the standing
// query (see dqsq.OnlineSession.Prime) and then frozen; sessions are clones
// of it.
//
// Because no index column is bound, configPrefixes is evaluated under two
// adornments only — all free, and the id-bound form the cut asks for —
// where a query binding the k final positions reaches one per subset
// of the columns the extension rules free: 2^k.

// template is the frozen per-net state. Nothing writes to it after
// newTemplate returns, so any number of goroutines may clone it at once.
type template struct {
	peers []petri.Peer // fixed index order: all net peers, sorted
	sess  *dqsq.OnlineSession
	// fingerprint digests the primed engine (ddatalog.Engine.Fingerprint):
	// a snapshot of one of its sessions restores onto this template only.
	fingerprint [sha256.Size]byte
}

// primeTimeout bounds the one evaluation round that primes a template. It
// moves no alarm, so it is generous rather than tuned.
const primeTimeout = time.Minute

// newTemplate builds the alarm-independent part of P_A(N,M,·) — Prog(N,M),
// the petriNet facts, the initial configuration, the extension and
// membership rules over the fixed all-peer index and the standing query —
// starts an online dQSQ session over it and primes it with the standing
// query. maxTermDepth is the Section 4.4 depth gadget, which the compiled
// program bakes in.
func newTemplate(pn *petri.PetriNet, maxTermDepth int) (*template, error) {
	padded, err := petri.Pad2(pn)
	if err != nil {
		return nil, err
	}
	peers := indexPeers(padded)
	p, err := buildSupervisor(padded, peers, func(p *ddatalog.Program) []term.ID {
		start := make([]term.ID, len(peers))
		for l, peer := range peers {
			start[l] = p.Store.Constant(idxConst(peer, 0))
		}
		return start
	})
	if err != nil {
		return nil, err
	}
	s := p.Store

	// The standing query, q(z, i_1…i_k) :- configPrefixes(z, w, y,
	// i_1…i_k), cut(z, m).
	z, w, y := s.Variable("Qz"), s.Variable("Qw"), s.Variable("Qy")
	prefix := []term.ID{z, w, y}
	head := []term.ID{z}
	for l := range peers {
		i := s.Variable(fmt.Sprintf("Qi%d", l))
		prefix = append(prefix, i)
		head = append(head, i)
	}
	q := ddatalog.PAtom{Rel: RelQuery, Peer: SupervisorPeer, Args: head}
	p.AddRule(ddatalog.PRule{
		Head: q,
		Body: []ddatalog.PAtom{
			{Rel: RelConfigPrefixes, Peer: SupervisorPeer, Args: prefix},
			cutAtom(s, z),
		},
	})

	sess, err := dqsq.NewOnlineSession(p, datalog.Budget{MaxTermDepth: maxTermDepth})
	if err != nil {
		return nil, err
	}
	if err := sess.Prime(q, primeTimeout); err != nil {
		return nil, fmt.Errorf("diagnosis: priming the session program: %w", err)
	}
	return &template{peers: peers, sess: sess, fingerprint: sess.Engine().Fingerprint()}, nil
}

// answers is the atom that reads, off the standing query, the diagnoses
// after the alarms counted so far: q(AnsZ, final...), where final
// holds, per index peer, the position after the counts[peer] alarms it has
// emitted.
func answers(s *term.Store, peers []petri.Peer, counts map[petri.Peer]int) ddatalog.PAtom {
	args := []term.ID{s.Variable("AnsZ")}
	for _, peer := range peers {
		args = append(args, s.Constant(idxConst(peer, counts[peer])))
	}
	return ddatalog.PAtom{Rel: RelQuery, Peer: SupervisorPeer, Args: args}
}

// session clones the template into a diagnoser for pn (the net the
// template was built from, or one with the same digest).
func (t *template) session(pn *petri.PetriNet, budget datalog.Budget) *OnlineDiagnoser {
	return &OnlineDiagnoser{
		pn:     pn,
		tmpl:   t,
		sess:   t.sess.Clone(budget),
		counts: make(map[petri.Peer]int),
		tracer: obs.Nop,
	}
}

// netDigest identifies the structure newTemplate reads: nodes with their
// peers, alarms and arcs, in declaration order (it fixes rule order), and
// the initial marking.
func netDigest(pn *petri.PetriNet) [sha256.Size]byte {
	h := sha256.New()
	var lenbuf [binary.MaxVarintLen64]byte
	str := func(s string) {
		h.Write(lenbuf[:binary.PutUvarint(lenbuf[:], uint64(len(s)))])
		h.Write([]byte(s))
	}
	ids := func(ids []petri.NodeID) {
		h.Write(lenbuf[:binary.PutUvarint(lenbuf[:], uint64(len(ids)))])
		for _, id := range ids {
			str(string(id))
		}
	}
	places := pn.Net.Places()
	ids(places)
	for _, id := range places {
		str(string(pn.Net.Place(id).Peer))
	}
	trans := pn.Net.Transitions()
	ids(trans)
	for _, id := range trans {
		t := pn.Net.Transition(id)
		str(string(t.Peer))
		str(string(t.Alarm))
		ids(t.Pre)
		ids(t.Post)
	}
	marked := make([]petri.NodeID, 0, len(pn.M0))
	for id, on := range pn.M0 {
		if on {
			marked = append(marked, id)
		}
	}
	sort.Slice(marked, func(i, j int) bool { return marked[i] < marked[j] })
	ids(marked)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// programCacheSize bounds the templates kept: a server diagnoses a handful
// of nets, and a template is the size of a warm session.
const programCacheSize = 8

// templateKey is what a template depends on.
type templateKey struct {
	net          [sha256.Size]byte
	maxTermDepth int
}

// cacheEntry is one template, built or being built. ready is closed once
// tmpl and err are set.
type cacheEntry struct {
	ready chan struct{}
	tmpl  *template
	err   error
	used  uint64 // cache clock at the last get
}

// programCache memoises templates process-wide: least recently used out,
// one build per key however many sessions ask at once.
var programCache = struct {
	mu           sync.Mutex
	entries      map[templateKey]*cacheEntry
	clock        uint64
	hits, misses uint64
}{entries: make(map[templateKey]*cacheEntry)}

// ProgramCacheStats reports the per-net program cache: creates that found
// their net's program cached (or being built), creates that built it, and
// the programs held now.
func ProgramCacheStats() (hits, misses uint64, entries int) {
	c := &programCache
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.entries)
}

// cachedTemplate returns the template of pn under maxTermDepth, building it
// if no earlier call has: built is then the span of the build, named after
// the net's digest, and zero otherwise. A failed build is not kept.
func cachedTemplate(pn *petri.PetriNet, maxTermDepth int) (t *template, built obs.Span, err error) {
	start := time.Now()
	c := &programCache
	key := templateKey{net: netDigest(pn), maxTermDepth: maxTermDepth}
	c.mu.Lock()
	c.clock++
	if e := c.entries[key]; e != nil {
		c.hits++
		e.used = c.clock
		c.mu.Unlock()
		<-e.ready
		return e.tmpl, obs.Span{}, e.err
	}
	c.misses++
	e := &cacheEntry{ready: make(chan struct{}), used: c.clock}
	if len(c.entries) >= programCacheSize {
		var oldest templateKey
		var min uint64
		for k, o := range c.entries {
			if min == 0 || o.used < min {
				oldest, min = k, o.used
			}
		}
		delete(c.entries, oldest) // its sessions, and callers waiting on it, keep it alive
	}
	c.entries[key] = e
	c.mu.Unlock()

	e.tmpl, e.err = newTemplate(pn, maxTermDepth)
	close(e.ready)
	if e.err != nil {
		c.mu.Lock()
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		c.mu.Unlock()
	}
	return e.tmpl, obs.Span{Track: "dqsq", Name: "template " + hex.EncodeToString(key.net[:6]), Start: start}, e.err
}
